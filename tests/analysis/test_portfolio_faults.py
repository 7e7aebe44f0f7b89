"""Fault injection for the portfolio race, via the WorkerHarness seam.

A virtual clock, a scripted queue and fake process handles let every
failure mode run deterministically with no real processes: worker
crash mid-solve, worker hang past the member timeout, all members
failing, a queue poisoned with unreadable or malformed payloads, and
cancel-on-first-verdict actually terminating and joining the losers.

Two real-process integration tests close the loop on the acceptance
criterion: a worker ``SIGKILL``-ed mid-race still yields a correct
verdict from a survivor, and no child processes outlive the race.
"""

import multiprocessing
import os
import pickle
import queue as queue_module
import signal

import pytest

from repro.analysis import (AnalysisSpec, MemberFailure, PortfolioError,
                            PortfolioSession, WorkerHarness, analyze,
                            member_spec)
from repro.petri.generators import figure1_net, philosophers

# ----------------------------------------------------------------------
# Virtual-clock fakes
# ----------------------------------------------------------------------


class VirtualClock:
    def __init__(self):
        self.t = 0.0


class ScriptedQueue:
    """Delivers scripted ``(time, event)`` pairs against the clock.

    ``get(timeout)`` returns the next event whose time falls inside the
    window, advancing the clock to it; events that are exceptions are
    raised (the poisoned-queue case).  Otherwise the clock advances by
    the full timeout and ``queue.Empty`` is raised, exactly like the
    real queue — just without wall-clock waiting.
    """

    def __init__(self, clock, events=()):
        self.clock = clock
        self.events = sorted(events, key=lambda item: item[0])

    def get(self, timeout):
        if self.events and self.events[0][0] <= self.clock.t + timeout:
            at, event = self.events.pop(0)
            self.clock.t = max(self.clock.t, at)
            if isinstance(event, BaseException):
                raise event
            return event
        self.clock.t += timeout
        raise queue_module.Empty


class FakeHandle:
    """A process handle whose liveness is a function of virtual time."""

    def __init__(self, clock, dies_at=None, exitcode=1):
        self.clock = clock
        self.dies_at = dies_at
        self.death_exitcode = exitcode
        self.terminated = False
        self.killed = False
        self.joined = False

    def is_alive(self):
        if self.terminated or self.killed:
            return False
        return self.dies_at is None or self.clock.t < self.dies_at

    @property
    def exitcode(self):
        if self.is_alive():
            return None
        if self.terminated or self.killed:
            return -signal.SIGTERM
        return self.death_exitcode

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True

    def join(self, timeout=None):
        self.joined = True


class FakeHarness(WorkerHarness):
    """Scripted member behavior; never touches multiprocessing."""

    def __init__(self, clock, events=(), handles=None, spawn_cost=0.0):
        super().__init__()
        self.clock = clock
        self.queue = ScriptedQueue(clock, events)
        self.handles = handles or {}
        self.spawn_cost = spawn_cost
        self.spawned = []

    def available(self):
        return True

    def create_queue(self):
        return self.queue

    def spawn(self, member, target, args):
        self.clock.t += self.spawn_cost
        self.spawned.append(member)
        handle = self.handles.get(member)
        if handle is None:
            handle = FakeHandle(self.clock)
            self.handles[member] = handle
        return handle

    def now(self):
        return self.clock.t

    def poll_interval(self):
        return 0.05


@pytest.fixture(scope="module")
def payload_for():
    """Real result payloads, as a worker would put them on the queue."""
    results = {}

    def make(member, at):
        if member not in results:
            spec = member_spec(AnalysisSpec(backend="portfolio"), member)
            results[member] = analyze(figure1_net(), spec)
        result = results[member]
        return (at, ("result", member, result.to_dict(), result.seconds))

    return make


def race(harness, **spec_overrides):
    spec = AnalysisSpec(backend="portfolio", **spec_overrides)
    return PortfolioSession(figure1_net(), spec, harness=harness).run()


def outcome_of(result, member):
    rows = {row["member"]: row
            for row in result.extras["portfolio"]["members"]}
    return rows[member]["outcome"]


def assert_no_orphans(harness):
    """Every spawned handle ended dead and joined — no orphans."""
    for member, handle in harness.handles.items():
        assert not handle.is_alive(), member
        assert handle.joined, member


# ----------------------------------------------------------------------
# The injected faults
# ----------------------------------------------------------------------


class TestWorkerCrash:
    def test_crash_mid_solve_survivor_wins(self, payload_for):
        clock = VirtualClock()
        harness = FakeHarness(
            clock,
            events=[payload_for("zdd-chained", 1.0)],
            handles={"bdd-chained": FakeHandle(clock, dies_at=0.2,
                                               exitcode=-signal.SIGSEGV)})
        result = race(harness,
                      portfolio_members=("bdd-chained", "zdd-chained"))
        assert result.markings == 8
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        assert outcome_of(result, "bdd-chained") == "crash"
        failures = result.extras["portfolio"]["failures"]
        crash = next(f for f in failures if f["kind"] == "crash")
        assert crash["member"] == "bdd-chained"
        # The exit code is surfaced in the structured record.
        assert crash["exitcode"] == -signal.SIGSEGV
        assert str(-signal.SIGSEGV) in crash["detail"]
        assert_no_orphans(harness)

    def test_exited_worker_with_flushed_verdict_is_not_a_crash(
            self, payload_for):
        # A worker that finishes and exits may be seen dead before its
        # verdict is read; the grace polls must deliver the verdict
        # instead of declaring a crash.
        clock = VirtualClock()
        harness = FakeHarness(
            clock,
            events=[payload_for("bdd-chained", 0.30)],
            handles={"bdd-chained": FakeHandle(clock, dies_at=0.25,
                                               exitcode=0)})
        result = race(harness, portfolio_members=("bdd-chained",
                                                  "zdd-chained"))
        assert result.extras["portfolio"]["winner"] == "bdd-chained"
        assert result.extras["portfolio"]["failures"] == []


class TestWorkerHang:
    def test_hang_past_member_timeout_survivor_wins(self, payload_for):
        # Spawns are staggered (0.3s each), so the hanging first member
        # exhausts its budget while the second is still inside its own.
        clock = VirtualClock()
        hang = FakeHandle(clock)  # never dies on its own
        harness = FakeHarness(
            clock,
            events=[payload_for("zdd-chained", 0.6)],
            handles={"bdd-chained": hang},
            spawn_cost=0.3)
        result = race(harness,
                      portfolio_members=("bdd-chained", "zdd-chained"),
                      member_timeout=0.5)
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        assert outcome_of(result, "bdd-chained") == "timeout"
        assert hang.terminated
        failures = result.extras["portfolio"]["failures"]
        assert any(f["kind"] == "timeout"
                   and f["member"] == "bdd-chained" for f in failures)
        assert_no_orphans(harness)

    def test_global_timeout_fails_the_race(self):
        clock = VirtualClock()
        harness = FakeHarness(clock)  # nobody ever answers
        with pytest.raises(PortfolioError) as excinfo:
            race(harness,
                 portfolio_members=("bdd-chained", "zdd-chained"),
                 timeout=2.0)
        kinds = {f.kind for f in excinfo.value.failures}
        assert kinds == {"timeout"}
        assert len(excinfo.value.failures) == 2
        assert clock.t == pytest.approx(2.0, abs=0.2)
        assert_no_orphans(harness)


class TestAllMembersFail:
    def test_every_member_erroring_raises_portfolio_error(self):
        clock = VirtualClock()
        events = [
            (0.1, ("error", "bdd-chained", "RuntimeError: exceeded")),
            (0.2, ("error", "zdd-chained", "MemoryError: boom")),
        ]
        harness = FakeHarness(clock, events=events)
        with pytest.raises(PortfolioError) as excinfo:
            race(harness,
                 portfolio_members=("bdd-chained", "zdd-chained"))
        failures = excinfo.value.failures
        assert {f.member for f in failures} == {"bdd-chained",
                                                "zdd-chained"}
        assert all(f.kind == "error" for f in failures)
        assert "MemoryError: boom" in str(excinfo.value)
        assert_no_orphans(harness)


class TestPoisonedQueue:
    def test_unreadable_payload_race_continues(self, payload_for):
        clock = VirtualClock()
        poison = pickle.UnpicklingError("invalid load key, 'x'")
        harness = FakeHarness(
            clock,
            events=[(0.1, poison), payload_for("zdd-chained", 0.5)])
        result = race(harness,
                      portfolio_members=("bdd-chained", "zdd-chained"))
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        queue_failures = [f for f in
                          result.extras["portfolio"]["failures"]
                          if f["kind"] == "queue"]
        assert len(queue_failures) == 1
        # Poison cannot be attributed to a member.
        assert queue_failures[0]["member"] is None
        assert "UnpicklingError" in queue_failures[0]["detail"]

    def test_malformed_payload_race_continues(self, payload_for):
        clock = VirtualClock()
        harness = FakeHarness(
            clock,
            events=[(0.1, ("gibberish",)),
                    payload_for("zdd-chained", 0.5)])
        result = race(harness,
                      portfolio_members=("bdd-chained", "zdd-chained"))
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        assert any(f["kind"] == "queue" and "malformed" in f["detail"]
                   for f in result.extras["portfolio"]["failures"])

    def test_persistently_poisoned_queue_aborts_cleanly(self):
        clock = VirtualClock()
        events = [(0.1 * i, pickle.UnpicklingError("poison"))
                  for i in range(1, 6)]
        harness = FakeHarness(clock, events=events)
        with pytest.raises(PortfolioError) as excinfo:
            race(harness,
                 portfolio_members=("bdd-chained", "zdd-chained"))
        assert any(f.kind == "queue" for f in excinfo.value.failures)
        assert any("queue unusable" in f.detail
                   for f in excinfo.value.failures)
        assert_no_orphans(harness)


class TestCancellation:
    def test_first_verdict_terminates_and_joins_losers(self, payload_for):
        clock = VirtualClock()
        harness = FakeHarness(
            clock, events=[payload_for("bdd-functional", 0.2)])
        members = ("bdd-functional", "bdd-chained", "zdd-chained",
                   "kbounded")
        result = race(harness, portfolio_members=members)
        assert harness.spawned == list(members)
        assert result.extras["portfolio"]["winner"] == "bdd-functional"
        for loser in members[1:]:
            assert outcome_of(result, loser) == "cancelled"
            assert harness.handles[loser].terminated, loser
        assert_no_orphans(harness)

    def test_late_message_from_resolved_member_is_ignored(
            self, payload_for):
        # The loser's verdict lands after the winner's: no failure, no
        # double-win.
        clock = VirtualClock()
        harness = FakeHarness(
            clock,
            events=[payload_for("bdd-chained", 0.2),
                    payload_for("zdd-chained", 0.2)])
        result = race(harness,
                      portfolio_members=("bdd-chained", "zdd-chained"))
        assert result.extras["portfolio"]["winner"] == "bdd-chained"


# ----------------------------------------------------------------------
# Real processes: the acceptance-criterion integration tests
# ----------------------------------------------------------------------


class KillOneHarness(WorkerHarness):
    """Spawns real workers, then SIGKILLs one mid-race."""

    def __init__(self, victim):
        super().__init__()
        self.victim = victim

    def spawn(self, member, target, args):
        process = super().spawn(member, target, args)
        if member == self.victim:
            os.kill(process.pid, signal.SIGKILL)
        return process


needs_multiprocessing = pytest.mark.skipif(
    not WorkerHarness().available(),
    reason="platform cannot run multiprocessing queues")


@needs_multiprocessing
class TestRealProcesses:
    def test_killed_worker_mid_race_survivor_wins(self):
        harness = KillOneHarness(victim="bdd-functional")
        spec = AnalysisSpec(
            backend="portfolio",
            portfolio_members=("bdd-functional", "zdd-chained"),
            timeout=60.0)
        result = PortfolioSession(figure1_net(), spec,
                                  harness=harness).run()
        assert result.markings == 8
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        crash = next(f for f in result.extras["portfolio"]["failures"]
                     if f["kind"] == "crash")
        assert crash["member"] == "bdd-functional"
        assert crash["exitcode"] == -signal.SIGKILL
        assert multiprocessing.active_children() == []

    def test_race_leaves_no_live_children(self):
        result = analyze(figure1_net(),
                         AnalysisSpec(backend="portfolio", timeout=60.0))
        assert result.markings == 8
        assert result.extras["portfolio"]["mode"] == "process"
        assert multiprocessing.active_children() == []

    def test_all_members_fail_for_real(self):
        # max_iterations=1 threads through to every member, and no
        # member's fixpoint converges that fast: a real all-fail race.
        with pytest.raises(PortfolioError) as excinfo:
            analyze(philosophers(3),
                    AnalysisSpec(backend="portfolio", max_iterations=1,
                                 timeout=60.0))
        assert len(excinfo.value.failures) == 4
        assert all(f.kind == "error" for f in excinfo.value.failures)
        assert all("exceeded 1 iterations" in f.detail
                   for f in excinfo.value.failures)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_real_member_timeout_terminates_the_laggard(self):
        # phil-6 with a millisecond budget: every member times out and
        # is terminated for real, none survives as a zombie.
        with pytest.raises(PortfolioError) as excinfo:
            analyze(philosophers(6),
                    AnalysisSpec(backend="portfolio",
                                 member_timeout=0.001, timeout=60.0))
        assert all(f.kind == "timeout" for f in excinfo.value.failures)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_phil6_race_matches_member_verdicts(self):
        result = analyze(philosophers(6),
                         AnalysisSpec(backend="portfolio", timeout=120.0))
        parent = AnalysisSpec(backend="portfolio")
        for member in parent.resolved_members:
            direct = analyze(philosophers(6),
                             member_spec(parent, member))
            assert direct.markings == result.markings, member
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Checkpoint-resume retries
# ----------------------------------------------------------------------


class RespawningHarness(FakeHarness):
    """Like FakeHarness, but each spawn attempt pops a fresh handle
    from a per-member list — the retry path respawns members, and a
    fake must not resurrect the dead handle of the failed attempt."""

    def __init__(self, clock, events=(), handle_queues=None,
                 spawn_cost=0.0):
        super().__init__(clock, events=events, handles={},
                         spawn_cost=spawn_cost)
        self.handle_queues = dict(handle_queues or {})
        self.all_handles = []

    def spawn(self, member, target, args):
        self.clock.t += self.spawn_cost
        self.spawned.append(member)
        pending = self.handle_queues.get(member)
        handle = pending.pop(0) if pending else FakeHandle(self.clock)
        self.handles[member] = handle
        self.all_handles.append((member, handle))
        return handle


def race_with_checkpoint(harness, tmp_path, members,
                         checkpointed=(), **spec_overrides):
    """Run a fake race with --checkpoint set; ``checkpointed`` members
    get a pre-existing member checkpoint file (existence is what makes
    them retry-eligible)."""
    path = tmp_path / "race.ckpt"
    for member in checkpointed:
        (tmp_path / f"race.ckpt.{member}").write_text("stub\n")
    spec = AnalysisSpec(backend="portfolio",
                        portfolio_members=members,
                        checkpoint_path=str(path), **spec_overrides)
    return PortfolioSession(figure1_net(), spec, harness=harness).run()


class TestCheckpointRetries:
    def test_crash_with_checkpoint_is_retried_and_wins(
            self, payload_for, tmp_path):
        clock = VirtualClock()
        dying = FakeHandle(clock, dies_at=0.2, exitcode=-signal.SIGKILL)
        revived = FakeHandle(clock)
        harness = RespawningHarness(
            clock,
            events=[payload_for("bdd-chained", 2.5)],
            handle_queues={"bdd-chained": [dying, revived]})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-chained",),
            checkpointed=("bdd-chained",))
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-chained"
        assert result.markings == 8
        # The member was spawned twice and won on its second attempt.
        assert harness.spawned == ["bdd-chained", "bdd-chained"]
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-chained"]["outcome"] == "won"
        assert rows["bdd-chained"]["attempts"] == 2
        # The retry event is in the telemetry, with the crash on file.
        assert len(race["retries"]) == 1
        retry = race["retries"][0]
        assert retry["member"] == "bdd-chained"
        assert retry["reason"] == "crash"
        assert retry["attempt"] == 1
        assert retry["checkpoint"].endswith(".bdd-chained")
        assert any(f["kind"] == "crash" for f in race["failures"])
        # The resumed spec really asks for a resume.
        assert dying.terminated or not dying.is_alive()

    def test_member_timeout_with_checkpoint_is_retried(
            self, payload_for, tmp_path):
        clock = VirtualClock()
        hung = FakeHandle(clock)   # never finishes on its own
        revived = FakeHandle(clock)
        harness = RespawningHarness(
            clock,
            events=[payload_for("bdd-chained", 1.3)],
            handle_queues={"bdd-chained": [hung, revived]})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-chained",),
            checkpointed=("bdd-chained",),
            member_timeout=0.5)
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-chained"
        assert hung.terminated  # the hung attempt was really stopped
        assert len(race["retries"]) == 1
        assert race["retries"][0]["reason"] == "timeout"
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-chained"]["attempts"] == 2

    def test_no_checkpoint_file_means_no_retry(self, tmp_path):
        # checkpoint_path is set, but the member never wrote its file:
        # nothing to resume from, so the crash resolves immediately.
        clock = VirtualClock()
        harness = RespawningHarness(
            clock,
            handle_queues={"bdd-chained": [
                FakeHandle(clock, dies_at=0.1, exitcode=-9)]})
        with pytest.raises(PortfolioError):
            race_with_checkpoint(harness, tmp_path, ("bdd-chained",),
                                 checkpointed=())
        assert harness.spawned == ["bdd-chained"]

    def test_retries_are_bounded(self, tmp_path):
        # Every attempt crashes: the original plus MEMBER_MAX_RETRIES
        # retries, then the member is written off and the race fails.
        from repro.analysis.portfolio import MEMBER_MAX_RETRIES
        clock = VirtualClock()
        handles = [FakeHandle(clock, dies_at=0.1 + 2.0 * i, exitcode=-9)
                   for i in range(MEMBER_MAX_RETRIES + 1)]
        harness = RespawningHarness(
            clock, handle_queues={"bdd-chained": list(handles)})
        with pytest.raises(PortfolioError) as excinfo:
            race_with_checkpoint(harness, tmp_path, ("bdd-chained",),
                                 checkpointed=("bdd-chained",))
        assert len(harness.spawned) == MEMBER_MAX_RETRIES + 1
        crashes = [f for f in excinfo.value.failures
                   if f.kind == "crash"]
        assert len(crashes) == MEMBER_MAX_RETRIES + 1
        for handle in handles:
            assert not handle.is_alive()

    def test_winner_cancels_a_pending_retry(self, payload_for,
                                            tmp_path):
        # bdd-chained crashes and is waiting out its backoff when
        # zdd-chained wins: the pending retry resolves as cancelled.
        clock = VirtualClock()
        harness = RespawningHarness(
            clock,
            events=[payload_for("zdd-chained", 0.55)],
            handle_queues={"bdd-chained": [
                FakeHandle(clock, dies_at=0.1, exitcode=-9)]})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-chained", "zdd-chained"),
            checkpointed=("bdd-chained",))
        race = result.extras["portfolio"]
        assert race["winner"] == "zdd-chained"
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-chained"]["outcome"] == "cancelled"
        assert len(race["retries"]) == 1
        # Only the two original spawns: the retry never launched.
        assert sorted(harness.spawned) == ["bdd-chained", "zdd-chained"]

    def test_member_specs_carry_per_member_checkpoints(self, tmp_path):
        from repro.analysis import member_checkpoint_path
        spec = AnalysisSpec(backend="portfolio",
                            checkpoint_path=str(tmp_path / "r.ckpt"),
                            checkpoint_every=3)
        mspec = member_spec(spec, "zdd-chained")
        assert mspec.checkpoint_path == str(tmp_path / "r.ckpt") \
            + ".zdd-chained"
        assert mspec.checkpoint_path == member_checkpoint_path(
            spec, "zdd-chained")
        assert mspec.checkpoint_every == 3
        # Without a portfolio checkpoint, members get none either.
        assert member_spec(AnalysisSpec(backend="portfolio"),
                           "zdd-chained").checkpoint_path is None
