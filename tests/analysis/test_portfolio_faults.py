"""Fault injection for the portfolio race, via the WorkerHarness seam.

The shared fakes of ``fake_workers`` (a virtual clock, scripted reply
pipes, fake process handles) run every failure mode deterministically
with no real processes: worker crash mid-solve, worker hang past the
member timeout, all members failing, checkpoint-resume retries, and
cancel-on-first-verdict actually terminating and joining the losers.
Garbled replies are covered with the pool in ``test_workers.py``.

Real-process integration tests close the loop on the acceptance
criteria, under both the ``fork`` and the ``spawn`` start method: a
worker SIGKILLed mid-race, or killed in the middle of writing its reply,
still yields a correct verdict from a survivor, and no child process
outlives the race.
"""

import multiprocessing
import os
import signal

import pytest
from fake_workers import Exit, FakeHarness, MidReplyKillHarness, Runs

from repro.analysis import (DEFAULT_PORTFOLIO_MEMBERS, AnalysisSpec,
                            PortfolioError, PortfolioSession, WorkerHarness,
                            analyze, member_spec)
from repro.petri.generators import figure1_net, philosophers


@pytest.fixture(scope="module")
def payload_for():
    """Real verdicts, as a worker would send them on its pipe."""
    results = {}

    def make(member, at):
        if member not in results:
            spec = member_spec(AnalysisSpec(backend="portfolio"), member)
            results[member] = analyze(figure1_net(), spec)
        result = results[member]
        return (at, ("result", result.to_dict(), result.seconds))

    return make


def race(harness, **spec_overrides):
    spec = AnalysisSpec(backend="portfolio", **spec_overrides)
    return PortfolioSession(figure1_net(), spec, harness=harness).run()


def outcome_of(result, member):
    rows = {row["member"]: row
            for row in result.extras["portfolio"]["members"]}
    return rows[member]["outcome"]


# ----------------------------------------------------------------------
# The injected faults
# ----------------------------------------------------------------------


class TestWorkerCrash:
    def test_crash_mid_solve_survivor_wins(self, payload_for):
        harness = FakeHarness({
            "bdd-functional": [(0.2, Exit(-signal.SIGSEGV))],
            "zdd-chained": [payload_for("zdd-chained", 1.0)]})
        result = race(harness,
                      portfolio_members=("bdd-functional", "zdd-chained"))
        assert result.markings == 8
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        assert outcome_of(result, "bdd-functional") == "crash"
        failures = result.extras["portfolio"]["failures"]
        crash = next(f for f in failures if f["kind"] == "crash")
        assert crash["member"] == "bdd-functional"
        # The exit code is surfaced in the structured record.
        assert crash["exitcode"] == -signal.SIGSEGV
        assert str(-signal.SIGSEGV) in crash["detail"]
        harness.assert_no_orphans()


class TestWorkerHang:
    def test_hang_past_member_timeout_survivor_wins(self, payload_for):
        # Spawns are staggered (0.3s each), so the hanging first member
        # exhausts its budget while the second is still inside its own.
        harness = FakeHarness(
            {"zdd-chained": [payload_for("zdd-chained", 0.6)]},
            spawn_cost=0.3)
        result = race(harness,
                      portfolio_members=("bdd-functional", "zdd-chained"),
                      member_timeout=0.5)
        assert result.extras["portfolio"]["winner"] == "zdd-chained"
        assert outcome_of(result, "bdd-functional") == "timeout"
        assert harness.processes["bdd-functional"].terminated
        failures = result.extras["portfolio"]["failures"]
        assert any(f["kind"] == "timeout"
                   and f["member"] == "bdd-functional" for f in failures)
        harness.assert_no_orphans()

    def test_global_timeout_fails_the_race(self):
        harness = FakeHarness()  # nobody ever answers
        with pytest.raises(PortfolioError) as excinfo:
            race(harness,
                 portfolio_members=("bdd-functional", "zdd-chained"),
                 timeout=2.0)
        kinds = {f.kind for f in excinfo.value.failures}
        assert kinds == {"timeout"}
        assert len(excinfo.value.failures) == 2
        assert harness.clock.t == pytest.approx(2.0, abs=0.2)
        harness.assert_no_orphans()


class TestAllMembersFail:
    def test_every_member_erroring_raises_portfolio_error(self):
        harness = FakeHarness({
            "bdd-functional": [(0.1, ("error", "RuntimeError: exceeded"))],
            "zdd-chained": [(0.2, ("error", "MemoryError: boom"))]})
        with pytest.raises(PortfolioError) as excinfo:
            race(harness,
                 portfolio_members=("bdd-functional", "zdd-chained"))
        failures = excinfo.value.failures
        assert {f.member for f in failures} == {"bdd-functional",
                                                "zdd-chained"}
        assert all(f.kind == "error" for f in failures)
        assert "MemoryError: boom" in str(excinfo.value)
        harness.assert_no_orphans()


class TestCancellation:
    def test_first_verdict_terminates_and_joins_losers(self, payload_for):
        harness = FakeHarness(
            {"bdd-functional": [payload_for("bdd-functional", 0.2)]})
        members = ("bdd-functional", "zdd-chained", "kbounded")
        result = race(harness, portfolio_members=members)
        assert harness.spawned == list(members)
        assert result.extras["portfolio"]["winner"] == "bdd-functional"
        for loser in members[1:]:
            assert outcome_of(result, loser) == "cancelled"
            assert harness.processes[loser].terminated, loser
        harness.assert_no_orphans()

    def test_late_message_from_resolved_member_is_ignored(
            self, payload_for):
        # The loser's verdict lands after the winner's: no failure, no
        # double-win.
        harness = FakeHarness({
            "bdd-functional": [payload_for("bdd-functional", 0.2)],
            "zdd-chained": [payload_for("zdd-chained", 0.2)]})
        result = race(harness,
                      portfolio_members=("bdd-functional", "zdd-chained"))
        assert result.extras["portfolio"]["winner"] == "bdd-functional"


# ----------------------------------------------------------------------
# Real processes: the acceptance-criterion integration tests
# ----------------------------------------------------------------------


class KillOneHarness(WorkerHarness):
    """Spawns real workers, then SIGKILLs one mid-race."""

    def __init__(self, victim, start_method=None):
        super().__init__(start_method)
        self.victim = victim

    def spawn(self, member, target, args):
        process, reader = super().spawn(member, target, args)
        if member == self.victim:
            os.kill(process.pid, signal.SIGKILL)
        return process, reader


needs_multiprocessing = pytest.mark.skipif(
    not WorkerHarness().available(),
    reason="platform cannot run multiprocessing queues")

START_METHODS = [
    pytest.param(method, marks=pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(),
        reason=f"no {method} start method on this platform"))
    for method in ("fork", "spawn")]


@needs_multiprocessing
class TestRealProcesses:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_killed_worker_mid_race_survivor_wins(self, start_method):
        harness = KillOneHarness("bdd-functional", start_method)
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

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_worker_killed_mid_reply_survivor_wins(self, start_method):
        # The victim writes half a reply frame, then SIGKILLs itself:
        # only its own pipe is cut, and the survivor's verdict arrives.
        harness = MidReplyKillHarness("bdd-functional", start_method,
                                      serve=False)
        spec = AnalysisSpec(
            backend="portfolio",
            portfolio_members=("bdd-functional", "zdd-chained"),
            timeout=60.0)
        result = PortfolioSession(philosophers(3), spec,
                                  harness=harness).run()
        race = result.extras["portfolio"]
        assert race["winner"] == "zdd-chained"
        crash, = race["failures"]
        assert (crash["member"], crash["kind"], crash["exitcode"]) == \
            ("bdd-functional", "crash", -signal.SIGKILL)
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
        assert len(excinfo.value.failures) == len(DEFAULT_PORTFOLIO_MEMBERS)
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
        harness = FakeHarness({"bdd-functional": Runs(
            [(0.2, Exit(-signal.SIGKILL))],
            [payload_for("bdd-functional", 2.5)])})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-functional",),
            checkpointed=("bdd-functional",))
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-functional"
        assert result.markings == 8
        # The member was spawned twice and won on its second attempt.
        assert harness.spawned == ["bdd-functional", "bdd-functional"]
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-functional"]["outcome"] == "won"
        assert rows["bdd-functional"]["attempts"] == 2
        # The retry event is in the telemetry, with the crash on file.
        assert len(race["retries"]) == 1
        retry = race["retries"][0]
        assert retry["member"] == "bdd-functional"
        assert retry["reason"] == "crash"
        assert retry["attempt"] == 1
        assert retry["checkpoint"].endswith(".bdd-functional")
        assert any(f["kind"] == "crash" for f in race["failures"])
        (_, dying, _), _revived = harness.workers
        assert not dying.is_alive()
        harness.assert_no_orphans()

    def test_member_timeout_with_checkpoint_is_retried(
            self, payload_for, tmp_path):
        # The first attempt never finishes on its own.
        harness = FakeHarness({"bdd-functional": Runs(
            [], [payload_for("bdd-functional", 1.3)])})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-functional",),
            checkpointed=("bdd-functional",),
            member_timeout=0.5)
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-functional"
        (_, hung, _), _revived = harness.workers
        assert hung.terminated  # the hung attempt was really stopped
        assert len(race["retries"]) == 1
        assert race["retries"][0]["reason"] == "timeout"
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-functional"]["attempts"] == 2

    def test_no_checkpoint_file_means_no_retry(self, tmp_path):
        # checkpoint_path is set, but the member never wrote its file:
        # nothing to resume from, so the crash resolves immediately.
        harness = FakeHarness({"bdd-functional": [(0.1, Exit(-9))]})
        with pytest.raises(PortfolioError):
            race_with_checkpoint(harness, tmp_path, ("bdd-functional",),
                                 checkpointed=())
        assert harness.spawned == ["bdd-functional"]

    def test_retries_are_bounded(self, tmp_path):
        # Every attempt crashes: the original plus MEMBER_MAX_RETRIES
        # retries, then the member is written off and the race fails.
        from repro.analysis.portfolio import MEMBER_MAX_RETRIES
        harness = FakeHarness({"bdd-functional": Runs(
            *([(0.1 + 2.0 * i, Exit(-9))]
              for i in range(MEMBER_MAX_RETRIES + 1)))})
        with pytest.raises(PortfolioError) as excinfo:
            race_with_checkpoint(harness, tmp_path, ("bdd-functional",),
                                 checkpointed=("bdd-functional",))
        assert len(harness.spawned) == MEMBER_MAX_RETRIES + 1
        crashes = [f for f in excinfo.value.failures
                   if f.kind == "crash"]
        assert len(crashes) == MEMBER_MAX_RETRIES + 1
        harness.assert_no_orphans()

    def test_winner_cancels_a_pending_retry(self, payload_for,
                                            tmp_path):
        # bdd-functional crashes and is waiting out its backoff when
        # zdd-chained wins: the pending retry resolves as cancelled.
        harness = FakeHarness({
            "bdd-functional": [(0.1, Exit(-9))],
            "zdd-chained": [payload_for("zdd-chained", 0.55)]})
        result = race_with_checkpoint(
            harness, tmp_path, ("bdd-functional", "zdd-chained"),
            checkpointed=("bdd-functional",))
        race = result.extras["portfolio"]
        assert race["winner"] == "zdd-chained"
        rows = {r["member"]: r for r in race["members"]}
        assert rows["bdd-functional"]["outcome"] == "cancelled"
        assert len(race["retries"]) == 1
        # Only the two original spawns: the retry never launched.
        assert sorted(harness.spawned) == ["bdd-functional", "zdd-chained"]

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
