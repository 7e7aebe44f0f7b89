"""The shared process supervisor (:mod:`repro.analysis.workers`).

The dead-worker grace rule is defined once and used by both owners, so
one fake-harness scenario drives it through the portfolio race (on a
virtual clock) and through the service pool: a worker that flushed its
verdict just before exiting, and is seen dead for the whole grace, must
still have that verdict delivered.  One poll later, the same silence is
a crash.
"""

import queue as queue_module

import pytest

from repro.analysis import (AnalysisSpec, PortfolioError, PortfolioSession,
                            analyze, member_spec)
from repro.analysis.workers import (DEAD_WORKER_GRACE_POLLS, JOIN_TIMEOUT,
                                    MAX_RESPAWNS, POLL_INTERVAL,
                                    WorkerHarness, WorkerSlot,
                                    reap_processes)
from repro.petri.generators import figure1_net
from repro.petri.parser import dumps
from repro.service import AnalysisWorkerPool

#: The worker dies at t=1 on a clock that advances one unit per empty
#: poll, so a reply readable at ``DIES_AT + polls`` comes after the
#: worker was seen dead on ``polls`` polls.
DIES_AT = 1.0
DELIVERED = DEAD_WORKER_GRACE_POLLS
CRASHED = DEAD_WORKER_GRACE_POLLS + 1


class Clock:
    t = 0.0


class FakeProcess:
    def __init__(self, clock, dies_at=None):
        self.clock = clock
        self.dies_at = dies_at
        self.exitcode = 0
        self.pid = None

    def is_alive(self):
        return self.dies_at is None or self.clock.t < self.dies_at

    def terminate(self):
        self.dies_at = self.clock.t

    kill = terminate

    def join(self, timeout=None):
        pass


class ScriptedQueue:
    """``get`` returns the next ``(time, message)`` readable within the
    timeout, else advances the clock by the timeout and raises Empty."""

    def __init__(self, clock, events):
        self.clock = clock
        self.events = list(events)

    def get(self, timeout=None):
        if self.events and self.events[0][0] <= self.clock.t + timeout:
            at, message = self.events.pop(0)
            self.clock.t = max(self.clock.t, at)
            return message
        self.clock.t += timeout
        raise queue_module.Empty

    def put(self, item):
        pass


class FakeHarness(WorkerHarness):
    """Every created queue replays the same script (only the result
    queue is ever read); processes follow ``deaths`` by label."""

    def __init__(self, events=(), deaths=None):
        super().__init__()
        self.clock = Clock()
        self.events = events
        self.deaths = dict(deaths or {})
        self.result_queue = None

    def available(self):
        return True

    def create_queue(self):
        if self.result_queue is None:
            self.result_queue = ScriptedQueue(self.clock, self.events)
        return self.result_queue

    def spawn(self, label, target, args):
        return FakeProcess(self.clock, self.deaths.pop(label, None))

    def now(self):
        return self.clock.t

    def poll_interval(self):
        return 1.0


@pytest.fixture(scope="module")
def verdict():
    result = analyze(figure1_net(),
                     member_spec(AnalysisSpec(backend="portfolio"),
                                 "bdd-chained"))
    return result.to_dict()


def _race(events):
    harness = FakeHarness(events, deaths={"bdd-chained": DIES_AT})
    spec = AnalysisSpec(backend="portfolio", timeout=DIES_AT + CRASHED + 5,
                        portfolio_members=("bdd-chained", "zdd-chained"))
    return PortfolioSession(figure1_net(), spec, harness=harness).run()


def _pool_events(events):
    """Submit one request, let its worker die at ``DIES_AT`` and poll
    until the pool reports something."""
    pool = AnalysisWorkerPool(workers=1, harness=FakeHarness(events))
    assert pool.submit("r1", dumps(figure1_net()), {})
    pool.slots[0].process.dies_at = DIES_AT
    collected = []
    for _ in range(CRASHED + 2):
        collected.extend(pool.poll())
        if collected:
            break
    return pool, collected


class TestDeadWorkerGrace:
    def test_race_delivers_a_verdict_flushed_before_death(self, verdict):
        message = ("result", "bdd-chained", verdict, 0.01)
        result = _race([(DIES_AT + DELIVERED, message)])
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-chained"
        assert race["failures"] == []

    def test_race_declares_the_crash_one_poll_later(self, verdict):
        message = ("result", "bdd-chained", verdict, 0.01)
        with pytest.raises(PortfolioError) as excinfo:
            _race([(DIES_AT + CRASHED, message)])
        crash = [f for f in excinfo.value.failures if f.kind == "crash"]
        assert [f.member for f in crash] == ["bdd-chained"]

    def test_pool_delivers_a_verdict_flushed_before_death(self):
        reply = ("result", 0, "r1", {"markings": 8})
        pool, events = _pool_events([(DIES_AT + DELIVERED, reply)])
        assert events == [("result", "r1", {"markings": 8})]
        assert pool.crashes == []

    def test_pool_declares_the_crash_one_poll_later(self):
        reply = ("result", 0, "r1", {"markings": 8})
        pool, events = _pool_events([(DIES_AT + CRASHED, reply)])
        assert pool.crashes[0] == {"worker": 0, "pending": 1,
                                   "action": "respawn"}
        # The resubmitted request still resolves exactly once.
        assert events == [("result", "r1", {"markings": 8})]


def test_slot_respawns_then_retires():
    slot = WorkerSlot("w")
    actions = [slot.recover() for _ in range(MAX_RESPAWNS + 1)]
    assert actions == ["respawn"] * MAX_RESPAWNS + ["retire"]
    assert slot.retired


class TestWorkerSlot:
    def test_unspawned_slot_is_never_a_crash(self):
        slot = WorkerSlot("w")
        assert not slot.alive()
        assert not any(slot.crashed()
                       for _ in range(DEAD_WORKER_GRACE_POLLS + 3))

    def test_live_worker_is_never_a_crash(self):
        slot = WorkerSlot("w")
        slot.spawn(FakeHarness(), None, ())
        assert slot.alive()
        assert not any(slot.crashed()
                       for _ in range(DEAD_WORKER_GRACE_POLLS + 3))
        assert slot.dead_polls == 0

    def test_crash_falls_on_the_poll_after_the_grace(self):
        slot = WorkerSlot("w")
        slot.spawn(FakeHarness(deaths={"w": 0.0}), None, ())
        polls = [slot.crashed() for _ in range(DEAD_WORKER_GRACE_POLLS + 1)]
        assert polls == [False] * DEAD_WORKER_GRACE_POLLS + [True]

    def test_respawn_restarts_the_grace(self):
        harness = FakeHarness(deaths={"w": 0.0})
        slot = WorkerSlot("w")
        slot.spawn(harness, None, ())
        assert not slot.crashed()
        assert slot.dead_polls == 1
        harness.deaths["w"] = 0.0
        slot.spawn(harness, None, ())
        assert slot.dead_polls == 0
        polls = [slot.crashed() for _ in range(DEAD_WORKER_GRACE_POLLS + 1)]
        assert polls[-1] and not any(polls[:-1])


# ---------------------------------------------------------------------------
# The default harness, over a fake multiprocessing context


class _ProbeQueue:
    def __init__(self):
        self.closed = False
        self.joined = False

    def close(self):
        self.closed = True

    def join_thread(self):
        self.joined = True


class _RecordedProcess:
    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.started = False

    def start(self):
        self.started = True


class _FakeContext:
    def __init__(self, queue_error=None):
        self.queue_error = queue_error
        self.queues = []

    def Queue(self):
        if self.queue_error is not None:
            raise self.queue_error
        self.queues.append(_ProbeQueue())
        return self.queues[-1]

    def Process(self, **kwargs):
        return _RecordedProcess(**kwargs)


def _harness_over(context):
    harness = WorkerHarness()
    harness._ctx = context
    return harness


class TestWorkerHarness:
    def test_available_refuses_in_a_daemonic_parent(self, monkeypatch):
        import multiprocessing
        from types import SimpleNamespace
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
        context = _FakeContext()
        assert not _harness_over(context).available()
        assert context.queues == []  # refused before probing

    def test_available_refuses_without_queue_support(self):
        context = _FakeContext(queue_error=OSError("no semaphores"))
        assert not _harness_over(context).available()

    def test_available_releases_its_probe_queue(self):
        context = _FakeContext()
        assert _harness_over(context).available()
        probe, = context.queues
        assert probe.closed and probe.joined

    def test_spawn_starts_a_named_daemonic_process(self):
        harness = _harness_over(_FakeContext())
        process = harness.spawn("zdd-chained", print, ("x",))
        assert process.started
        assert process.kwargs == {"target": print, "args": ("x",),
                                  "name": "repro-zdd-chained",
                                  "daemon": True}

    def test_timing_defaults(self):
        harness = WorkerHarness()
        assert POLL_INTERVAL == 0.1
        assert harness.poll_interval() == POLL_INTERVAL
        first = harness.now()
        assert harness.now() >= first


# ---------------------------------------------------------------------------
# reap_processes


class _ReapedProcess:
    def __init__(self, alive=True, ignores_terminate=False, broken=False):
        self.alive = alive
        self.ignores_terminate = ignores_terminate
        self.broken = broken
        self.calls = []

    def is_alive(self):
        if self.broken:
            raise OSError("handle already closed")
        return self.alive

    def terminate(self):
        self.calls.append("terminate")
        if not self.ignores_terminate:
            self.alive = False

    def kill(self):
        self.calls.append("kill")
        self.alive = False

    def join(self, timeout=None):
        self.calls.append(("join", timeout))


class TestReapProcesses:
    def test_terminates_live_workers_and_joins_every_one(self):
        live, dead = _ReapedProcess(), _ReapedProcess(alive=False)
        reap_processes(iter([live, dead]))
        assert live.calls == ["terminate", ("join", JOIN_TIMEOUT)]
        assert dead.calls == [("join", JOIN_TIMEOUT)]

    def test_kills_a_worker_that_ignores_terminate(self):
        stubborn = _ReapedProcess(ignores_terminate=True)
        reap_processes([stubborn])
        assert stubborn.calls == ["terminate", ("join", JOIN_TIMEOUT),
                                  "kill", ("join", JOIN_TIMEOUT)]
        assert not stubborn.alive

    def test_a_broken_handle_does_not_stop_the_others(self):
        broken, live = _ReapedProcess(broken=True), _ReapedProcess()
        reap_processes([broken, live])
        assert not live.alive
        assert ("join", JOIN_TIMEOUT) in live.calls


# ---------------------------------------------------------------------------
# One supervisor under both owners


def test_both_owners_run_on_the_one_supervisor():
    from repro import analysis
    from repro.analysis import portfolio, workers
    from repro.service import pool, server
    assert analysis.WorkerHarness is workers.WorkerHarness
    for owner in (portfolio, pool):
        assert owner.WorkerHarness is workers.WorkerHarness
        assert owner.WorkerSlot is workers.WorkerSlot
        assert owner.reap_processes is workers.reap_processes
        assert owner.MAX_QUEUE_POISON is workers.MAX_QUEUE_POISON
    assert server.WorkerHarness is workers.WorkerHarness


def test_traced_entry_points_keep_their_shape():
    """External wrappers patch these by name: the portfolio's harness
    spawn and the pool's submit/poll."""
    import inspect
    from repro.analysis.portfolio import WorkerHarness as Reexported
    assert callable(Reexported.spawn)
    assert list(inspect.signature(AnalysisWorkerPool.submit).parameters) \
        == ["self", "request_id", "net_text", "spec_dict"]
    assert list(inspect.signature(AnalysisWorkerPool.poll).parameters) \
        == ["self"]
