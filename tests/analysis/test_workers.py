"""The shared process supervisor (:mod:`repro.analysis.workers`).

Every worker replies over its own pipe, so one rule serves both owners:
a reply is read before the end of file that follows it, and end of file
or a reply that cannot be read is the sender's crash.  The shared fakes
of ``fake_workers`` drive that rule through the portfolio race and the
service pool on a virtual clock; the real-process cases at the bottom
check that the default harness keeps no stray descriptors.
"""

import gc
import multiprocessing
import os
import threading
import time

import pytest
from fake_workers import EOF, GARBAGE, Exit, FakeHarness

from repro.analysis import (AnalysisSpec, PortfolioError, PortfolioSession,
                            analyze, member_spec)
from repro.analysis.workers import (JOIN_TIMEOUT, MAX_RESPAWNS,
                                    POLL_INTERVAL, WorkerHarness,
                                    WorkerSlot, reap_processes)
from repro.petri.generators import figure1_net
from repro.petri.parser import dumps
from repro.service import AnalysisWorkerPool

MEMBERS = ("bdd-chained", "zdd-chained")


@pytest.fixture(scope="module")
def verdict():
    result = analyze(figure1_net(),
                     member_spec(AnalysisSpec(backend="portfolio"),
                                 "bdd-chained"))
    return ("result", result.to_dict(), result.seconds)


def _race(scripts, timeout=5.0):
    harness = FakeHarness(scripts)
    spec = AnalysisSpec(backend="portfolio", timeout=timeout,
                        portfolio_members=MEMBERS)
    try:
        return PortfolioSession(figure1_net(), spec, harness=harness).run()
    finally:
        harness.assert_no_orphans()


def _pool(script, polls=5):
    """Submit one request to a one-worker pool whose worker plays
    ``script`` (a respawn plays nothing); poll ``polls`` times."""
    harness = FakeHarness({"service-0": script}, poll_interval=1.0)
    pool = AnalysisWorkerPool(workers=1, harness=harness)
    assert pool.submit("r1", dumps(figure1_net()), {})
    events = []
    for _ in range(polls):
        events.extend(pool.poll())
    pool.close()
    harness.assert_no_orphans()
    return pool, events


REPLY = ("result", "r1", {"markings": 8})


class TestReplyBeforeEndOfFile:
    """A verdict written just before exit is delivered, not a crash."""

    def test_race_delivers_a_verdict_sent_before_exit(self, verdict):
        result = _race({"bdd-chained": [(1.0, verdict), (1.0, EOF)]})
        race = result.extras["portfolio"]
        assert race["winner"] == "bdd-chained"
        assert race["failures"] == []

    def test_race_books_end_of_file_without_a_verdict_as_a_crash(self):
        with pytest.raises(PortfolioError) as excinfo:
            _race({"bdd-chained": [(1.0, Exit(3))]}, timeout=2.0)
        crash, = [f for f in excinfo.value.failures if f.kind == "crash"]
        assert (crash.member, crash.exitcode) == ("bdd-chained", 3)

    def test_pool_delivers_a_reply_sent_before_exit(self):
        pool, events = _pool([(1.0, REPLY), (1.0, EOF)])
        assert events == [("result", "r1", {"markings": 8})]
        # The exit is still an (idle) crash, booked after the reply.
        assert pool.crashes == [{"worker": 0, "pending": 0,
                                 "action": "respawn"}]

    def test_pool_resubmits_a_request_whose_worker_exited_silently(self):
        pool, events = _pool([(1.0, EOF)])
        assert events == []
        assert pool.crashes == [{"worker": 0, "pending": 1,
                                 "action": "respawn"}]
        # The replacement worker got the request on its own queue
        # (then the stop of ``close``).
        assert pool.slots[0].task_queue.items == [
            ("run", "r1", dumps(figure1_net()), {}), ("stop",)]
        assert pool.inflight == 1


class TestGarbledReply:
    """A reply that cannot be read, or a malformed one, is a crash of
    its sender, and of its sender only."""

    @pytest.mark.parametrize("garbage", [GARBAGE, ("gibberish",)],
                             ids=["unreadable", "malformed"])
    def test_race_goes_on_with_the_survivors(self, verdict, garbage):
        result = _race({"bdd-chained": [(0.1, garbage)],
                        "zdd-chained": [(0.5, verdict)]})
        race = result.extras["portfolio"]
        assert race["winner"] == "zdd-chained"
        crash, = race["failures"]
        assert crash["member"] == "bdd-chained"
        assert crash["kind"] == "crash"

    @pytest.mark.parametrize("garbage", [GARBAGE, ("gibberish",)],
                             ids=["unreadable", "malformed"])
    def test_pool_respawns_the_sender(self, garbage):
        pool, events = _pool([(0.1, garbage)])
        assert pool.crashes == [{"worker": 0, "pending": 1,
                                 "action": "respawn"}]
        assert pool.stats()["respawns"] == 1
        assert events == []  # the request waits for the replacement


class TestPoolClosesItsTaskQueues:
    """A task queue's feeder thread closes the queue's pipe only after
    ``close()``; the pool closes each queue and waits for its thread."""

    def test_close_closes_and_joins_the_queue(self):
        pool, _ = _pool([(1.0, REPLY)])
        queue = pool.slots[0].task_queue
        assert queue.closed and queue.joined

    def test_a_crashed_workers_queue_closes_at_once(self):
        harness = FakeHarness({"service-0": [(1.0, EOF)]},
                              poll_interval=1.0)
        pool = AnalysisWorkerPool(workers=1, harness=harness)
        assert pool.submit("r1", dumps(figure1_net()), {})
        first = pool.slots[0].task_queue
        for _ in range(3):
            pool.poll()
        replacement = pool.slots[0].task_queue
        assert replacement is not first
        assert first.closed and not first.joined
        assert not replacement.closed
        pool.close()
        harness.assert_no_orphans()
        assert first.joined and replacement.joined


def test_slot_respawns_then_retires():
    slot = WorkerSlot("w")
    actions = [slot.recover() for _ in range(MAX_RESPAWNS + 1)]
    assert actions == ["respawn"] * MAX_RESPAWNS + ["retire"]
    assert slot.retired


class TestWorkerSlot:
    def test_unspawned_slot_has_no_process_and_no_pipe(self):
        slot = WorkerSlot("w")
        assert not slot.alive()
        assert slot.reply is None
        slot.stop()  # nothing to stop

    def test_receive_reads_replies_then_none_at_end_of_file(self):
        harness = FakeHarness({"w": [(0.0, "hello"), (0.0, EOF)]})
        slot = WorkerSlot("w")
        slot.spawn(harness, None, ())
        assert slot.receive() == "hello"
        assert slot.receive() is None
        assert slot.receive() is None  # end of file stays

    def test_unreadable_reply_reads_as_none(self):
        slot = WorkerSlot("w")
        slot.spawn(FakeHarness({"w": [(0.0, GARBAGE)]}), None, ())
        assert slot.alive()
        assert slot.receive() is None

    def test_stop_closes_the_pipe_and_ends_the_worker(self):
        harness = FakeHarness()
        slot = WorkerSlot("w")
        process = slot.spawn(harness, None, ())
        (_, _, reader), = harness.workers
        slot.stop()
        assert reader.closed and slot.reply is None
        assert process.terminated and process.joined
        assert process.exitcode is not None

    def test_respawn_gets_a_fresh_pipe(self):
        harness = FakeHarness()
        slot = WorkerSlot("w")
        slot.spawn(harness, None, ())
        first = slot.reply
        slot.stop()
        slot.spawn(harness, None, ())
        assert slot.reply is not first and not slot.reply.closed


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


class _PipeEnd:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


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

    def Pipe(self, duplex=True):
        assert not duplex
        return _PipeEnd(), _PipeEnd()


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
        process, reader = harness.spawn("zdd-chained", print, ("x",))
        assert process.started
        writer = process.kwargs["args"][-1]
        assert process.kwargs == {"target": print, "args": ("x", writer),
                                  "name": "repro-zdd-chained",
                                  "daemon": True}
        # The child holds the only write end once it has started.
        assert writer.closed and not reader.closed

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


# ---------------------------------------------------------------------------
# Real processes: the reply pipes leave no descriptor behind


needs_multiprocessing = pytest.mark.skipif(
    not WorkerHarness().available(),
    reason="platform cannot run worker processes")


@needs_multiprocessing
def test_end_of_file_follows_the_last_reply_of_a_real_worker():
    harness = WorkerHarness()
    process, reader = harness.spawn("echo", _reply_and_exit, ("bye",))
    try:
        assert harness.wait([reader], 60) == [reader]
        assert reader.recv() == "bye"
        assert harness.wait([reader], 60) == [reader]
        with pytest.raises(EOFError):
            reader.recv()
    finally:
        reader.close()
        reap_processes([process])
    assert process.exitcode == 0


def _reply_and_exit(message, reply):
    reply.send(message)


def _feeder_threads():
    return sum(1 for thread in threading.enumerate()
               if thread.name == "QueueFeederThread")


@needs_multiprocessing
def test_pool_close_ends_its_queue_feeder_threads():
    before = _feeder_threads()
    with AnalysisWorkerPool(workers=2) as pool:
        for request_id in ("a", "b"):
            assert pool.submit(request_id, dumps(figure1_net()), {})
        assert _feeder_threads() > before
        events = []
        deadline = time.monotonic() + 60
        while len(events) < 2:
            assert time.monotonic() < deadline
            events.extend(pool.poll())
    assert _feeder_threads() == before


def _open_descriptors():
    """Open descriptors once finished children have released theirs."""
    gc.collect()
    multiprocessing.active_children()
    return len(os.listdir("/proc/self/fd"))


@needs_multiprocessing
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd on this platform")
def test_races_and_pool_cycles_leak_no_descriptors():
    net = figure1_net()
    spec = AnalysisSpec(backend="portfolio", portfolio_members=MEMBERS,
                        timeout=60.0)

    def pool_cycle():
        with AnalysisWorkerPool(workers=2) as pool:
            assert pool.submit("r", dumps(net), {})
            events = []
            deadline = time.monotonic() + 60
            while not events:
                assert time.monotonic() < deadline
                events = pool.poll()
        assert events[0][0] == "result"

    analyze(net, spec)
    pool_cycle()
    before = _open_descriptors()
    for _ in range(10):
        assert analyze(net, spec).markings == 8
    for _ in range(5):
        pool_cycle()
    assert _open_descriptors() == before
