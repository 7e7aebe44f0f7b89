"""AnalysisWorkerPool: dispatch, crash recovery, degradation."""

import multiprocessing
import os
import signal
import time

import pytest
from fake_workers import MidReplyKillHarness, NoWorkersHarness

from repro.analysis import AnalysisSpec, analyze
from repro.petri.generators import philosophers
from repro.petri.parser import dumps
from repro.service import AnalysisWorkerPool


def drain(pool, want, timeout=120.0):
    """Poll until ``want`` events arrived (or fail loudly)."""
    events = []
    deadline = time.monotonic() + timeout
    while len(events) < want:
        assert time.monotonic() < deadline, \
            f"pool produced {len(events)}/{want} events: {events}"
        events.extend(pool.poll())
    return events


def test_round_trip_matches_serial_analyze(make_net, explicit_counts):
    net = make_net("figure1")
    spec = AnalysisSpec()
    baseline = analyze(net, spec).to_dict()
    with AnalysisWorkerPool(workers=1) as pool:
        assert pool.submit("r1", dumps(net), spec.to_dict())
        (tag, request_id, payload), = drain(pool, 1)
    assert (tag, request_id) == ("result", "r1")
    assert payload["markings"] == explicit_counts["figure1"]
    # The worker computes the identical analysis (timings aside).
    for field in ("markings", "iterations", "variables", "final_nodes",
                  "engine", "spec", "status", "reorder_count"):
        assert payload[field] == baseline[field], field


def test_multiple_requests_multiplex(make_net, explicit_counts):
    spec = AnalysisSpec().to_dict()
    nets = {"a": dumps(make_net("figure1")),
            "b": dumps(make_net("phil3")),
            "c": dumps(make_net("figure1"))}
    with AnalysisWorkerPool(workers=2) as pool:
        for request_id, text in nets.items():
            assert pool.submit(request_id, text, spec)
        events = drain(pool, 3)
    by_id = {request_id: payload for _, request_id, payload in events}
    assert by_id["a"]["markings"] == explicit_counts["figure1"]
    assert by_id["b"]["markings"] == explicit_counts["phil3"]

    def semantic(payload):
        """Everything but the wall-clock measurements."""
        return {key: value for key, value in payload.items()
                if key not in ("seconds", "extras")}

    assert semantic(by_id["c"]) == semantic(by_id["a"])
    assert pool.stats()["completed"] == 3


def test_request_error_keeps_worker_alive(make_net):
    """A failing analysis reports a structured error; the worker
    survives to serve the next request."""
    net_text = dumps(make_net("figure1"))
    bad = AnalysisSpec(max_iterations=1).to_dict()
    good = AnalysisSpec().to_dict()
    with AnalysisWorkerPool(workers=1) as pool:
        assert pool.submit("bad", net_text, bad)
        (tag, request_id, info), = drain(pool, 1)
        assert (tag, request_id) == ("error", "bad")
        assert info["kind"] == "TraversalLimitError"
        # Same process, next request: still healthy.
        assert pool.submit("good", net_text, good)
        (tag, request_id, payload), = drain(pool, 1)
        assert (tag, request_id) == ("result", "good")
        assert pool.stats()["respawns"] == 0


def test_sigkilled_worker_is_respawned_and_requests_complete(make_net):
    net_text = dumps(philosophers(4))
    spec = AnalysisSpec().to_dict()
    with AnalysisWorkerPool(workers=1) as pool:
        assert pool.submit("k1", net_text, spec)
        pids = pool.worker_pids()
        assert len(pids) == 1
        os.kill(pids[0], signal.SIGKILL)
        events = drain(pool, 1)
    assert events[0][0] == "result"
    assert events[0][1] == "k1"
    stats = pool.stats()
    assert stats["respawns"] == 1
    assert stats["crashes"][0]["action"] == "respawn"


def test_idle_worker_crash_is_detected_and_respawned(make_net):
    """A worker that dies *between* requests (nothing pending) is still
    respawned — the pool must not silently shrink, and the crash must
    reach the stats."""
    net_text = dumps(make_net("figure1"))
    spec = AnalysisSpec().to_dict()
    with AnalysisWorkerPool(workers=1) as pool:
        assert pool.submit("r1", net_text, spec)
        drain(pool, 1)
        pids = pool.worker_pids()
        assert len(pids) == 1
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 120
        while pool.stats()["respawns"] < 1:
            assert time.monotonic() < deadline, \
                "idle crash never detected"
            pool.poll()
        stats = pool.stats()
        assert stats["crashes"] == [
            {"worker": 0, "pending": 0, "action": "respawn"}]
        # The replacement worker serves the next request.
        assert pool.submit("r2", net_text, spec)
        (tag, request_id, _), = drain(pool, 1)
        assert (tag, request_id) == ("result", "r2")


@pytest.mark.parametrize("start_method", [
    pytest.param(method, marks=pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(),
        reason=f"no {method} start method on this platform"))
    for method in ("fork", "spawn")])
def test_worker_killed_mid_reply_costs_one_respawn(start_method):
    """A worker takes a request, writes half its reply frame and
    SIGKILLs itself: its own pipe reads the cut-off frame as its crash,
    the other worker keeps replying, and every request resolves."""
    net_text = dumps(philosophers(3))
    spec = AnalysisSpec().to_dict()
    harness = MidReplyKillHarness("service-0", start_method)
    with AnalysisWorkerPool(workers=2, harness=harness) as pool:
        for index in range(4):
            assert pool.submit(f"r{index}", net_text, spec)
        events = drain(pool, 4, timeout=10.0)
        stats = pool.stats()
    assert sorted(request_id for _, request_id, _ in events) == \
        ["r0", "r1", "r2", "r3"]
    assert all(tag == "result" for tag, _, _ in events)
    assert stats["respawns"] == 1
    assert [crash["action"] for crash in stats["crashes"]] == ["respawn"]


def test_worker_retired_after_respawn_budget_orphans_requests(make_net):
    """Kill the worker past MAX_RESPAWNS: the slot is retired and, with
    nobody left, the pending request comes back as an orphan."""
    from repro.analysis.workers import MAX_RESPAWNS
    net_text = dumps(philosophers(4))
    spec = AnalysisSpec().to_dict()
    with AnalysisWorkerPool(workers=1) as pool:
        assert pool.submit("k1", net_text, spec)
        killed = 0
        events = []
        deadline = time.monotonic() + 120
        while not events:
            assert time.monotonic() < deadline
            pids = pool.worker_pids()
            if pids and killed <= MAX_RESPAWNS:
                os.kill(pids[0], signal.SIGKILL)
                killed += 1
            events.extend(pool.poll())
        assert events[0] == ("orphan", "k1")
        assert pool.mode == "serial-fallback"
        # A dead pool refuses further work instead of losing it.
        assert not pool.submit("k2", net_text, spec)
    stats = pool.stats()
    assert stats["retired"] == 1


def test_unavailable_harness_degrades_before_spawning(make_net):
    pool = AnalysisWorkerPool(workers=2, harness=NoWorkersHarness())
    assert not pool.submit("r1", dumps(make_net("figure1")),
                           AnalysisSpec().to_dict())
    assert pool.mode == "serial-fallback"
    assert pool.worker_pids() == []
    pool.close()


def test_workers_zero_never_spawns(make_net):
    pool = AnalysisWorkerPool(workers=0)
    assert not pool.submit("r1", dumps(make_net("figure1")),
                           AnalysisSpec().to_dict())
    assert pool.mode == "serial-fallback"
    pool.close()
