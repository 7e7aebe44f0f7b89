"""AnalysisService end-to-end: the ISSUE 9 acceptance suite.

The headline test drives a batch of 20 requests — repeats, in-flight
duplicates and fresh queries over two net families — through one
service and asserts the full contract: results identical to serial
``analyze()`` (modulo wall-clock measurements), cache hits served
without any solver running, in-flight duplicates deduped to one solve,
and a SIGKILLed worker's requests completing anyway.
"""

import os
import signal

import pytest
from fake_workers import FakeHarness, NoWorkersHarness

from repro.analysis import AnalysisSpec, analyze
from repro.service import AnalysisService, ResultCache, ServiceError


def semantic(payload):
    """A result payload minus every wall-clock measurement.

    Two runs of the same deterministic analysis differ *only* in
    timings; everything else — spec echo, marking count, iteration
    trace, node counts, extras — must match bit for bit.
    """
    def strip(value):
        if isinstance(value, dict):
            return {key: strip(sub) for key, sub in value.items()
                    if not key.endswith("seconds")}
        return value
    return strip(payload)


@pytest.fixture(scope="module")
def baselines(request):
    """Serial ``analyze()`` oracles for every (net, spec) the batch
    uses, computed once without any service involved."""
    from repro.petri.generators import figure1_net, philosophers
    nets = {"figure1": figure1_net(), "phil4": philosophers(4)}
    specs = {
        "default": AnalysisSpec(),
        "zdd": AnalysisSpec(backend="zdd"),
        "sparse": AnalysisSpec(scheme="sparse"),
    }
    payloads = {}
    for net_name, net in nets.items():
        for spec_name, spec in specs.items():
            payloads[(net_name, spec_name)] = \
                analyze(net, spec).to_dict()
    return nets, specs, payloads


# ---------------------------------------------------------------------------
# The acceptance batch


def test_acceptance_batch_of_20(baselines, tmp_path):
    nets, specs, payloads = baselines
    # Phase 1: 12 requests submitted before anything resolves — 5
    # distinct (net, spec) keys, the rest in-flight duplicates.
    phase1 = [
        ("figure1", "default"), ("phil4", "default"),
        ("figure1", "default"),                       # dup in flight
        ("figure1", "zdd"), ("phil4", "zdd"),
        ("phil4", "default"),                         # dup in flight
        ("figure1", "default"),                       # dup in flight
        ("phil4", "zdd"),                             # dup in flight
        ("figure1", "zdd"),                           # dup in flight
        ("phil4", "sparse"),
        ("phil4", "sparse"),                          # dup in flight
        ("figure1", "default"),                       # dup in flight
    ]
    # Phase 2: 8 repeats submitted after phase 1 resolved — all cache.
    phase2 = [
        ("figure1", "default"), ("phil4", "default"),
        ("figure1", "zdd"), ("phil4", "zdd"),
        ("phil4", "sparse"), ("figure1", "default"),
        ("phil4", "default"), ("figure1", "zdd"),
    ]
    assert len(phase1) + len(phase2) == 20
    unique = sorted(set(phase1))
    assert len(unique) == 5 and len({n for n, _ in unique}) == 2

    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=2) as service:
        handles1 = [(key, service.submit(nets[key[0]], specs[key[1]]))
                    for key in phase1]
        first_payload = {}
        for key, handle in handles1:
            payload = handle.result_dict()
            # Identical to the serial analyze() oracle, wall clock
            # aside.
            assert semantic(payload) == semantic(payloads[key]), key
            first_payload.setdefault(key, payload)
            # Duplicates of one key resolve to literally one payload.
            assert payload == first_payload[key], key
        stats = service.stats()
        # In-flight duplicates were deduped to exactly one solve each.
        assert stats["dedup_hits"] == len(phase1) - len(unique)
        assert stats["pool_solves"] + stats["serial_solves"] \
            == len(unique)
        solves_after_phase1 = (stats["pool_solves"],
                               stats["serial_solves"],
                               stats["pool"]["completed"])

        handles2 = [(key, service.submit(nets[key[0]], specs[key[1]]))
                    for key in phase2]
        for key, handle in handles2:
            # Cache hits resolve instantly and bit-identically to the
            # payload the original solve produced.
            assert handle.done(), key
            assert handle.info["cache"] == "hit"
            assert handle.info["mode"] == "cache"
            assert handle.result_dict() == first_payload[key], key
        stats = service.stats()
        # No solver ran for any phase-2 request: neither solve counter
        # moved, and the pool completed nothing new.
        assert (stats["pool_solves"], stats["serial_solves"],
                stats["pool"]["completed"]) == solves_after_phase1
        assert stats["cache_hits"] == len(phase2)
        assert stats["submits"] == 20
        assert stats["errors"] == 0


# ---------------------------------------------------------------------------
# Worker loss


def test_sigkilled_workers_requests_still_complete(baselines, tmp_path):
    nets, specs, payloads = baselines
    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=1) as service:
        h1 = service.submit(nets["phil4"], specs["default"])
        h2 = service.submit(nets["figure1"], specs["default"])
        pids = service.pool.worker_pids()
        assert pids
        os.kill(pids[0], signal.SIGKILL)
        # Both requests complete anyway — respawn or serial fallback.
        assert semantic(h1.result_dict()) == \
            semantic(payloads[("phil4", "default")])
        assert semantic(h2.result_dict()) == \
            semantic(payloads[("figure1", "default")])
        stats = service.stats()
        assert stats["errors"] == 0
        recovered = (stats["pool"]["respawns"] >= 1
                     or stats["serial_solves"] >= 1)
        assert recovered, stats


def test_unavailable_pool_degrades_to_serial(baselines):
    nets, specs, payloads = baselines
    with AnalysisService(workers=2,
                         harness=NoWorkersHarness()) as service:
        handle = service.submit(nets["figure1"], specs["default"])
        assert handle.done()  # serial solves resolve at submit time
        assert handle.info["mode"] == "serial"
        assert semantic(handle.result_dict()) == \
            semantic(payloads[("figure1", "default")])
        assert service.stats()["serial_solves"] == 1
        assert service.stats()["pool"]["mode"] == "serial-fallback"


def test_drain_resolves_every_outstanding_request(baselines):
    nets, specs, payloads = baselines
    first = payloads[("figure1", "default")]
    second = payloads[("phil4", "default")]
    harness = FakeHarness({"service-0": [(1.0, ("result", 1, first)),
                                         (2.0, ("result", 2, second))]},
                          poll_interval=1.0)
    with AnalysisService(workers=1, harness=harness) as service:
        handles = [service.submit(nets["figure1"], specs["default"]),
                   service.submit(nets["phil4"], specs["default"])]
        assert not any(handle.done() for handle in handles)
        service.drain()
        assert [handle.result_dict() for handle in handles] \
            == [first, second]
        assert service.stats()["pool_solves"] == 2
        # Drained results are cached like any other.
        again = service.submit(nets["phil4"], specs["default"])
        assert again.info["mode"] == "cache"
    harness.assert_no_orphans()


# ---------------------------------------------------------------------------
# Checkpoint resume across services (PR 7 integration)


def test_cache_miss_resumes_from_prior_services_checkpoint(baselines,
                                                           tmp_path):
    nets, specs, payloads = baselines
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    # Service A solves cold and leaves a final checkpoint behind.
    with AnalysisService(cache_dir=str(tmp_path / "cache-a"),
                         workers=0,
                         checkpoint_dir=str(ckpt_dir)) as first:
        cold = first.submit(nets["phil4"], specs["default"])
        cold_payload = cold.result_dict()
        assert cold_payload["spec"]["resume"] is True
        assert list(ckpt_dir.glob("*.ckpt"))
    # Service B shares the checkpoint dir but has an *empty* cache:
    # the miss resumes A's finished fixpoint instead of cold-starting.
    with AnalysisService(cache_dir=str(tmp_path / "cache-b"),
                         workers=0,
                         checkpoint_dir=str(ckpt_dir)) as second:
        handle = second.submit(nets["phil4"], specs["default"])
        payload = handle.result_dict()
        assert handle.info["cache"] == "miss"
        resume = payload["extras"]["resume"]
        assert resume["status"] == "resumed"
        assert payload["markings"] == cold_payload["markings"]

    # The injected fields are non-semantic: both services used the
    # same cache key a checkpoint-less client would.
    plain = AnalysisService(workers=0)
    try:
        bare = plain.submit(nets["phil4"], specs["default"])
        assert bare.key == handle.key == cold.key
    finally:
        plain.close()


# ---------------------------------------------------------------------------
# Budgets: partial results must never leak across requests


def test_budget_fields_are_a_nonsemantic_subset():
    """Every dedupe-guarded budget knob must be cache-key-excluded
    (that exclusion is *why* the guard exists), and semantic fields
    need no guard — they fracture the key instead."""
    from repro.analysis.spec import NONSEMANTIC_FIELDS
    from repro.service.server import BUDGET_FIELDS
    assert set(BUDGET_FIELDS) <= set(NONSEMANTIC_FIELDS)


def test_partial_result_is_not_cached(tmp_path):
    """Budgets are excluded from the cache key, so a budget-truncated
    partial stored there would answer a later unbudgeted request with
    lower-bound statistics.  It must stay uncached."""
    from repro.petri.generators import philosophers
    net = philosophers(6)
    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=0) as service:
        tight = service.submit(net, AnalysisSpec(node_budget=50))
        partial = tight.result_dict()
        assert partial["status"] == "partial"
        # Same cache key, no budget: a miss that solves for real.
        full = service.submit(net, AnalysisSpec())
        assert full.key == tight.key
        assert full.info["cache"] == "miss"
        payload = full.result_dict()
        assert payload["status"] == "complete"
        assert payload["markings"] > partial["markings"]
        # Only the complete solve was cached.
        hit = service.submit(net, AnalysisSpec())
        assert hit.info["cache"] == "hit"
        assert hit.result_dict() == payload


def test_dedupe_only_attaches_to_covering_budgets(tmp_path):
    """An unbudgeted submit must not attach to an in-flight solve
    running under a tight budget — it could be resolved with that
    solve's partial result."""
    from repro.petri.generators import philosophers
    net = philosophers(6)
    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=1) as service:
        tight = service.submit(net, AnalysisSpec(node_budget=50))
        assert tight.info["dedup"] is False
        # Unbudgeted: the tight solve does not cover it — fresh solve.
        full = service.submit(net, AnalysisSpec())
        assert full.info["dedup"] is False
        # A tighter budget is covered by the tight in-flight solve...
        tighter = service.submit(net, AnalysisSpec(node_budget=40))
        assert tighter.info["dedup"] is True
        # ...and a looser one by the unbudgeted in-flight solve.
        loose = service.submit(net, AnalysisSpec(node_budget=10 ** 9))
        assert loose.info["dedup"] is True
        assert service.stats()["dedup_hits"] == 2

        assert tight.result_dict()["status"] == "partial"
        assert tighter.result_dict()["status"] == "partial"
        full_payload = full.result_dict()
        assert full_payload["status"] == "complete"
        assert loose.result_dict() == full_payload
        assert full_payload["markings"] > tight.result_dict()["markings"]


# ---------------------------------------------------------------------------
# Errors and handle contract


def test_failed_analysis_raises_service_error(baselines):
    nets, specs, _ = baselines
    with AnalysisService(workers=0) as service:
        handle = service.submit(nets["phil4"],
                                specs["default"].replace(
                                    max_iterations=1))
        with pytest.raises(ServiceError) as excinfo:
            handle.result()
        assert excinfo.value.kind == "TraversalLimitError"
        assert handle.error is excinfo.value
        assert service.stats()["errors"] == 1
        # A failure is not cached: the next submit solves again.
        again = service.submit(nets["phil4"], specs["default"])
        assert again.result().markings > 0


def test_errors_do_not_fracture_healthy_requests(baselines, tmp_path):
    nets, specs, payloads = baselines
    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=1) as service:
        bad = service.submit(nets["phil4"],
                             specs["default"].replace(max_iterations=1))
        good = service.submit(nets["figure1"], specs["default"])
        with pytest.raises(ServiceError):
            bad.result()
        assert semantic(good.result_dict()) == \
            semantic(payloads[("figure1", "default")])


def test_handle_info_and_result_contract(baselines, tmp_path):
    nets, specs, _ = baselines
    with AnalysisService(cache_dir=str(tmp_path / "cache"),
                         workers=0) as service:
        handle = service.submit(nets["figure1"], specs["default"])
        result = handle.result()
        assert result.markings == 8
        assert result.reachable is None  # JSON round trip, by design
        assert handle.info["cache"] == "miss"
        assert handle.info["miss_reason"] == "absent"
        assert handle.info["key"] == list(handle.key)
        hit = service.submit(nets["figure1"], specs["default"])
        assert hit.info == {"cache": "hit", "tier": "memory",
                            "mode": "cache", "dedup": False,
                            "key": list(handle.key)}


def test_shared_cache_object_between_services(baselines):
    """Two services can share one ResultCache (e.g. one per thread)."""
    nets, specs, _ = baselines
    cache = ResultCache()
    with AnalysisService(cache=cache, workers=0) as first:
        first.submit(nets["figure1"], specs["default"]).result_dict()
    with AnalysisService(cache=cache, workers=0) as second:
        handle = second.submit(nets["figure1"], specs["default"])
        assert handle.info["cache"] == "hit"


def test_stored_race_with_a_retired_queue_failure_still_loads(tmp_path):
    """Races recorded before per-worker reply pipes could list an
    unattributable ``{"member": None, "kind": "queue"}`` failure; such
    a cached result still loads and is served bit-identically."""
    from repro.analysis import (AnalysisResult, MemberFailure,
                                PortfolioSession)
    from repro.petri.generators import figure1_net
    from repro.service.cache import cache_key
    net = figure1_net()
    spec = AnalysisSpec(backend="portfolio")
    legacy = {"member": None, "kind": "queue", "exitcode": None,
              "detail": "unreadable queue payload: UnpicklingError: x"}
    stored = PortfolioSession(net, spec, harness=NoWorkersHarness()) \
        .run().to_dict()
    stored["extras"]["portfolio"]["failures"].append(legacy)
    assert MemberFailure.from_dict(legacy).to_dict() == legacy
    assert AnalysisResult.from_dict(stored).to_dict() == stored
    ResultCache(directory=str(tmp_path)).put(cache_key(net, spec), stored)
    with AnalysisService(cache_dir=str(tmp_path), workers=0) as service:
        handle = service.submit(net, spec)
        assert handle.info["cache"] == "hit"
        assert handle.result_dict() == stored
        assert handle.result().extras["portfolio"]["failures"][-1] \
            == legacy


def test_every_accepted_name_crosses_the_process_boundary():
    """A net reaches a worker as ``.pnet`` text, so any name PetriNet
    accepts must survive that hop: the pool and the portfolio race
    answer exactly as an in-process ``analyze()`` does."""
    from repro.petri import PetriNet
    net = PetriNet("\u00fcn\u00ef-net;[1]")
    net.add_place("p", 1)
    net.add_place("p'")
    net.add_place("\u00b5/q")
    net.add_transition("t:1", ["p"], ["p'"])
    net.add_transition("t'", ["p'"], ["\u00b5/q"])
    expected = analyze(net, AnalysisSpec()).markings
    assert expected == 3
    with AnalysisService(workers=1) as service:
        for spec in (AnalysisSpec(), AnalysisSpec(backend="zdd")):
            handle = service.submit(net, spec)
            assert handle.result().markings == expected
            assert handle.info["mode"] == "pool"
    race = analyze(net, AnalysisSpec(backend="portfolio", timeout=60.0))
    assert race.markings == expected
    assert race.extras["portfolio"]["mode"] == "process"
    assert race.extras["portfolio"]["failures"] == []
