"""One repetition of one workload, in a fresh interpreter.

Usage (the runner does this; ``PYTHONPATH`` must name ``src``)::

    python3 perfbench/rep.py WORKLOAD --seed N --trace 0|1
        --launched-at T --out DIR [--quick]

``--launched-at`` is the runner's ``time.perf_counter()`` just before it
started this process.  On Linux that clock is ``CLOCK_MONOTONIC``,
shared by every process, so ``setup_s`` can count interpreter start-up
and imports, which is what a user of ``cli.py analyze`` waits for.

Prints one JSON object: clocks, answer-check counts, peak nodes and
RSS and, when traced, the per-layer metrics.  A traced repetition also
writes its spans to ``DIR/<workload>-<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import metrics
import workloads


def _layers(tracer, data, setup_start, done) -> dict:
    """Per-layer metrics from the spans, counters and result payloads."""
    times = tracer.layer_times()

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    out = {name: 0 for name in metrics.PER_LAYER}
    for name, entry in times.items():
        if name + "_s" in out:
            out[name + "_s"] = entry["self"]
    for metric, span in (("analysis.iterations", "analysis.step"),
                         ("symbolic.image_calls", "symbolic.image"),
                         ("symbolic.preimage_calls", "symbolic.preimage"),
                         ("checker.ef_calls", "checker.ef"),
                         ("dd.safepoints", "dd.safepoint"),
                         ("dd.sifts", "dd.sift"), ("dd.gcs", "dd.gc"),
                         ("cache.gets", "cache.get"),
                         ("cache.puts", "cache.put"),
                         ("pool.polls", "pool.poll")):
        out[metric] = calls(span)
    out["analysis.step_max_s"] = times.get("analysis.step", {}).get(
        "max", 0.0)
    counters = tracer.counters
    for name in ("dd.swaps", "dd.sift_nodes_before", "dd.sift_nodes_after",
                 "dd.gc_freed"):
        out[name] = counters.get(name, 0)
    out["dd.sift_gain"] = out["dd.sift_nodes_before"] \
        - out["dd.sift_nodes_after"]
    for name in ("pool.roundtrip_s", "pool.worker_solve_s",
                 "pool.overhead_s"):
        out[name] = metrics.median(tracer.samples.get(name, []))

    results = data["results"]
    managers = data["managers"]
    extras = [r["extras"].get("winner_extras", r["extras"])
              for r in results]
    out["encoding.variables"] = max((r["variables"] for r in results
                                     if r["spec"]["backend"] == "bdd"),
                                    default=0)
    out["dd.peak_live_nodes"] = max((r["peak_nodes"] for r in results),
                                    default=0)
    out["dd.final_nodes"] = max((r["final_nodes"] for r in results),
                                default=0)
    out["dd.reorder_count"] = sum(r["reorder_count"] for r in results)
    out["dd.gc_count"] = sum(m.gc_count for m in managers)
    out["bdd.ae_calls"] = sum(m.ae_calls for m in managers) + sum(
        e.get("ae_calls", 0) for e in extras)
    out["bdd.ae_cache_hits"] = sum(m.ae_cache_hits for m in managers) \
        + sum(e.get("ae_cache_hits", 0) for e in extras)
    if out["bdd.ae_calls"]:
        out["bdd.ae_hits_per_call"] = out["bdd.ae_cache_hits"] \
            / out["bdd.ae_calls"]
    out["checkpoint.writes"] = sum(
        r["extras"].get("checkpoint", {}).get("writes", 0)
        for r in results)

    svc = data.get("service")
    if svc is not None:
        stats = svc["stats"]
        out["cache.hit_ratio"] = stats["cache_hit_ratio"]
        for name in ("dedup_hits", "pool_solves", "serial_solves",
                     "errors"):
            out["service." + name] = stats[name]
        out["pool.crashes"] = len(stats["pool"]["crashes"])
        out["pool.respawns"] = stats["pool"]["respawns"]
        out["checkpoint.bytes"] = svc["checkpoint_bytes"]

    walls = data.get("race_walls")
    if walls is not None:
        portfolios = [r["extras"]["portfolio"] for r in results]
        out["portfolio.race_s"] = sum(walls)
        out["portfolio.winner_s"] = sum(
            e["build_seconds"] + e["fixpoint_seconds"] for e in extras)
        out["portfolio.overhead_s"] = out["portfolio.race_s"] \
            - out["portfolio.winner_s"]
        out["portfolio.cancelled"] = sum(
            1 for p in portfolios for m in p["members"]
            if m["outcome"] == "cancelled")
        out["portfolio.failures"] = sum(len(p["failures"])
                                        for p in portfolios)

    wall = done - setup_start
    out["trace.wall_s"] = wall
    out["trace.other_s"] = wall - tracer.covered(setup_start, done)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    phase = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.workload)
        tracer.install()
        phase = tracer.span
    start = time.perf_counter()
    sizes = workloads.QUICK if args.quick else workloads.FULL
    options = {}
    if args.workload == "service-mix":
        options["workdir"] = args.out
    data = workloads.run(args.workload, sizes, args.seed, phase, **options)
    if tracer is not None:
        tracer.uninstall()

    ready, done = data["ready"], data["done"]
    setup_start = data.get("setup_start")
    setup_s = ready - (setup_start if setup_start is not None
                       else args.launched_at)
    solve_s = done - ready
    checks = data["checks"]
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "solve_s": solve_s,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "peak_nodes": data["peak_nodes"],
        # ru_maxrss is in KiB on Linux.
        "rss_self_mb": self_usage.ru_maxrss / 1024,
        "rss_children_mb": child_usage.ru_maxrss / 1024,
        "answers": data["answers"],
    }
    if "service" in data:
        report["service"] = {"records": data["service"]["records"],
                             "stats": data["service"]["stats"]}
    if tracer is not None:
        report["layers"] = _layers(tracer, data,
                                   start if setup_start is None
                                   else setup_start, done)
        tracer.dump(os.path.join(
            args.out, f"{args.workload}-{args.seed}.spans.jsonl"))
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
