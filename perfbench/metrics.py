"""Metric tables (name -> unit) and the statistics the runner reports.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares: every run prints each of them, whatever the workload.
``SERVICE`` holds the request-level metrics that only ``service-mix``
has; they are printed in the human-readable table, not gated.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_nodes": "nodes",
    "peak_rss_mb": "MiB",
}

SERVICE = {
    "throughput_rps": "req/s",
    "hit_latency_p50_ms": "ms",
    "miss_latency_p50_s": "s",
    "latency_p90_s": "s",
}

PER_LAYER = {
    "petri.generate_s": "s",
    "encoding.build_s": "s",
    "encoding.variables": "count",
    "analysis.build_s": "s",
    "symbolic.net_build_s": "s",
    "analysis.iterations": "count",
    "analysis.step_s": "s",
    "analysis.step_max_s": "s",
    "analysis.run_s": "s",
    "symbolic.image_s": "s",
    "symbolic.image_calls": "count",
    "symbolic.preimage_s": "s",
    "symbolic.preimage_calls": "count",
    "symbolic.count_s": "s",
    "symbolic.deadlock_condition_s": "s",
    "checker.deadlock_s": "s",
    "checker.ag_s": "s",
    "checker.home_s": "s",
    "checker.ef_s": "s",
    "checker.ef_calls": "count",
    "dd.safepoint_s": "s",
    "dd.safepoints": "count",
    "dd.sift_s": "s",
    "dd.sifts": "count",
    "dd.swaps": "count",
    "dd.sift_nodes_before": "nodes",
    "dd.sift_nodes_after": "nodes",
    "dd.sift_gain": "nodes",
    "dd.gc_s": "s",
    "dd.gcs": "count",
    "dd.gc_freed": "nodes",
    "dd.peak_live_nodes": "nodes",
    "dd.final_nodes": "nodes",
    "dd.reorder_count": "count",
    "dd.gc_count": "count",
    "bdd.ae_calls": "count",
    "bdd.ae_cache_hits": "count",
    "bdd.ae_hits_per_call": "ratio",
    "service.submit_hit_s": "s",
    "service.submit_miss_s": "s",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.hit_ratio": "ratio",
    "service.dedup_hits": "count",
    "service.pool_solves": "count",
    "service.serial_solves": "count",
    "service.errors": "count",
    "pool.spawn_s": "s",
    "pool.poll_s": "s",
    "pool.polls": "count",
    "pool.roundtrip_s": "s",
    "pool.worker_solve_s": "s",
    "pool.overhead_s": "s",
    "pool.crashes": "count",
    "pool.respawns": "count",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "portfolio.race_s": "s",
    "portfolio.winner_s": "s",
    "portfolio.overhead_s": "s",
    "portfolio.spawn_s": "s",
    "portfolio.cancelled": "count",
    "portfolio.failures": "count",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead": "ratio",
}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest of p99/p90/p50 with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond it)``; with fewer than
    twenty samples no percentile qualifies and the median is returned.
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in (99, 90, 50):
        rank = math.ceil(pct / 100 * count)
        if count - rank >= 10:
            return ordered[rank - 1], pct, count - rank
    return median(ordered), 50, count - math.ceil(count / 2)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0
