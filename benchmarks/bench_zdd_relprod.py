"""ZDD relational-product benchmarks: fused engines vs. the classic loop.

The sparse-ZDD baseline (Table 4) historically rewrote one transition at
a time — a chain of ``subset1``/``change`` passes per transition per
iteration.  The relational form
(:class:`repro.symbolic.zdd_relational.ZddRelationalNet`) replaces that
with sparse ``I ∪ O'`` relations over paired current/next elements and
per-block images through the fused ``supset``/``and_exists``/``rename``
pipeline.  Since the shared ``repro.dd`` kernel, the ZDD manager also
garbage-collects and dynamically reorders, and the shared chained sweep
narrows per-block working sets by set difference (the ROADMAP "ZDD
frontier narrowing", implemented once for both managers).  This
benchmark answers, on the slotted-ring and philosophers generators:

1. **Engines** — classic vs. chained fixpoints (fresh manager per
   engine, so caches are not shared).  Chained rows include the
   diff-based working-set narrowing.  The monolithic and partitioned
   ZDD engines lost every row here to chained and were retired.
2. **Reorder grid** — the chained engine with pair-grouped dynamic
   sifting at the per-iteration safe points (``auto_reorder``), the
   configuration the shared kernel unlocked for ZDDs.
3. **Acceptance** — the chained engine must beat the classic
   per-transition loop on the largest instance of each family, and the
   reorder+narrowing chained rows must be no slower (classic-normalised)
   than the committed PR 3 chained baseline.

Every row runs through ``repro.analysis.Analysis`` and records the
session's ``extras["fixpoint_seconds"]``.  Results are merged into the
``"zdd"`` section of ``BENCH_relprod.json``
at the repository root (the BDD numbers keep their own sections); the
PR 3 chained baseline is carried forward in the section so later
regenerations keep gating against it.  Run either way::

    PYTHONPATH=src python benchmarks/bench_zdd_relprod.py
    PYTHONPATH=src python -m pytest benchmarks/bench_zdd_relprod.py -q

Harness-scale instances by default; ``REPRO_FULL=1`` adds larger ones,
``REPRO_QUICK=1`` keeps the two smallest only.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.petri.generators import philosophers, slotted_ring

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Shared report file and section-preserving merge writer.
from bench_relprod import JSON_PATH, write_report  # noqa: E402

QUICK = bool(os.environ.get("REPRO_QUICK"))

# Ordered smallest to largest per family; the last entry of each family
# is the instance the acceptance criteria are measured on.
CONFIGS: List[Tuple[str, Callable]] = [
    ("slot-3", lambda: slotted_ring(3)),
    ("phil-6", lambda: philosophers(6)),
    ("slot-4", lambda: slotted_ring(4)),
    ("phil-8", lambda: philosophers(8)),
]
if QUICK:
    CONFIGS = CONFIGS[:2]
elif os.environ.get("REPRO_FULL"):
    CONFIGS += [
        ("slot-5", lambda: slotted_ring(5)),
        ("phil-12", lambda: philosophers(12)),
    ]

OLD_ENGINE = "classic"

# Reorder rows sift in current/next pair groups at the per-iteration
# safe points.  The threshold is deliberately higher than the BDD
# bench's: ZDD families here are small enough that sifting below ~20k
# live nodes costs more wall-clock than the node savings return
# (measured on slot-4: threshold 2k tripled the fixpoint time while 20k
# matched the unreordered run; phil-8 gains ~1.3x at 20k).
REORDER_THRESHOLD = 20_000

# Engine grid: label -> (engine, auto_reorder).  "chained" is the
# narrowing acceptance row; the "+reorder" row exercises the kernel's
# pair-grouped ZDD sifting.
ENGINE_GRID: List[Tuple[str, str, bool]] = [
    ("chained", "chained", False),
    ("chained+reorder", "chained", True),
]
# The classic-vs-chained acceptance metric is the best of the plain
# chained rows; the PR 3 acceptance is the best of the reorder rows
# (which also carry the narrowing — it is unconditional in the shared
# sweep).
CHAINED_ROWS = ("chained",)
REORDER_ROWS = ("chained+reorder",)
# Re-measure attempts for the wall-clock acceptance bounds: only a
# reproducible slowdown fails (same policy as check_regression.py).
ATTEMPTS = 3
# Normalised-ratio tolerance for the PR 3 comparison.
TOLERANCE = 0.25


def family_of(name: str) -> str:
    return name.rsplit("-", 1)[0]


def largest_per_family(instances) -> Dict[str, str]:
    """Last CONFIGS entry of each family present in ``instances``."""
    largest: Dict[str, str] = {}
    for name, _ in CONFIGS:
        if name in instances:
            largest[family_of(name)] = name
    return largest


def measure_engines(factory: Callable) -> Dict[str, Dict]:
    """Full fixpoint statistics per ZDD image engine.

    Every row runs on a fresh manager; ``total_nodes`` (the high-water
    node-slot count) stands next to ``peak_live_nodes`` (peak
    unique-table occupancy, which garbage collection and reordering can
    now actually lower).
    """
    rows: Dict[str, Dict] = {}
    result = Analysis(factory(), AnalysisSpec(
        backend="zdd", form="functional", reorder=False)).run()
    rows[OLD_ENGINE] = {
        "markings": result.markings,
        "iterations": result.iterations,
        "image_seconds": result.extras["fixpoint_seconds"],
        "final_zdd_nodes": result.final_nodes,
        "total_nodes": result.extras["total_nodes"],
        "peak_live_nodes": result.peak_nodes,
    }
    for label, engine, reorder in ENGINE_GRID:
        result = Analysis(factory(), AnalysisSpec(
            backend="zdd", engine=engine,
            reorder=reorder, reorder_threshold=REORDER_THRESHOLD)).run()
        rows[label] = {
            "engine": engine,
            "reorder": reorder,
            "markings": result.markings,
            "iterations": result.iterations,
            "image_seconds": result.extras["fixpoint_seconds"],
            "final_zdd_nodes": result.final_nodes,
            "total_nodes": result.extras["total_nodes"],
            "peak_live_nodes": result.peak_nodes,
            "reorder_count": result.reorder_count,
            "ae_calls": result.extras["ae_calls"],
            "ae_cache_hits": result.extras["ae_cache_hits"],
        }
    classic_seconds = rows[OLD_ENGINE]["image_seconds"]
    for label, _, _ in ENGINE_GRID:
        row = rows[label]
        row["speedup_vs_classic"] = (
            classic_seconds / row["image_seconds"]
            if row["image_seconds"] > 0 else float("inf"))
    rows["summary"] = {
        # Plain chained rows only: the PR 3 acceptance gate must not be
        # able to hide a plain-sweep regression behind a reorder win.
        "chained_best_speedup_vs_classic": max(
            rows[label]["speedup_vs_classic"] for label in CHAINED_ROWS),
        "reorder_narrowing_best_speedup_vs_classic": max(
            rows[label]["speedup_vs_classic"] for label in REORDER_ROWS),
    }
    return rows


def committed_pr3_baselines() -> Dict[str, float]:
    """Classic-normalised PR 3 chained ratios from the committed report.

    The PR 3 baseline (chained without narrowing or reordering) is
    carried forward across regenerations as ``pr3_chained_ratio`` —
    ``chained_image_seconds / classic_image_seconds`` measured in the
    same process, so the comparison survives machine changes.  On the
    first regeneration after PR 3 the ratio is derived from the
    committed plain chained rows.
    """
    try:
        with open(JSON_PATH) as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        return {}
    section = stored.get("zdd") or {}
    baselines: Dict[str, float] = {}
    for name, rows in section.get("instances", {}).items():
        carried = rows.get("pr3_chained_ratio")
        if carried is not None:
            baselines[name] = carried
            continue
        classic = rows.get(OLD_ENGINE, {}).get("image_seconds")
        chained = [rows[label]["image_seconds"] for label in CHAINED_ROWS
                   if label in rows]
        if classic and chained:
            baselines[name] = min(chained) / classic
    return baselines


def reorder_ratio(rows: Dict[str, Dict]) -> Optional[float]:
    """Classic-normalised time of the best reorder+narrowing row."""
    classic = rows[OLD_ENGINE]["image_seconds"]
    if classic <= 0:
        return None
    return min(rows[label]["image_seconds"]
               for label in REORDER_ROWS) / classic


def collect() -> Dict:
    """All measurements, in the ``"zdd"`` JSON section layout."""
    pr3 = committed_pr3_baselines()
    instances: Dict[str, Dict] = {}
    for name, factory in CONFIGS:
        rows = measure_engines(factory)
        if name in pr3:
            rows["pr3_chained_ratio"] = pr3[name]
            ratio = reorder_ratio(rows)
            if ratio is not None:
                rows["summary"]["reorder_narrowing_vs_pr3_ratio"] = \
                    ratio / pr3[name] if pr3[name] > 0 else float("inf")
        instances[name] = rows
    section: Dict = {
        "benchmark": "ZDD relational product image engines",
        "full_scale": bool(os.environ.get("REPRO_FULL")),
        "quick": QUICK,
        "reorder_threshold": REORDER_THRESHOLD,
        "instances": instances,
    }
    return {"zdd": section}


@pytest.fixture(scope="module")
def report():
    data = collect()
    write_report(data)
    return data["zdd"]


def test_report_written(report):
    assert os.path.exists(JSON_PATH)
    with open(JSON_PATH) as handle:
        stored = json.load(handle)
    assert stored["zdd"]["instances"].keys() == report["instances"].keys()
    # The BDD sections must survive the merge.
    assert "instances" in stored


def test_engines_reach_same_fixpoint(report):
    for name, rows in report["instances"].items():
        counts = {rows[OLD_ENGINE]["markings"]}
        counts.update(rows[label]["markings"]
                      for label, _, _ in ENGINE_GRID)
        assert len(counts) == 1, (name, counts)


def test_chained_iterates_less(report):
    for name, rows in report["instances"].items():
        assert rows["chained"]["iterations"] \
            <= rows[OLD_ENGINE]["iterations"], name


def test_fused_product_cache_is_hit(report):
    for name, rows in report["instances"].items():
        row = rows["chained"]
        assert row["ae_calls"] > 0
        assert row["ae_cache_hits"] > 0, (name, row)


def test_chained_beats_classic_on_largest(report):
    """The PR 3 acceptance bound, still holding: on the largest instance
    of each family the chained ZDD image fixpoint must beat the old
    per-transition ``ZddNet.image_all`` loop.

    A wall-clock ratio, but a structural one (fewer, cheaper fixpoint
    iterations: 2 vs 21 on phil-8, 10 vs 38 on slot-4); a failing
    instance is re-measured up to ``ATTEMPTS`` times so only a
    reproducible slowdown fails.
    """
    for family, name in largest_per_family(report["instances"]).items():
        rows = report["instances"][name]
        best = rows["summary"]["chained_best_speedup_vs_classic"]
        attempt = 1
        while best < 1.0 and attempt < ATTEMPTS:
            fresh = measure_engines(dict(CONFIGS)[name])
            best = max(best,
                       fresh["summary"]["chained_best_speedup_vs_classic"])
            attempt += 1
        assert best >= 1.0, (name, best)


def test_reorder_narrowing_not_slower_than_pr3(report):
    """The PR 5 acceptance bound: chained with reordering *and*
    frontier narrowing must be no slower than the PR 3 chained baseline
    on the largest instance of each family.

    Both sides are classic-normalised ratios measured in-process, so
    the committed baseline transfers across machines; a failing
    instance is re-measured up to ``ATTEMPTS`` times.
    """
    for family, name in largest_per_family(report["instances"]).items():
        rows = report["instances"][name]
        baseline = rows.get("pr3_chained_ratio")
        if baseline is None or baseline <= 0:
            continue  # first run on a fresh checkout: nothing committed
        bound = baseline * (1 + TOLERANCE)
        ratio = reorder_ratio(rows)
        attempt = 1
        while ratio is not None and ratio > bound and attempt < ATTEMPTS:
            fresh = measure_engines(dict(CONFIGS)[name])
            fresh_ratio = reorder_ratio(fresh)
            if fresh_ratio is not None:
                ratio = min(ratio, fresh_ratio)
            attempt += 1
        assert ratio is not None and ratio <= bound, \
            (name, ratio, baseline)


def main() -> None:
    data = collect()
    path = write_report(data)
    for name, rows in data["zdd"]["instances"].items():
        classic = rows[OLD_ENGINE]
        print(f"{name}: classic t={classic['image_seconds']:.3f}s "
              f"iters={classic['iterations']} "
              f"markings={classic['markings']}")
        for label, _, _ in ENGINE_GRID:
            row = rows[label]
            print(f"  {label:<22} t={row['image_seconds']:.3f}s "
                  f"({row['speedup_vs_classic']:.2f}x) "
                  f"iters={row['iterations']} "
                  f"peak={row['peak_live_nodes']} "
                  f"reorders={row['reorder_count']} "
                  f"ae={row['ae_calls']}/{row['ae_cache_hits']}")
        summary = rows["summary"]
        print(f"  best chained speedup vs classic: "
              f"{summary['chained_best_speedup_vs_classic']:.2f}x")
        if "pr3_chained_ratio" in rows:
            print(f"  reorder+narrowing vs PR3 chained (normalised): "
                  f"{summary.get('reorder_narrowing_vs_pr3_ratio', 0):.2f}"
                  f" (<= {1 + TOLERANCE:.2f} passes)")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
