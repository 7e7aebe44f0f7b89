"""Negation-heavy benchmarks: checker queries and the relational fixpoint.

The traversal engines negate constantly — ``forall`` is ``NOT exists
NOT``, a fixpoint's frontier is the difference ``image AND NOT
reached``, and every checker query pays negations (AG = ``NOT EF NOT``,
deadlock = ``reached AND NOT enabled``).  This benchmark times exactly
those paths:

1. **Checker queries** — deadlock detection, ``AG (no deadlock)`` and
   ``AG EF initial`` (home-marking) over the functional backend's
   reachable set.  ``checker_seconds`` runs them on the plain BFS spec
   with no reordering, so it stays comparable with ``PRE_PR`` (the
   complement-edge >= 1.3x acceptance floor is measured on it);
   ``checker_default_seconds`` and ``checker_default_peak_live_nodes``
   run them on the path users run, ``Analysis(net).checker()`` on the
   default spec.  The ``checker_relational_*`` keys run the same
   queries on ``form="relational"``, which must give the same verdicts.
   phil-12 is the full-scale row: it has no seed-commit numbers, so it
   records the default-spec checkers without ratios.
2. **Relational fixpoint** — the relational form's default engine
   (saturation) on a fixed order; its ``peak_live_nodes`` carries the
   >= 1.5x node-count reduction bound.  The ``sweep_*`` keys keep the
   names the chained relational sweep, since retired, recorded them
   under.
3. **Raw negation** — ``apply_not`` on the full reachable set against a
   reference recursive rebuild (what negation cost before complement
   edges made it a bit flip), both in this process, so the ratio is
   machine-normalised.

``PRE_PR`` carries the numbers measured at the seed commit (eda9dac,
before complement edges) on the reference box.  Its sweep
``peak_live_nodes`` was taken on the chained sweep with the
Coudert-Madre frontier restriction on (``frontier | ~reached`` every
step); both have since been retired, and the saturating fixpoint
measured now peaks far lower on the structural order, so the ratio
against it also counts the engine change, not complement edges alone.
``peak_live_nodes`` and
``markings`` are structural, so their ratios are machine-independent
evidence, while the ``*_seconds`` ratios are honest only against the
same box (recorded alongside ``cpus`` like the parallel grid).
Results merge into ``BENCH_relprod.json`` under ``"negation"``::

    PYTHONPATH=src python benchmarks/bench_negation.py
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.petri.generators import philosophers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_relprod.json")

QUICK = bool(os.environ.get("REPRO_QUICK"))

CONFIGS: List[Tuple[str, Callable]] = [
    ("phil-6", lambda: philosophers(6)),
    ("phil-8", lambda: philosophers(8)),
    ("phil-12", lambda: philosophers(12)),
]
if QUICK:
    CONFIGS = CONFIGS[:1]

#: How many O(1) negations are averaged for ``not_o1_seconds`` (a bit
#: flip is far below one clock tick).
NOT_REPEATS = 1000

#: Seed-commit (pre-complement-edge) numbers, measured on the reference
#: box by running this same workload at eda9dac (a checkout of the seed
#: commit, alternated back-to-back with the post-PR tree; seconds are
#: the minimum of repeated runs, the least noise-inflated statistic on
#: a shared box).  ``peak_live_nodes`` is deterministic for a given
#: code version; seconds are honest only same-box.
PRE_PR: Dict[str, Dict[str, float]] = {
    "phil-6": {"sweep_seconds": 0.317, "peak_live_nodes": 57899,
               "checker_seconds": 2.339},
    "phil-8": {"sweep_seconds": 4.865, "peak_live_nodes": 615475,
               "checker_seconds": 60.690},
}


def recursive_not(bdd, u: int) -> int:
    """Reference pre-complement-edge negation: rebuild the negated DAG.

    This is verbatim what ``BDD.apply_not`` did before ISSUE 10 — a
    memoized full recursion allocating the mirrored DAG — kept here so
    the O(1) bit-flip can be measured against it in the same process
    on any machine.
    """
    from repro.bdd.manager import ONE, ZERO

    complemented = getattr(bdd, "complement_edges", False)
    memo: Dict[int, int] = {}

    def walk(edge: int) -> int:
        if edge == ZERO:
            return ONE
        if edge == ONE:
            return ZERO
        known = memo.get(edge)
        if known is not None:
            return known
        if complemented:
            var = bdd.edge_var(edge)
            low, high = bdd.low_edge(edge), bdd.high_edge(edge)
        else:
            var = bdd._var[edge]
            low, high = bdd._low[edge], bdd._high[edge]
        result = bdd._mk(var, walk(low), walk(high))
        memo[edge] = result
        return result

    return walk(u)


def measure_default_checker(factory: Callable,
                            form: str = "functional") -> Dict:
    """The three checker queries through ``Analysis(net).checker()`` on
    the default spec of the BDD ``form``; the peak covers the fixpoint
    and the queries.  Keys start ``checker_default_`` for the
    functional form, ``checker_relational_`` for the relational one."""
    analysis = Analysis(factory(), AnalysisSpec(form=form))
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    start = time.perf_counter()
    deadlocks = checker.find_deadlocks()
    no_deadlock = checker.ag(~symnet.deadlock_condition())
    home = checker.can_always_recover(symnet.initial)
    seconds = time.perf_counter() - start
    symnet.bdd.live_nodes()  # fold the query phase into the peak
    prefix = "checker_default" if form == "functional" \
        else f"checker_{form}"
    return {
        f"{prefix}_seconds": seconds,
        f"{prefix}_peak_live_nodes": symnet.bdd.peak_live_nodes,
        f"{prefix}_deadlocks": bool(deadlocks),
        f"{prefix}_ag_markings": symnet.count_markings(no_deadlock),
        f"{prefix}_home": bool(home),
    }


def measure_negation(factory: Callable) -> Dict:
    """Checker-query, relational-fixpoint and raw-negation timings."""
    # 1. The relational default's fixpoint (the peak-live-node workload).
    sweep = Analysis(factory(), AnalysisSpec(form="relational",
                                             reorder=False)).run()
    # 2. Checker queries over the functional backend's plain BFS
    # fixpoint (fixed order, quantify-and-force firing).
    analysis = Analysis(factory(), AnalysisSpec(
        strategy="bfs", use_toggle=False, reorder=False))
    symnet = analysis.symbolic_net
    reachable = analysis.reachable
    checker = analysis.checker()
    initial = symnet.marking_function(symnet.net.initial_marking)
    start = time.perf_counter()
    deadlocks = checker.find_deadlocks()
    no_deadlock = checker.ag(~symnet.deadlock_condition())
    home = checker.can_always_recover(initial)
    checker_seconds = time.perf_counter() - start
    default = measure_default_checker(factory)
    relational = measure_default_checker(factory, "relational")
    # 3. Raw negation on the full reachable set.
    bdd = symnet.bdd
    root = reachable.node
    start = time.perf_counter()
    for _ in range(NOT_REPEATS):
        negated = bdd.apply_not(root)
    not_o1_seconds = (time.perf_counter() - start) / NOT_REPEATS
    assert bdd.apply_not(negated) == root
    bdd.clear_caches()
    start = time.perf_counter()
    rebuilt = recursive_not(bdd, root)
    not_recursive_seconds = time.perf_counter() - start
    assert rebuilt == negated

    return {
        "markings": sweep.markings,
        "sweep_seconds": sweep.extras["fixpoint_seconds"],
        "sweep_iterations": sweep.iterations,
        "peak_live_nodes": sweep.peak_nodes,
        "final_bdd_nodes": sweep.final_nodes,
        "checker_seconds": checker_seconds,
        "checker_deadlocks": bool(deadlocks),
        "checker_ag_markings": symnet.count_markings(no_deadlock),
        "checker_home": bool(home),
        **default,
        **relational,
        "reachable_nodes": reachable.size(),
        "not_o1_seconds": not_o1_seconds,
        "not_recursive_seconds": not_recursive_seconds,
        "not_speedup": (not_recursive_seconds / not_o1_seconds
                        if not_o1_seconds > 0 else float("inf")),
    }


def with_pre_pr_ratios(name: str, row: Dict) -> Dict:
    """Attach the committed seed-commit comparison, when recorded."""
    baseline = PRE_PR.get(name) or {}
    if baseline:
        row["pre_pr"] = dict(baseline)
        if baseline.get("peak_live_nodes"):
            row["peak_reduction_vs_pre_pr"] = (
                baseline["peak_live_nodes"] / row["peak_live_nodes"]
                if row["peak_live_nodes"] > 0 else float("inf"))
        if baseline.get("checker_seconds"):
            row["checker_speedup_vs_pre_pr"] = (
                baseline["checker_seconds"] / row["checker_seconds"]
                if row["checker_seconds"] > 0 else float("inf"))
        if baseline.get("sweep_seconds"):
            row["sweep_speedup_vs_pre_pr"] = (
                baseline["sweep_seconds"] / row["sweep_seconds"]
                if row["sweep_seconds"] > 0 else float("inf"))
    return row


def collect() -> Dict:
    report: Dict = {
        "negation": {
            "benchmark": "negation-heavy checker queries and sweeps",
            "quick": QUICK,
            "cpus": os.cpu_count() or 1,
            "not_repeats": NOT_REPEATS,
            "instances": {},
        },
    }
    for name, factory in CONFIGS:
        row = with_pre_pr_ratios(name, measure_negation(factory))
        report["negation"]["instances"][name] = row
    return report


def write_report(report: Dict) -> str:
    """Merge the ``"negation"`` section into ``BENCH_relprod.json``."""
    merged: Dict = {}
    try:
        with open(JSON_PATH) as handle:
            merged = json.load(handle)
    except (FileNotFoundError, ValueError):
        pass
    merged.update(report)
    with open(JSON_PATH, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return JSON_PATH


@pytest.fixture(scope="module")
def report():
    data = collect()
    write_report(data)
    return data


def test_report_written(report):
    assert os.path.exists(JSON_PATH)
    with open(JSON_PATH) as handle:
        assert "negation" in json.load(handle)


def test_rows_reach_known_fixpoints(report):
    for name, row in report["negation"]["instances"].items():
        assert row["markings"] > 0
        assert row["checker_ag_markings"] >= 0


def test_default_spec_gives_the_bfs_verdicts(report):
    for name, row in report["negation"]["instances"].items():
        for query in ("deadlocks", "ag_markings", "home"):
            assert (row[f"checker_default_{query}"]
                    == row[f"checker_{query}"]), (name, query)


def test_relational_form_gives_the_bfs_verdicts(report):
    for name, row in report["negation"]["instances"].items():
        for query in ("deadlocks", "ag_markings", "home"):
            assert (row[f"checker_relational_{query}"]
                    == row[f"checker_{query}"]), (name, query)


def main() -> None:
    report = collect()
    path = write_report(report)
    for name, row in report["negation"]["instances"].items():
        print(f"{name}: sweep {row['sweep_seconds']:.3f}s "
              f"peak={row['peak_live_nodes']} "
              f"checker {row['checker_seconds']:.3f}s "
              f"(default spec {row['checker_default_seconds']:.3f}s, "
              f"peak={row['checker_default_peak_live_nodes']}; "
              f"relational {row['checker_relational_seconds']:.3f}s, "
              f"peak={row['checker_relational_peak_live_nodes']}) "
              f"not O(1) {row['not_o1_seconds'] * 1e6:.2f}us vs "
              f"recursive {row['not_recursive_seconds'] * 1e3:.2f}ms "
              f"({row['not_speedup']:.0f}x)")
        for key in ("peak_reduction_vs_pre_pr",
                    "checker_speedup_vs_pre_pr",
                    "sweep_speedup_vs_pre_pr"):
            if key in row:
                print(f"    {key} = {row[key]:.2f}x")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
