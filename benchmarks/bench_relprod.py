"""Relational-product benchmarks: the fused image and the gated fixpoint.

Two questions, answered on the slotted-ring and philosophers
generators:

1. **Fused vs. materialised image** — computing ``Img(R, S)`` with the
   one-pass ``and_exists`` against first building the conjunction
   ``R AND S`` and quantifying afterwards, on the relational form's
   interleaved manager.  ``R`` is the monolithic relation
   ``OR_t R_t``, built here from the encoding: no engine runs it.
2. **The gated fixpoint** — the relational form's default engine
   (saturation) on :data:`GATE_ROW` against Table 3's ``strategy="bfs"``
   functional spec on :data:`GATE_BASELINE`, both on a fixed order,
   recorded in the ``"gate"`` section as the pass with the lowest time
   ratio over :data:`RATIO_PASSES` interleaved passes in one process.

Every fixpoint row runs through ``repro.analysis.Analysis`` and records
the session's ``extras["fixpoint_seconds"]`` (the build is not
included).  Results are written to ``BENCH_relprod.json`` at the
repository root.  Run either way::

    PYTHONPATH=src python benchmarks/bench_relprod.py
    PYTHONPATH=src python -m pytest benchmarks/bench_relprod.py -q

Harness-scale instances by default; set ``REPRO_FULL=1`` to add
phil-12, ``REPRO_QUICK=1`` for the two smallest only.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.analysis.backends import SATURATION_BANDS
from repro.bdd import Function, false, variable
from repro.petri.generators import muller, philosophers, slotted_ring
from repro.symbolic import RelationalNet

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_relprod.json")

QUICK = bool(os.environ.get("REPRO_QUICK"))

CONFIGS: List[Tuple[str, Callable]] = [
    ("slot-3", lambda: slotted_ring(3)),
    ("phil-6", lambda: philosophers(6)),
    ("slot-4", lambda: slotted_ring(4)),
    ("slot-5", lambda: slotted_ring(5)),
    ("phil-8", lambda: philosophers(8)),
]
if QUICK:
    CONFIGS = CONFIGS[:2]
elif os.environ.get("REPRO_FULL"):
    CONFIGS += [("phil-12", lambda: philosophers(12))]

#: The relational form's default engine (saturation) on a fixed order.
RELATIONAL_DEFAULT = AnalysisSpec(form="relational", reorder=False)
#: Table 3's spec (``experiments/table3.py``) on a fixed order.
TABLE3_BFS = AnalysisSpec(strategy="bfs", reorder=False)

#: The regression gate's pair, both measured in one process: the
#: relational default's fixpoint on muller-20 over Table 3's BFS
#: fixpoint on slot-5 (about 0.17-0.25 s and 0.17-0.26 s on a 2-CPU
#: box).  The baseline normalises machine speed away.  The default
#: fixpoint of smaller nets finishes near or under the gate's 0.1 s
#: noise floor (muller-16: 0.09-0.15 s), where the gate would skip.
GATE_ROW = ("muller-20", lambda: muller(20))
GATE_BASELINE = ("slot-5", lambda: slotted_ring(5))
# Interleaved passes behind the recorded gate: one pass's ratio spreads
# widely on a shared box, so the committed gate and the regression
# gate's fresh one both take the pass with the lowest ratio.
RATIO_PASSES = 5


def transition_relation(relnet: RelationalNet, transition: str) -> Function:
    """``R_t(P, Q) = E_t(P) and AND_i (q_i <-> delta_i(P, t))``: the
    identity-complete relation of Eq. 3 over the interleaved manager."""
    bdd = relnet.bdd
    forced = dict(relnet.encoding.transition_spec(transition).force)
    relation = relnet.enabling[transition]
    for name, copy in zip(relnet.current, relnet.next):
        next_var = variable(bdd, copy)
        if name in forced:
            target = next_var if forced[name] else ~next_var
        else:
            target = next_var.iff(variable(bdd, name))
        relation = relation & target
    return relation


def monolithic_relation(relnet: RelationalNet) -> Function:
    """The single relation ``R = OR_t R_t`` of the textbook image."""
    result = false(relnet.bdd)
    for transition in relnet.net.transitions:
        result = result | transition_relation(relnet, transition)
    return result


def measure_image(factory: Callable) -> Dict:
    """Time one full-reachable-set image, materialised vs. fused.

    Both paths compute ``exists(current, S AND R)`` for the monolithic
    relation ``R`` and the reachable set ``S``; caches are cleared and
    garbage collected between the two so neither warms the other.  Live
    node counts are sampled right after the image to expose the
    footprint of the materialised intermediate conjunction.
    """
    analysis = Analysis(factory(), RELATIONAL_DEFAULT)
    relnet = analysis.symbolic_net
    bdd = relnet.bdd
    relation = monolithic_relation(relnet)
    reached = analysis.reachable

    bdd.collect_garbage()
    base_nodes = bdd.live_nodes()
    start = time.perf_counter()
    conjunction = reached & relation
    materialised = conjunction.exists(relnet.current)
    old_seconds = time.perf_counter() - start
    old_nodes = bdd.live_nodes()
    conjunction_nodes = conjunction.size()
    del conjunction

    bdd.collect_garbage()
    start = time.perf_counter()
    fused = reached.and_exists(relation, relnet.current)
    new_seconds = time.perf_counter() - start
    new_nodes = bdd.live_nodes()

    assert fused == materialised, "fused and materialised images disagree"
    return {
        "variables": len(relnet.current),
        "transitions": len(relnet.net.transitions),
        "relation_nodes": relation.size(),
        "reachable_nodes": reached.size(),
        "conjunction_nodes": conjunction_nodes,
        "materialised_seconds": old_seconds,
        "materialised_live_nodes": old_nodes - base_nodes,
        "fused_seconds": new_seconds,
        "fused_live_nodes": new_nodes - base_nodes,
        "speedup": old_seconds / new_seconds if new_seconds > 0
        else float("inf"),
    }


def fixpoint_row(factory: Callable, spec: AnalysisSpec) -> Dict:
    """One fixpoint's statistics on a fresh manager."""
    result = Analysis(factory(), spec).run()
    return {
        "markings": result.markings,
        "iterations": result.iterations,
        "image_seconds": result.extras["fixpoint_seconds"],
        "peak_live_nodes": result.peak_nodes,
        "final_bdd_nodes": result.final_nodes,
    }


def gate_ratio(gate: Dict) -> float:
    """The gated row's fixpoint seconds over the baseline's."""
    return gate["saturation"]["image_seconds"] \
        / gate["bfs"]["image_seconds"]


def measure_gate() -> Dict:
    """One pass of the gate's pair, in this process."""
    gate = {"row": GATE_ROW[0], "baseline": GATE_BASELINE[0],
            "saturation": fixpoint_row(GATE_ROW[1], RELATIONAL_DEFAULT),
            "bfs": fixpoint_row(GATE_BASELINE[1], TABLE3_BFS)}
    gate["ratio"] = gate_ratio(gate)
    return gate


def best_gate_pass() -> Dict:
    """:func:`measure_gate` ``RATIO_PASSES`` times in this process; the
    pass whose time ratio is lowest."""
    return min((measure_gate() for _ in range(RATIO_PASSES)),
               key=gate_ratio)


def collect() -> Dict:
    """All measurements, in the JSON layout of ``BENCH_relprod.json``."""
    report: Dict = {
        "benchmark": "relational product image and fixpoints",
        "full_scale": bool(os.environ.get("REPRO_FULL")),
        "quick": QUICK,
        "cpus": os.cpu_count() or 1,
        "instances": {},
    }
    for name, factory in CONFIGS:
        report["instances"][name] = {"image": measure_image(factory)}
    report["gate"] = best_gate_pass()
    return report


def write_report(report: Dict) -> str:
    """Write the report, preserving foreign top-level sections.

    ``BENCH_relprod.json`` is shared with ``bench_zdd_relprod.py`` (the
    ``"zdd"`` section) and others; each benchmark overwrites only its
    own keys so running one does not drop the other's numbers.
    """
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
        written = json.load(handle)
    assert written["instances"].keys() == report["instances"].keys()
    assert written["gate"] == report["gate"]


def test_fused_image_never_materialises(report):
    """The fused single-image pass must not pay for the conjunction: its
    live-node footprint stays below the materialised path's, which must
    build a conjunction at least as large as the final image."""
    for name in report["instances"]:
        image = report["instances"][name]["image"]
        assert image["fused_live_nodes"] <= image["materialised_live_nodes"]
        assert image["conjunction_nodes"] > 0


def test_gate_pair_is_recorded(report):
    gate = report["gate"]
    assert (gate["row"], gate["baseline"]) == (GATE_ROW[0],
                                               GATE_BASELINE[0])
    assert gate["ratio"] == gate_ratio(gate) > 0
    assert gate["saturation"]["iterations"] == SATURATION_BANDS
    assert gate["bfs"]["iterations"] > SATURATION_BANDS


def main() -> None:
    report = collect()
    path = write_report(report)
    for name, rows in report["instances"].items():
        image = rows["image"]
        print(f"{name}: single image materialised "
              f"{image['materialised_seconds']:.3f}s vs fused "
              f"{image['fused_seconds']:.3f}s ({image['speedup']:.1f}x, "
              f"conjunction {image['conjunction_nodes']} nodes avoided)")
    gate = report["gate"]
    print(f"gate: {gate['row']} saturation "
          f"{gate['saturation']['image_seconds']:.3f}s over "
          f"{gate['baseline']} bfs {gate['bfs']['image_seconds']:.3f}s "
          f"= {gate['ratio']:.3f} (best of {RATIO_PASSES})")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
