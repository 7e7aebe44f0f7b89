"""Table 3 reproduction: sparse vs. dense encoding schemes.

The paper's Table 3 runs three scalable families — Muller pipelines,
dining philosophers and the slotted ring — under the conventional sparse
encoding and the SMC-based dense encoding, reporting the reachable
marking count, variable count, final reachability-BDD size and CPU time
(from the structural initial order, not the paper's; see ``runner``).

Default sizes are scaled to what pure-Python BDDs traverse in seconds;
``REPRO_FULL=1`` switches to the paper's sizes (muller-30/40/50,
phil-5/8/10, slot-5/7/9 — expect very long runs).

Run with ``python -m repro.experiments.table3``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..analysis import AnalysisSpec
from . import runner
from ..petri.generators import muller, philosophers, slotted_ring
from .runner import ExperimentRow, format_table, full_scale

HARNESS_SIZES: Dict[str, Sequence[int]] = {
    "muller": (4, 6, 8),
    "phil": (2, 3, 4),
    "slot": (2, 3, 4),
}
PAPER_SIZES: Dict[str, Sequence[int]] = {
    "muller": (30, 40, 50),
    "phil": (5, 8, 10),
    "slot": (5, 7, 9),
}
FACTORIES: Dict[str, Callable[[int], object]] = {
    "muller": muller,
    "phil": philosophers,
    "slot": slotted_ring,
}

# The published Table 3 (for EXPERIMENTS.md comparisons): markings,
# sparse (V, BDD, CPU-s), dense (V, BDD, CPU-s); None = timeout.
PAPER_TABLE3 = {
    "muller-30": (6.0e7, (120, 4475, 585), (60, 1315, 32)),
    "muller-40": (4.6e10, (150, 4897, 7046), (80, 2339, 131)),
    "muller-50": (3.6e13, (200, None, None), (100, 3651, 449)),
    "phil-5": (8.5e4, (65, 640, 2), (35, 155, 3)),
    "phil-8": (7.8e7, (104, 2933, 12), (56, 373, 19)),
    "phil-10": (7.4e9, (130, 1689, 90), (70, 425, 285)),
    "slot-5": (1.7e6, (50, 492, 14), (25, 131, 5)),
    "slot-7": (7.9e8, (70, 807, 109), (35, 239, 9)),
    "slot-9": (3.8e11, (90, None, None), (45, 400, 110)),
}


def instances(sizes: Dict[str, Sequence[int]] = None
              ) -> List[Tuple[str, object]]:
    """The benchmark instances as ``(name, net)`` pairs."""
    if sizes is None:
        sizes = PAPER_SIZES if full_scale() else HARNESS_SIZES
    result = []
    for family, family_sizes in sizes.items():
        for size in family_sizes:
            result.append((f"{family}-{size}", FACTORIES[family](size)))
    return result


def run(sizes: Dict[str, Sequence[int]] = None,
        reorder: bool = True) -> List[ExperimentRow]:
    """Measure every instance under both encodings via ``analyze()``."""
    rows: List[ExperimentRow] = []
    for name, net in instances(sizes):
        for scheme, label in (("sparse", "sparse"),
                              ("improved", "dense")):
            spec = AnalysisSpec(scheme=scheme, strategy="bfs",
                                reorder=reorder)
            rows.append(runner.run(name, net, spec, label=label))
    return rows


def main() -> None:
    rows = run()
    print(format_table(
        "Table 3: sparse vs. dense encoding (this reproduction)",
        rows, engines=("sparse", "dense")))
    print()
    print("Expected shape (paper): dense uses ~50% of the variables, "
          "BDD nodes shrink 2-4x.")


if __name__ == "__main__":
    main()
