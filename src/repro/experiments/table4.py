"""Table 4 reproduction: sparse ZDDs (Yoneda et al.) vs. dense BDDs.

The paper's Table 4 compares the ZDD representation of the sparse
encoding against the dense BDD encoding on DME specification nets, DME
circuit nets and two register-control (JJreg) nets.  The original
benchmark files are not distributed; the generators rebuild the same
regimes (see docs/encodings.md, "Generator substitutions").  Both
diagrams start from the structural initial order, not the paper's (see
``runner``).

Default sizes are harness-scale; ``REPRO_FULL=1`` switches to
paper-scale cell counts.

Run with ``python -m repro.experiments.table4``.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis import AnalysisSpec
from . import runner
from ..petri.generators import dme_circuit, dme_spec, jj_register
from .runner import ExperimentRow, format_table, full_scale

# The published Table 4: markings, ZDD (V, nodes, CPU-s on HP-9000),
# dense BDD (V, nodes, CPU-s on SPARC-20).
PAPER_TABLE4 = {
    "DMEspec8": (7.8e5, (137, 32178, 14), (85, 1748, 12)),
    "DMEspec9": (3.5e6, (154, 71602, 39), (94, 2544, 20)),
    "DMEcir5": (8.5e5, (491, 92214, 622), (249, 47952, 418)),
    "DMEcir7": (9.0e7, (687, 504324, 10205), (347, 394334, 7584)),
    "JJreg-a": (1.8e6, (251, 952246, 2326), (122, 17874, 836)),
    "JJreg-b": (1.1e5, (248, 181701, 42), (120, 24355, 397)),
}


def instances() -> List[Tuple[str, object]]:
    """Benchmark instances: DME spec/circuit rings and JJreg variants."""
    if full_scale():
        return [
            ("DMEspec-8", dme_spec(8)),
            ("DMEspec-9", dme_spec(9)),
            ("DMEcir-5", dme_circuit(5)),
            ("DMEcir-7", dme_circuit(7)),
            ("JJreg-a", jj_register("a", bits=40)),
            ("JJreg-b", jj_register("b", bits=40)),
        ]
    return [
        ("DMEspec-3", dme_spec(3)),
        ("DMEspec-4", dme_spec(4)),
        ("DMEcir-2", dme_circuit(2, wire_depth=2)),
        ("DMEcir-3", dme_circuit(3, wire_depth=1)),
        ("JJreg-a", jj_register("a", bits=5)),
        ("JJreg-b", jj_register("b", bits=5)),
    ]


def run(reorder: bool = True,
        zdd_engines: Tuple[str, ...] = ("classic", "chained")
        ) -> List[ExperimentRow]:
    """Measure every instance under the ZDD baseline(s) and the dense BDD.

    ``zdd_engines`` selects which sparse-ZDD image engines to run —
    ``"classic"`` is the per-transition Yoneda baseline, ``"chained"``
    (the one relational ZDD engine) sweeps the disjunctive partition of
    Eq. 3, so the sparse baseline rides the same fused-image machinery
    as the BDD engines.  Everything routes through ``analyze()``; the ZDD rows
    carry peak-live-node counts, so the table can finally print the
    paper's memory column.
    """
    rows: List[ExperimentRow] = []
    for name, net in instances():
        for engine in zdd_engines:
            if engine == "classic":
                spec = AnalysisSpec(backend="zdd", form="functional")
            else:
                spec = AnalysisSpec(backend="zdd", form="relational",
                                    engine=engine)
            rows.append(runner.run(name, net, spec))
        dense = AnalysisSpec(scheme="improved", strategy="bfs",
                             reorder=reorder)
        rows.append(runner.run(name, net, dense, label="dense"))
    return rows


def main() -> None:
    rows = run()
    print(format_table(
        "Table 4: sparse-ZDD (Yoneda) vs. dense BDD (this reproduction)",
        rows, engines=("zdd", "zdd-chained", "dense"),
        include_peak=True))
    print()
    print("Expected shape (paper): dense uses ~40-50% fewer variables and "
          "fewer nodes than the sparse ZDD; zdd-chained reaches the same "
          "fixpoint as zdd with fewer, cheaper iterations.  Peak columns "
          "are live manager nodes (the paper's memory metric; the ZDD "
          "manager never frees, so its peak is every node ever built).")


if __name__ == "__main__":
    main()
