#!/usr/bin/env python
"""Compare encoding schemes across the benchmark families (Figure 2 +
Table 3 in miniature).

For each family the script reports variables, final reachability-BDD
size and traversal time under the sparse and dense
schemes, plus the Figure 2 toggle-activity comparison on the running
example.

Run:  python examples/encoding_comparison.py
"""

from repro.analysis import AnalysisSpec
from repro.experiments.figure2 import run as figure2_run
from repro.experiments.runner import format_table, run
from repro.petri.generators import muller, philosophers, slotted_ring


def main() -> None:
    # ------------------------------------------------------------------
    # Figure 2: schemes on the running example.
    # ------------------------------------------------------------------
    print("Figure 2 — encoding schemes on the running example:")
    for summary in figure2_run():
        print(f"  {summary.label:<44} {summary.variables} variables, "
              f"{summary.toggle_cost:.2f} toggles/transition")

    # ------------------------------------------------------------------
    # Table 3 in miniature: three families, small sizes.
    # ------------------------------------------------------------------
    rows = []
    for name, net in [("muller-5", muller(5)),
                      ("phil-3", philosophers(3)),
                      ("slot-3", slotted_ring(3))]:
        for scheme, label in (("sparse", "sparse"),
                              ("improved", "dense")):
            spec = AnalysisSpec(scheme=scheme, strategy="bfs")
            rows.append(run(name, net, spec, label=label))
    print()
    print(format_table("Sparse vs. dense (miniature Table 3)", rows,
                       engines=("sparse", "dense")))

    print("\nsparse / dense ratios:")
    for sparse, dense in zip(rows[::2], rows[1::2]):
        time = (f"{sparse.seconds / dense.seconds:.2f}"
                if dense.seconds > 0 else "inf")
        print(f"  {sparse.instance:<10} "
              f"variables x{sparse.variables / dense.variables:.2f}  "
              f"nodes x{sparse.nodes / dense.nodes:.2f}  time x{time}")
    print("\nThe paper's claim: variables halve, nodes shrink 2-4x.")


if __name__ == "__main__":
    main()
