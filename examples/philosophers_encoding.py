#!/usr/bin/env python
"""The paper's worked example: encoding the two dining philosophers.

Walks through Sections 4.3-5.4 on the Figure 4 net:

* the six SMCs of Figure 3, discovered from the P-invariants;
* the covering-based encoding with 10 variables (Section 4.3);
* the improved encoding with 8 variables, reproducing Table 1 literally;
* the characteristic functions of Table 2;
* the zero-variable-component extension (6 variables).

Run:  python examples/philosophers_encoding.py
"""

from repro.analysis import AnalysisSpec, analyze
from repro.bdd import BDD
from repro.encoding import (DenseEncoding, ImprovedEncoding,
                            declare_variables, place_functions)
from repro.encoding.improved import encoding_variable_summary
from repro.encoding.optimal import optimal_variable_count
from repro.petri import ReachabilityGraph, smc_from_places
from repro.petri.generators import FIGURE3_SMC_PLACES, figure4_net


def main() -> None:
    net = figure4_net()
    graph = ReachabilityGraph(net)
    print(f"net: {net!r}")
    print(f"reachable markings: {len(graph)} (the paper says 22)")
    symbolic = analyze(net, AnalysisSpec(scheme="improved"))
    assert symbolic.markings == len(graph)
    print(f"symbolic cross-check: analyze() finds {symbolic.markings} "
          f"markings on {symbolic.variables} variables")

    # ------------------------------------------------------------------
    # Figure 3: the six SMCs.
    # ------------------------------------------------------------------
    components = [smc_from_places(net, places, name=f"SM{i + 1}")
                  for i, places in enumerate(FIGURE3_SMC_PLACES)]
    print("\nFigure 3 SMC decomposition:")
    for component in components:
        print(f"  {component!r}")

    # ------------------------------------------------------------------
    # Section 4.3: covering-based encoding, 10 variables.
    # ------------------------------------------------------------------
    dense = DenseEncoding(net, components=components)
    print(f"\ncovering-based encoding: {dense.num_variables} variables "
          f"(paper: 10), density "
          f"{optimal_variable_count(len(graph)) / dense.num_variables:.2f} "
          "(paper: 0.5)")

    # ------------------------------------------------------------------
    # Section 4.4 / Table 1: improved encoding, 8 variables.
    # ------------------------------------------------------------------
    improved = ImprovedEncoding(net, components=components)
    print(f"\nimproved encoding ({improved.num_variables} variables, "
          "paper Table 1):")
    print(encoding_variable_summary(improved))

    # ------------------------------------------------------------------
    # Table 2: characteristic functions.
    # ------------------------------------------------------------------
    bdd = BDD()
    declare_variables(improved, bdd)
    places = place_functions(improved, bdd)
    print("\ncharacteristic functions (Table 2):")
    for place in net.places:
        cubes = list(places[place].iter_cubes())
        rendered = " + ".join(
            "".join(("" if value else "!") + var
                    for var, value in sorted(cube.items()))
            for cube in cubes)
        print(f"  [{place}] = {rendered}")

    # Verify the functions against every reachable marking.
    for marking in graph.markings:
        assignment = improved.marking_to_assignment(marking)
        for place in net.places:
            assert places[place](assignment) == (place in marking)
    print("\nall characteristic functions verified on the 22 markings.")

    # ------------------------------------------------------------------
    # Extension: zero-variable components.
    # ------------------------------------------------------------------
    extended = ImprovedEncoding(net, components=components,
                                allow_zero_variable_components=True)
    print(f"\nzero-variable-component extension: "
          f"{extended.num_variables} variables (the forks are implied "
          "by the fork-SMC tokens)")


if __name__ == "__main__":
    main()
