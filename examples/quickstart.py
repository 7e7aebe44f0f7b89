#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the Figure 1 Petri net, inspects its structure (incidence matrix,
P-invariants, State Machine Components), encodes it three ways, runs the
symbolic reachability traversal and cross-checks against explicit
enumeration — touching each layer of the library's public API once.

Run:  python examples/quickstart.py
"""

from repro.analysis import Analysis, AnalysisSpec
from repro.bdd import BDD
from repro.encoding import (DenseEncoding, ImprovedEncoding, SparseEncoding,
                            declare_variables, place_functions)
from repro.encoding.optimal import optimal_variable_count
from repro.petri import ReachabilityGraph, find_smcs
from repro.petri.generators import figure1_net
from repro.petri.incidence import incidence_matrix
from repro.petri.invariants import (invariant_support,
                                    minimal_semipositive_invariants)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The net (paper Figure 1.a).
    # ------------------------------------------------------------------
    net = figure1_net()
    print(f"net: {net!r}")
    print(f"initial marking: {net.initial_marking!r}")

    # ------------------------------------------------------------------
    # 2. Structure: incidence matrix and invariants (Section 2).
    # ------------------------------------------------------------------
    print("\nincidence matrix (rows p1..p7, columns t1..t7):")
    print(incidence_matrix(net))
    invariants = minimal_semipositive_invariants(net)
    print("\nminimal semi-positive P-invariants:")
    for weights in invariants:
        print(f"  {list(weights)}  support={invariant_support(net, weights)}")

    smcs = find_smcs(net)
    print("\nstate machine components (Figure 2.e):")
    for smc in smcs:
        print(f"  {smc!r}")

    # ------------------------------------------------------------------
    # 3. Explicit reachability (Figure 1.b) — 8 markings.
    # ------------------------------------------------------------------
    graph = ReachabilityGraph(net)
    print(f"\nexplicit reachability graph: {len(graph)} markings, "
          f"{len(graph.edges)} edges")
    for marking in graph.markings:
        print(f"  {sorted(marking.support)}")

    # ------------------------------------------------------------------
    # 4. Encodings (Section 3): sparse 7 vars, dense 4 vars.
    # ------------------------------------------------------------------
    for encoding in (SparseEncoding(net), DenseEncoding(net),
                     ImprovedEncoding(net)):
        # Section 3's density: optimal bits over used variables.
        density = (optimal_variable_count(len(graph))
                   / encoding.num_variables)
        print(f"\n{type(encoding).__name__}: {encoding.num_variables} "
              f"variables, density {density:.2f}")

    # Characteristic functions of places (Eq. 4) on the dense encoding.
    dense = DenseEncoding(net)
    bdd = BDD()
    declare_variables(dense, bdd)
    places = place_functions(dense, bdd)
    print("\ncharacteristic functions (dense encoding):")
    for place in net.places:
        print(f"  [{place}] over variables "
              f"{sorted(places[place].support_names())}")

    # ------------------------------------------------------------------
    # 5. Symbolic analysis (Section 5) and cross-validation: one spec,
    #    one call — the Analysis session keeps the reachable set alive
    #    for the model-checking queries below.
    # ------------------------------------------------------------------
    analysis = Analysis(net, AnalysisSpec(scheme="improved"))
    result = analysis.run()
    print(f"\nsymbolic analysis: {result!r}")
    assert result.markings == len(graph), "engines disagree!"
    print("symbolic and explicit marking counts agree.")

    # ------------------------------------------------------------------
    # 6. Model checking over the already-computed reachable set.
    # ------------------------------------------------------------------
    checker = analysis.checker()
    print(f"\ndeadlocks: {checker.find_deadlocks().detail}")
    places = analysis.symbolic_net.places
    exclusive = checker.ag(~(places["p2"] & places["p4"])) \
        == checker.reachable
    print(f"p2/p4 mutual exclusion (AG not both): {exclusive}")
    home = checker.can_always_recover(analysis.symbolic_net.initial)
    print(f"initial marking is a home marking: {home.holds}")


if __name__ == "__main__":
    main()
