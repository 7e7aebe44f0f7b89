#!/usr/bin/env python
"""Beyond safe nets: k-bounded analysis.

The paper's "extension to unsafe PNs": a producer/consumer with a
multi-token buffer, analyzed with count-bit encodings and relational
images, and checked against explicit enumeration.

Run:  python examples/kbounded.py
"""

from repro.analysis import Analysis, AnalysisSpec
from repro.petri import PetriNet, ReachabilityGraph


def bounded_section() -> None:
    print("=== k-bounded: producer/consumer ===")
    # A producer limited by 3 credits; the consumer returns them.  The
    # buffer holds up to three tokens — not a safe net.
    net = PetriNet("prodcons")
    net.add_place("buffer")
    net.add_place("credit", tokens=3)
    net.add_transition("produce", pre=["credit"], post=["buffer"])
    net.add_transition("consume", pre=["buffer"], post=["credit"])

    explicit = ReachabilityGraph(net, require_safe=False)
    print(f"explicit enumeration: {len(explicit)} markings "
          f"(buffer holds up to {explicit.place_bound('buffer')} tokens)")

    analysis = Analysis(net, AnalysisSpec(k_bound=3))
    result = analysis.run()
    knet = analysis.symbolic_net  # the KBoundedNet, for count queries
    print(f"symbolic (2 bits/place): {result!r}")
    assert result.markings == len(explicit)

    # Queries over token counts.
    full = knet.count_equals("buffer", 3)
    print(f"buffer can fill completely: "
          f"{not (result.reachable & full).is_zero()}")
    conserved = all(m["credit"] + m["buffer"] == 3
                    for m in knet.markings_of(result.reachable))
    print(f"tokens conserved (credit + buffer = 3 everywhere): {conserved}")


def main() -> None:
    bounded_section()


if __name__ == "__main__":
    main()
