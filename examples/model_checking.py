#!/usr/bin/env python
"""Symbolic verification of asynchronous-system models.

The paper's motivation is verifying concurrent systems (asynchronous
circuits, protocols).  This example model-checks three of the benchmark
families with the dense encoding:

* DME ring — mutual exclusion of the critical sections, deadlock freedom;
* dining philosophers — finds the classic deadlock and a counterexample;
* Muller pipeline — deadlock freedom and home-marking (reversibility).

Run:  python examples/model_checking.py
"""

from repro.analysis import Analysis, AnalysisSpec
from repro.bdd import false
from repro.petri.generators import dme_spec, muller, philosophers

# Every net below runs the same declarative configuration: the dense
# encoding through the functional BDD backend, reachable set computed
# once per Analysis session and shared by all of its queries.
SPEC = AnalysisSpec(scheme="improved")


def exclusive(checker, places) -> bool:
    """AG "no two of ``places`` are marked at once" (the reachable set
    is where ``AG`` is evaluated)."""
    marked = [checker.symnet.places[place] for place in places]
    two_at_once = false(checker.symnet.bdd)
    for i, first in enumerate(marked):
        for second in marked[i + 1:]:
            two_at_once = two_at_once | (first & second)
    return checker.ag(~two_at_once) == checker.reachable


def check_dme() -> None:
    cells = 3
    net = dme_spec(cells)
    checker = Analysis(net, SPEC).checker()
    print(f"DME ring with {cells} cells "
          f"({checker.marking_count()} reachable markings)")

    critical = [f"c{i}_uc" for i in range(cells)]
    print(f"  mutual exclusion of {critical}: "
          f"{exclusive(checker, critical)}")

    deadlock = checker.find_deadlocks()
    print(f"  deadlock free: {not deadlock.holds}")

    # Every cell can eventually enter its critical section.
    for i in range(cells):
        reachable_crit = checker.ef(checker.symnet.places[f"c{i}_uc"])
        accessible = not (reachable_crit
                          & checker.symnet.initial).is_zero()
        print(f"  cell {i} can reach its critical section: {accessible}")


def check_philosophers() -> None:
    net = philosophers(3)
    checker = Analysis(net, SPEC).checker()
    print(f"\ndining philosophers (3) "
          f"({checker.marking_count()} reachable markings)")

    deadlock = checker.find_deadlocks()
    print(f"  deadlock found: {deadlock.holds} — {deadlock.detail}")
    if deadlock.witness is not None:
        print(f"  witness: {sorted(deadlock.witness.support)}")

    # Neighbours cannot eat at the same time (they share a fork) ...
    together = not exclusive(checker, ["ph0_eating", "ph1_eating"])
    print(f"  neighbours eat simultaneously: {together}")
    # ... and the initial marking is not a home marking (deadlocks).
    home = checker.can_always_recover(checker.symnet.initial)
    print(f"  initial marking is a home marking: {home.holds}")


def check_muller() -> None:
    net = muller(4)
    checker = Analysis(net, SPEC).checker()
    print(f"\nMuller pipeline (4 stages) "
          f"({checker.marking_count()} reachable markings)")
    print(f"  deadlock free: {not checker.find_deadlocks().holds}")
    print(f"  reversible (AG EF M0): "
          f"{checker.can_always_recover(checker.symnet.initial).holds}")
    enabling = checker.symnet.enabling
    live = [t for t in net.transitions
            if not (checker.reachable & enabling[t]).is_zero()]
    print(f"  all transitions live at least once: "
          f"{len(live)} of {len(net.transitions)}")
    # Complementary place pairs are mutually exclusive by construction.
    print(f"  complementary pair y0_0/y0_1 exclusive: "
          f"{exclusive(checker, ['y0_0', 'y0_1'])}")


def main() -> None:
    check_dme()
    check_philosophers()
    check_muller()


if __name__ == "__main__":
    main()
