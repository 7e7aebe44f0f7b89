"""Shared net and oracle fixtures for the whole test suite.

The generator nets and their explicit reachable-marking counts were
historically rebuilt ad hoc per test module (``test_traversal``,
``test_image_engines``, ``test_zdd_traversal`` each carried its own
``FAMILIES`` list and ``explicit_counts`` fixture, re-enumerating the
same state spaces).  They live here now:

* ``NET_FACTORIES`` — every small generator instance the suite uses,
  keyed by a short name; test modules parametrize over the *names* and
  build nets through the ``make_net`` fixture.
* ``explicit_counts`` — session-scoped, lazily enumerated explicit
  reachability counts (the oracle each symbolic engine is checked
  against); each state space is enumerated at most once per session.

The ``slow`` marker (registered in ``pytest.ini``) excludes the large
differential-harness configurations from tier-1; run them with
``-m slow``.
"""

import pytest

from repro.petri import PetriNet, ReachabilityGraph
from repro.petri.generators import (dme_circuit, dme_spec, figure1_net,
                                    figure4_net, jj_register, muller,
                                    philosophers, slotted_ring)

def primed_pair():
    """``p -> t -> p'``: a place named like another place's next-state
    copy in the relational nets."""
    net = PetriNet("primes")
    net.add_place("p", 1)
    net.add_place("p'")
    net.add_transition("t", ["p"], ["p'"])
    return net


NET_FACTORIES = {
    "figure1": figure1_net,
    "primes": primed_pair,
    "figure4": figure4_net,
    "muller3": lambda: muller(3),
    "muller4": lambda: muller(4),
    "muller5": lambda: muller(5),
    "slot2": lambda: slotted_ring(2),
    "slot3": lambda: slotted_ring(3),
    "slot4": lambda: slotted_ring(4),
    "phil3": lambda: philosophers(3),
    "phil4": lambda: philosophers(4),
    "phil6": lambda: philosophers(6),
    "dme2": lambda: dme_spec(2),
    "dme3": lambda: dme_spec(3),
    "dmecir2": lambda: dme_circuit(2, wire_depth=2),
    "jjreg-a2": lambda: jj_register("a", bits=2),
    "jjreg-b2": lambda: jj_register("b", bits=2),
    "jjreg-a3": lambda: jj_register("a", bits=3),
}

# Enough for every instance above; muller5 tops out around 30k markings.
MAX_MARKINGS = 200_000


@pytest.fixture(scope="session")
def make_net():
    """Factory fixture: ``make_net("phil3")`` builds a fresh net."""

    def make(name):
        return NET_FACTORIES[name]()

    return make


class _ExplicitCounts:
    """Lazy per-session cache of explicit reachable-marking counts."""

    def __init__(self):
        self._cache = {}

    def __getitem__(self, name):
        count = self._cache.get(name)
        if count is None:
            net = NET_FACTORIES[name]()
            count = len(ReachabilityGraph(net, max_markings=MAX_MARKINGS))
            self._cache[name] = count
        return count


@pytest.fixture(scope="session")
def explicit_counts():
    """Explicit reachability oracle, enumerated at most once per net."""
    return _ExplicitCounts()
