"""Unit tests for T-invariants."""

import numpy as np
import pytest

from repro.petri import PetriNet
from repro.petri.generators import figure1_net, figure4_net
from repro.petri.incidence import incidence_matrix
from repro.petri.invariants import minimal_semipositive_t_invariants

FAMILIES = ["figure1", "figure4", "muller3", "slot2", "phil3", "dme2",
            "dmecir2", "jjreg-a2"]


class TestTInvariants:
    def test_figure1_cycles(self):
        """The two firing cycles of the running example: t1 t3 t4 t7 and
        t2 t5 t6 t7."""
        net = figure1_net()
        invariants = minimal_semipositive_t_invariants(net)
        supports = {tuple(t for t, w in zip(net.transitions, weights)
                          if w > 0)
                    for weights in invariants}
        assert ("t1", "t3", "t4", "t7") in supports
        assert ("t2", "t5", "t6", "t7") in supports
        assert len(invariants) == 2

    def test_t_invariants_reproduce_marking(self):
        """Firing a T-invariant's transitions returns to the start."""
        net = figure1_net()
        marking = net.initial_marking
        for transition in ["t1", "t3", "t4", "t7"]:
            marking = net.fire(marking, transition)
        assert marking == net.initial_marking

    def test_philosopher_cycles(self):
        """Each philosopher's five transitions form a T-invariant."""
        net = figure4_net()
        invariants = minimal_semipositive_t_invariants(net)
        supports = {tuple(t for t, w in zip(net.transitions, weights)
                          if w > 0)
                    for weights in invariants}
        assert ("t1", "t2", "t3", "t4", "t5") in supports
        assert ("t6", "t7", "t8", "t9", "t10") in supports

    def test_acyclic_net_has_no_t_invariant(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t", pre=["a"], post=["b"])
        assert minimal_semipositive_t_invariants(net) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_t_invariants_are_minimal_firing_cycles(name, make_net):
    """``C X = 0`` for every returned ``X >= 0``, and no returned
    support strictly contains another."""
    net = make_net(name)
    matrix = incidence_matrix(net)
    invariants = minimal_semipositive_t_invariants(net)
    assert invariants
    supports = []
    for weights in invariants:
        assert min(weights) >= 0 and any(weights)
        assert not (matrix @ np.array(weights)).any()
        supports.append(frozenset(
            t for t, w in zip(net.transitions, weights) if w > 0))
    for support in supports:
        assert not any(other < support for other in supports)
