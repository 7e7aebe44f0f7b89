"""Unit tests for the incidence matrix (Section 2.1)."""

import numpy as np
import pytest

from repro.petri.generators import figure1_net
from repro.petri.incidence import incidence_matrix
from repro.petri.invariants import (incidence_rows,
                                    minimal_semipositive_invariants)

# The incidence matrix printed in Section 2.1 of the paper.
PAPER_MATRIX = np.array([
    [-1, -1, 0, 0, 0, 0, 1],
    [1, 0, -1, 0, 0, 0, 0],
    [1, 0, 0, -1, 0, 0, 0],
    [0, 1, 0, 0, -1, 0, 0],
    [0, 1, 0, 0, 0, -1, 0],
    [0, 0, 1, 0, 1, 0, -1],
    [0, 0, 0, 1, 0, 1, -1],
])


def test_incidence_matrix_matches_paper():
    assert np.array_equal(incidence_matrix(figure1_net()), PAPER_MATRIX)


def test_state_equation_matches_token_game():
    """``M' = M + C @ sigma`` (Equation 1) with ``sigma`` the firing
    counts of a sequence."""
    net = figure1_net()
    sequence = ["t1", "t3", "t4", "t7", "t2"]
    marking = net.initial_marking
    for transition in sequence:
        marking = net.fire(marking, transition)
    sigma = np.array([sequence.count(t) for t in net.transitions])
    m0 = np.array([net.initial_marking[p] for p in net.places])
    assert (m0 + incidence_matrix(net) @ sigma).tolist() \
        == [marking[p] for p in net.places]


def test_paper_invariants_check_out():
    net = figure1_net()
    matrix = incidence_matrix(net)
    # I = [2 1 1 1 1 1 1] is an invariant but not minimal; I1 and I2 are.
    for weights in ([2, 1, 1, 1, 1, 1, 1], [1, 1, 0, 1, 0, 1, 0],
                    [1, 0, 1, 0, 1, 0, 1]):
        assert not (np.array(weights) @ matrix).any()
    assert (np.array([1, 0, 0, 0, 0, 0, 0]) @ matrix).any()


# ---------------------------------------------------------------------------
# Every generator family

FAMILIES = ["figure1", "figure4", "muller3", "slot2", "phil3", "dme2",
            "dmecir2", "jjreg-a2"]


def walk(net, steps=40):
    """A deterministic firing sequence of up to ``steps`` transitions:
    at each marking, fire the enabled transition that comes next after
    the last one fired, in net order (so the walk does not circle one
    cycle)."""
    marking, sequence, last = net.initial_marking, [], -1
    order = {t: i for i, t in enumerate(net.transitions)}
    for _ in range(steps):
        enabled = net.enabled_transitions(marking)
        if not enabled:
            break
        transition = min(enabled,
                         key=lambda t: (order[t] <= last, order[t]))
        marking = net.fire(marking, transition)
        sequence.append(transition)
        last = order[transition]
    return sequence


@pytest.mark.parametrize("name", FAMILIES)
def test_incidence_matrix_is_post_minus_pre(name, make_net):
    net = make_net(name)
    matrix = incidence_matrix(net)
    assert matrix.shape == (len(net.places), len(net.transitions))
    for i, place in enumerate(net.places):
        for j, transition in enumerate(net.transitions):
            assert matrix[i, j] == (int(place in net.postset(transition))
                                    - int(place in net.preset(transition)))
    # The Farkas elimination reads the same matrix as plain ints.
    assert matrix.tolist() == incidence_rows(net)


@pytest.mark.parametrize("name", FAMILIES)
def test_state_equation_along_a_walk(name, make_net):
    """Equation 1 after every prefix of a firing sequence."""
    net = make_net(name)
    matrix = incidence_matrix(net)
    column = {t: j for j, t in enumerate(net.transitions)}
    marking = net.initial_marking
    vector = np.array([marking[p] for p in net.places])
    sequence = walk(net)
    assert len(sequence) > len(net.transitions) // 2
    for transition in sequence:
        marking = net.fire(marking, transition)
        vector = vector + matrix[:, column[transition]]
        assert vector.tolist() == [marking[p] for p in net.places]


@pytest.mark.parametrize("name", FAMILIES)
def test_p_invariants_conserve_tokens(name, make_net):
    """Every minimal P-invariant ``I`` satisfies ``I C = 0``, so its
    weighted token count is the same in every marking of a walk."""
    net = make_net(name)
    matrix = incidence_matrix(net)
    invariants = minimal_semipositive_invariants(net)
    assert invariants
    markings = [net.initial_marking]
    for transition in walk(net):
        markings.append(net.fire(markings[-1], transition))
    for weights in invariants:
        assert not (np.array(weights) @ matrix).any()
        counts = {sum(w * marking[p] for w, p in zip(weights, net.places))
                  for marking in markings}
        assert len(counts) == 1
