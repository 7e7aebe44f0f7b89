"""Incidence matrix and the state equation (Section 2.1).

The incidence matrix ``C : P x T -> {-1, 0, 1}`` has ``C[p, t] = [t.post](p)
- [t.pre](p)``: input transitions of a place contribute ``+1``, output
transitions ``-1`` (a self-loop contributes ``0``).  The state equation
``M' = M + C @ sigma`` relates a firing-count vector to the marking it
produces.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .invariants import incidence_rows
from .marking import Marking
from .net import PetriNet


def incidence_matrix(net: PetriNet) -> np.ndarray:
    """The |P| x |T| incidence matrix of ``net`` (dtype ``int64``)."""
    return np.array(incidence_rows(net), dtype=np.int64).reshape(
        len(net.places), len(net.transitions))


def marking_vector(net: PetriNet, marking: Marking) -> np.ndarray:
    """Column vector of token counts over the net's place order."""
    return np.array(marking.vector(net.places), dtype=np.int64)


def firing_count_vector(net: PetriNet,
                        sequence: Iterable[str]) -> np.ndarray:
    """The firing-count vector (Parikh vector) of a transition sequence."""
    index = {trans: j for j, trans in enumerate(net.transitions)}
    counts = np.zeros(len(net.transitions), dtype=np.int64)
    for trans in sequence:
        counts[index[trans]] += 1
    return counts


def state_equation(net: PetriNet, marking: Marking,
                   sequence: Sequence[str]) -> np.ndarray:
    """Apply the state equation ``M' = M + C @ sigma`` (Equation 1)."""
    return (marking_vector(net, marking)
            + incidence_matrix(net) @ firing_count_vector(net, sequence))


def check_invariant(net: PetriNet, weights: Sequence[int]) -> bool:
    """True iff ``weights`` (over the place order) is a P-invariant,
    i.e. ``weights @ C == 0``."""
    vector = np.asarray(weights, dtype=np.int64)
    if vector.shape != (len(net.places),):
        raise ValueError("weight vector length must equal |P|")
    return bool(np.all(vector @ incidence_matrix(net) == 0))


def invariant_token_count(net: PetriNet, weights: Sequence[int],
                          marking: Marking) -> int:
    """The weighted token count ``I . M`` preserved by a P-invariant."""
    return int(np.dot(np.asarray(weights, dtype=np.int64),
                      marking_vector(net, marking)))
