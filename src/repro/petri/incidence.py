"""Incidence matrix (Section 2.1).

The incidence matrix ``C : P x T -> {-1, 0, 1}`` has ``C[p, t] = [t.post](p)
- [t.pre](p)``: input transitions of a place contribute ``+1``, output
transitions ``-1`` (a self-loop contributes ``0``).  The SMC linear
program (:func:`repro.petri.smc.smc_covering_place_lp`) reads it as an
array.
"""

from __future__ import annotations

import numpy as np

from .invariants import incidence_rows
from .net import PetriNet


def incidence_matrix(net: PetriNet) -> np.ndarray:
    """The |P| x |T| incidence matrix of ``net`` (dtype ``int64``)."""
    return np.array(incidence_rows(net), dtype=np.int64).reshape(
        len(net.places), len(net.transitions))


