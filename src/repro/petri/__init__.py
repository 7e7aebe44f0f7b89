"""Petri-net substrate: nets, markings, structure theory, reachability.

* :class:`PetriNet`, :class:`Marking` — the basic formalism (Section 2).
* :mod:`repro.petri.incidence` — the incidence matrix.
* :mod:`repro.petri.invariants` — minimal semi-positive P-invariants
  (Farkas elimination, exact arithmetic).
* :mod:`repro.petri.smc` — State Machine Components (Theorem 2.1).
* :mod:`repro.petri.order` — FORCE structural variable orders.
* :class:`ReachabilityGraph` — explicit enumeration for cross-validation.
* :mod:`repro.petri.generators` — the benchmark families of Section 6.

:mod:`repro.petri.reachability` loads on first access to one of its
names.
"""

from .._lazy import lazy_exports
from .marking import Marking
from .net import PetriNet, PetriNetError
from .order import force_order, place_order
from .smc import (StateMachineComponent, find_smcs, single_token_smcs,
                  smc_from_places, smcs_from_invariants)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "reachability": ("ReachabilityGraph", "StateExplosion", "UnsafeNet",
                     "count_reachable_markings"),
})

__all__ = [
    "PetriNet", "PetriNetError", "Marking", "force_order", "place_order",
    "ReachabilityGraph", "StateExplosion", "UnsafeNet",
    "count_reachable_markings",
    "StateMachineComponent", "smc_from_places", "smcs_from_invariants",
    "single_token_smcs", "find_smcs",
]
