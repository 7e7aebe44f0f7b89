"""Symbolic transition machinery (Section 5.3).

:class:`SymbolicNet` binds an encoding to a BDD manager and provides the
per-transition image and preimage operators.  For safe nets the
transition function of every variable is either the identity or a
constant (Eqs. 2 and 6), so the forward image needs no variable renaming:

    img_t(M) = exists(changed vars, M & E_t) & forced-values-cube

and the preimage is a plain cofactor:

    pre_t(M') = E_t & M'|forced-values

The Section 5.2 toggle-based firing — valid on the reachable set of a
safe net — is also provided (``image_toggle``), as is a relational
cross-check implementation in :mod:`repro.symbolic.relational`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..bdd import BDD, Function, cube, false
from ..encoding.characteristic import (declare_variables,
                                       enabling_functions, initial_function,
                                       place_functions)
from ..encoding.scheme import Encoding, TransitionSpec
from ..petri.marking import Marking
from .partition import cluster_by_support


class SymbolicNet:
    """An encoded Petri net ready for symbolic traversal.

    Parameters
    ----------
    encoding:
        Any :class:`~repro.encoding.scheme.Encoding` of a safe net.
    bdd:
        An empty BDD manager to use; created fresh when omitted.
    auto_reorder:
        Enable threshold-triggered sifting at safe points (the paper
        applies dynamic reordering during traversal).
    """

    def __init__(self, encoding: Encoding, bdd: Optional[BDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if bdd is None:
            bdd = BDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if bdd.num_vars:
            raise ValueError("SymbolicNet needs a fresh BDD manager")
        self.encoding = encoding
        self.net = encoding.net
        self.bdd = bdd
        declare_variables(encoding, bdd)
        self.places: Dict[str, Function] = place_functions(encoding, bdd)
        self.enabling: Dict[str, Function] = enabling_functions(
            encoding, bdd, self.places)
        self.specs: Dict[str, TransitionSpec] = {
            t: encoding.transition_spec(t) for t in self.net.transitions}
        self._force_cubes: Dict[str, Function] = {
            t: cube(bdd, dict(spec.force))
            for t, spec in self.specs.items()}
        self.initial: Function = initial_function(encoding, bdd)

    # ------------------------------------------------------------------

    def image(self, states: Function, transition: str) -> Function:
        """Successors of ``states`` under one transition (Eq. 2/6)."""
        spec = self.specs[transition]
        enabled = states & self.enabling[transition]
        if enabled.is_zero():
            return enabled
        if not spec.quantify:
            return enabled
        shifted = enabled.exists(spec.quantify)
        return shifted & self._force_cubes[transition]

    def image_toggle(self, states: Function, transition: str) -> Function:
        """Toggle-based firing (Section 5.2).

        Equivalent to :meth:`image` on states satisfying the encoding
        invariant of a safe net (every component's variables spell the
        code of its marked place, and output places of the sparse part
        are empty).
        """
        spec = self.specs[transition]
        enabled = states & self.enabling[transition]
        if enabled.is_zero() or not spec.toggle:
            return enabled
        return enabled.toggle(spec.toggle)

    def preimage(self, states: Function, transition: str) -> Function:
        """Predecessors of ``states`` under one transition."""
        spec = self.specs[transition]
        restricted = states.cofactor(dict(spec.force))
        return restricted & self.enabling[transition]

    def image_all(self, states: Function, use_toggle: bool = False,
                  order: Optional[Sequence[str]] = None) -> Function:
        """Successors under all transitions (disjunctively partitioned,
        Eq. 3), fired in ``order`` (net order by default)."""
        fire = self.image_toggle if use_toggle else self.image
        result = false(self.bdd)
        for transition in (self.net.transitions if order is None else order):
            result = result | fire(states, transition)
        return result

    # ------------------------------------------------------------------
    # Support-sorted partitioning of the functional image
    # ------------------------------------------------------------------

    def transition_support(self, transition: str) -> FrozenSet[int]:
        """Variables a transition's image depends on: the enabling
        function's support plus the variables it quantifies away."""
        support = set(self.enabling[transition].support())
        spec = self.specs[transition]
        support.update(self.bdd.var_index(v) for v in spec.quantify)
        return frozenset(support)

    def support_sorted_transitions(self) -> List[str]:
        """Transitions ordered by the top level of their support."""
        return [t for cluster in self.transition_clusters(1)
                for t in cluster]

    def transition_clusters(self, cluster_size: int = 1) -> List[List[str]]:
        """Support-sorted transition clusters of at most ``cluster_size``."""
        return cluster_by_support(self.net.transitions,
                                  self.transition_support,
                                  self.bdd.level_of_var, cluster_size)

    def image_cluster(self, states: Function, transitions: Sequence[str],
                      use_toggle: bool = False) -> Function:
        """Successors under one cluster of transitions."""
        return self.image_all(states, use_toggle=use_toggle,
                              order=transitions)

    def preimage_all(self, states: Function) -> Function:
        """Predecessors under all transitions."""
        result = false(self.bdd)
        for transition in self.net.transitions:
            result = result | self.preimage(states, transition)
        return result

    # ------------------------------------------------------------------

    def deadlock_condition(self) -> Function:
        """States enabling no transition."""
        some_enabled = false(self.bdd)
        for transition in self.net.transitions:
            some_enabled = some_enabled | self.enabling[transition]
        return ~some_enabled

    def count_markings(self, states: Function) -> int:
        """Number of markings a state set represents.

        Encodings are injective on markings and images only ever produce
        canonical code assignments, so this is a plain ``satcount``.
        """
        return states.satcount(self.encoding.num_variables)

    def markings_of(self, states: Function) -> List[Marking]:
        """Decode a state set into explicit markings (small sets only)."""
        variables = self.encoding.variables
        result = []
        for assignment in self.bdd.iter_minterms(
                states.node, [self.bdd.var_index(v) for v in variables]):
            named = {self.bdd.var_name(v): val
                     for v, val in assignment.items()}
            result.append(self.encoding.assignment_to_marking(named))
        return result

    def marking_function(self, marking: Marking) -> Function:
        """The minterm of one marking."""
        return cube(self.bdd,
                    self.encoding.marking_to_assignment(marking))

    def __repr__(self) -> str:
        return (f"<SymbolicNet {self.net.name!r} "
                f"encoding={type(self.encoding).__name__} "
                f"vars={self.encoding.num_variables}>")
