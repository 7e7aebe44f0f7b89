"""Symbolic transition machinery (Section 5.3).

:class:`SymbolicNet` binds an encoding to a BDD manager and provides the
per-transition image and preimage operators.  For safe nets the
transition function of every variable is either the identity or a
constant (Eqs. 2 and 6), so the forward image needs no variable renaming:

    img_t(M) = exists(changed vars, M & E_t) & forced-values-cube

and the preimage is a plain cofactor:

    pre_t(M') = E_t & M'|forced-values

The Section 5.2 toggle-based firing — valid on the reachable set of a
safe net — is also provided (``image_toggle``).

Saturation fires each pair ``(force_t, E_t)`` in place, so both BDD
forms, functional and relational, run on a :class:`SymbolicNet` whose
manager declares no next-state copy.

Toggle images and pre-images accumulate into a running set one
transition at a time (``image_toggle_into``, ``preimage_all``), each
step one fused kernel recursion that builds neither the conjunction
nor the toggled copy or cofactor.

:class:`TraversalLimitError`, which the analysis sessions raise on a
``max_iterations`` overrun, lives here too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd import BDD, Function, cube, false
from ..encoding.characteristic import (declare_variables,
                                       enabling_functions, initial_function,
                                       place_functions)
from ..encoding.scheme import Encoding, TransitionSpec
from ..petri.marking import Marking


class TraversalLimitError(RuntimeError):
    """A fixpoint overran ``max_iterations``.

    Subclasses ``RuntimeError`` for compatibility with callers that
    caught the old generic exception, but carries the partial state the
    old message discarded: ``reached`` and ``frontier`` are the sets at
    the moment of the overrun (a :class:`~repro.bdd.Function` on the
    BDD paths, a raw node id on the ZDD path, ``None`` when no state
    applies) and ``iterations`` the completed step count.  The partial
    reached set is a genuine under-approximation — every marking in it
    is reachable — so callers can checkpoint it or report progress
    instead of losing the work.
    """

    def __init__(self, message: str, *, reached=None, frontier=None,
                 iterations: int = 0) -> None:
        super().__init__(message)
        self.reached = reached
        self.frontier = frontier
        self.iterations = iterations


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
        applies dynamic reordering during traversal), on a supplied
        manager too.
    reorder_threshold:
        Live-node threshold for the automatic sifting trigger.
    """

    def __init__(self, encoding: Encoding, bdd: Optional[BDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if bdd is None:
            bdd = BDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if bdd.num_vars:
            raise ValueError("SymbolicNet needs a fresh BDD manager")
        bdd.configure_reorder(auto_reorder, reorder_threshold)
        self.encoding = encoding
        self.net = encoding.net
        self.bdd = bdd
        declare_variables(encoding, bdd)
        self.places: Dict[str, Function] = place_functions(encoding, bdd)
        self.enabling: Dict[str, Function] = enabling_functions(
            encoding, bdd, self.places)
        self.specs: Dict[str, TransitionSpec] = {
            t: encoding.transition_spec(t) for t in self.net.transitions}
        self.initial: Function = initial_function(encoding, bdd)
        # One cube of forced values per transition, built by the first
        # quantify-force image: saturation and the toggle images never
        # read them, so no other run keeps them live.
        self._force_cubes: Optional[Dict[str, Function]] = None

    # ------------------------------------------------------------------

    def image(self, states: Function, transition: str) -> Function:
        """Successors of ``states`` under one transition (Eq. 2/6)."""
        spec = self.specs[transition]
        if not spec.quantify:
            return states & self.enabling[transition]
        if self._force_cubes is None:
            self._force_cubes = {
                t: cube(self.bdd, dict(self.specs[t].force))
                for t in self.net.transitions}
        shifted = states.and_exists(self.enabling[transition], spec.quantify)
        return shifted & self._force_cubes[transition]

    def image_toggle(self, states: Function, transition: str) -> Function:
        """Toggle-based firing (Section 5.2).

        Equivalent to :meth:`image` on states satisfying the encoding
        invariant of a safe net (every component's variables spell the
        code of its marked place, and output places of the sparse part
        are empty).
        """
        return self.image_toggle_into(false(self.bdd), states, transition)

    def image_toggle_into(self, acc: Function, states: Function,
                          transition: str) -> Function:
        """``acc | image_toggle(states, transition)`` in one fused
        kernel recursion (``or_and_toggle``): one transition's step of
        the BFS toggle image, with no intermediate diagram."""
        return acc.or_and_toggle(states, self.enabling[transition],
                                 self.specs[transition].toggle)

    def preimage(self, states: Function, transition: str) -> Function:
        """Predecessors of ``states`` under one transition."""
        return false(self.bdd).or_cofactor_and(
            states, dict(self.specs[transition].force),
            self.enabling[transition])

    def image_all(self, states: Function,
                  use_toggle: bool = False) -> Function:
        """Successors under all transitions (disjunctively partitioned,
        Eq. 3), fired in net order."""
        step = (self.image_toggle_into if use_toggle
                else lambda acc, s, t: acc | self.image(s, t))
        result = false(self.bdd)
        for transition in self.net.transitions:
            result = step(result, states, transition)
        return result

    def saturation_events(self) -> List[Tuple[Dict[str, bool], int]]:
        """One ``(force_t, E_t)`` event per transition, in net order:
        the list the kernel's saturation calls take (``E_t`` as an
        edge, kept referenced by :attr:`enabling`).  A safe net's
        transition forces constants (Eqs. 2 and 6), so the pair is its
        whole effect."""
        return [(dict(self.specs[t].force), self.enabling[t].node)
                for t in self.net.transitions]

    def preimage_all(self, states: Function) -> Function:
        """Predecessors under all transitions."""
        result = false(self.bdd)
        for transition in self.net.transitions:
            result = result.or_cofactor_and(
                states, dict(self.specs[transition].force),
                self.enabling[transition])
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
