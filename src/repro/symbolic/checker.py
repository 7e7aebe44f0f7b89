"""Symbolic model checking on encoded Petri nets.

The paper's motivation is verification of concurrent systems (deadlock
freedom, mutual exclusion, signal-transition-graph implementability), so
the library exposes the standard checks built on the reachability set and
the pre-image operator:

* deadlock detection with witness extraction,
* marking reachability and place-invariant style assertions,
* mutual-exclusion checks over sets of places,
* the CTL-lite fixpoints ``EF`` (backward reachability) and ``AG``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..bdd import Function, false, true
from ..petri.marking import Marking
from .transition import SymbolicNet


@dataclass
class CheckReport:
    """Outcome of a verification query with an optional witness."""

    holds: bool
    witness: Optional[Marking] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


class ModelChecker:
    """Verification queries over a symbolic net's reachable set.

    The checker never traverses on its own: ``reachable`` is the
    fixpoint an analysis session already computed.  The usual way to
    get one is ``Analysis(net, spec).checker()``.
    """

    def __init__(self, symnet: SymbolicNet, reachable: Function) -> None:
        self.symnet = symnet
        self.reachable = reachable

    # -- helpers -----------------------------------------------------------

    def _witness(self, states: Function) -> Optional[Marking]:
        if states.is_zero():
            return None
        assignment = states.sat_one()
        full = {name: assignment.get(name, False)
                for name in self.symnet.encoding.variables}
        return self.symnet.encoding.assignment_to_marking(full)

    def marking_count(self) -> int:
        """Number of reachable markings."""
        return self.symnet.count_markings(self.reachable)

    # -- queries -----------------------------------------------------------

    def is_reachable(self, marking: Marking) -> bool:
        """Is this exact marking reachable?"""
        minterm = self.symnet.marking_function(Marking(marking))
        return not (minterm & self.reachable).is_zero()

    def find_deadlocks(self) -> CheckReport:
        """Reachable markings enabling no transition."""
        dead = self.reachable & self.symnet.deadlock_condition()
        if dead.is_zero():
            return CheckReport(holds=False, detail="no reachable deadlock")
        count = self.symnet.count_markings(dead)
        return CheckReport(holds=True, witness=self._witness(dead),
                           detail=f"{count} deadlocked marking(s)")

    def check_mutual_exclusion(self, places: Iterable[str]) -> CheckReport:
        """No reachable marking marks two of the given places at once."""
        places = list(places)
        violation = false(self.symnet.bdd)
        for i, place_a in enumerate(places):
            for place_b in places[i + 1:]:
                both = (self.symnet.places[place_a]
                        & self.symnet.places[place_b])
                violation = violation | (self.reachable & both)
        if violation.is_zero():
            return CheckReport(holds=True,
                               detail=f"places {places} mutually exclusive")
        return CheckReport(holds=False, witness=self._witness(violation),
                           detail="simultaneously marked")

    def check_invariant(self, predicate: Function) -> CheckReport:
        """AG predicate: does it hold on every reachable marking?"""
        violation = self.reachable - predicate
        if violation.is_zero():
            return CheckReport(holds=True, detail="invariant holds")
        return CheckReport(holds=False, witness=self._witness(violation),
                           detail="invariant violated")

    def ef(self, target: Function) -> Function:
        """Backward fixpoint: reachable states that can reach ``target``.

        The result is intersected with the reachable set, i.e. this is
        ``reachable AND EF(target)``.

        The fixpoint is frontier-based: ``preimage_all`` distributes
        over union (per-transition preimages are cofactor-and-constrain,
        both union homomorphisms), so each round only preimages the
        states added in the previous round instead of the whole
        accumulated set.  The frontier subtraction is an AND plus a
        complement-bit flip, and — as in the forward relational engines
        — the frontier is narrowed against ``frontier | ~current``
        (Coudert-Madre restrict) before preimaging: any states it picks
        up are already in ``current``, so their preimages are members
        of the fixpoint and at worst arrive a round early.
        """
        from .relational import SIMPLIFY_MIN_FRONTIER_NODES

        current = target & self.reachable
        frontier = current
        while not frontier.is_zero():
            if frontier.size() >= SIMPLIFY_MIN_FRONTIER_NODES:
                frontier = frontier.restrict(frontier | ~current)
            frontier = (self.symnet.preimage_all(frontier)
                        & self.reachable) - current
            current = current | frontier
            if current == self.reachable:
                # Canonicity makes the saturation test one edge compare;
                # it skips the final (largest-frontier) preimage round.
                return current
        return current

    def ag(self, predicate: Function) -> Function:
        """Reachable states all of whose reachable futures satisfy
        ``predicate``: the complement of ``EF(not predicate)``."""
        return self.reachable - self.ef(self.reachable - predicate)

    def can_always_recover(self, target: Function) -> CheckReport:
        """AG EF target — e.g. home-marking / liveness-style checks."""
        recover = self.ef(target)
        stuck = self.reachable - recover
        if stuck.is_zero():
            return CheckReport(holds=True,
                               detail="target reachable from every state")
        return CheckReport(holds=False, witness=self._witness(stuck),
                           detail="states that cannot reach target")

    def place_predicate(self, place: str) -> Function:
        """The characteristic function of one place (convenience)."""
        return self.symnet.places[place]

    def enabled_predicate(self, transition: str) -> Function:
        """The enabling function of one transition (convenience)."""
        return self.symnet.enabling[transition]

    def live_transitions(self) -> List[str]:
        """Transitions enabled in at least one reachable marking."""
        return [t for t in self.symnet.net.transitions
                if not (self.reachable
                        & self.symnet.enabling[t]).is_zero()]
