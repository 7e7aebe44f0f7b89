"""Symbolic model checking on encoded Petri nets.

The paper's motivation is verification of concurrent systems (deadlock
freedom, mutual exclusion, signal-transition-graph implementability), so
the library exposes the standard checks built on the reachable set it
is handed and the pre-image operator:

* deadlock detection with witness extraction,
* the CTL-lite fixpoints ``EF`` (backward reachability) and ``AG``
  (``AG p = reachable AND NOT EF NOT p``), with which invariants such
  as mutual exclusion are checked,
* home-marking checks (``AG EF target``).

``EF`` is ``E[reachable U target]`` by constrained saturation, one
kernel call (:meth:`repro.bdd.manager.BDD.saturate_pre`) over one
``(force_t, E_t)`` event per transition: every transition fires at the
top level of its support, inside the nodes it can change, rather than
in whole passes over the reachable set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bdd import Function
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
        self._events = symnet.saturation_events()

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

    def find_deadlocks(self) -> CheckReport:
        """Reachable markings enabling no transition.

        Starts with a collection, so the previous query's garbage is
        gone before this one allocates (see :meth:`ef`)."""
        self.symnet.bdd.collect_garbage()
        dead = self.reachable & self.symnet.deadlock_condition()
        if dead.is_zero():
            return CheckReport(holds=False, detail="no reachable deadlock")
        count = self.symnet.count_markings(dead)
        return CheckReport(holds=True, witness=self._witness(dead),
                           detail=f"{count} deadlocked marking(s)")

    def ef(self, target: Function) -> Function:
        """Backward fixpoint: reachable states that can reach ``target``.

        The result is intersected with the reachable set, i.e. this is
        ``reachable AND EF(target)``: the least set that holds
        ``target AND reachable`` and every reachable predecessor
        ``reachable AND E_t AND current|force_t`` of its states.  It is
        one kernel call, constrained saturation
        (:meth:`~repro.bdd.manager.BDD.saturate_pre`): each transition
        fires at the top level of its support, inside the nodes it can
        change, until the node stops growing, so no pass ever walks the
        whole reachable set again.  The least fixpoint is canonical, so
        the edge is the one breadth-first ``EF`` over
        ``preimage_all`` reaches.

        The query starts with a garbage collection, so the previous
        query's intermediates are freed before this one allocates.  The
        kernel call keeps its memo tables to itself and runs no safe
        point: no collection or reorder can start in the middle of it.
        """
        bdd = self.symnet.bdd
        bdd.collect_garbage()
        return Function(bdd, bdd.saturate_pre(self.reachable.node,
                                              target.node, self._events))

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

