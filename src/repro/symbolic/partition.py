"""Generic relational layer: the partition and the chained sweep.

The paper's central claim is that the encoding choice (dense BDD vs
sparse ZDD) is orthogonal to the symbolic fixpoint machinery.  This
module is that machinery, written once and parameterized by the manager:

* the support sort (:func:`sort_by_support`) that orders transitions
  top of the variable order first,
* the disjunctive-partition layer :class:`PartitionedNet` — Eq. 3's
  partition, one sparse relation per transition, built once and
  re-sorted by the current variable order before a sweep,
* the chained sweep with its ``diff``-based frontier narrowing, and
  the plain Eq. 3 union of per-block images it is checked against.

:class:`~repro.symbolic.relational.RelationalNet` (boolean encodings on
a BDD manager) and
:class:`~repro.symbolic.zdd_relational.ZddRelationalNet` (token sets on
a ZDD manager) are thin encoding-specific shims over this layer: they
supply how a transition's block is built and how its image is
computed; the order the blocks are applied in and how a sweep composes
them live here.  The analysis sessions (:mod:`repro.analysis.backends`)
call the sweep directly and own the fixpoint loop around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable,
                    List, Optional, Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bdd import Function
    from ..dd import DDManager
    from ..petri.net import PetriNet

__all__ = [
    "sort_by_support", "RelationPartition", "PartitionedNet",
    "TraversalLimitError", "next_state_suffix",
]


def next_state_suffix(names: Iterable[str]) -> str:
    """The suffix naming each variable's next-state copy: the shortest
    run of primes such that no name plus it is also one of ``names``
    (``"'"`` unless a net has, say, both ``p`` and ``p'``)."""
    names = set(names)
    suffix = "'"
    while any(name + suffix in names for name in names):
        suffix += "'"
    return suffix


def sort_by_support(items: Sequence[str],
                    support_of: Callable[[str], FrozenSet[int]],
                    level_of: Callable[[int], int]) -> List[str]:
    """``items`` ordered by the top (smallest) level of their support.

    The standard heuristic for disjunctively partitioned relations:
    relations whose support sits high in the variable order are applied
    first, so a chained sweep pushes information down the order.  Ties
    break by name; supportless items sort last.
    """

    bottom = 1 << 60  # below every real level

    def top_level(item: str) -> int:
        support = support_of(item)
        if not support:
            return bottom
        return min(level_of(var) for var in support)

    return sorted(items, key=lambda item: (top_level(item), item))


# ---------------------------------------------------------------------
# The BDD partition block
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelationPartition:
    """One transition's block of the disjunctive partition (Eq. 3).

    The relation is *sparse*: it constrains only the variables the
    transition actually touches — the enabling support plus the changed
    variables' next-state literals.  Untouched variables pass through
    the relational product untouched, which keeps the block's support
    (and therefore the quantification depth of ``and_exists``) local
    instead of spanning the entire variable order the way the
    monolithic relation does.
    """

    transition: str
    relation: "Function"
    quantify: Tuple[str, ...]
    rename: Dict[str, str]
    support: FrozenSet[int]

    def __repr__(self) -> str:
        return (f"<RelationPartition {self.transition!r} "
                f"quantify={len(self.quantify)} "
                f"nodes={self.relation.size()}>")


# ---------------------------------------------------------------------
# The shared partition layer
# ---------------------------------------------------------------------

class PartitionedNet:
    """Disjunctive-partition machinery parameterized by the manager.

    Subclasses bind an encoding to a concrete
    :class:`~repro.dd.manager.DDManager`, set ``self.net`` (the Petri
    net), ``self.manager`` (the diagram manager) and ``self.initial``
    (the initial state set), and implement the encoding-specific hooks:

    * :meth:`transition_support` — variable indices a transition's
      relation touches (indices, not levels: stable across reordering),
    * :meth:`_make_block` — build one transition's block, whose
      ``support`` holds the variable indices of its relation,
    * :meth:`image_partition` — successors of a state set through one
      block,
    * the state-set algebra ``state_empty`` / ``state_union`` /
      ``state_diff`` / ``state_is_empty`` over whatever representation
      the subclass uses for state sets (``Function`` handles on the BDD
      side, raw node ids on the ZDD side).

    Everything else — the support-sorted partition and the chained
    sweep with frontier narrowing — is shared.
    """

    net: "PetriNet"
    manager: "DDManager"
    _partition: Optional[List] = None
    # The manager's ``order_version`` when the partition was last sorted.
    _sorted_at: Optional[int] = None

    # -- encoding-specific hooks ---------------------------------------

    def transition_support(self, transition: str) -> FrozenSet[int]:
        raise NotImplementedError

    def _make_block(self, transition: str):
        raise NotImplementedError

    def image_partition(self, states, block):
        raise NotImplementedError

    def state_empty(self):
        raise NotImplementedError

    def state_union(self, a, b):
        raise NotImplementedError

    def state_diff(self, a, b):
        raise NotImplementedError

    def state_is_empty(self, states) -> bool:
        raise NotImplementedError

    # -- the partition -------------------------------------------------

    def partitions(self) -> List:
        """The disjunctive partition: one sparse block per transition.

        Built once, in support order.  Before it is handed out, the list
        is stably re-sorted in place by each block's :meth:`top_level`
        under the current variable order (top of the order first), but
        only when the manager's ``order_version`` moved since the last
        sort, so a sweep between reorders pays nothing.  In place and
        stable, blocks that tie keep the order earlier sorts left them
        in.  Relations themselves survive reordering untouched (node
        ids are stable).
        """
        manager = self.manager
        if self._partition is None:
            self._partition = [self._make_block(transition)
                               for transition in sort_by_support(
                                   self.net.transitions,
                                   self.transition_support,
                                   manager.level_of_var)]
        if self._sorted_at != manager.order_version:
            self._partition.sort(key=self.top_level)
            self._sorted_at = manager.order_version
        return self._partition

    def top_level(self, block) -> int:
        """The shallowest current level of ``block``'s support (below
        every variable for an empty support)."""
        level_of = self.manager.level_of_var
        return min((level_of(var) for var in block.support),
                   default=self.manager.num_vars)

    # -- sweep algorithms ----------------------------------------------

    def image_partitioned(self, states, blocks) -> "object":
        """Image as the union of per-block images (Eq. 3).

        The reference one-step image the chained sweep and the tests
        are checked against; no analysis session runs it.
        """
        result = self.state_empty()
        for block in blocks:
            result = self.state_union(result,
                                      self.image_partition(states, block))
        return result

    def image_chained(self, states, reached=None):
        """One chained sweep: apply the blocks in support-sorted order,
        feeding each block the states accumulated so far.

        Returns ``states`` together with every state discovered during
        the sweep — a superset of the one-step image, still contained in
        the reachable closure, which is what makes chained fixpoints
        converge in (often far) fewer iterations.

        When ``reached`` is given the sweep *narrows* each block's
        working set: states in ``reached`` that were not part of this
        sweep's input have already been fed through every block in an
        earlier complete iteration, so their successors are already in
        ``reached`` and recomputing them is pure waste.  Each block
        therefore receives ``current - (reached - states)`` — the
        sweep's own discoveries plus its input — instead of the full
        accumulated family.  The returned set may then miss successors
        of already-expanded states, which is harmless: the fixpoint
        absorbs the sweep into ``reached`` and subtracts ``reached``
        from the new frontier, and those successors are in ``reached``
        by construction.  The fixpoint trajectory is identical with or
        without narrowing; only the per-block work shrinks.
        """
        blocks = self.partitions()
        current = states
        expanded = None
        if reached is not None:
            expanded = self.state_diff(reached, states)
            if self.state_is_empty(expanded):
                expanded = None
        for block in blocks:
            work = current if expanded is None \
                else self.state_diff(current, expanded)
            if self.state_is_empty(work):
                continue
            current = self.state_union(current,
                                       self.image_partition(work, block))
        return current


# ---------------------------------------------------------------------
# Fixpoint limits
# ---------------------------------------------------------------------

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
