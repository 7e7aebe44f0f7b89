"""Partitioned transition relations for the sparse-ZDD chained sweep.

The relational-product form ported to the token-set encoding of
:class:`~repro.symbolic.zdd_traversal.ZddNet`, where a marking is the
*set of marked places* and firing is set algebra instead of boolean
algebra: sparse per-transition relations over paired current/next
elements, applied in support order through a fused ``and_exists``.
:class:`ZddRelationalNet` owns Eq. 3's partition, one sparse relation
per transition, and the chained sweep over it (``engine="chained"``).
The default ZDD engine, saturation, fires each transition in place on
:class:`~repro.symbolic.zdd_traversal.ZddNet` and needs none of this.

The element universe interleaves current and next elements — place ``p``
at index ``2i``, its primed copy ``p'`` at ``2i + 1`` — so that renaming
next elements back to current ones is order-monotone.  A transition's
sparse relation is the single set ``I ∪ O'`` from the token-set
encoding: the input tokens it consumes (current elements) and the output
tokens it produces (next elements).  Its image through a family ``S``
is the fused three-step pipeline

1. ``supset(S, I)`` — the markings holding every input token,
2. ``and_exists(matched, {O'}, I)`` — strip the consumed tokens and
   deposit the produced ones in one cached pass,
3. ``rename(·, O' -> O)`` — monotone rename back to current elements.

Untouched places flow through every step unchanged: the implicit
identity that keeps the relations sparse.  With the shared
:class:`~repro.dd.manager.DDManager` kernel the ZDD manager
reference-counts, garbage-collects and dynamically reorders; the net
pins its long-lived families (initial marking, sparse relations) with
``ref`` and sifts in current/next pair groups so rename maps stay
order-monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..bdd.zdd import EMPTY, ZDD
from ..dd.manager import DEFAULT_REORDER_GROWTH
from ..petri.net import PetriNet
from ..petri.order import place_order
from .zdd_traversal import ZddStateOps

__all__ = ["ZddSparseRelation", "ZddRelationalNet", "next_state_suffix"]


def next_state_suffix(names: Iterable[str]) -> str:
    """The suffix naming each element's next-state copy: the shortest
    run of primes such that no name plus it is also one of ``names``
    (``"'"`` unless a net has, say, both ``p`` and ``p'``)."""
    names = set(names)
    suffix = "'"
    while any(name + suffix in names for name in names):
        suffix += "'"
    return suffix


@dataclass(frozen=True, eq=False)
class ZddSparseRelation:
    """One transition's sparse relation in the token-set encoding —
    its block of the disjunctive partition.

    ``consume`` holds the current-element indices of the preset (the
    enabling tokens, also the quantified elements), ``produce`` the
    singleton family ``{O'}`` of next elements deposited by the firing,
    ``relation`` the joined set ``{I ∪ O'}``, and ``rename`` maps each
    produced next element back to its current one.
    """

    transition: str
    consume: Tuple[int, ...]
    produce: int
    relation: int
    support: FrozenSet[int]
    rename: Dict[int, int]

    def __repr__(self) -> str:
        return (f"<ZddSparseRelation {self.transition!r} "
                f"consume={len(self.consume)} "
                f"support={len(self.support)}>")


class ZddRelationalNet(ZddStateOps):
    """A safe net bound to a paired-element ZDD manager.

    Parameters
    ----------
    net:
        A safe :class:`~repro.petri.net.PetriNet`.
    zdd:
        An empty ZDD manager to use; created fresh when omitted.  It
        gets ``2 |P|`` elements: the places in ``place_order``, each with
        its next-state copy ``p'`` right below it.
    auto_reorder:
        Enable threshold-triggered sifting at traversal safe points,
        served by the shared kernel as on the BDD managers.  Sifting is
        *grouped*: each current/next element pair moves as one block
        (``sift_groups``), which keeps the block rename maps
        order-monotone; the chained sweep re-sorts its partition by the
        order it finds.
    reorder_threshold:
        Live-node threshold for the automatic sifting trigger.
    """

    def __init__(self, net: PetriNet, zdd: Optional[ZDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if zdd is None:
            zdd = ZDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if zdd.num_vars:
            raise ValueError("ZddRelationalNet needs a fresh ZDD manager")
        zdd.configure_reorder(auto_reorder, reorder_threshold,
                              growth=DEFAULT_REORDER_GROWTH)
        self.net = net
        self.zdd = zdd
        suffix = next_state_suffix(net.places)
        for place in place_order(net):
            zdd.add_vars((place, place + suffix))
        self._cur_index = {p: zdd.var_index(p) for p in net.places}
        self._next_index = {p: zdd.var_index(p + suffix)
                            for p in net.places}
        # Reordering must keep each (current, next) pair adjacent so the
        # block renames stay monotone.
        zdd.sift_groups = [(self._cur_index[p], self._next_index[p])
                           for p in net.places]
        # Long-lived families are pinned against garbage collection: the
        # net owns them for its whole lifetime.
        self.initial = zdd.ref(zdd.singleton(net.initial_marking.support))
        self._sparse: Dict[str, ZddSparseRelation] = {
            t: self._build_sparse(t) for t in net.transitions}
        self._partition: Optional[List[ZddSparseRelation]] = None
        # The manager's ``order_version`` when the partition was last
        # sorted.
        self._sorted_at: Optional[int] = None

    def _build_sparse(self, transition: str) -> ZddSparseRelation:
        zdd = self.zdd
        pre = self.net.preset(transition)
        post = self.net.postset(transition)
        consume = tuple(sorted(self._cur_index[p] for p in pre))
        produce = zdd.ref(zdd.singleton(self._next_index[p] for p in post))
        relation = zdd.ref(zdd.product(zdd.singleton(consume), produce))
        support = frozenset(
            index for place in pre | post
            for index in (self._cur_index[place], self._next_index[place]))
        rename = {self._next_index[p]: self._cur_index[p]
                  for p in sorted(post)}
        return ZddSparseRelation(
            transition=transition, consume=consume, produce=produce,
            relation=relation, support=support, rename=rename)

    # ------------------------------------------------------------------
    # The partition and the chained sweep
    # ------------------------------------------------------------------

    def partitions(self) -> List[ZddSparseRelation]:
        """Eq. 3's disjunctive partition: one sparse relation per
        transition, in support order (ties by transition name).

        Before it is handed out, the list is stably re-sorted in place
        by each block's :meth:`top_level` under the current element
        order, but only when the manager's ``order_version`` moved since
        the last sort, so a sweep between reorders pays nothing.  Blocks
        that tie keep the order earlier sorts left them in.  Relations
        themselves survive reordering untouched (node ids are stable).
        """
        if self._partition is None:
            self._partition = sorted(self._sparse.values(),
                                     key=lambda block: block.transition)
        if self._sorted_at != self.zdd.order_version:
            self._partition.sort(key=self.top_level)
            self._sorted_at = self.zdd.order_version
        return self._partition

    def top_level(self, block: ZddSparseRelation) -> int:
        """The shallowest current level of ``block``'s support (below
        every element for an empty support)."""
        level_of = self.zdd.level_of_var
        return min((level_of(var) for var in block.support),
                   default=self.zdd.num_vars)

    def image_partition(self, states: int,
                        block: ZddSparseRelation) -> int:
        """Successors through one partition block.

        The fused pipeline (containment filter, then strip-and-deposit
        product), then a monotone rename of the produced next elements
        back to their current labels.  Untouched places ride through
        every step unchanged.
        """
        zdd = self.zdd
        matched = zdd.supset(states, block.consume)
        if matched == EMPTY:
            return EMPTY
        return zdd.rename(
            zdd.and_exists(matched, block.produce, block.consume),
            block.rename)

    def image_chained(self, states: int, reached: int = EMPTY) -> int:
        """One chained sweep: apply the blocks in support-sorted order,
        feeding each block the states accumulated so far.

        Returns ``states`` together with every state discovered during
        the sweep: a superset of the one-step image, still contained in
        the reachable closure, which is what makes chained fixpoints
        converge in (often far) fewer iterations.

        ``reached`` *narrows* each block's working set: states in
        ``reached`` that were not part of this sweep's input have
        already been fed through every block in an earlier complete
        iteration, so their successors are already in ``reached``.
        Each block therefore receives ``current - (reached - states)``,
        the sweep's own discoveries plus its input.  The returned set
        may then miss successors of already-expanded states, which is
        harmless: the fixpoint absorbs the sweep into ``reached`` and
        subtracts ``reached`` from the new frontier.  The fixpoint
        trajectory is identical with or without narrowing; only the
        per-block work shrinks.
        """
        zdd = self.zdd
        current = states
        expanded = zdd.diff(reached, states)
        for block in self.partitions():
            work = current if expanded == EMPTY \
                else zdd.diff(current, expanded)
            if work == EMPTY:
                continue
            current = zdd.union(current, self.image_partition(work, block))
        return current
