"""Partitioned transition relations for the sparse-ZDD engine.

The BDD engines got their PR 1-2 wins from the relational-product form:
sparse per-transition relations over paired current/next variables,
clustered by support, applied through a fused ``and_exists``.  This
module ports that machinery to the token-set encoding of
:class:`~repro.symbolic.zdd_traversal.ZddNet`, where a marking is the
*set of marked places* and firing is set algebra instead of boolean
algebra.

It is deliberately a *thin shim*: every piece of clustering, partition
caching, reorder refresh/reclustering and sweep logic lives once in
:class:`~repro.symbolic.partition.PartitionedNet` (shared with the BDD
side); this file contributes only the token-set encoding specifics —
what a sparse relation *is* and how one block's image is computed.

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
3. ``rename(·, O' -> O)`` — monotone rename back to current elements,
   shared across a whole partition block.

Untouched places flow through every step unchanged — the implicit
identity that keeps the relations sparse, exactly as in
:class:`~repro.symbolic.relational.RelationalNet`.  With the shared
:class:`~repro.dd.manager.DDManager` kernel the ZDD manager now
reference-counts, garbage-collects and dynamically reorders; the net
pins its long-lived families (initial marking, sparse relations) with
``ref`` and sifts in current/next pair groups so rename maps stay
order-monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bdd.zdd import EMPTY, ZDD
from ..dd.manager import DEFAULT_REORDER_GROWTH
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.order import place_order
from .partition import ClusterSize, PartitionedNet

__all__ = ["ZddSparseRelation", "ZddRelationPartition", "ZddStateOps",
           "ZddRelationalNet", "ClusterSize"]


def _next_name(name: str) -> str:
    return name + "'"


@dataclass(frozen=True, eq=False)
class ZddSparseRelation:
    """One transition's sparse relation in the token-set encoding.

    ``consume`` holds the current-element indices of the preset (the
    enabling tokens, also the quantified elements), ``produce`` the
    singleton family ``{O'}`` of next elements deposited by the firing,
    and ``relation`` the joined set ``{I ∪ O'}`` — the per-transition
    block of the disjunctive partition.
    """

    transition: str
    consume: Tuple[int, ...]
    produce: int
    relation: int
    support: FrozenSet[int]

    def __repr__(self) -> str:
        return (f"<ZddSparseRelation {self.transition!r} "
                f"consume={len(self.consume)} "
                f"support={len(self.support)}>")


@dataclass(frozen=True, eq=False)
class ZddRelationPartition:
    """One support-clustered block of sparse ZDD relations.

    Images are computed member-wise through the fused pipeline and
    renamed back to current elements once per block through ``rename``
    (the map covering every member's produced places).
    """

    label: str
    transitions: Tuple[str, ...]
    members: Tuple[ZddSparseRelation, ...]
    rename: Dict[int, int]
    support: FrozenSet[int]
    top_level: int

    def __repr__(self) -> str:
        return (f"<ZddRelationPartition {self.label!r} "
                f"transitions={len(self.transitions)} "
                f"rename={len(self.rename)}>")


class ZddStateOps:
    """State-set algebra over raw ZDD node ids (the ``state_*`` hooks
    of the generic layer), shared by :class:`ZddRelationalNet` and the
    classic :class:`~repro.symbolic.zdd_traversal.ZddNet`."""

    zdd: ZDD

    def state_empty(self) -> int:
        return EMPTY

    def state_union(self, a: int, b: int) -> int:
        return self.zdd.union(a, b)

    def state_diff(self, a: int, b: int) -> int:
        return self.zdd.diff(a, b)

    def state_is_empty(self, states: int) -> bool:
        return states == EMPTY

    def count_markings(self, states: int) -> int:
        """Number of markings in a family over current elements."""
        return self.zdd.count(states)

    def markings_of(self, states: int) -> List[Marking]:
        """Decode a family over current elements into markings."""
        return [Marking(sorted(members))
                for members in self.zdd.iter_name_sets(states)]


class ZddRelationalNet(ZddStateOps, PartitionedNet):
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
        Enable threshold-triggered sifting at traversal safe points —
        the same dynamic reordering the BDD relational net has had since
        PR 2, now served by the shared kernel.  Sifting is *grouped*:
        each current/next element pair moves as one block
        (``sift_groups``), which keeps the block rename maps
        order-monotone; cached partitions are refreshed (and ``"auto"``
        partitions reclustered) through the shared reorder hook.
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
        self.manager = zdd
        for place in place_order(net):
            zdd.add_vars((place, _next_name(place)))
        self.current = tuple(net.places)
        self._cur_index = {p: zdd.var_index(p) for p in net.places}
        self._next_index = {p: zdd.var_index(_next_name(p))
                            for p in net.places}
        # Reordering must keep each (current, next) pair adjacent so the
        # block renames stay monotone.
        zdd.sift_groups = [(self._cur_index[p], self._next_index[p])
                           for p in net.places]
        self._init_partition_layer()
        self._subscribe_reorder()
        # Long-lived families are pinned against garbage collection: the
        # net owns them for its whole lifetime.
        self.initial = zdd.ref(zdd.singleton(net.initial_marking.support))
        self._sparse: Dict[str, ZddSparseRelation] = {
            t: self._build_sparse(t) for t in net.transitions}

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
        return ZddSparseRelation(
            transition=transition, consume=consume, produce=produce,
            relation=relation, support=support)

    def sparse_relations(self) -> Dict[str, ZddSparseRelation]:
        """All sparse per-transition relations (built at construction)."""
        return self._sparse

    def transition_support(self, transition: str) -> FrozenSet[int]:
        """Element indices a transition touches: its current/next pairs.
        Indices are stable across reordering, so this never goes stale."""
        return self._sparse[transition].support

    # ------------------------------------------------------------------
    # Partition-layer hooks (see PartitionedNet)
    # ------------------------------------------------------------------

    def _relation_size(self, transition: str) -> int:
        return self.zdd.size(self._sparse[transition].relation)

    def _make_block(self, group: Tuple[str, ...],
                    label: str) -> ZddRelationPartition:
        members = tuple(self._sparse[t] for t in group)
        support: set = set()
        produced: set = set()
        for member in members:
            support.update(member.support)
            produced.update(self.net.postset(member.transition))
        rename = {self._next_index[p]: self._cur_index[p]
                  for p in sorted(produced)}
        top = min((self.zdd.level_of_var(index) for index in support),
                  default=self.zdd.num_vars)
        return ZddRelationPartition(
            label=label, transitions=group, members=members,
            rename=rename, support=frozenset(support), top_level=top)

    def _refresh_block(self, block: ZddRelationPartition
                       ) -> ZddRelationPartition:
        top = min((self.zdd.level_of_var(index) for index in block.support),
                  default=self.zdd.num_vars)
        return ZddRelationPartition(
            label=block.label, transitions=block.transitions,
            members=block.members, rename=block.rename,
            support=block.support, top_level=top)

    # ------------------------------------------------------------------
    # Images
    # ------------------------------------------------------------------

    def image_partition(self, states: int,
                        block: ZddRelationPartition) -> int:
        """Successors through one partition block.

        Member-wise fused pipeline (containment filter, strip-and-
        deposit product, accumulate), then a single monotone rename of
        the produced next elements back to their current labels.
        Untouched places ride through every step unchanged.
        """
        zdd = self.zdd
        accumulated = EMPTY
        for member in block.members:
            matched = zdd.supset(states, member.consume)
            if matched == EMPTY:
                continue
            accumulated = zdd.union(
                accumulated,
                zdd.and_exists(matched, member.produce, member.consume))
        if accumulated == EMPTY:
            return EMPTY
        return zdd.rename(accumulated, block.rename)

    def image_all(self, states: int) -> int:
        """Successor family under all transitions (per-transition
        blocks; reference implementation for tests)."""
        return self.image_partitioned(states, self.partitions(1))
