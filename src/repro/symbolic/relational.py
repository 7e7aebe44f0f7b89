"""Relational image computation with partitioned transition relations.

The fast path in :class:`~repro.symbolic.transition.SymbolicNet` never
renames variables.  This module implements the relation-based alternative
the paper describes: transition relations ``R_t(P, Q)`` over interleaved
current/next variables, images by fused relational product
(:meth:`~repro.bdd.manager.BDD.and_exists`) and a monotone rename back to
current variables.

The partition, its sweep order and the sweep algorithms live in
the shared generic layer
(:class:`~repro.symbolic.partition.PartitionedNet`); this module
supplies only the boolean-encoding specifics — how a sparse relation
BDD is built and how a block's image is computed.  The relational
analysis session calls one of two images per fixpoint step:

* **monolithic** — :meth:`RelationalNet.image_monolithic` through one
  relation ``R = OR_t R_t`` (the textbook baseline; the relation BDD
  itself is often huge),
* **chained** — :meth:`~repro.symbolic.partition.PartitionedNet.
  image_chained` over the disjunctive partition of Eq. 3, one sparse
  relation per transition (one relational product each), applied in
  support-sorted order while accumulating successors, so states
  discovered by an early block are expanded by later ones within the
  same sweep.

The default relational engine, saturation, calls no image at all: a
safe-net transition's sparse relation is the pair ``(force_t, E_t)``
(:meth:`RelationalNet.saturation_events`), which
:meth:`~repro.bdd.manager.BDD.saturate_post` fires in place over the
current variables, one kernel call per band of levels.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bdd import BDD, Function, cube, false, variable
from ..encoding.characteristic import (enabling_functions,
                                       initial_function, place_functions,
                                       saturation_events, variable_order)
from ..encoding.scheme import Encoding
from .partition import PartitionedNet, RelationPartition, next_state_suffix

__all__ = ["RelationPartition", "RelationalNet"]


class RelationalNet(PartitionedNet):
    """Partitioned transition relations over interleaved variables.

    Parameters
    ----------
    encoding:
        Any :class:`~repro.encoding.scheme.Encoding` of a safe net.
    bdd:
        An empty BDD manager to use; created fresh when omitted.
    auto_reorder:
        Enable threshold-triggered sifting at traversal safe points,
        exactly as :class:`~repro.symbolic.transition.SymbolicNet` does.
        Sifting on a relational manager is *grouped*: each current/next
        variable pair moves as one block (``sift_groups``), which keeps
        the partition rename maps order-monotone; the chained sweep
        re-sorts its blocks by the order it finds.
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
            raise ValueError("RelationalNet needs a fresh BDD manager")
        bdd.configure_reorder(auto_reorder, reorder_threshold)
        self.encoding = encoding
        self.net = encoding.net
        self.bdd = bdd
        self.manager = bdd
        # Interleave current and next variables, in the structural
        # order, so that renaming either way is order-monotone.
        suffix = next_state_suffix(encoding.variables)
        for name in variable_order(encoding):
            bdd.add_vars((name, name + suffix))
        self.current = tuple(encoding.variables)
        self.next = tuple(v + suffix for v in self.current)
        self._to_next = dict(zip(self.current, self.next))
        self._to_current = dict(zip(self.next, self.current))
        # Reordering must keep each (current, next) pair adjacent so the
        # per-partition renames stay monotone.
        bdd.sift_groups = [
            (bdd.var_index(name), bdd.var_index(self._to_next[name]))
            for name in self.current]

        # Rebuild place/enabling functions over this manager.
        self.places: Dict[str, Function] = place_functions(encoding, bdd)
        self.enabling: Dict[str, Function] = enabling_functions(
            encoding, bdd, self.places)
        self.initial: Function = initial_function(encoding, bdd)
        self._relations: Optional[Dict[str, Function]] = None
        self._monolithic: Optional[Function] = None
        # Sparse relations and their supports are order-independent
        # (supports are variable-index sets); they are built once.
        self._sparse: Optional[Dict[str, Tuple[Function,
                                               Tuple[str, ...]]]] = None
        self._supports: Dict[str, FrozenSet[int]] = {}

    @property
    def relations(self) -> Dict[str, Function]:
        """The identity-complete per-transition relations ``R_t(P, Q)``.

        Built lazily: the chained engine works from the much
        smaller sparse relations and never need these, so constructing
        them eagerly would pay exactly the cost those engines avoid.
        """
        if self._relations is None:
            self._relations = {t: self._build_relation(t)
                               for t in self.net.transitions}
        return self._relations

    def _build_relation(self, transition: str) -> Function:
        """``R_t(P, Q) = E_t(P) and AND_i (q_i <-> delta_i(P, t))``."""
        spec = self.encoding.transition_spec(transition)
        forced = dict(spec.force)
        relation = self.enabling[transition]
        for name in self.current:
            next_var = variable(self.bdd, self._to_next[name])
            if name in forced:
                target = (next_var if forced[name]
                          else ~next_var)
            else:
                target = next_var.iff(variable(self.bdd, name))
            relation = relation & target
        return relation

    def image(self, states: Function, transition: str) -> Function:
        """Successors via relational product and monotone rename."""
        next_states = states.and_exists(self.relations[transition],
                                        self.current)
        return next_states.rename(self._to_current)

    def image_all(self, states: Function) -> Function:
        """Successors under the full disjunctive partition (Eq. 3)."""
        result = false(self.bdd)
        for transition in self.net.transitions:
            result = result | self.image(states, transition)
        return result

    def monolithic_relation(self) -> Function:
        """The single relation ``R = OR_t R_t`` (ablation baseline),
        built once and cached."""
        if self._monolithic is None:
            result = false(self.bdd)
            for transition in self.net.transitions:
                result = result | self.relations[transition]
            self._monolithic = result
        return self._monolithic

    def image_monolithic(self, states: Function,
                         relation: Optional[Function] = None) -> Function:
        """Image through the monolithic relation."""
        if relation is None:
            relation = self.monolithic_relation()
        next_states = states.and_exists(relation, self.current)
        return next_states.rename(self._to_current)

    def saturation_events(self) -> List[Tuple[Dict[str, bool], int]]:
        """One ``(force_t, E_t)`` event per transition over the current
        variables, the list :meth:`SymbolicNet.saturation_events
        <repro.symbolic.transition.SymbolicNet.saturation_events>`
        builds: the sparse relation ``E_t AND cube(forced next values)``
        without its next variables.  The saturation engine fires these
        in place, so it never renames."""
        return saturation_events(self.encoding, self.enabling)

    # ------------------------------------------------------------------
    # Sparse relations (the partition layer's raw material)
    # ------------------------------------------------------------------

    def _sparse_relation(self, transition: str) -> Tuple[Function,
                                                         Tuple[str, ...]]:
        """``E_t AND forced-next-values`` plus the changed variables.

        Identity clauses for untouched variables are omitted — the
        relational product leaves unquantified variables alone, so the
        identity is implicit.  (Safe-net transition functions force
        constants, Eq. 2/6, hence a plain cube over next literals.)
        """
        spec = self.encoding.transition_spec(transition)
        forced = {self._to_next[name]: value for name, value in spec.force}
        relation = self.enabling[transition] & cube(self.bdd, forced)
        return relation, tuple(spec.quantify)

    def sparse_relations(self) -> Dict[str, Tuple[Function,
                                                  Tuple[str, ...]]]:
        """All sparse per-transition relations, built once and cached."""
        if self._sparse is None:
            self._sparse = {t: self._sparse_relation(t)
                            for t in self.net.transitions}
        return self._sparse

    def transition_support(self, transition: str) -> FrozenSet[int]:
        """Variable indices a transition's relation touches: the sparse
        relation's support plus its changed variables' indices.  Indices
        are stable across reordering, so the cache never goes stale."""
        cached = self._supports.get(transition)
        if cached is None:
            relation, changed = self.sparse_relations()[transition]
            support = set(relation.support())
            support.update(self.bdd.var_index(v) for v in changed)
            cached = frozenset(support)
            self._supports[transition] = cached
        return cached

    # ------------------------------------------------------------------
    # Partition-layer hooks (see PartitionedNet)
    # ------------------------------------------------------------------

    def _make_block(self, transition: str) -> RelationPartition:
        """Annotate one transition's sparse relation as a block."""
        relation, quantify = self.sparse_relations()[transition]
        return RelationPartition(
            transition=transition, relation=relation, quantify=quantify,
            rename={self._to_next[name]: name for name in quantify},
            support=relation.support())

    def image_partition(self, states: Function,
                        partition: RelationPartition) -> Function:
        """Successors through one partition block.

        Only the block's changed variables are quantified and renamed;
        every other variable flows through the fused relational product
        unchanged.
        """
        if not partition.quantify:
            # Nothing changes: the image is the enabled subset itself.
            return states & partition.relation
        next_states = states.and_exists(partition.relation,
                                        partition.quantify)
        return next_states.rename(partition.rename)

    # -- state-set algebra over Function handles -----------------------

    def state_empty(self) -> Function:
        return false(self.bdd)

    def state_union(self, a: Function, b: Function) -> Function:
        return a | b

    def state_diff(self, a: Function, b: Function) -> Function:
        return a - b

    def state_is_empty(self, states: Function) -> bool:
        return states.is_zero()

    def count_markings(self, states: Function) -> int:
        """Number of markings represented (over current variables)."""
        return states.satcount(len(self.current))
