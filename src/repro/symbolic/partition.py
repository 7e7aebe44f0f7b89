"""Generic relational layer: clustering, partitions and the chained sweep.

The paper's central claim is that the encoding choice (dense BDD vs
sparse ZDD) is orthogonal to the symbolic fixpoint machinery.  This
module is that machinery, written once and parameterized by the manager:

* support-based transition clustering — fixed-size
  (:func:`cluster_by_support`) and greedy support-overlap "auto"
  clustering (:func:`cluster_greedily`) with one shared knob set,
* the disjunctive-partition layer :class:`PartitionedNet` — block
  construction, per-granularity caching, reorder-driven metadata
  refresh *and* reorder-aware reclustering of ``"auto"`` partitions,
* the chained sweep with its ``diff``-based frontier narrowing, and
  the plain Eq. 3 union of per-block images it is checked against.

:class:`~repro.symbolic.relational.RelationalNet` (boolean encodings on
a BDD manager) and
:class:`~repro.symbolic.zdd_relational.ZddRelationalNet` (token sets on
a ZDD manager) are thin encoding-specific shims over this layer: they
supply how a sparse relation is built and how one block's image is
computed; everything about *which* blocks exist, *when* they are
rebuilt and *how* a sweep composes them lives here.  The analysis
sessions (:mod:`repro.analysis.backends`) call the sweep directly and
own the fixpoint loop around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable,
                    List, Sequence, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bdd import Function
    from ..dd import DDManager
    from ..petri.net import PetriNet

__all__ = [
    "ClusterSize", "validate_cluster_size", "cluster_by_support",
    "cluster_greedily",
    "AUTO_MIN_OVERLAP", "AUTO_NODE_BUDGET", "AUTO_MAX_CLUSTER",
    "RelationPartition", "PartitionedNet", "TraversalLimitError",
    "next_state_suffix",
]

ClusterSize = Union[int, str]


def next_state_suffix(names: Iterable[str]) -> str:
    """The suffix naming each variable's next-state copy: the shortest
    run of primes such that no name plus it is also one of ``names``
    (``"'"`` unless a net has, say, both ``p`` and ``p'``)."""
    names = set(names)
    suffix = "'"
    while any(name + suffix in names for name in names):
        suffix += "'"
    return suffix


# ---------------------------------------------------------------------
# Clustering policies (shared by every manager flavour)
# ---------------------------------------------------------------------

def validate_cluster_size(cluster_size) -> "int | str":
    """Validate a clustering granularity: a positive int or ``"auto"``.

    The single source of truth for ``AnalysisSpec`` and every
    ``partitions()`` implementation (BDD and ZDD alike), so
    misconfigurations fail fast with one consistent message.  Returns
    the value unchanged on success.
    """
    if cluster_size == "auto":
        return "auto"
    if (not isinstance(cluster_size, int) or isinstance(cluster_size, bool)
            or cluster_size < 1):
        raise ValueError(
            f"invalid cluster_size {cluster_size!r}: expected a positive "
            f"integer or 'auto'")
    return cluster_size


def cluster_by_support(items: Sequence[str],
                       support_of: Callable[[str], FrozenSet[int]],
                       level_of: Callable[[int], int],
                       cluster_size: int) -> List[List[str]]:
    """Group ``items`` into support-sorted clusters of bounded size.

    Items are ordered by the top (smallest) level of their support — the
    standard heuristic for disjunctively partitioned relations: partitions
    whose support sits high in the variable order are applied first, so a
    chained sweep pushes information down the order.  Consecutive items in
    that order (which therefore have nearby support) are merged until a
    cluster holds ``cluster_size`` items.  ``cluster_size <= 1`` yields the
    per-item partition.
    """

    bottom = 1 << 60  # below every real level; supportless items sort last

    def top_level(item: str) -> int:
        support = support_of(item)
        if not support:
            return bottom
        return min(level_of(var) for var in support)

    order = sorted(items, key=lambda item: (top_level(item), item))
    if cluster_size <= 1:
        return [[item] for item in order]
    return [list(order[i:i + cluster_size])
            for i in range(0, len(order), cluster_size)]


# Greedy auto-clustering knobs (``cluster_size="auto"``): a candidate is
# merged into the open cluster while it shares at least this fraction of
# the smaller support, the merged relation estimate stays under the node
# budget, and the cluster stays below the hard member cap.  Shared by
# the BDD and ZDD relational nets.
AUTO_MIN_OVERLAP = 0.5
AUTO_NODE_BUDGET = 600
AUTO_MAX_CLUSTER = 16


def cluster_greedily(items: Sequence[str],
                     support_of: Callable[[str], FrozenSet[int]],
                     level_of: Callable[[int], int],
                     size_of: Callable[[str], int]) -> List[List[str]]:
    """Greedy support-overlap clustering over the support-sorted order.

    The adaptive alternative to a fixed ``cluster_size``: walking the
    :func:`cluster_by_support` order, an item joins the open cluster
    while it shares at least ``AUTO_MIN_OVERLAP`` of the smaller support
    set, the summed relation size estimate (``size_of``, e.g. decision-
    diagram nodes) stays under ``AUTO_NODE_BUDGET``, and the cluster
    holds fewer than ``AUTO_MAX_CLUSTER`` members — so tight families
    (philosophers rings) get wide blocks while loosely coupled ones fall
    back towards per-item blocks.
    """
    order = [item for group in
             cluster_by_support(items, support_of, level_of, 1)
             for item in group]
    groups: List[List[str]] = []
    open_group: List[str] = []
    open_support: set = set()
    open_size = 0
    for item in order:
        support = support_of(item)
        size = size_of(item)
        if open_group:
            smaller = min(len(support), len(open_support)) or 1
            overlap = len(open_support & support) / smaller
            if (overlap >= AUTO_MIN_OVERLAP
                    and open_size + size <= AUTO_NODE_BUDGET
                    and len(open_group) < AUTO_MAX_CLUSTER):
                open_group.append(item)
                open_support |= support
                open_size += size
                continue
            groups.append(open_group)
        open_group = [item]
        open_support = set(support)
        open_size = size
    if open_group:
        groups.append(open_group)
    return groups


# ---------------------------------------------------------------------
# The BDD partition block
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelationPartition:
    """One block of a disjunctively partitioned transition relation.

    Partition relations are *sparse*: they constrain only the variables
    their transitions actually touch — the enabling support plus the
    changed variables' next-state literals — with identity clauses added
    only for variables changed by a sibling transition in the same
    cluster.  Untouched variables pass through the relational product
    untouched, which keeps each block's support (and therefore the
    quantification depth of ``and_exists``) local instead of spanning
    the entire variable order the way the monolithic relation does.
    """

    label: str
    transitions: Tuple[str, ...]
    relation: "Function"
    quantify: Tuple[str, ...]
    rename: Dict[str, str]
    support: FrozenSet[int]
    top_level: int

    def __repr__(self) -> str:
        return (f"<RelationPartition {self.label!r} "
                f"transitions={len(self.transitions)} "
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
    (the initial state set), call :meth:`_init_partition_layer` during
    construction, and implement the encoding-specific hooks:

    * :meth:`transition_support` — variable indices a transition's
      relation touches (indices, not levels: stable across reordering),
    * :meth:`_relation_size` — node-count estimate for the greedy
      auto-clustering budget,
    * :meth:`_make_block` / :meth:`_refresh_block` — build one block
      from a transition group / refresh its order-derived metadata,
    * :meth:`image_partition` — successors of a state set through one
      block,
    * the state-set algebra ``state_empty`` / ``state_union`` /
      ``state_diff`` / ``state_is_empty`` over whatever representation
      the subclass uses for state sets (``Function`` handles on the BDD
      side, raw node ids on the ZDD side).

    Everything else — clustering, per-granularity caching, the chained
    sweep with frontier narrowing, reorder-driven
    metadata refresh and reorder-aware reclustering — is shared.
    """

    net: "PetriNet"
    manager: "DDManager"

    def _init_partition_layer(self) -> None:
        self._partitions: Dict[ClusterSize, List] = {}
        # Number of reorder notifications that actually changed the
        # membership of the cached "auto" partition (read by tests and
        # benchmarks).
        self.recluster_count = 0

    # -- encoding-specific hooks ---------------------------------------

    def transition_support(self, transition: str) -> FrozenSet[int]:
        raise NotImplementedError

    def _relation_size(self, transition: str) -> int:
        raise NotImplementedError

    def _make_block(self, group: Tuple[str, ...], label: str):
        raise NotImplementedError

    def _refresh_block(self, block):
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

    # -- partition construction and caching ----------------------------

    def partitions(self, cluster_size: ClusterSize = 1) -> List:
        """The disjunctive partition at a given clustering granularity.

        ``cluster_size = 1`` keeps one sparse relation per transition;
        larger values merge up to ``cluster_size`` support-adjacent
        relations per block (fewer image applications per sweep,
        slightly larger blocks).  ``cluster_size = "auto"`` sizes
        clusters greedily instead: walking the support-sorted order, a
        transition joins the open cluster while it shares at least
        ``AUTO_MIN_OVERLAP`` of the smaller support set, the estimated
        merged relation stays under ``AUTO_NODE_BUDGET`` nodes, and the
        cluster holds fewer than ``AUTO_MAX_CLUSTER`` members — so tight
        families (philosophers rings) get wide blocks while loosely
        coupled ones fall back towards per-transition blocks.

        Blocks are returned support-sorted (top of the variable order
        first) and cached per granularity; the manager's reorder hook
        refreshes cached metadata — and reclusters the ``"auto"``
        partition — whenever the variable order changes.
        """
        key: ClusterSize = validate_cluster_size(cluster_size)
        cached = self._partitions.get(key)
        if cached is not None:
            return cached
        if key == "auto":
            groups = self._auto_clusters()
        else:
            groups = cluster_by_support(self.net.transitions,
                                        self.transition_support,
                                        self.manager.level_of_var, key)
        blocks = [self._build_partition(group) for group in groups]
        blocks.sort(key=lambda block: block.top_level)
        self._partitions[key] = blocks
        return blocks

    def _auto_clusters(self) -> List[List[str]]:
        """Greedy support-overlap clustering over the sorted order."""
        return cluster_greedily(
            self.net.transitions, self.transition_support,
            self.manager.level_of_var, self._relation_size)

    def _build_partition(self, group: Sequence[str]):
        """Label and build one block from a transition group."""
        label = group[0] if len(group) == 1 \
            else f"{group[0]}..{group[-1]}"
        return self._make_block(tuple(group), label)

    # -- reorder subscription ------------------------------------------

    def _subscribe_reorder(self) -> None:
        """Register the shared refresh hook on ``self.manager``."""
        self.manager.add_reorder_hook(self._on_reorder)

    def _on_reorder(self, manager) -> None:
        self.refresh_partitions()

    def refresh_partitions(self) -> None:
        """Re-derive every cached partition from the new variable order.

        Relations themselves survive reordering untouched (node ids are
        stable); what goes stale is the metadata derived from variable
        *levels* — each block's ``top_level``, level-sorted quantify
        tuples and the support-sorted order of the block list.  Fixed
        granularities only have their metadata refreshed (block
        membership is defined by the requested size, and the relations
        are expensive to rebuild); the ``"auto"`` granularity is
        *reclustered*: the greedy support-overlap grouping is re-run
        against the new order and only blocks whose membership actually
        changed are rebuilt — unchanged groups keep their existing block
        (metadata-refreshed), so a sifting pass that barely moves the
        order costs nothing.

        Called from the manager's reorder hook after every sifting pass,
        ``swap_levels`` or ``set_order``.
        """
        for key, blocks in list(self._partitions.items()):
            if key == "auto":
                refreshed = self._recluster(blocks)
            else:
                refreshed = [self._refresh_block(block) for block in blocks]
            refreshed.sort(key=lambda block: block.top_level)
            self._partitions[key] = refreshed

    def _recluster(self, blocks: List) -> List:
        """Re-run auto clustering; rebuild only membership changes."""
        groups = self._auto_clusters()
        previous = {block.transitions: block for block in blocks}
        rebuilt = []
        changed = False
        for group in groups:
            old = previous.get(tuple(group))
            if old is not None:
                rebuilt.append(self._refresh_block(old))
            else:
                rebuilt.append(self._build_partition(group))
                changed = True
        if changed:
            self.recluster_count += 1
        return rebuilt

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

    def image_chained(self, states, blocks, reached=None):
        """One chained sweep: apply blocks in support-sorted order,
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
