"""The decision-diagram manager base: nodes, tables, GC, reordering.

Every diagram flavour in this project stores nodes the same way — a
record ``(var, low, high)`` in parallel arrays addressed by an integer
id, hash-consed through a per-variable unique table, with slots ``0``
and ``1`` reserved for the two terminals — and shares the same
lifecycle machinery:

* exact internal reference counting with cascading frees
  (:meth:`DDManager.ref` / :meth:`DDManager.deref` /
  :meth:`DDManager.collect_garbage`),
* an operation-cache registry cleared at every safe point,
* variable/level indirection (``var2level`` / ``level2var``) so the
  order can change while node ids stay stable,
* Rudell's in-place adjacent-level swap (:meth:`DDManager.swap_levels`)
  and :meth:`DDManager.set_order`, with an order counter
  (``order_version``) that every swap bumps, so a caller that caches
  something derived from the order can tell when it went stale,
* the threshold-triggered :meth:`DDManager.checkpoint` that drives
  garbage collection and dynamic sifting at traversal safe points.

What a node *means* — and therefore the reduction rule applied by
:meth:`DDManager._mk` and the cofactor expansion used when two adjacent
levels are exchanged (:meth:`DDManager._swap_cofactors`) — is the
subclass's business:

========================  =========================  =====================
hook                      BDD (boolean functions)    ZDD (set families)
========================  =========================  =====================
``_mk`` reduction         ``low == high -> low``     ``high == 0 -> low``
``_swap_cofactors`` else  ``(child, child)``         ``(child, EMPTY)``
terminals                 ``ZERO`` / ``ONE``         ``EMPTY`` / ``BASE``
``_edge_shift``           ``1`` (complement edges)   ``0`` (plain ids)
========================  =========================  =====================

Since ISSUE 10 the kernel speaks *edges*, not bare node ids.  An edge is
``(node_id << _edge_shift) | attributes``; a manager with
``_edge_shift = 0`` (the ZDD — complement bits would break
zero-suppression canonicity) stores plain node ids and nothing changes,
while the BDD sets ``_edge_shift = 1`` and carries a complement bit in
the edge's low bit, making negation a bit flip.  All shared machinery —
reference counting, cascading frees, the unique tables (which key on
child *edges*), :meth:`swap_levels`, :meth:`support`/:meth:`size`, and
:meth:`assert_consistent` — shifts the attribute bits off before
touching the node arrays.  The canonical form for complement-edge
managers ("else edge never complemented") is the subclass's job to
enforce in ``_mk``; the kernel verifies it during swaps and consistency
checks.

A node's fields may be mutated in place by variable reordering, but the
function/family represented by a node id never changes; external code
can hold ids across reordering as long as it keeps a reference
(:class:`repro.bdd.function.Function` does this automatically; raw-id
callers use :meth:`ref` / :meth:`deref`).
"""

from __future__ import annotations

import sys
import time
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Sequence, Tuple)

# Recursions descend one level per call; deep orders need deep stacks.
_MIN_RECURSION_LIMIT = 100_000
if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
    sys.setrecursionlimit(_MIN_RECURSION_LIMIT)


#: Default live-node growth factor for the growth-based reorder trigger
#: (see :meth:`DDManager.configure_reorder`): sift when the diagram has
#: doubled since the last reorder.
DEFAULT_REORDER_GROWTH = 2.0

#: Safe-point GC trigger: collect once unique-table occupancy has
#: multiplied by this factor since the last collection.
DEFAULT_GC_GROWTH = 2.0

#: Bit width used to pack a ``(left, right)`` pair of edges into one
#: integer key (``(left << _PACK) | right``) for the unique tables and
#: the hot operation caches.  Int-keyed dicts are exempt from CPython's
#: cycle collector and int keys hash as themselves; 2**40 edges would
#: need terabytes of node storage, so the pack cannot overflow in
#: practice.
_PACK = 40


class DDError(Exception):
    """Base error for invalid decision-diagram manager operations."""


class ResourceBudgetExceeded(DDError):
    """A resource budget could not be met even after degradation.

    Raised from :meth:`DDManager.checkpoint` safe points when the
    manager exhausts its configured live-node budget (after forcing a
    garbage collection and then a reorder pass — the degradation
    ladder) or overruns its wall-clock deadline.  ``kind`` is
    ``"nodes"`` or ``"deadline"``; :meth:`telemetry` returns the
    structured numbers for surfacing in partial results.
    """

    def __init__(self, message: str, *, kind: str,
                 live_nodes: Optional[int] = None,
                 node_budget: Optional[int] = None,
                 elapsed: Optional[float] = None,
                 deadline: Optional[float] = None,
                 gc_freed: Optional[int] = None,
                 reorder_forced: bool = False) -> None:
        super().__init__(message)
        self.kind = kind
        self.live_nodes = live_nodes
        self.node_budget = node_budget
        self.elapsed = elapsed
        self.deadline = deadline
        self.gc_freed = gc_freed
        self.reorder_forced = reorder_forced

    def telemetry(self) -> Dict[str, Any]:
        """JSON-serializable budget numbers (for result extras)."""
        return {
            "kind": self.kind,
            "live_nodes": self.live_nodes,
            "node_budget": self.node_budget,
            "elapsed": self.elapsed,
            "deadline": self.deadline,
            "gc_freed": self.gc_freed,
            "reorder_forced": self.reorder_forced,
        }


class DDManager:
    """Shared manager core: variable order, unique tables, GC, reorder.

    Parameters
    ----------
    var_names:
        Optional initial list of variable names; the initial variable
        order is the list order.
    auto_reorder:
        If true, sifting is triggered automatically when the number of
        live nodes crosses a growing threshold (checked only at safe
        points, i.e. :meth:`checkpoint`, after a garbage collection).
    reorder_threshold:
        Live-node threshold for the automatic sifting trigger.
    """

    _TERMINAL_VAR = -1
    #: Error class raised by shared machinery; subclasses narrow it.
    _error_class = DDError
    #: Prefix for auto-generated variable names (``x0`` / ``e0`` ...).
    _var_prefix = "x"
    #: Attribute bits carried in an edge's low end: ``0`` for plain
    #: node-id edges (ZDD), ``1`` for a complement bit (BDD).  The
    #: node behind edge ``e`` is always ``e >> _edge_shift``.
    _edge_shift = 0
    #: Whether edges of this manager carry a complement bit.
    complement_edges = False

    def __init__(self, var_names: Optional[Iterable[str]] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        # Parallel node arrays; slots 0/1 are the terminals.
        self._var: List[int] = [self._TERMINAL_VAR, self._TERMINAL_VAR]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._ref: List[int] = [1, 1]
        self._free: List[int] = []
        # Nodes stored in the unique tables plus the two terminals, kept
        # by _node and _free_node so live_nodes() is O(1): sifting reads
        # it after every adjacent swap.
        self._occupancy = 2

        # unique[var] maps the packed key (low << _PACK) | high to a
        # node id.  Packing the child pair into one integer (instead of
        # a tuple) matters beyond hashing speed: a dict whose keys and
        # values are all plain ints is untracked by CPython's cycle
        # collector, so multi-million-entry unique tables stop being
        # walked on every full collection (tuple-keyed tables made the
        # collector dominate large traversals).
        self._unique: List[Dict[int, int]] = []
        self._var2level: List[int] = []
        self._level2var: List[int] = []
        self._names: List[str] = []
        self._name2var: Dict[str, int] = {}

        # Operation caches.  ``_cache`` serves the general ops; the
        # fused relational product (``and_exists``) is the traversal hot
        # path on both managers and gets its own cache so general ops
        # never evict its entries mid-image (and vice versa).  Both are
        # registered so every safe point clears the full set; subclasses
        # with additional caches call :meth:`register_cache`.
        self._cache: Dict[tuple, int] = {}
        self._ae_cache: Dict[tuple, int] = {}
        self._op_caches: List[Dict] = [self._cache, self._ae_cache]
        self._interned_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}

        # Relational-product instrumentation (read by benchmarks).
        self.ae_calls = 0
        self.ae_recursions = 0
        self.ae_cache_hits = 0

        self.auto_reorder = auto_reorder
        self.reorder_threshold = reorder_threshold
        # Growth-based trigger (used by the ZDD sessions): sift when the
        # live-node count multiplies by ``reorder_growth`` since the
        # last reorder/baseline, once past ``reorder_growth_floor``.
        # ``None`` keeps the fixed threshold as the only trigger.
        self.reorder_growth: Optional[float] = None
        self.reorder_growth_floor: int = 1_000
        self._reorder_baseline: Optional[int] = None
        # Safe-point garbage collection (CUDD-style): operations leave
        # their intermediate nodes in the unique tables at reference
        # count zero, so occupancy grows with *allocations*, not live
        # data.  A checkpoint collects once occupancy has multiplied by
        # ``gc_growth`` since the last collection (amortised O(1) per
        # allocation); ``None`` disables, small tables never bother.
        self.gc_growth: Optional[float] = DEFAULT_GC_GROWTH
        self.gc_growth_floor: int = 8_192
        self._gc_baseline: int = self.gc_growth_floor
        self.reorder_count = 0
        self.gc_count = 0
        self.peak_live_nodes = 0
        # Bumped by every :meth:`swap_levels`, hence by every order
        # change; readers of the order compare it to the value they last
        # saw (see ZddRelationalNet.partitions).
        self.order_version = 0
        # Variable groups that must stay adjacent during sifting (e.g.
        # interleaved current/next pairs of a transition relation, which
        # keep rename mappings order-monotone).  ``None`` sifts
        # variables individually.
        self.sift_groups: Optional[Sequence[Tuple[int, ...]]] = None

        # Resource budgets, enforced at safe points only (see
        # :meth:`set_resource_budget` / :meth:`checkpoint`).
        self.node_budget: Optional[int] = None
        self._budget_clock: Callable[[], float] = time.monotonic
        self._budget_started: Optional[float] = None
        self._budget_deadline: Optional[float] = None
        self._deadline_seconds: Optional[float] = None
        self.budget_gc_rescues = 0
        self.budget_reorder_rescues = 0

        if var_names is not None:
            for name in var_names:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create with the subclass's reduction rule applied."""
        raise NotImplementedError

    def _swap_cofactors(self, child: int, lower: int) -> Tuple[int, int]:
        """Cofactors of ``child`` w.r.t. ``lower`` during a level swap.

        Returns ``(without, with)`` — the child's decomposition against
        the lower variable.  For a child labeled ``lower`` both managers
        return its ``(low, high)``; for an unlabeled child the BDD
        duplicates it (independence) while the ZDD pairs it with
        ``EMPTY`` (zero-suppression: the element is absent).
        """
        raise NotImplementedError

    def _is_reduced(self, low: int, high: int) -> bool:
        """Whether a node with these children survives the reduction
        rule (BDD: ``low != high``; ZDD: ``high != EMPTY``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Variables and order
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var2level)

    def add_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable at the bottom of the order.

        Returns the variable index (stable across reordering).
        """
        var = len(self._var2level)
        if name is None:
            name = f"{self._var_prefix}{var}"
        if name in self._name2var:
            raise self._error_class(f"duplicate variable name: {name!r}")
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        self._unique.append({})
        self._names.append(name)
        self._name2var[name] = var
        return var

    def add_vars(self, names: Iterable[str]) -> List[int]:
        """Declare several variables; returns their indices."""
        return [self.add_var(name) for name in names]

    def var_index(self, var) -> int:
        """Normalize a variable reference (index or name) to an index."""
        if isinstance(var, str):
            try:
                return self._name2var[var]
            except KeyError:
                raise self._error_class(
                    f"unknown variable name: {var!r}") from None
        index = int(var)
        if not 0 <= index < self.num_vars:
            raise self._error_class(
                f"variable index out of range: {index}")
        return index

    def var_name(self, var: int) -> str:
        """Name of variable ``var``."""
        return self._names[self.var_index(var)]

    def level_of_var(self, var) -> int:
        """Current level (0 = top) of a variable."""
        return self._var2level[self.var_index(var)]

    def order(self) -> List[str]:
        """Variable names from top level to bottom level."""
        return [self._names[v] for v in self._level2var]

    def _level(self, u: int) -> int:
        """Level of node ``u`` (terminals sit below every variable)."""
        var = self._var[u]
        if var < 0:
            return len(self._var2level)
        return self._var2level[var]

    def _intern_vars(self, variables: Iterable) -> FrozenSet[int]:
        fset = frozenset(self.var_index(v) for v in variables)
        return self._interned_sets.setdefault(fset, fset)

    # ------------------------------------------------------------------
    # Node construction and reference counting
    # ------------------------------------------------------------------

    def _node(self, var: int, low: int, high: int) -> int:
        """Find-or-create the (already reduced) node ``(var, low, high)``.

        ``low`` and ``high`` are child *edges*; the returned value is a
        bare node id (the subclass's ``_mk`` shifts it into an edge for
        complement-edge managers).
        """
        table = self._unique[var]
        key = (low << _PACK) | high
        node = table.get(key)
        if node is not None:
            return node
        if self._free:
            node = self._free.pop()
            self._var[node] = var
            self._low[node] = low
            self._high[node] = high
            self._ref[node] = 0
        else:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._ref.append(0)
        table[key] = node
        self._occupancy += 1
        shift = self._edge_shift
        self._ref[low >> shift] += 1
        self._ref[high >> shift] += 1
        return node

    def ref(self, u: int) -> int:
        """Take an external reference on edge ``u``; returns ``u``."""
        self._ref[u >> self._edge_shift] += 1
        return u

    def deref(self, u: int) -> None:
        """Release an external reference on edge ``u`` (no immediate
        free)."""
        node = u >> self._edge_shift
        if self._ref[node] <= 0:
            raise self._error_class(f"reference underflow on node {node}")
        self._ref[node] -= 1

    def _deref_cascade(self, u: int) -> None:
        """Drop a reference on edge ``u``; eagerly free a dead node."""
        node = u >> self._edge_shift
        self._ref[node] -= 1
        if self._ref[node] == 0 and node > 1:
            self._free_node(node)

    def _free_node(self, u: int) -> None:
        """Free node id ``u`` (its children are edges and cascade)."""
        var, low, high = self._var[u], self._low[u], self._high[u]
        del self._unique[var][(low << _PACK) | high]
        self._var[u] = self._TERMINAL_VAR
        self._low[u] = -1
        self._high[u] = -1
        self._free.append(u)
        self._occupancy -= 1
        self._deref_cascade(low)
        self._deref_cascade(high)

    def live_nodes(self) -> int:
        """Number of nodes currently stored in the unique tables (plus 2).

        Also advances :attr:`peak_live_nodes`, so every safe point and
        every sifting step feeds the peak-memory statistic.
        """
        live = self._occupancy
        if live > self.peak_live_nodes:
            self.peak_live_nodes = live
        return live

    def register_cache(self, cache: Dict) -> Dict:
        """Register an extra operation cache for safe-point clearing."""
        self._op_caches.append(cache)
        return cache

    def clear_caches(self) -> None:
        """Drop every memoized operation result (safe points only).

        Benchmarks call this between timed measurements so one image
        computation cannot warm the caches for the next.
        """
        for cache in self._op_caches:
            cache.clear()

    def collect_garbage(self) -> int:
        """Free every node not reachable from a referenced node.

        Must only be called at a safe point (never while an operation is
        in progress).  Clears the operation caches.  Returns the number
        of nodes freed.  The occupancy before the collection, garbage
        included, is folded into :attr:`peak_live_nodes` first.
        """
        self.live_nodes()
        self.clear_caches()
        before = len(self._free)
        # Cascading frees make this a single scan: any node whose
        # references all come from dead ancestors is freed when the last
        # ancestor is.
        dead = [u for u in range(2, len(self._var))
                if self._ref[u] == 0 and self._var[u] >= 0]
        for u in dead:
            if self._ref[u] == 0 and self._var[u] >= 0:
                self._free_node(u)
        self.gc_count += 1
        return len(self._free) - before

    def configure_reorder(self, auto_reorder: bool,
                          reorder_threshold: int,
                          growth: Optional[float] = None) -> None:
        """Honor a net's reordering request on this manager.

        Enables threshold-triggered sifting when ``auto_reorder`` is
        set — including on a caller-supplied manager, so a net
        constructor's request always wins.  ``growth`` additionally arms
        the growth-based trigger: a safe point sifts when live nodes
        have multiplied by that factor since the last reorder, even if
        the fixed threshold has not been reached yet (the ZDD sessions
        pass this so reordering reacts to the diagram's own growth rate
        rather than one absolute knob).  With ``auto_reorder`` false
        this is a no-op: the manager's own settings (whatever the
        caller configured it with) are left untouched, and the other
        arguments are deliberately ignored.
        """
        if auto_reorder:
            self.auto_reorder = True
            self.reorder_threshold = reorder_threshold
            if growth is not None:
                if growth <= 1.0:
                    raise self._error_class(
                        f"reorder growth factor must exceed 1.0, "
                        f"got {growth}")
                self.reorder_growth = growth
                self._reorder_baseline = None

    def set_resource_budget(self, node_budget: Optional[int] = None,
                            deadline_seconds: Optional[float] = None,
                            clock: Optional[Callable[[], float]] = None
                            ) -> None:
        """Arm resource budgets, enforced at every safe point.

        ``node_budget`` caps the live-node count; past it the safe
        point walks the degradation ladder — force a garbage
        collection, then force a sifting pass — and raises
        :class:`ResourceBudgetExceeded` only if the diagram genuinely
        cannot fit.  ``deadline_seconds`` is a wall-clock allowance
        measured from this call; a safe point past it raises
        immediately (an in-flight operation cannot be preempted, so
        enforcement granularity is one traversal iteration).  ``clock``
        injects a virtual clock for tests.  Passing ``None`` for both
        disarms the budgets.
        """
        if node_budget is not None and node_budget < 1:
            raise self._error_class(
                f"node_budget must be positive, got {node_budget}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise self._error_class(
                f"deadline_seconds must be positive, got "
                f"{deadline_seconds}")
        if clock is not None:
            self._budget_clock = clock
        self.node_budget = node_budget
        self._deadline_seconds = deadline_seconds
        self._budget_started = self._budget_clock()
        self._budget_deadline = (self._budget_started + deadline_seconds
                                 if deadline_seconds is not None else None)

    def _reorder_due(self, live: int) -> bool:
        """Whether ``live`` nodes cross the reorder trigger: the fixed
        ``reorder_threshold``, or the growth rule when it is armed.  The
        first call under the growth rule only records its baseline."""
        if live > self.reorder_threshold:
            return True
        if self.reorder_growth is None:
            return False
        if self._reorder_baseline is None:
            self._reorder_baseline = live
            return False
        return (live >= self.reorder_growth_floor
                and live > self._reorder_baseline * self.reorder_growth)

    def checkpoint(self, sift: bool = True) -> None:
        """Safe point hook: garbage collect, maybe reorder, enforce
        budgets.

        The reorder trigger reads live nodes, not the unique-table
        occupancy (which still holds every dead intermediate of the
        last operations): a safe point whose occupancy crosses the
        trigger collects first, and sifts only if the live diagram is
        still over it.  ``sift=False`` skips the trigger, as after the
        step that reaches a fixpoint, where no later operation would
        profit from a better order; collection and budgets still run.
        """
        live = self.live_nodes()
        if sift and self.auto_reorder and self._reorder_due(live):
            self.collect_garbage()
            live = self.live_nodes()
            if self._reorder_due(live):
                from .reorder import sift
                sift(self, groups=self.sift_groups)
                self.reorder_threshold = max(self.reorder_threshold,
                                             2 * self.live_nodes())
                self._reorder_baseline = self.live_nodes()
                self._gc_baseline = max(self._reorder_baseline,
                                        self.gc_growth_floor)
                self.reorder_count += 1
            else:
                self._gc_baseline = max(live, self.gc_growth_floor)
        elif (self.gc_growth is not None
              and live >= self.gc_growth_floor
              and live > self._gc_baseline * self.gc_growth):
            # Doubling-style collection: dead intermediates are swept
            # before the table doubles again, so peak occupancy tracks
            # a constant factor of the live data instead of the total
            # allocation count.  (The reorder branch above already
            # collected.)
            self.collect_garbage()
            self._gc_baseline = max(self.live_nodes(),
                                    self.gc_growth_floor)
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """The degradation ladder behind :meth:`set_resource_budget`.

        Deadline first (no remedial action can buy time back), then the
        node budget: recheck after a forced GC, recheck after a forced
        reorder pass, and only then give up with the full telemetry.
        """
        if self._budget_deadline is not None:
            now = self._budget_clock()
            if now >= self._budget_deadline:
                elapsed = now - self._budget_started
                raise ResourceBudgetExceeded(
                    f"wall-clock deadline exceeded: {elapsed:.3f}s "
                    f"elapsed of a {self._deadline_seconds}s allowance",
                    kind="deadline", elapsed=elapsed,
                    deadline=self._deadline_seconds,
                    live_nodes=self.live_nodes(),
                    node_budget=self.node_budget)
        if self.node_budget is None:
            return
        if self.live_nodes() <= self.node_budget:
            return
        gc_freed = self.collect_garbage()
        if self.live_nodes() <= self.node_budget:
            self.budget_gc_rescues += 1
            return
        from .reorder import sift
        sift(self, groups=self.sift_groups)
        self.reorder_count += 1
        live = self.live_nodes()
        if live <= self.node_budget:
            self.budget_reorder_rescues += 1
            return
        raise ResourceBudgetExceeded(
            f"live-node budget exceeded: {live} live nodes against a "
            f"budget of {self.node_budget} (after forced GC freed "
            f"{gc_freed} nodes and a forced reorder pass)",
            kind="nodes", live_nodes=live, node_budget=self.node_budget,
            gc_freed=gc_freed, reorder_forced=True,
            elapsed=(self._budget_clock() - self._budget_started
                     if self._budget_started is not None else None))

    # ------------------------------------------------------------------
    # Reordering (Rudell's adjacent-variable swap)
    # ------------------------------------------------------------------

    def swap_levels(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Every node labeled with the upper variable that references the
        lower variable is rewritten in place, preserving node ids (and
        therefore external references).  The cofactor expansion against
        the lower variable — the only place the BDD and ZDD semantics
        differ — is delegated to :meth:`_swap_cofactors`.  Must be
        called at a safe point; the operation caches are cleared.
        """
        if not 0 <= level < len(self._level2var) - 1:
            raise self._error_class(f"cannot swap level {level}")
        self.clear_caches()
        shift = self._edge_shift
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        upper_table = self._unique[upper]

        for key, node in list(upper_table.items()):
            f0, f1 = key >> _PACK, key & ((1 << _PACK) - 1)
            if (self._var[f0 >> shift] != lower
                    and self._var[f1 >> shift] != lower):
                continue
            f00, f01 = self._swap_cofactors(f0, lower)
            f10, f11 = self._swap_cofactors(f1, lower)
            new_low = self._mk(upper, f00, f10)
            new_high = self._mk(upper, f01, f11)
            # The rewritten node keeps its id, so its new else edge must
            # be regular in complement mode: f00/f10 derive from stored
            # (hence regular) else edges, so _mk cannot have had to
            # complement-normalise here.  Verify rather than trust.
            if shift and (new_low & 1):
                raise self._error_class(
                    "canonical-form violation during swap: "
                    "complemented else edge")
            self._ref[new_low >> shift] += 1
            self._ref[new_high >> shift] += 1
            del upper_table[key]
            if not self._is_reduced(new_low, new_high):
                raise self._error_class(
                    "reduction violation during swap")
            self._var[node] = lower
            self._low[node] = new_low
            self._high[node] = new_high
            new_key = (new_low << _PACK) | new_high
            existing = self._unique[lower].get(new_key)
            if existing is not None:
                raise self._error_class("canonicity violation during swap")
            self._unique[lower][new_key] = node
            self._deref_cascade(f0)
            self._deref_cascade(f1)

        self._level2var[level] = lower
        self._level2var[level + 1] = upper
        self._var2level[lower] = level
        self._var2level[upper] = level + 1
        self.order_version += 1

    def set_order(self, names_or_vars: Iterable) -> None:
        """Reorder variables to the given top-to-bottom sequence."""
        target = [self.var_index(v) for v in names_or_vars]
        if sorted(target) != list(range(self.num_vars)):
            raise self._error_class(
                "set_order requires a permutation of all variables")
        self.collect_garbage()
        # Selection-sort by repeated adjacent swaps (bubble the right
        # variable up to each level in turn).
        for level, var in enumerate(target):
            current = self._var2level[var]
            while current > level:
                self.swap_levels(current - 1)
                current -= 1

    # ------------------------------------------------------------------
    # Structural inspection (reduction-rule independent)
    # ------------------------------------------------------------------

    def support(self, u: int) -> FrozenSet[int]:
        """Set of variables appearing in the DAG rooted at edge ``u``."""
        shift = self._edge_shift
        seen = set()
        variables = set()
        stack = [u >> shift]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            variables.add(self._var[node])
            stack.append(self._low[node] >> shift)
            stack.append(self._high[node] >> shift)
        return frozenset(variables)

    def size(self, u: int) -> int:
        """Number of nodes in the DAG rooted at edge ``u`` (incl.
        terminals).  Complement-edge managers count shared nodes once
        regardless of the polarity they are reached with."""
        shift = self._edge_shift
        seen = set()
        stack = [u >> shift]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node > 1:
                stack.append(self._low[node] >> shift)
                stack.append(self._high[node] >> shift)
        return len(seen)

    # ------------------------------------------------------------------
    # Consistency checking (for tests)
    # ------------------------------------------------------------------

    def assert_consistent(self) -> None:
        """Validate internal invariants (for tests); raises on violation."""
        shift = self._edge_shift
        mask = (1 << _PACK) - 1
        for var, table in enumerate(self._unique):
            for key, node in table.items():
                low, high = key >> _PACK, key & mask
                if self._var[node] != var:
                    raise self._error_class(f"node {node} var mismatch")
                if self._low[node] != low or self._high[node] != high:
                    raise self._error_class(f"node {node} key mismatch")
                if not self._is_reduced(low, high):
                    raise self._error_class(f"node {node} is redundant")
                if shift and (low & 1):
                    raise self._error_class(
                        f"node {node} stores a complemented else edge")
                for child in (low, high):
                    child_node = child >> shift
                    if child_node > 1 and self._var[child_node] < 0:
                        raise self._error_class(
                            f"node {node} references freed child")
                    if child_node > 1 and (
                            self._var2level[self._var[child_node]]
                            <= self._var2level[var]):
                        raise self._error_class(
                            f"node {node} violates ordering")
        if self._occupancy != 2 + sum(map(len, self._unique)):
            raise self._error_class("occupancy counter out of step")
        # Reference counts: recompute from tables.
        counts = [0] * len(self._var)
        for table in self._unique:
            for key in table:
                counts[(key >> _PACK) >> shift] += 1
                counts[(key & mask) >> shift] += 1
        for u in range(2, len(self._var)):
            if self._var[u] < 0:
                continue
            if counts[u] > self._ref[u]:
                raise self._error_class(
                    f"node {u} undercounted refs "
                    f"({counts[u]} > {self._ref[u]})")

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} vars={self.num_vars} "
                f"live_nodes={self.live_nodes()} order={self.order()!r}>")
