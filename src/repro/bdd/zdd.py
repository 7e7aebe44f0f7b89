"""Zero-suppressed decision diagrams (Minato, 1993).

ZDDs represent families of sets compactly when most elements are absent
from most sets — exactly the sparsity of one-variable-per-place Petri-net
markings, which is why Yoneda et al. proposed them as the baseline the
paper compares against (Table 4).

Terminals: ``EMPTY = 0`` is the empty family and ``BASE = 1`` is the family
containing only the empty set.  The reduction rule differs from BDDs: a
node whose *high* child is ``EMPTY`` is suppressed (replaced by its low
child), so elements absent from a set cost no nodes.

Besides the set-family algebra (union/intersect/diff) and the per-element
firing primitives (``subset0/1``, ``change``), the manager carries the
relational core mirroring :class:`repro.bdd.manager.BDD`: ``product``
(Minato's set join), ``exists``/``project`` onto a variable subset,
``supset`` containment filtering, an order-monotone ``rename``, and a
fused ``and_exists`` — ``exists(product(u, v), vars)`` in one recursion,
memoized in its own operation cache with call/cache-hit counters.  These
are what :class:`repro.symbolic.zdd_relational.ZddRelationalNet` builds
its partitioned transition relations on.  ``saturate_post`` closes a
family under ``(consume, produce)`` events in one recursion, the
default ZDD fixpoint.

The manager shares the :class:`repro.dd.manager.DDManager` kernel with
the BDD manager, which gives it the full lifecycle machinery the old
fixed-order ZDD lacked: exact reference counting with cascading frees
(``ref``/``deref``), garbage collection, element/level indirection,
Rudell adjacent-level swaps and dynamic (group) sifting.
Every family operation therefore compares *levels*, never raw element
indices — element indices stay stable across reordering exactly as BDD
variable indices do.  Raw-node-id callers that must survive a garbage
collection protect their roots with :meth:`DDManager.ref`.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Tuple)

from ..dd.manager import DDError, DDManager, _PACK

EMPTY = 0
BASE = 1


class ZDDError(DDError):
    """Raised for invalid ZDD operations."""


class ZDD(DDManager):
    """A ZDD manager over a universe of elements.

    Parameters
    ----------
    var_names:
        Optional initial list of element names; the initial element
        order is the list order.
    auto_reorder:
        If true, sifting is triggered automatically when the number of
        live nodes crosses a growing threshold (checked only at safe
        points, i.e. :meth:`DDManager.checkpoint`).
    reorder_threshold:
        Live-node threshold for the automatic sifting trigger.
    """

    _error_class = ZDDError
    _var_prefix = "e"

    # ------------------------------------------------------------------
    # Kernel hooks: the zero-suppression rule
    # ------------------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        if high == EMPTY:
            return low
        return self._node(var, low, high)

    def _is_reduced(self, low: int, high: int) -> bool:
        return high != EMPTY

    def _swap_cofactors(self, child: int, lower: int) -> Tuple[int, int]:
        if self._var[child] == lower:
            return self._low[child], self._high[child]
        # Zero-suppression: a skipped element is absent from every set.
        return child, EMPTY

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def total_nodes(self) -> int:
        """High-water node-slot count (plus the 2 terminals).

        Before the shared kernel this equaled "nodes ever created"; with
        garbage collection, freed slots are recycled, so this is the
        peak simultaneous allocation — still the memory-column metric
        the benchmarks report for a manager that never collected.
        """
        return len(self._var)

    # ------------------------------------------------------------------
    # Family construction
    # ------------------------------------------------------------------

    def empty(self) -> int:
        """The empty family."""
        return EMPTY

    def base(self) -> int:
        """The family containing only the empty set."""
        return BASE

    def singleton(self, elements: Iterable) -> int:
        """The family containing exactly one set with the given elements."""
        members = sorted({self.var_index(e) for e in elements},
                         key=lambda var: self._var2level[var], reverse=True)
        node = BASE
        for var in members:
            node = self._mk(var, EMPTY, node)
        return node

    def from_sets(self, family: Iterable[Iterable]) -> int:
        """Build a ZDD from an iterable of sets of elements."""
        node = EMPTY
        for members in family:
            node = self.union(node, self.singleton(members))
        return node

    def to_sets(self, u: int) -> List[FrozenSet[int]]:
        """The family as a list of frozensets of element *indices*.

        ``to_sets``/``iter_sets`` consistently speak indices; use
        :meth:`to_name_sets`/:meth:`iter_name_sets` for element names.
        """
        return list(self.iter_sets(u))

    def iter_sets(self, u: int) -> Iterator[FrozenSet[int]]:
        """Iterate the sets of the family as frozensets of element indices."""
        if u == EMPTY:
            return
        if u == BASE:
            yield frozenset()
            return
        var = self._var[u]
        yield from self.iter_sets(self._low[u])
        for members in self.iter_sets(self._high[u]):
            yield members | {var}

    def to_name_sets(self, u: int) -> List[FrozenSet[str]]:
        """The family as a list of frozensets of element *names*."""
        return list(self.iter_name_sets(u))

    def iter_name_sets(self, u: int) -> Iterator[FrozenSet[str]]:
        """Iterate the sets of the family as frozensets of element names."""
        for members in self.iter_sets(u):
            yield frozenset(self._names[v] for v in members)

    # ------------------------------------------------------------------
    # Set-family algebra
    # ------------------------------------------------------------------

    def union(self, u: int, v: int) -> int:
        if u == EMPTY:
            return v
        if v == EMPTY or u == v:
            return u
        if u > v:
            u, v = v, u
        key = ("u", u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ulvl, vlvl = self._level(u), self._level(v)
        if ulvl < vlvl:
            result = self._mk(self._var[u],
                              self.union(self._low[u], v), self._high[u])
        elif vlvl < ulvl:
            result = self._mk(self._var[v],
                              self.union(u, self._low[v]), self._high[v])
        else:
            result = self._mk(self._var[u],
                              self.union(self._low[u], self._low[v]),
                              self.union(self._high[u], self._high[v]))
        self._cache[key] = result
        return result

    def intersect(self, u: int, v: int) -> int:
        if u == EMPTY or v == EMPTY:
            return EMPTY
        if u == v:
            return u
        if u > v:
            u, v = v, u
        key = ("i", u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ulvl, vlvl = self._level(u), self._level(v)
        if ulvl < vlvl:
            result = self.intersect(self._low[u], v)
        elif vlvl < ulvl:
            result = self.intersect(u, self._low[v])
        else:
            result = self._mk(self._var[u],
                              self.intersect(self._low[u], self._low[v]),
                              self.intersect(self._high[u], self._high[v]))
        self._cache[key] = result
        return result

    def diff(self, u: int, v: int) -> int:
        if u == EMPTY or u == v:
            return EMPTY
        if v == EMPTY:
            return u
        key = ("d", u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ulvl, vlvl = self._level(u), self._level(v)
        if ulvl < vlvl:
            result = self._mk(self._var[u],
                              self.diff(self._low[u], v), self._high[u])
        elif vlvl < ulvl:
            result = self.diff(u, self._low[v])
        else:
            result = self._mk(self._var[u],
                              self.diff(self._low[u], self._low[v]),
                              self.diff(self._high[u], self._high[v]))
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Element operations (the Petri-net firing primitives)
    # ------------------------------------------------------------------

    def subset1(self, u: int, var) -> int:
        """Sets containing ``var``, with ``var`` removed from each."""
        target = self.var_index(var)
        return self._subset1(u, target, self._var2level[target])

    def _subset1(self, u: int, target: int, tlevel: int) -> int:
        if u <= BASE or self._level(u) > tlevel:
            return EMPTY
        if self._var[u] == target:
            return self._high[u]
        key = ("s1", u, target)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._mk(self._var[u],
                          self._subset1(self._low[u], target, tlevel),
                          self._subset1(self._high[u], target, tlevel))
        self._cache[key] = result
        return result

    def subset0(self, u: int, var) -> int:
        """Sets not containing ``var``."""
        target = self.var_index(var)
        return self._subset0(u, target, self._var2level[target])

    def _subset0(self, u: int, target: int, tlevel: int) -> int:
        if u <= BASE or self._level(u) > tlevel:
            return u
        if self._var[u] == target:
            return self._low[u]
        key = ("s0", u, target)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._mk(self._var[u],
                          self._subset0(self._low[u], target, tlevel),
                          self._subset0(self._high[u], target, tlevel))
        self._cache[key] = result
        return result

    def change(self, u: int, var) -> int:
        """Toggle membership of ``var`` in every set of the family."""
        target = self.var_index(var)
        return self._change(u, target, self._var2level[target])

    def _change(self, u: int, target: int, tlevel: int) -> int:
        if u == EMPTY:
            return EMPTY
        if self._level(u) > tlevel:
            return self._mk(target, EMPTY, u)
        if self._var[u] == target:
            return self._mk(target, self._high[u], self._low[u])
        key = ("ch", u, target)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._mk(self._var[u],
                          self._change(self._low[u], target, tlevel),
                          self._change(self._high[u], target, tlevel))
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Relational core (the ZddRelationalNet primitives)
    # ------------------------------------------------------------------

    def product(self, u: int, v: int) -> int:
        """Minato's set join: ``{a | b : a in u, b in v}``.

        The ZDD analog of conjunction for sparse cube sets: joining a
        family of markings with a cube of produced tokens deposits the
        tokens into every marking in one cached pass.
        """
        if u == EMPTY or v == EMPTY:
            return EMPTY
        if u == BASE:
            return v
        if v == BASE:
            return u
        if u > v:
            u, v = v, u
        key = ("*", u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ulvl, vlvl = self._level(u), self._level(v)
        if ulvl < vlvl:
            result = self._mk(self._var[u],
                              self.product(self._low[u], v),
                              self.product(self._high[u], v))
        elif vlvl < ulvl:
            result = self._mk(self._var[v],
                              self.product(u, self._low[v]),
                              self.product(u, self._high[v]))
        else:
            # (l1 + x h1)(l2 + x h2) = l1 l2 + x (h1 h2 + h1 l2 + l1 h2)
            low = self.product(self._low[u], self._low[v])
            high = self.union(
                self.product(self._high[u], self._high[v]),
                self.union(self.product(self._high[u], self._low[v]),
                           self.product(self._low[u], self._high[v])))
            result = self._mk(self._var[u], low, high)
        self._cache[key] = result
        return result

    def exists(self, u: int, variables: Iterable) -> int:
        """Abstract ``variables`` away: ``{s - variables : s in u}``.

        The family analog of boolean existential quantification — sets
        differing only on the quantified elements collapse to one.
        """
        targets = self._intern_vars(variables)
        if not targets:
            return u
        bottom = max(self._var2level[t] for t in targets)
        return self._exists(u, targets, bottom)

    def _exists(self, u: int, targets: FrozenSet[int], bottom: int) -> int:
        if u <= BASE or self._level(u) > bottom:
            # Below the deepest quantified element nothing changes.
            return u
        key = ("ex", u, targets)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        var = self._var[u]
        low = self._exists(self._low[u], targets, bottom)
        high = self._exists(self._high[u], targets, bottom)
        if var in targets:
            result = self.union(low, high)
        else:
            result = self._mk(var, low, high)
        self._cache[key] = result
        return result

    def project(self, u: int, variables: Iterable) -> int:
        """Project onto ``variables``: ``{s & variables : s in u}``.

        The complement view of :meth:`exists` — everything *outside* the
        kept subset is quantified away.
        """
        keep = self._intern_vars(variables)
        return self._project(u, keep)

    def _project(self, u: int, keep: FrozenSet[int]) -> int:
        if u <= BASE:
            return u
        key = ("pj", u, keep)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        var = self._var[u]
        low = self._project(self._low[u], keep)
        high = self._project(self._high[u], keep)
        if var in keep:
            result = self._mk(var, low, high)
        else:
            result = self.union(low, high)
        self._cache[key] = result
        return result

    def supset(self, u: int, variables: Iterable) -> int:
        """Containment filter: the sets of ``u`` containing every element
        of ``variables`` (membership intact — nothing is stripped).

        This is the enabling test of the relational image: markings that
        hold all of a transition's input tokens.
        """
        want = tuple(sorted(self._intern_vars(variables),
                            key=lambda var: self._var2level[var]))
        return self._supset(u, want, 0)

    def _supset(self, u: int, want: Tuple[int, ...], idx: int) -> int:
        if idx == len(want):
            return u
        target = want[idx]
        if u <= BASE or self._level(u) > self._var2level[target]:
            return EMPTY
        key = ("sup", u, want, idx)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        var = self._var[u]
        if var == target:
            result = self._mk(var, EMPTY,
                              self._supset(self._high[u], want, idx + 1))
        else:
            result = self._mk(var,
                              self._supset(self._low[u], want, idx),
                              self._supset(self._high[u], want, idx))
        self._cache[key] = result
        return result

    def rename(self, u: int, mapping: Mapping) -> int:
        """Re-label elements along an order-monotone map.

        ``mapping`` sends source elements (indices or names) to target
        elements; elements outside its domain keep their label.  The map
        must be strictly increasing along the element *order* — the
        current levels, not the raw indices — (raises :class:`ZDDError`
        otherwise) so the diagram can be rebuilt in one bottom-up pass.
        A set that ends up with a renamed element on an untouched
        element's label collapses by plain set semantics (the label
        appears once).
        """
        pairs = tuple(sorted(
            ((self.var_index(src), self.var_index(dst))
             for src, dst in mapping.items()),
            key=lambda pair: self._var2level[pair[0]]))
        previous = -1
        for _, dst in pairs:
            if self._var2level[dst] <= previous:
                raise ZDDError(
                    f"rename map is not order-monotone: {pairs}")
            previous = self._var2level[dst]
        if not pairs:
            return u
        return self._rename(u, pairs, dict(pairs))

    def _rename(self, u: int, pairs: Tuple[Tuple[int, int], ...],
                lookup: Dict[int, int]) -> int:
        if u <= BASE:
            return u
        key = ("rn", u, pairs)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        var = lookup.get(self._var[u], self._var[u])
        vlevel = self._var2level[var]
        low = self._rename(self._low[u], pairs, lookup)
        high = self._rename(self._high[u], pairs, lookup)
        if (low <= BASE or vlevel < self._level(low)) \
                and (high <= BASE or vlevel < self._level(high)):
            result = self._mk(var, low, high)
        else:
            # A renamed element crossed an untouched one inside this
            # subtree (e.g. next(p) landing on p's level while sibling
            # sets keep a bare p): rebuild by set algebra instead of a
            # raw node — product() inserts the label at its proper level
            # and collapses duplicates.
            result = self.union(
                low, self.product(self._mk(var, EMPTY, BASE), high))
        self._cache[key] = result
        return result

    def and_exists(self, u: int, v: int, variables: Iterable) -> int:
        """Fused relational product ``exists(product(u, v), variables)``.

        The join ``product(u, v)`` is never materialized: one recursion
        joins and abstracts simultaneously, memoized in a dedicated
        operation cache — the ZDD mirror of
        :meth:`repro.bdd.manager.BDD.and_exists`.  Equivalently (and how
        the property suite pins it down),
        ``and_exists(u, v, qvars) == project(product(u, v), keep)`` for
        ``keep`` the complement of ``qvars``.
        """
        qvars = self._intern_vars(variables)
        self.ae_calls += 1
        if not qvars:
            return self.product(u, v)
        qbottom = max(self._var2level[var] for var in qvars)
        return self._and_exists(u, v, qvars, qbottom)

    def _and_exists(self, u: int, v: int, qvars: FrozenSet[int],
                    qbottom: int) -> int:
        if u == EMPTY or v == EMPTY:
            return EMPTY
        if u == BASE and v == BASE:
            return BASE
        if u > v:
            u, v = v, u
        ulvl, vlvl = self._level(u), self._level(v)
        if min(ulvl, vlvl) > qbottom:
            # Every quantified element has been passed: what remains is
            # a plain join of subfamilies.
            return self.product(u, v)
        key = (u, v, qvars)
        cached = self._ae_cache.get(key)
        if cached is not None:
            self.ae_cache_hits += 1
            return cached
        self.ae_recursions += 1
        if ulvl < vlvl:
            var, u0, u1, v0, v1 = self._var[u], self._low[u], \
                self._high[u], v, EMPTY
        elif vlvl < ulvl:
            var, u0, u1, v0, v1 = self._var[v], u, EMPTY, \
                self._low[v], self._high[v]
        else:
            var, u0, u1, v0, v1 = self._var[u], self._low[u], \
                self._high[u], self._low[v], self._high[v]
        low = self._and_exists(u0, v0, qvars, qbottom)
        high = self.union(
            self._and_exists(u1, v1, qvars, qbottom),
            self.union(self._and_exists(u1, v0, qvars, qbottom),
                       self._and_exists(u0, v1, qvars, qbottom)))
        if var in qvars:
            result = self.union(low, high)
        else:
            result = self._mk(var, low, high)
        self._ae_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Saturation: the forward fixpoint in one recursion
    # ------------------------------------------------------------------

    def saturate_post(self, states: int,
                      events: Iterable[Tuple[Iterable, Iterable]],
                      min_top: int = 0) -> int:
        """Forward closure of ``states`` by saturation (Ciardo, Lüttgen
        & Siminiceanu, TACAS 2001), the token-set mirror of
        :meth:`repro.bdd.manager.BDD.saturate_post`.

        Each event is a ``(consume, produce)`` pair of elements.  The
        result is the least family ``⊇ states`` closed under ``M ↦ (M \\
        consume) ∪ produce`` for every ``M ⊇ consume``, over the events
        whose ``Top`` (the shallowest level of ``consume ∪ produce``) is
        at or below level ``min_top``; events filed above it are
        skipped.

        The recursion is the BDD one: ``saturate`` works bottom-up and
        fires the events filed at a node's level until neither branch
        grows, and ``relprod`` fires one event below its ``Top`` and
        saturates its result on the way back up.  Zero suppression
        changes two things.  A level a node skips holds the element
        *absent* (the split there is ``(u, EMPTY)``), so both recursions
        stop at every event level and every support level, not only at
        the node's.  At a support level a consumed element reads branch
        1 and a produce-only one reads both; either writes the branch of
        its value after firing.

        The memo tables, unions included, live and die with the call:
        no registered cache gains an entry, so the operation needs no
        safe point around it.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        var2level = self._var2level
        level2var = self._level2var
        node_fn = self._node
        terminal = len(var2level)

        # File the events by Top.  An event is (per support level: the
        # branches it reads and the one it writes, Bot, next support
        # level from each level of [Top, Bot], Top, its relprod memo).
        by_top: Dict[int, list] = {}
        for consume, produce in events:
            taken = {var2level[self.var_index(e)] for e in consume}
            given = {var2level[self.var_index(e)] for e in produce}
            roles = {level: ((1,) if level in taken else (0, 1),
                             int(level in given))
                     for level in taken | given}
            if not roles:
                continue  # nothing consumed or produced: the identity
            top, bot = min(roles), max(roles)
            if top < min_top:
                continue
            next_support = [terminal] * (bot - top + 2)
            for level in range(bot, top - 1, -1):
                next_support[level - top] = (
                    level if level in roles
                    else next_support[level - top + 1])
            by_top.setdefault(top, []).append(
                (roles, bot, next_support, top, {}))
        # next_event[L]: the shallowest level at or below L with events.
        next_event = [terminal] * (terminal + 1)
        for level in range(terminal - 1, -1, -1):
            next_event[level] = (level if level in by_top
                                 else next_event[level + 1])

        sat_memo: Dict[int, int] = {}
        union_memo: Dict[int, int] = {}

        def level_of(u: int) -> int:
            return terminal if u <= BASE else var2level[var_arr[u]]

        def split(u: int, level: int) -> Tuple[int, int]:
            if u > BASE and var2level[var_arr[u]] == level:
                return low_arr[u], high_arr[u]
            return u, EMPTY

        def mk(level: int, r0: int, r1: int) -> int:
            if r1 == EMPTY:
                return r0
            return node_fn(level2var[level], r0, r1)

        def union(u: int, v: int) -> int:
            if u == EMPTY:
                return v
            if v == EMPTY or u == v:
                return u
            if u > v:
                u, v = v, u
            key = (u << _PACK) | v
            result = union_memo.get(key)
            if result is not None:
                return result
            ulvl, vlvl = level_of(u), level_of(v)
            if ulvl < vlvl:
                result = node_fn(var_arr[u], union(low_arr[u], v),
                                 high_arr[u])
            elif vlvl < ulvl:
                result = node_fn(var_arr[v], union(u, low_arr[v]),
                                 high_arr[v])
            else:
                result = node_fn(var_arr[u],
                                 union(low_arr[u], low_arr[v]),
                                 union(high_arr[u], high_arr[v]))
            union_memo[key] = result
            return result

        def fire(level: int, x0: int, x1: int) -> Tuple[int, int]:
            """Fire the events filed at ``level`` on the saturated
            branches ``x0`` and ``x1`` until neither grows."""
            x = [x0, x1]
            grown = True
            while grown:
                grown = False
                for event in by_top[level]:
                    reads, write = event[0][level]
                    for i in reads:
                        if x[i] == EMPTY:
                            continue
                        found = relprod(x[i], event, level + 1)
                        merged = union(x[write], found)
                        if merged != x[write]:
                            x[write] = merged
                            grown = True
            return x[0], x[1]

        def saturate(s: int, level: int) -> int:
            """Least superset of ``s`` closed under the events whose
            ``Top`` is at or below ``level``."""
            if s == EMPTY:
                return s
            level = next_event[level]
            if level == terminal:
                return s
            slvl = level_of(s)
            if slvl < level:
                level = slvl
            key = (s << _PACK) | level
            result = sat_memo.get(key)
            if result is not None:
                return result
            s0, s1 = split(s, level)
            x0 = saturate(s0, level + 1)
            x1 = saturate(s1, level + 1)
            if next_event[level] == level:
                x0, x1 = fire(level, x0, x1)
            result = mk(level, x0, x1)
            sat_memo[key] = result
            sat_memo[(result << _PACK) | level] = result
            return result

        def relprod(s: int, event, level: int) -> int:
            """``saturate(step(s))`` where ``step`` fires the event's
            support from ``level`` down."""
            if s == EMPTY:
                return EMPTY
            roles, bot, next_support, top, memo = event
            if level <= bot:
                level = min(level_of(s), next_event[level],
                            next_support[level - top])
            if level > bot:
                # Past the event: nothing is consumed or produced here.
                return saturate(s, level)
            key = (s << _PACK) | level
            result = memo.get(key)
            if result is not None:
                return result
            s0, s1 = split(s, level)
            role = roles.get(level)
            if role is None:
                r0 = relprod(s0, event, level + 1)
                r1 = relprod(s1, event, level + 1)
            else:
                reads, write = role
                found = EMPTY
                for i in reads:
                    found = union(found, relprod((s0, s1)[i], event,
                                                 level + 1))
                r0, r1 = (EMPTY, found) if write else (found, EMPTY)
            if next_event[level] == level:
                r0, r1 = fire(level, r0, r1)
            result = mk(level, r0, r1)
            memo[key] = result
            return result

        return saturate(states, 0)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def count(self, u: int) -> int:
        """Number of sets in the family."""
        memo: Dict[int, int] = {EMPTY: 0, BASE: 1}

        def rec(node: int) -> int:
            cached = memo.get(node)
            if cached is not None:
                return cached
            total = rec(self._low[node]) + rec(self._high[node])
            memo[node] = total
            return total

        return rec(u)

    def contains(self, u: int, members: Iterable) -> bool:
        """Membership test for one set."""
        want = sorted({self.var_index(e) for e in members},
                      key=lambda var: self._var2level[var])
        node = u
        for var in want:
            tlevel = self._var2level[var]
            while node > BASE and self._level(node) < tlevel:
                node = self._low[node]
            if node <= BASE or self._var[node] != var:
                return False
            node = self._high[node]
        while node > BASE:
            node = self._low[node]
        return node == BASE

    def __repr__(self) -> str:
        return (f"<ZDD elements={self.num_vars} "
                f"live_nodes={self.live_nodes()}>")
