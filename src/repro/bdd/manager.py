"""Binary Decision Diagram manager.

This module implements a self-contained BDD package in the style of the
classic libraries the paper relies on (Brace/Rudell/Bryant; David Long's
package):

* reduced ordered BDDs **with complement edges**,
* hash-consing through per-variable unique tables,
* a computed-table (operation cache),
* exact internal reference counting with cascading frees,
* garbage collection and dynamic variable reordering at safe points.

The node storage, reference counting, garbage collection, level
bookkeeping and adjacent-level swap machinery live in the
shared kernel :class:`repro.dd.manager.DDManager` (also underneath
:class:`repro.bdd.zdd.ZDD`); this class adds the boolean reduction rule
(``low == high`` collapses), the complement-edge canonical form and the
boolean operation algebra.

Edge representation
-------------------

Every value handled by this manager is an *edge*: ``(node_id << 1) | c``
where ``c`` is the complement bit.  Edge ``e`` denotes the function of
node ``e >> 1``, negated iff ``e & 1``.  There is a single terminal node
(id ``1``); its two polarities are the constants::

    ONE  = 2          # edge (node 1, regular)
    ZERO = 3          # edge (node 1, complemented)

Canonical form: **the else (low) edge of a stored node is never
complemented**.  :meth:`BDD._mk` enforces this at find-or-create — a
complemented else edge flips both children and complements the resulting
edge instead (``mk(v, ~a, b) == ~mk(v, a, ~b)``) — so every boolean
function has exactly one edge and

* :meth:`BDD.apply_not` is a bit flip (O(1), no recursion, no node
  allocation),
* ``~~f == f`` holds structurally (``(e ^ 1) ^ 1 == e``),
* a function and its negation share one DAG, roughly halving node
  counts on negation-heavy workloads.

Operation caches are complement-canonicalised so equivalent queries
share cache lines: OR is De Morgan'd onto the AND cache, XOR factors
both complement bits out of its key, ITE applies the standard-triple
rules (regular first argument, regular then-branch, terminal cases
delegated to AND/XOR), and the unary structural ops (cofactor, rename,
toggle) cache on the regular edge because they commute with
negation.

Each memoised operation owns one cache, registered with the kernel so
every safe point clears them all:

* ``_and_cache`` — AND (and OR, DIFF through it), packed edge pair;
* ``_ex_cache`` — ``exists``/``forall``, per quantified set;
* ``_cof_cache`` — ``cofactor``, per assignment;
* ``_ae_cache`` (kernel) — ``and_exists``, per quantified set;
* ``_oat_cache`` — the fused toggle step ``or_and_toggle``, per toggle
  set, packed edge triple;
* ``_oca_cache`` — the fused pre-image step ``or_cofactor_and``, per
  assignment, packed edge triple;
* ``_cache`` (kernel) — XOR, ITE, rename and toggle, tuple-keyed.

Saturation (``saturate_pre``, the checker's backward ``EF``, and
``saturate_post``, the default forward fixpoint, both wrappers of one
core) registers none: its memo tables are locals of the one call.

A node's fields may be mutated in place by variable reordering, but the
function represented by an edge never changes; external code can
therefore hold edges across reordering (see
:class:`repro.bdd.function.Function`).

The manager API is deliberately low level (integer edges, explicit
reference counting).  User code should go through
:class:`repro.bdd.function.Function` obtained from :meth:`BDD.var`,
:attr:`BDD.true` and :attr:`BDD.false`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..dd.manager import DDError, DDManager, _PACK

#: The constant edges: one terminal node (id 1) in two polarities.
ONE = 2
ZERO = 3


class BDDError(DDError):
    """Raised for invalid BDD manager operations."""


class BDD(DDManager):
    """A BDD manager: variable order, unique tables and operations.

    Parameters
    ----------
    var_names:
        Optional initial list of variable names; the initial variable order
        is the list order.
    auto_reorder:
        If true, sifting is triggered automatically when the number of live
        nodes crosses a growing threshold (checked only at safe points,
        i.e. at entry of public operations).
    """

    _error_class = BDDError
    _var_prefix = "x"
    _edge_shift = 1
    complement_edges = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Dedicated caches for the hottest operations, int-keyed like
        # the unique tables (pack two edges as ``(u << _PACK) | v``, or
        # nest one small dict per quantifier/assignment context): int
        # keys hash as themselves, the hot loops allocate no tuples,
        # and the million-entry inner dicts stay exempt from the cycle
        # collector.  AND also serves OR and DIFF via De Morgan.
        # Registered with the kernel so safe points clear them.
        self._and_cache: Dict[int, int] = self.register_cache({})
        self._ex_cache: Dict[FrozenSet[int], Dict[int, int]] = \
            self.register_cache({})
        self._cof_cache: Dict[tuple, Dict[int, int]] = self.register_cache({})
        # The fused chained steps, one cache each, nested per toggle
        # set / assignment and keyed by the packed edge triple.
        self._oat_cache: Dict[FrozenSet[int], Dict[int, int]] = \
            self.register_cache({})
        self._oca_cache: Dict[tuple, Dict[int, int]] = self.register_cache({})

    # ------------------------------------------------------------------
    # Kernel hooks: the boolean reduction rule and canonical form
    # ------------------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the edge for node ``(var, low, high)``.

        Applies the boolean reduction rule (``low == high`` collapses)
        and the complement-edge canonical form: a complemented else
        edge is normalised away by flipping both children and
        complementing the result.
        """
        if low == high:
            return low
        if low & 1:
            return (self._node(var, low ^ 1, high ^ 1) << 1) | 1
        return self._node(var, low, high) << 1

    def _is_reduced(self, low: int, high: int) -> bool:
        return low != high

    def _swap_cofactors(self, child: int, lower: int) -> Tuple[int, int]:
        node = child >> 1
        if self._var[node] == lower:
            c = child & 1
            return self._low[node] ^ c, self._high[node] ^ c
        # Independent of the lower variable: both cofactors are the child.
        return child, child

    def _level(self, u: int) -> int:
        """Level of the node behind edge ``u`` (terminals at bottom)."""
        var = self._var[u >> 1]
        if var < 0:
            return len(self._var2level)
        return self._var2level[var]

    # ------------------------------------------------------------------
    # Edge accessors
    # ------------------------------------------------------------------

    def edge_var(self, u: int) -> int:
        """Variable labelling the node behind edge ``u`` (-1: terminal)."""
        return self._var[u >> 1]

    def low_edge(self, u: int) -> int:
        """Else cofactor of edge ``u`` (complement bit pushed down)."""
        return self._low[u >> 1] ^ (u & 1)

    def high_edge(self, u: int) -> int:
        """Then cofactor of edge ``u`` (complement bit pushed down)."""
        return self._high[u >> 1] ^ (u & 1)

    # ------------------------------------------------------------------
    # Constants and literals
    # ------------------------------------------------------------------

    def var_node(self, var) -> int:
        """Edge of the positive literal of ``var``."""
        return self._mk(self.var_index(var), ZERO, ONE)

    # ------------------------------------------------------------------
    # Core operations (edge level)
    # ------------------------------------------------------------------

    def apply_not(self, u: int) -> int:
        """Negation: flip the complement bit.  O(1) — no recursion, no
        allocation, no cache lookup; ``~~f == f`` structurally."""
        return u ^ 1

    def apply_and(self, u: int, v: int) -> int:
        # Terminal cases first, before paying for the closure
        # ``_and_rec`` builds.
        if u == v:
            return u
        if u == ZERO or v == ZERO or u ^ v == 1:
            # The third case is f AND (NOT f) on the shared node.
            return ZERO
        if u == ONE:
            return v
        if v == ONE:
            return u
        return self._and_rec(self._and_cache)(u, v)

    def _and_rec(self, cache: Dict[int, int]):
        """The AND recursion, memoised in ``cache``: ``apply_and``
        passes ``_and_cache``, saturation a dict of its own."""
        # The recursion binds the node arrays, the cache and the
        # hash-consing hook to locals and inlines ``_mk``: on traversal
        # workloads a top-level AND averages hundreds of recursive
        # steps, so shaving attribute lookups and method dispatch off
        # each step dominates the one-off cost of building the closure.
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        var2level = self._var2level
        node_fn = self._node

        def rec(u: int, v: int) -> int:
            if u == v:
                return u
            if u == ZERO or v == ZERO or u ^ v == 1:
                return ZERO
            if u == ONE:
                return v
            if v == ONE:
                return u
            if u > v:
                u, v = v, u
            key = (u << _PACK) | v
            result = cache.get(key)
            if result is not None:
                return result
            # Both edges point at internal nodes here, so var >= 0.
            un = u >> 1
            vn = v >> 1
            ulvl = var2level[var_arr[un]]
            vlvl = var2level[var_arr[vn]]
            if ulvl <= vlvl:
                var = var_arr[un]
                uc = u & 1
                u0 = low_arr[un] ^ uc
                u1 = high_arr[un] ^ uc
            else:
                var = var_arr[vn]
                u0 = u1 = u
            if vlvl <= ulvl:
                vc = v & 1
                v0 = low_arr[vn] ^ vc
                v1 = high_arr[vn] ^ vc
            else:
                v0 = v1 = v
            r0 = rec(u0, v0)
            r1 = rec(u1, v1)
            if r0 == r1:
                result = r0
            elif r0 & 1:
                result = (node_fn(var, r0 ^ 1, r1 ^ 1) << 1) | 1
            else:
                result = node_fn(var, r0, r1) << 1
            cache[key] = result
            return result

        return rec

    def apply_or(self, u: int, v: int) -> int:
        # De Morgan onto the AND cache: f OR g == NOT (NOT f AND NOT g).
        # With O(1) negation this costs two bit flips and shares cache
        # lines with the conjunctive phrasing of the same query.
        return self.apply_and(u ^ 1, v ^ 1) ^ 1

    def apply_xor(self, u: int, v: int) -> int:
        # XOR is invariant under complementing *both* arguments, and
        # complementing one complements the result — so both bits factor
        # out of the cache key entirely.
        c = (u ^ v) & 1
        u &= -2
        v &= -2
        if u == v:
            return ZERO ^ c
        if u == ONE:
            return v ^ 1 ^ c
        if v == ONE:
            return u ^ 1 ^ c
        if u > v:
            u, v = v, u
        key = ("xor", u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached ^ c
        un, vn = u >> 1, v >> 1
        ulvl = self._var2level[self._var[un]]
        vlvl = self._var2level[self._var[vn]]
        if ulvl <= vlvl:
            var = self._var[un]
            u0, u1 = self._low[un], self._high[un]
        else:
            var = self._var[vn]
            u0 = u1 = u
        if vlvl <= ulvl:
            v0, v1 = self._low[vn], self._high[vn]
        else:
            v0 = v1 = v
        result = self._mk(var, self.apply_xor(u0, v0), self.apply_xor(u1, v1))
        self._cache[key] = result
        return result ^ c

    def apply_diff(self, u: int, v: int) -> int:
        """``u AND NOT v`` — one bit flip on top of the AND cache."""
        return self.apply_and(u, v ^ 1)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f*g + !f*h`` with standard-triple
        canonicalisation, so equivalent queries (``ite(f,g,0)`` /
        ``f AND g`` / De Morgan'd phrasings) share cache lines."""
        if f == ONE:
            return g
        if f == ZERO:
            return h
        if g == h:
            return g
        # Branches equal (or complementary) to the test collapse to
        # constants of that branch.
        if g == f:
            g = ONE
        elif g == (f ^ 1):
            g = ZERO
        if h == f:
            h = ZERO
        elif h == (f ^ 1):
            h = ONE
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        if g == ZERO and h == ONE:
            return f ^ 1
        # One constant branch: delegate to the binary ops (and their
        # canonicalised caches).
        if h == ZERO:
            return self.apply_and(f, g)
        if g == ZERO:
            return self.apply_and(f ^ 1, h)
        if g == ONE:
            return self.apply_and(f ^ 1, h ^ 1) ^ 1
        if h == ONE:
            return self.apply_and(f, g ^ 1) ^ 1
        if g == (h ^ 1):
            return self.apply_xor(f, h)
        # Standard triples: regular test (ite(~f,g,h) == ite(f,h,g)),
        # then regular then-branch (ite(f,~g,~h) == ~ite(f,g,h)).
        if f & 1:
            f, g, h = f ^ 1, h, g
        c = g & 1
        if c:
            g, h = g ^ 1, h ^ 1
        key = ("ite", f, g, h)
        cached = self._cache.get(key)
        if cached is not None:
            return cached ^ c
        level = min(self._level(f), self._level(g), self._level(h))
        var = self._level2var[level]
        f0, f1 = self._cofactors_at(f, level)
        g0, g1 = self._cofactors_at(g, level)
        h0, h1 = self._cofactors_at(h, level)
        result = self._mk(var, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._cache[key] = result
        return result ^ c

    def _cofactors_at(self, u: int, level: int) -> Tuple[int, int]:
        if self._level(u) == level:
            node = u >> 1
            c = u & 1
            return self._low[node] ^ c, self._high[node] ^ c
        return u, u

    # ------------------------------------------------------------------
    # Quantification and relational product
    # ------------------------------------------------------------------

    def exists(self, u: int, variables: Iterable) -> int:
        """Existential quantification of ``variables`` out of ``u``."""
        qvars = self._intern_vars(variables)
        if not qvars:
            return u
        return self._exists(u, qvars)

    def _exists(self, u: int, qvars: FrozenSet[int]) -> int:
        if u == ZERO or u == ONE:
            return u
        cache = self._ex_cache.get(qvars)
        if cache is None:
            cache = self._ex_cache[qvars] = {}
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        node_fn = self._node
        apply_and = self.apply_and

        def rec(u: int) -> int:
            if u == ZERO or u == ONE:
                return u
            # No complement factoring here: exists does NOT commute
            # with negation (that is forall), so the cache key is the
            # full edge.
            result = cache.get(u)
            if result is not None:
                return result
            node = u >> 1
            c = u & 1
            var = var_arr[node]
            if var in qvars:
                r0 = rec(low_arr[node] ^ c)
                if r0 == ONE:
                    result = ONE
                else:
                    result = apply_and(r0 ^ 1, rec(high_arr[node] ^ c) ^ 1) ^ 1
            else:
                r0 = rec(low_arr[node] ^ c)
                r1 = rec(high_arr[node] ^ c)
                if r0 == r1:
                    result = r0
                elif r0 & 1:
                    result = (node_fn(var, r0 ^ 1, r1 ^ 1) << 1) | 1
                else:
                    result = node_fn(var, r0, r1) << 1
            cache[u] = result
            return result

        return rec(u)

    def and_exists(self, u: int, v: int, variables: Iterable) -> int:
        """Relational product ``exists(variables, u AND v)`` in one pass.

        The conjunction ``u AND v`` is never materialized: a single
        recursion conjoins and quantifies simultaneously, memoized in a
        dedicated operation cache.  Quantified variables are eliminated as
        the recursion passes their levels; once the recursion has descended
        below the deepest quantified variable the remaining subproblem is a
        plain conjunction and is delegated to :meth:`apply_and` (whose
        operands at that point are strict subfunctions, not ``u AND v``).
        """
        qvars = self._intern_vars(variables)
        self.ae_calls += 1
        if not qvars:
            return self.apply_and(u, v)
        qbottom = max(self._var2level[var] for var in qvars)
        return self._and_exists(u, v, qvars, qbottom)

    def _and_exists(self, u: int, v: int, qvars: FrozenSet[int],
                    qbottom: int) -> int:
        cache = self._ae_cache.get(qvars)
        if cache is None:
            cache = self._ae_cache[qvars] = {}
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        var2level = self._var2level
        level2var = self._level2var
        node_fn = self._node
        apply_and = self.apply_and
        exists = self._exists
        recs = 0
        hits = 0

        def rec(u: int, v: int) -> int:
            nonlocal recs, hits
            if u == ZERO or v == ZERO or u ^ v == 1:
                return ZERO
            if u == ONE and v == ONE:
                return ONE
            if u == ONE:
                return exists(v, qvars)
            if v == ONE or u == v:
                return exists(u, qvars)
            if u > v:
                u, v = v, u
            # Both edges point at internal nodes here, so var >= 0.
            ulvl = var2level[var_arr[u >> 1]]
            vlvl = var2level[var_arr[v >> 1]]
            level = ulvl if ulvl < vlvl else vlvl
            if level > qbottom:
                # Every quantified variable has been passed: what
                # remains is a pure conjunction of subfunctions.
                return apply_and(u, v)
            key = (u << _PACK) | v
            result = cache.get(key)
            if result is not None:
                hits += 1
                return result
            recs += 1
            var = level2var[level]
            if ulvl == level:
                un = u >> 1
                uc = u & 1
                u0 = low_arr[un] ^ uc
                u1 = high_arr[un] ^ uc
            else:
                u0 = u1 = u
            if vlvl == level:
                vn = v >> 1
                vc = v & 1
                v0 = low_arr[vn] ^ vc
                v1 = high_arr[vn] ^ vc
            else:
                v0 = v1 = v
            if var in qvars:
                r0 = rec(u0, v0)
                if r0 == ONE:
                    result = ONE
                else:
                    result = apply_and(r0 ^ 1, rec(u1, v1) ^ 1) ^ 1
            else:
                r0 = rec(u0, v0)
                r1 = rec(u1, v1)
                if r0 == r1:
                    result = r0
                elif r0 & 1:
                    result = (node_fn(var, r0 ^ 1, r1 ^ 1) << 1) | 1
                else:
                    result = node_fn(var, r0, r1) << 1
            cache[key] = result
            return result

        result = rec(u, v)
        self.ae_recursions += recs
        self.ae_cache_hits += hits
        return result

    # ------------------------------------------------------------------
    # Fused chained steps: accumulate one transition's firing in one pass
    # ------------------------------------------------------------------

    def or_and_toggle(self, u: int, w: int, v: int,
                      variables: Iterable) -> int:
        """Chained toggle firing ``u OR toggle(variables, w AND v)``.

        One memoised recursion over the triple: neither ``w AND v`` nor
        its toggled copy is materialised.  At the level of a toggled
        variable the result's else branch pairs ``u``'s else branch with
        the then branches of ``w`` and ``v`` (and the reverse); below
        the deepest toggled variable what remains is ``u OR (w AND v)``,
        which ends early when ``u`` already covers it.
        """
        tvars = self._intern_vars(variables)
        cache = self._oat_cache.get(tvars)
        if cache is None:
            cache = self._oat_cache[tvars] = {}
        bottom = max((self._var2level[var] for var in tvars), default=-1)
        return self._or_and_rec(u, w, v, cache, bottom, None, tvars)

    def or_cofactor_and(self, u: int, w: int, assignment: Dict,
                        v: int) -> int:
        """Chained pre-image step ``u OR (w|assignment AND v)``.

        One memoised recursion over the triple: ``w`` follows its
        assigned branch past every assigned variable, while ``u`` and
        ``v`` split normally, so neither the cofactor nor the
        conjunction is materialised.  Below the deepest assigned
        variable what remains is ``u OR (w AND v)``.
        """
        values = {self.var_index(var): bool(val)
                  for var, val in assignment.items()}
        key_vals = tuple(sorted(values.items()))
        cache = self._oca_cache.get(key_vals)
        if cache is None:
            cache = self._oca_cache[key_vals] = {}
        bottom = max((self._var2level[var] for var in values), default=-1)
        return self._or_and_rec(u, w, v, cache, bottom, values, ())

    def _or_and_rec(self, u: int, w: int, v: int, cache: Dict[int, int],
                    bottom: int, values: Optional[Dict[int, bool]],
                    tvars) -> int:
        """The recursion behind both fused steps: ``u OR (w' AND v)``
        where ``w'`` is ``w`` cofactored by ``values`` (when given) and
        the conjunction is toggled on ``tvars``.  ``bottom`` is the
        deepest level either touches; below it the step is a plain
        ``u OR (w AND v)``."""
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        var2level = self._var2level
        level2var = self._level2var
        node_fn = self._node
        apply_and = self.apply_and
        terminal = len(var2level)
        symmetric = values is None

        def rec(u: int, w: int, v: int) -> int:
            if u == ONE:
                return ONE
            if values is not None:
                # ``w`` takes its assigned branch past assigned tops.
                while w > ZERO:
                    wn = w >> 1
                    value = values.get(var_arr[wn])
                    if value is None:
                        break
                    w = (high_arr[wn] if value else low_arr[wn]) ^ (w & 1)
            if w == ZERO or v == ZERO:
                return u
            if w == ONE and v == ONE:
                return ONE
            if symmetric:
                # (A cofactored ``w`` may meet ``NOT v`` above ``bottom``
                # and still leave models, so this waits for the tail.)
                if w ^ v == 1:
                    return u
                if w > v:
                    w, v = v, w
            ulvl = terminal if u == ZERO else var2level[var_arr[u >> 1]]
            wlvl = terminal if w == ONE else var2level[var_arr[w >> 1]]
            vlvl = terminal if v == ONE else var2level[var_arr[v >> 1]]
            level = ulvl if ulvl < wlvl else wlvl
            if vlvl < level:
                level = vlvl
            if level > bottom:
                # Past every toggled/assigned variable: u OR (w AND v).
                if u == w or u == v or w ^ v == 1:
                    return u
                if u == ZERO:
                    return apply_and(w, v)
                if w == ONE or u ^ w == 1:
                    return apply_and(u ^ 1, v ^ 1) ^ 1
                if v == ONE or u ^ v == 1:
                    return apply_and(u ^ 1, w ^ 1) ^ 1
            key = (((u << _PACK) | w) << _PACK) | v
            result = cache.get(key)
            if result is not None:
                return result
            var = level2var[level]
            if ulvl == level:
                un = u >> 1
                uc = u & 1
                u0 = low_arr[un] ^ uc
                u1 = high_arr[un] ^ uc
            else:
                u0 = u1 = u
            if wlvl == level:
                wn = w >> 1
                wc = w & 1
                w0 = low_arr[wn] ^ wc
                w1 = high_arr[wn] ^ wc
            else:
                w0 = w1 = w
            if vlvl == level:
                vn = v >> 1
                vc = v & 1
                v0 = low_arr[vn] ^ vc
                v1 = high_arr[vn] ^ vc
            else:
                v0 = v1 = v
            if var in tvars:
                r0 = rec(u0, w1, v1)
                r1 = rec(u1, w0, v0)
            else:
                r0 = rec(u0, w0, v0)
                r1 = rec(u1, w1, v1)
            if r0 == r1:
                result = r0
            elif r0 & 1:
                result = (node_fn(var, r0 ^ 1, r1 ^ 1) << 1) | 1
            else:
                result = node_fn(var, r0, r1) << 1
            cache[key] = result
            return result

        return rec(u, w, v)

    # ------------------------------------------------------------------
    # Saturation: a fixpoint in one recursion, backward or forward
    # ------------------------------------------------------------------

    def saturate_pre(self, constraint: int, target: int,
                     events: Iterable[Tuple[Dict, int]]) -> int:
        """Backward closure ``E[constraint U target]`` by constrained
        saturation (Zhao & Ciardo, ATVA 2009).

        Returns the least ``X ⊇ target AND constraint`` closed under
        ``constraint AND E_t AND X|force_t`` for every event ``(force_t,
        E_t)``: the pair ``or_cofactor_and`` takes, one per transition.
        See :meth:`_saturate` for the recursion.
        """
        return self._saturate(constraint, target, events, False, 0)

    def saturate_post(self, states: int, events: Iterable[Tuple[Dict, int]],
                      min_top: int = 0) -> int:
        """Forward closure of ``states`` by saturation (Ciardo, Lüttgen
        & Siminiceanu, TACAS 2001).

        Returns the least ``X ⊇ states`` closed under the image
        ``force_t AND exists(force_t vars, X AND E_t)`` of every event
        ``(force_t, E_t)`` (the list :meth:`saturate_pre` takes) whose
        ``Top`` is at or below level ``min_top``; events filed above it
        are skipped.  See :meth:`_saturate` for the recursion.
        """
        return self._saturate(ONE, states, events, True, min_top)

    def _saturate(self, constraint: int, source: int,
                  events: Iterable[Tuple[Dict, int]], forward: bool,
                  min_top: int) -> int:
        """The least superset of ``source AND constraint`` within
        ``constraint`` closed under the events' images (``forward``) or
        pre-images.

        Each event is filed under ``Top``, the shallowest level of
        ``supp(E_t) ∪ force_t``, and ends at ``Bot``, the deepest; both
        are read from the current order.  Above ``Top`` an event leaves
        a state alone, so it acts on each node at its ``Top`` level
        branch by branch.  ``saturate`` works bottom-up: it saturates
        both children, then fires the events filed at the node's level
        until neither branch grows.  ``relprod`` fires one event below
        its ``Top`` and saturates its result on the way back up, so
        every union it feeds is already closed under the lower events.
        The two directions differ only at a forced level: backward
        reads the forced branch and writes both, forward reads both and
        writes the forced branch.

        The memo tables live and die with the call: no registered cache
        gains an entry, so the operation needs no safe point around it.
        """
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        var2level = self._var2level
        level2var = self._level2var
        node_fn = self._node
        terminal = len(var2level)

        # File the events by Top.  An event is (forced values by level,
        # E_t, Bot, next forced level from each level of [Top, Bot],
        # Top, its relprod memo).
        by_top: Dict[int, list] = {}
        for assignment, enabling in events:
            if enabling == ZERO:
                continue
            forced = {var2level[self.var_index(var)]: bool(value)
                      for var, value in assignment.items()}
            levels = [var2level[var] for var in self.support(enabling)]
            levels.extend(forced)
            if not levels:
                continue  # E_t = 1 and nothing forced: the identity
            top, bot = min(levels), max(levels)
            if top < min_top:
                continue
            next_forced = [terminal] * (bot - top + 2)
            for level in range(bot, top - 1, -1):
                next_forced[level - top] = (
                    level if level in forced
                    else next_forced[level - top + 1])
            by_top.setdefault(top, []).append(
                (forced, enabling, bot, next_forced, top, {}))
        # next_event[L]: the shallowest level at or below L with events.
        next_event = [terminal] * (terminal + 1)
        for level in range(terminal - 1, -1, -1):
            next_event[level] = (level if level in by_top
                                 else next_event[level + 1])

        sat_memo: Dict[int, int] = {}
        conj = self._and_rec({})

        def level_of(u: int) -> int:
            return terminal if u <= ZERO else var2level[var_arr[u >> 1]]

        def split(u: int, level: int) -> Tuple[int, int]:
            if u > ZERO:
                node = u >> 1
                if var2level[var_arr[node]] == level:
                    c = u & 1
                    return low_arr[node] ^ c, high_arr[node] ^ c
            return u, u

        def mk(level: int, r0: int, r1: int) -> int:
            if r0 == r1:
                return r0
            if r0 & 1:
                return (node_fn(level2var[level], r0 ^ 1, r1 ^ 1) << 1) | 1
            return node_fn(level2var[level], r0, r1) << 1

        def fire(level: int, c0: int, c1: int, x0: int,
                 x1: int) -> Tuple[int, int]:
            """Fire the events filed at ``level`` on the saturated
            branches ``x0 ⊆ c0`` and ``x1 ⊆ c1`` until neither grows."""
            care = (c0, c1)
            x = [x0, x1]
            grown = True
            while grown:
                grown = False
                for event in by_top[level]:
                    value = event[0].get(level)
                    enabled = split(event[1], level)
                    for i in (0, 1):
                        # Branch i holds the states before firing, and
                        # a forced level moves them to branch ``value``.
                        if enabled[i] == ZERO:
                            continue
                        j = i if value is None else value
                        read, write = (i, j) if forward else (j, i)
                        if (x[read] == ZERO or care[write] == ZERO
                                or x[write] == care[write]):
                            continue
                        found = relprod(care[write], x[read], event,
                                        enabled[i], level + 1)
                        merged = conj(x[write] ^ 1, found ^ 1) ^ 1  # OR
                        if merged != x[write]:
                            x[write] = merged
                            grown = True
            return x[0], x[1]

        def saturate(c: int, s: int, level: int) -> int:
            """Least superset of ``s ⊆ c`` within ``c`` closed under the
            events whose ``Top`` is at or below ``level``."""
            if s == ZERO or s == c:
                return s
            level = next_event[level]
            if level == terminal:
                return s
            clvl = level_of(c)
            slvl = level_of(s)
            if clvl < level:
                level = clvl
            if slvl < level:
                level = slvl
            key = (((c << _PACK) | s) << _PACK) | level
            result = sat_memo.get(key)
            if result is not None:
                return result
            c0, c1 = split(c, level)
            s0, s1 = split(s, level)
            x0 = saturate(c0, s0, level + 1)
            x1 = saturate(c1, s1, level + 1)
            if next_event[level] == level:
                x0, x1 = fire(level, c0, c1, x0, x1)
            result = mk(level, x0, x1)
            sat_memo[key] = result
            sat_memo[(((c << _PACK) | result) << _PACK) | level] = result
            return result

        def relprod(c: int, s: int, event, e: int, level: int) -> int:
            """``saturate(c AND step(s))`` where ``step`` fires the
            event, with ``force`` and ``e`` the event's from ``level``
            down."""
            if c == ZERO or s == ZERO or e == ZERO:
                return ZERO
            forced, _, bot, next_forced, top, memo = event
            if level <= bot:
                level = min(level_of(c), level_of(s), level_of(e),
                            next_event[level], next_forced[level - top])
            if level > bot:
                # Past the event: E_t is 1 here and nothing is forced.
                return saturate(c, conj(c, s), level)
            key = (((((c << _PACK) | s) << _PACK) | e) << _PACK) | level
            result = memo.get(key)
            if result is not None:
                return result
            c0, c1 = split(c, level)
            e0, e1 = split(e, level)
            s0, s1 = split(s, level)
            value = forced.get(level)
            if value is None:
                r0 = relprod(c0, s0, event, e0, level + 1)
                r1 = relprod(c1, s1, event, e1, level + 1)
            elif forward:
                # Both source branches land in the forced one.
                cv = c1 if value else c0
                rv = conj(relprod(cv, s0, event, e0, level + 1) ^ 1,
                          relprod(cv, s1, event, e1, level + 1) ^ 1) ^ 1
                r0, r1 = (ZERO, rv) if value else (rv, ZERO)
            else:
                # Both target branches read the forced one.
                sv = s1 if value else s0
                r0 = relprod(c0, sv, event, e0, level + 1)
                r1 = relprod(c1, sv, event, e1, level + 1)
            if next_event[level] == level:
                r0, r1 = fire(level, c0, c1, r0, r1)
            result = mk(level, r0, r1)
            memo[key] = result
            return result

        return saturate(constraint, conj(constraint, source), 0)

    # ------------------------------------------------------------------
    # Cofactor, rename, toggle, compose
    # ------------------------------------------------------------------

    def cube(self, assignment: Dict) -> int:
        """Build the conjunction of literals from ``{var: bool}``."""
        result = ONE
        items = sorted(((self.var_index(v), bool(val))
                        for v, val in assignment.items()),
                       key=lambda item: -self._var2level[item[0]])
        for var, value in items:
            if value:
                result = self._mk(var, ZERO, result)
            else:
                result = self._mk(var, result, ZERO)
        return result

    def cofactor(self, u: int, assignment: Dict) -> int:
        """Restrict ``u`` by the partial assignment ``{var: bool}``."""
        values = {self.var_index(v): bool(val)
                  for v, val in assignment.items()}
        if not values:
            return u
        key_vals = tuple(sorted(values.items()))
        return self._cofactor(u, values, key_vals)

    def _cofactor(self, u: int, values: Dict[int, bool], key_vals) -> int:
        if u == ZERO or u == ONE:
            return u
        cache = self._cof_cache.get(key_vals)
        if cache is None:
            cache = self._cof_cache[key_vals] = {}
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        node_fn = self._node

        def rec(u: int) -> int:
            if u == ZERO or u == ONE:
                return u
            # Cofactoring commutes with negation: compute on the
            # regular edge and re-apply the bit, so f and ~f share
            # cache lines.
            c = u & 1
            u ^= c
            result = cache.get(u)
            if result is not None:
                return result ^ c
            node = u >> 1
            var = var_arr[node]
            if var in values:
                result = rec(high_arr[node] if values[var]
                             else low_arr[node])
            else:
                r0 = rec(low_arr[node])
                r1 = rec(high_arr[node])
                if r0 == r1:
                    result = r0
                elif r0 & 1:
                    result = (node_fn(var, r0 ^ 1, r1 ^ 1) << 1) | 1
                else:
                    result = node_fn(var, r0, r1) << 1
            cache[u] = result
            return result ^ c

        return rec(u)

    def rename(self, u: int, mapping: Dict) -> int:
        """Rename variables of ``u`` according to ``{old: new}``.

        The mapping must be level-monotone on the support of ``u``: the
        relative order of the renamed variables must match the relative
        order of the originals.  This is sufficient for the symbolic image
        computations in this package, where current/next variables are
        interleaved.  A non-monotone mapping raises :class:`BDDError`.
        """
        varmap = {self.var_index(old): self.var_index(new)
                  for old, new in mapping.items()}
        support = self.support(u)
        pairs = sorted(
            ((self._var2level[v], self._var2level[varmap.get(v, v)])
             for v in support),
            key=lambda pair: pair[0])
        new_levels = [dst for _, dst in pairs]
        if any(b <= a for a, b in zip(new_levels, new_levels[1:])):
            raise BDDError("rename mapping is not monotone in the variable "
                           f"order: {mapping!r}")
        key_map = tuple(sorted(varmap.items()))
        return self._rename(u, varmap, key_map)

    def _rename(self, u: int, varmap: Dict[int, int], key_map) -> int:
        if u == ZERO or u == ONE:
            return u
        # Renaming commutes with negation: cache on the regular edge.
        c = u & 1
        u ^= c
        key = ("ren", u, key_map)
        cached = self._cache.get(key)
        if cached is not None:
            return cached ^ c
        node = u >> 1
        var = self._var[node]
        result = self._mk(varmap.get(var, var),
                          self._rename(self._low[node], varmap, key_map),
                          self._rename(self._high[node], varmap, key_map))
        self._cache[key] = result
        return result ^ c

    def toggle(self, u: int, variables: Iterable) -> int:
        """Substitute ``var -> NOT var`` for each variable.

        This is the paper's Section 5.2 operation: firing a transition under
        a Gray-style encoding amounts to toggling the variables whose codes
        differ, which "interchanges the then and else arcs" of the affected
        nodes.
        """
        tvars = self._intern_vars(variables)
        if not tvars:
            return u
        return self._toggle(u, tvars)

    def _toggle(self, u: int, tvars: FrozenSet[int]) -> int:
        if u == ZERO or u == ONE:
            return u
        # Toggling commutes with negation: cache on the regular edge.
        c = u & 1
        u ^= c
        key = ("tog", u, tvars)
        cached = self._cache.get(key)
        if cached is not None:
            return cached ^ c
        node = u >> 1
        var = self._var[node]
        low = self._toggle(self._low[node], tvars)
        high = self._toggle(self._high[node], tvars)
        if var in tvars:
            result = self._mk(var, high, low)
        else:
            result = self._mk(var, low, high)
        self._cache[key] = result
        return result ^ c

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def eval_node(self, u: int, assignment: Dict) -> bool:
        """Evaluate edge ``u`` under a total assignment ``{var: bool}``."""
        values = {self.var_index(v): bool(val)
                  for v, val in assignment.items()}
        while u != ZERO and u != ONE:
            node = u >> 1
            c = u & 1
            child = (self._high[node] if values[self._var[node]]
                     else self._low[node])
            u = child ^ c
        return u == ONE

    def satcount(self, u: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        if nvars is None:
            nvars = self.num_vars
        if nvars < len(self.support(u)):
            raise BDDError("nvars smaller than support size")
        bottom = len(self._var2level)
        # Memoized per *edge*: the two polarities of a shared node have
        # different counts.
        memo: Dict[int, int] = {ZERO: 0, ONE: 1}

        def count(edge: int) -> int:
            cached = memo.get(edge)
            if cached is not None:
                return cached
            node = edge >> 1
            c = edge & 1
            level = self._var2level[self._var[node]]
            low, high = self._low[node] ^ c, self._high[node] ^ c
            total = (count(low) * (1 << (self._level(low) - level - 1)) +
                     count(high) * (1 << (self._level(high) - level - 1)))
            memo[edge] = total
            return total

        # Count over the full variable order, then rescale to nvars.
        full = count(u) * (1 << self._level(u))
        if nvars >= bottom:
            return full << (nvars - bottom)
        return full >> (bottom - nvars)

    def sat_one(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying partial assignment, or None if ``u`` is ZERO."""
        if u == ZERO:
            return None
        cube: Dict[int, bool] = {}
        while u != ONE:
            node = u >> 1
            c = u & 1
            low = self._low[node] ^ c
            if low != ZERO:
                cube[self._var[node]] = False
                u = low
            else:
                cube[self._var[node]] = True
                u = self._high[node] ^ c
        return cube

    def iter_cubes(self, u: int) -> Iterator[Dict[int, bool]]:
        """Iterate over the cubes (partial assignments) of ``u``."""
        if u == ZERO:
            return
        if u == ONE:
            yield {}
            return
        node = u >> 1
        c = u & 1
        var = self._var[node]
        for value, child in ((False, self._low[node] ^ c),
                             (True, self._high[node] ^ c)):
            for sub in self.iter_cubes(child):
                cube = {var: value}
                cube.update(sub)
                yield cube

    def iter_minterms(self, u: int,
                      variables: Optional[List[int]] = None
                      ) -> Iterator[Dict[int, bool]]:
        """Iterate over total assignments (over ``variables``) satisfying u."""
        if variables is None:
            variables = list(range(self.num_vars))
        variables = [self.var_index(v) for v in variables]

        def expand(cube: Dict[int, bool], remaining: List[int]
                   ) -> Iterator[Dict[int, bool]]:
            if not remaining:
                yield dict(cube)
                return
            var = remaining[0]
            rest = remaining[1:]
            if var in cube:
                yield from expand(cube, rest)
            else:
                for value in (False, True):
                    cube[var] = value
                    yield from expand(cube, rest)
                del cube[var]

        for cube in self.iter_cubes(u):
            missing = [v for v in variables]
            yield from expand(dict(cube), missing)

    def __repr__(self) -> str:
        return (f"<BDD vars={self.num_vars} live_nodes={self.live_nodes()} "
                f"order={self.order()!r}>")
