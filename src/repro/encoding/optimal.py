"""Marking-level (optimal-count) encodings (Section 3, Figure 2.c/d).

The paper contrasts the structural schemes against the hypothetical
optimum: encode the ``|[M0>|`` reachable markings directly with
``ceil(log2 |[M0>|)`` variables.  That needs the reachability graph — the
very thing symbolic analysis is meant to compute — so it is only a
yardstick, but it defines the *density* target and illustrates the
toggle-activity objective: Figure 2 shows two 3-variable assignments for
the running example whose average toggles per fired transition are 15/11
and 19/11.

This module implements such marking encodings over an explicit
reachability graph, the toggle-cost metric, and a greedy Gray-style
assignment heuristic.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from ..petri.marking import Marking
from ..petri.reachability import ReachabilityGraph

Code = Tuple[bool, ...]


def optimal_variable_count(marking_count: int) -> int:
    """``ceil(log2 n)`` — the minimum variables for ``n`` markings."""
    if marking_count <= 0:
        raise ValueError("marking count must be positive")
    return max(1, math.ceil(math.log2(marking_count)))


class MarkingEncoding:
    """An injective assignment of codes to reachable markings."""

    def __init__(self, graph: ReachabilityGraph,
                 codes: Dict[Marking, Code]) -> None:
        if len(codes) != len(graph.markings):
            raise ValueError("every reachable marking needs a code")
        if len(set(codes.values())) != len(codes):
            raise ValueError("codes must be injective")
        self.graph = graph
        self.codes = dict(codes)
        self.width = len(next(iter(codes.values())))

    def toggle_cost(self) -> int:
        """Total bits toggled over all reachability-graph edges."""
        total = 0
        for src, _, dst in self.graph.edges:
            code_a = self.codes[self.graph.markings[src]]
            code_b = self.codes[self.graph.markings[dst]]
            total += sum(a != b for a, b in zip(code_a, code_b))
        return total

    def average_toggles(self) -> float:
        """Average toggled bits per fired transition (the 15/11 metric)."""
        edges = len(self.graph.edges)
        return self.toggle_cost() / edges if edges else 0.0


def greedy_gray_marking_encoding(graph: ReachabilityGraph,
                                 width: int = 0) -> MarkingEncoding:
    """Greedy low-toggle assignment: BFS over the reachability graph,
    giving each marking the free code closest to its coded neighbours."""
    if width == 0:
        width = optimal_variable_count(len(graph.markings))
    all_codes = [_int_code(v ^ (v >> 1), width) for v in range(1 << width)]
    free = list(all_codes)
    codes: Dict[Marking, Code] = {}
    neighbours: Dict[int, List[int]] = {}
    for src, _, dst in graph.edges:
        neighbours.setdefault(src, []).append(dst)
        neighbours.setdefault(dst, []).append(src)
    for index, marking in enumerate(graph.markings):
        coded = [codes[graph.markings[n]]
                 for n in neighbours.get(index, ())
                 if graph.markings[n] in codes]
        if coded:
            best = min(free, key=lambda c: sum(
                sum(a != b for a, b in zip(c, other)) for other in coded))
        else:
            best = free[0]
        free.remove(best)
        codes[marking] = best
    return MarkingEncoding(graph, codes)


def random_marking_encoding(graph: ReachabilityGraph, seed: int = 0,
                            width: int = 0) -> MarkingEncoding:
    """A random injective assignment (worst-case-ish baseline)."""
    if width == 0:
        width = optimal_variable_count(len(graph.markings))
    rng = random.Random(seed)
    values = rng.sample(range(1 << width), len(graph.markings))
    codes = {marking: _int_code(v, width)
             for marking, v in zip(graph.markings, values)}
    return MarkingEncoding(graph, codes)


def _int_code(value: int, width: int) -> Code:
    return tuple(bool((value >> bit) & 1)
                 for bit in reversed(range(width)))
