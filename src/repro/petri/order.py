"""Structural variable orders (FORCE).

Aloul, Markov & Sakallah's FORCE heuristic (GLSVLSI 2003) places the
members of each hyperedge close together: every round moves each item
to the mean centre of gravity of its hyperedges, and the arrangement
with the smallest total hyperedge span wins.  Transitions are the
hyperedges, so the places (or encoding variables) a transition touches
end up adjacent in the decision-diagram order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .net import PetriNet


def force_order(items: Sequence[str],
                hyperedges: Iterable[Iterable[str]],
                alternatives: Iterable[Sequence[str]] = ()
                ) -> Tuple[str, ...]:
    """``items`` reordered by FORCE rounds, starting from their given
    order; the result never has a larger total span than the input.

    Each of ``alternatives`` (a permutation of ``items``) is one more
    start over the same hyperedges; the result with the smallest total
    span wins, the earliest start on a tie.  Hyperedges with fewer than
    two members are ignored; ties keep the previous position, so the
    result does not depend on set iteration order.
    """
    edges = [tuple(sorted(set(edge))) for edge in hyperedges]
    edges = sorted(edge for edge in edges if len(edge) >= 2)
    incident: Dict[str, List[int]] = {item: [] for item in items}
    for k, edge in enumerate(edges):
        for item in edge:
            incident[item].append(k)

    def span(position: Dict[str, int]) -> int:
        return sum(max(position[v] for v in edge)
                   - min(position[v] for v in edge) for edge in edges)

    def force(order: List[str]) -> Tuple[int, List[str]]:
        position = {item: i for i, item in enumerate(order)}
        best, best_span = order, span(position)
        while True:
            centre = [sum(position[v] for v in edge) / len(edge)
                      for edge in edges]
            tentative = {
                item: (sum(centre[k] for k in incident[item])
                       / len(incident[item]) if incident[item]
                       else position[item])
                for item in order}
            order = sorted(order, key=lambda v: (tentative[v], position[v]))
            position = {item: i for i, item in enumerate(order)}
            order_span = span(position)
            if order_span >= best_span:
                return best_span, best
            best, best_span = order, order_span

    runs = [force(list(start)) for start in (items, *alternatives)]
    return tuple(min(runs, key=lambda run: run[0])[1])


def place_order(net: PetriNet) -> Tuple[str, ...]:
    """FORCE over ``net.places``, one hyperedge ``•t ∪ t•`` per
    transition."""
    return force_order(net.places,
                       (net.preset(t) | net.postset(t)
                        for t in net.transitions))
