"""Explicit reachability analysis.

Used for cross-validating the symbolic engines on small nets and for the
didactic examples (the paper's Figure 1.b reachability graph).  The
explicit graph enumerates markings one by one and therefore hits the state
explosion problem the paper's symbolic techniques avoid; ``max_markings``
bounds the damage.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from .marking import Marking
from .net import PetriNet, PetriNetError


class StateExplosion(PetriNetError):
    """Raised when explicit enumeration exceeds its marking budget."""


class UnsafeNet(PetriNetError):
    """Raised when a reachable marking puts two tokens on one place."""


class ReachabilityGraph:
    """The explicit reachability graph of a bounded Petri net.

    Parameters
    ----------
    net:
        The net to analyze.
    max_markings:
        Enumeration budget; :class:`StateExplosion` is raised beyond it.
    require_safe:
        If true (default), raise :class:`UnsafeNet` as soon as a reachable
        marking assigns more than one token to a place — the paper's
        techniques assume safe nets, so surfacing a violation early beats
        silently producing nonsense.
    """

    def __init__(self, net: PetriNet, max_markings: int = 1_000_000,
                 require_safe: bool = True) -> None:
        self.net = net
        self.markings: List[Marking] = []
        self.index: Dict[Marking, int] = {}
        self.edges: List[Tuple[int, str, int]] = []
        self._build(max_markings, require_safe)

    def _build(self, max_markings: int, require_safe: bool) -> None:
        initial = self.net.initial_marking
        if require_safe and not initial.is_safe():
            raise UnsafeNet(f"initial marking is unsafe: {initial!r}")
        self.markings.append(initial)
        self.index[initial] = 0
        queue = deque([0])
        while queue:
            current = queue.popleft()
            marking = self.markings[current]
            for trans in self.net.enabled_transitions(marking):
                successor = self.net.fire(marking, trans)
                if require_safe and not successor.is_safe():
                    raise UnsafeNet(
                        f"firing {trans!r} from {marking!r} yields unsafe "
                        f"{successor!r}")
                position = self.index.get(successor)
                if position is None:
                    if len(self.markings) >= max_markings:
                        raise StateExplosion(
                            f"more than {max_markings} reachable markings")
                    position = len(self.markings)
                    self.markings.append(successor)
                    self.index[successor] = position
                    queue.append(position)
                self.edges.append((current, trans, position))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.markings)

    def __contains__(self, marking: Marking) -> bool:
        return Marking(marking) in self.index

    @property
    def initial(self) -> Marking:
        """The initial marking."""
        return self.markings[0]

    def successors(self, marking: Marking) -> List[Tuple[str, Marking]]:
        """``(transition, successor)`` pairs from ``marking``."""
        position = self.index[Marking(marking)]
        return [(trans, self.markings[dst])
                for src, trans, dst in self.edges if src == position]

    def deadlocks(self) -> List[Marking]:
        """Reachable markings enabling no transition."""
        has_out: Set[int] = {src for src, _, _ in self.edges}
        return [marking for i, marking in enumerate(self.markings)
                if i not in has_out]

    def is_safe(self) -> bool:
        """True iff every reachable marking is safe."""
        return all(marking.is_safe() for marking in self.markings)


def count_reachable_markings(net: PetriNet,
                             max_markings: int = 1_000_000) -> int:
    """Number of reachable markings by explicit enumeration."""
    return len(ReachabilityGraph(net, max_markings=max_markings))


