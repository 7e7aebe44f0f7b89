"""Symbolic analysis of k-bounded (non-safe) Petri nets.

The paper notes that "the extension to unsafe PNs is straightforward"
(Section 2, citing [16]): instead of one boolean per place, a k-bounded
place carries ``ceil(log2(k+1))`` bits holding its token count.  Firing a
transition then *increments/decrements* counters instead of setting
constants, so the quantify-and-force image of the safe case no longer
applies; this engine builds per-transition relations over interleaved
current/next count bits (the Eq. 3 machinery) with the count arithmetic
expanded enumeratively — exact for the small bounds where counting
encodings make sense.

Semantics: a transition is enabled when every input place holds a token
*and* firing would not push any output place beyond the bound (strictly
k-bounded semantics).  For nets that are in fact k-bounded the second
condition never bites, and the engine computes the same reachability set
as the explicit token game.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..bdd import BDD, Function, cube, false, true, variable
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.order import place_order


class KBoundedNet:
    """A Petri net encoded with ``ceil(log2(k+1))`` count bits per place.

    Parameters
    ----------
    net:
        An ordinary net (arc weights one; self-loops allowed).
    bound:
        The token bound ``k`` per place (k >= 1; ``k = 1`` degenerates to
        the safe sparse encoding, one bit per place).
    """

    def __init__(self, net: PetriNet, bound: int,
                 bdd: Optional[BDD] = None) -> None:
        if bound < 1:
            raise ValueError("bound must be at least one")
        if bdd is None:
            bdd = BDD()
        if bdd.num_vars:
            raise ValueError("KBoundedNet needs a fresh BDD manager")
        self.net = net
        self.bound = bound
        self.bdd = bdd
        self.bits = max(1, math.ceil(math.log2(bound + 1)))

        # Current/next bits interleaved per place_order: monotone renames.
        self._current: Dict[str, List[str]] = {}
        self._next: Dict[str, List[str]] = {}
        for place in place_order(net):
            cur_bits, nxt_bits = [], []
            for bit in range(self.bits):
                cur = f"{place}#{bit}"
                nxt = f"{place}#{bit}'"
                bdd.add_vars((cur, nxt))
                cur_bits.append(cur)
                nxt_bits.append(nxt)
            self._current[place] = cur_bits
            self._next[place] = nxt_bits
        self.current_vars = [v for p in net.places
                             for v in self._current[p]]
        self._rename_map = {nxt: cur
                            for place in net.places
                            for cur, nxt in zip(self._current[place],
                                                self._next[place])}

        self.relations: Dict[str, Function] = {
            t: self._build_relation(t) for t in net.transitions}
        initial = net.initial_marking
        for place, count in initial.items():
            if count > bound:
                raise ValueError(
                    f"initial marking exceeds the bound at {place!r}")
        assignment: Dict[str, bool] = {}
        for place in net.places:
            assignment.update(self._count_bits(place, initial[place],
                                               nxt=False))
        self.initial: Function = cube(bdd, assignment)

    # ------------------------------------------------------------------

    def _count_bits(self, place: str, value: int, nxt: bool
                    ) -> Dict[str, bool]:
        names = self._next[place] if nxt else self._current[place]
        return {names[bit]: bool((value >> bit) & 1)
                for bit in range(self.bits)}

    def count_equals(self, place: str, value: int,
                     nxt: bool = False) -> Function:
        """Predicate: ``place`` holds exactly ``value`` tokens."""
        if not 0 <= value <= (1 << self.bits) - 1:
            raise ValueError(f"count {value} out of range")
        return cube(self.bdd, self._count_bits(place, value, nxt))

    def _delta(self, transition: str, place: str) -> int:
        delta = 0
        if place in self.net.postset(transition):
            delta += 1
        if place in self.net.preset(transition):
            delta -= 1
        return delta

    def _build_relation(self, transition: str) -> Function:
        """Enumerative count relation: for every touched place, the pairs
        ``(v, v + delta)`` with both sides within bounds; untouched
        places keep their bits equal."""
        bdd = self.bdd
        relation = true(bdd)
        touched = self.net.preset(transition) | self.net.postset(transition)
        for place in self.net.places:
            if place not in touched:
                stay = true(bdd)
                for cur, nxt in zip(self._current[place],
                                    self._next[place]):
                    stay = stay & variable(bdd, cur).iff(
                        variable(bdd, nxt))
                relation = relation & stay
                continue
            consumes = place in self.net.preset(transition)
            delta = self._delta(transition, place)
            moves = false(bdd)
            low = 1 if consumes else 0
            for value in range(low, self.bound + 1):
                target = value + delta
                if not 0 <= target <= self.bound:
                    continue
                moves = moves | (self.count_equals(place, value)
                                 & self.count_equals(place, target,
                                                     nxt=True))
            relation = relation & moves
        return relation

    def image(self, states: Function, transition: str) -> Function:
        """Successors of ``states`` under one transition."""
        shifted = states.and_exists(self.relations[transition],
                                    self.current_vars)
        return shifted.rename(self._rename_map)

    def image_all(self, states: Function) -> Function:
        """Successors under all transitions."""
        result = false(self.bdd)
        for transition in self.net.transitions:
            result = result | self.image(states, transition)
        return result

    # ------------------------------------------------------------------

    def marking_function(self, marking: Marking) -> Function:
        """The minterm of one marking (over current variables)."""
        assignment: Dict[str, bool] = {}
        for place in self.net.places:
            count = marking[place]
            if count > self.bound:
                raise ValueError(f"marking exceeds bound at {place!r}")
            assignment.update(self._count_bits(place, count, nxt=False))
        return cube(self.bdd, assignment)

    def markings_of(self, states: Function) -> List[Marking]:
        """Decode a state set into explicit markings (small sets only)."""
        result = []
        variables = [self.bdd.var_index(v) for v in self.current_vars]
        for assignment in self.bdd.iter_minterms(states.node, variables):
            named = {self.bdd.var_name(v): val
                     for v, val in assignment.items()}
            counts: Dict[str, int] = {}
            for place in self.net.places:
                value = 0
                for bit, name in enumerate(self._current[place]):
                    if named[name]:
                        value |= 1 << bit
                counts[place] = value
            result.append(Marking(counts))
        return result

    def count_markings(self, states: Function) -> int:
        """Number of distinct markings in a state set."""
        return states.satcount(len(self.current_vars))

