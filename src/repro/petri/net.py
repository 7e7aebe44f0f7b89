"""Ordinary Petri nets.

A Petri net is a 4-tuple ``N = (P, T, F, M0)`` of places, transitions, flow
relation and initial marking (Section 2 of the paper).  This class models
*ordinary* nets (all arc weights are one), which is the class the paper's
symbolic analysis covers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .marking import Marking


class PetriNetError(Exception):
    """Raised for structurally invalid Petri-net operations."""


def _checked_name(kind: str, name: str) -> str:
    """``name`` if it survives ``loads(dumps(net))`` — the hop every net
    takes into a worker process — else a :class:`PetriNetError`."""
    if not name or "#" in name or any(c.isspace() for c in name):
        raise PetriNetError(f"{kind} name {name!r} is empty or contains "
                            f"whitespace or '#'")
    return name


class PetriNet:
    """An ordinary Petri net with named places and transitions.

    Places and transitions share no names, and no name is empty or
    holds whitespace or ``#`` (which ``.pnet`` cannot carry).  Arcs
    connect places to transitions and transitions to places (``F``).
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: List[str] = []
        self._transitions: List[str] = []
        self._place_set: Set[str] = set()
        self._transition_set: Set[str] = set()
        # Pre/post sets, place -> transitions and transition -> places.
        self._place_pre: Dict[str, Set[str]] = {}
        self._place_post: Dict[str, Set[str]] = {}
        self._trans_pre: Dict[str, Set[str]] = {}
        self._trans_post: Dict[str, Set[str]] = {}
        self._initial: Dict[str, int] = {}

    @property
    def name(self) -> str:
        """The net's name."""
        return self._name

    @name.setter
    def name(self, name: str) -> None:
        self._name = _checked_name("net", name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_place(self, name: str, tokens: int = 0) -> str:
        """Add a place with an optional initial token count."""
        _checked_name("place", name)
        if name in self._place_set or name in self._transition_set:
            raise PetriNetError(f"duplicate node name: {name!r}")
        if tokens < 0:
            raise PetriNetError(f"negative initial tokens on {name!r}")
        self._places.append(name)
        self._place_set.add(name)
        self._place_pre[name] = set()
        self._place_post[name] = set()
        if tokens:
            self._initial[name] = tokens
        return name

    def add_transition(self, name: str,
                       pre: Iterable[str] = (),
                       post: Iterable[str] = ()) -> str:
        """Add a transition, optionally with its input and output places."""
        _checked_name("transition", name)
        if name in self._place_set or name in self._transition_set:
            raise PetriNetError(f"duplicate node name: {name!r}")
        self._transitions.append(name)
        self._transition_set.add(name)
        self._trans_pre[name] = set()
        self._trans_post[name] = set()
        for place in pre:
            self.add_arc(place, name)
        for place in post:
            self.add_arc(name, place)
        return name

    def add_arc(self, source: str, target: str) -> None:
        """Add a flow arc (place -> transition or transition -> place)."""
        if source in self._place_set and target in self._transition_set:
            self._place_post[source].add(target)
            self._trans_pre[target].add(source)
        elif source in self._transition_set and target in self._place_set:
            self._trans_post[source].add(target)
            self._place_pre[target].add(source)
        else:
            raise PetriNetError(
                f"arc must connect a place and a transition: "
                f"{source!r} -> {target!r}")

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def places(self) -> Tuple[str, ...]:
        """Places in declaration order."""
        return tuple(self._places)

    @property
    def transitions(self) -> Tuple[str, ...]:
        """Transitions in declaration order."""
        return tuple(self._transitions)

    @property
    def initial_marking(self) -> Marking:
        """The initial marking ``M0``."""
        return Marking(self._initial)

    def preset(self, node: str) -> FrozenSet[str]:
        """Pre-set of a node (input transitions of a place, or input
        places of a transition)."""
        if node in self._place_set:
            return frozenset(self._place_pre[node])
        if node in self._transition_set:
            return frozenset(self._trans_pre[node])
        raise PetriNetError(f"unknown node: {node!r}")

    def postset(self, node: str) -> FrozenSet[str]:
        """Post-set of a node."""
        if node in self._place_set:
            return frozenset(self._place_post[node])
        if node in self._transition_set:
            return frozenset(self._trans_post[node])
        raise PetriNetError(f"unknown node: {node!r}")

    def arcs(self) -> Iterator[Tuple[str, str]]:
        """Iterate all flow arcs as ``(source, target)`` pairs."""
        for place in self._places:
            for trans in sorted(self._place_post[place]):
                yield (place, trans)
        for trans in self._transitions:
            for place in sorted(self._trans_post[trans]):
                yield (trans, place)

    def validate(self) -> None:
        """Check basic well-formedness; raises :class:`PetriNetError`."""
        for trans in self._transitions:
            if not self._trans_pre[trans] and not self._trans_post[trans]:
                raise PetriNetError(f"isolated transition: {trans!r}")
        for place in self._initial:
            if place not in self._place_set:
                raise PetriNetError(f"marked place does not exist: {place!r}")

    # ------------------------------------------------------------------
    # Token game
    # ------------------------------------------------------------------

    def is_enabled(self, marking: Marking, transition: str) -> bool:
        """True iff every input place of ``transition`` is marked."""
        return all(marking[place] >= 1
                   for place in self._trans_pre[transition])

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """Transitions enabled in ``marking``, in declaration order."""
        return [t for t in self._transitions if self.is_enabled(marking, t)]

    def fire(self, marking: Marking, transition: str) -> Marking:
        """Fire ``transition`` from ``marking`` and return the successor.

        Raises :class:`PetriNetError` if the transition is not enabled.
        """
        if transition not in self._transition_set:
            raise PetriNetError(f"unknown transition: {transition!r}")
        if not self.is_enabled(marking, transition):
            raise PetriNetError(
                f"transition {transition!r} is not enabled in {marking!r}")
        return (marking
                .remove(self._trans_pre[transition])
                .add(self._trans_post[transition]))

    # ------------------------------------------------------------------
    # Structural classes (Section 2.2)
    # ------------------------------------------------------------------

    def is_state_machine(self) -> bool:
        """True iff every transition has exactly one input and one output
        place (a State Machine in the sense of Section 2.2)."""
        return all(len(self._trans_pre[t]) == 1 and
                   len(self._trans_post[t]) == 1
                   for t in self._transitions)

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """A deep copy of the net."""
        dup = PetriNet(name or self.name)
        for place in self._places:
            dup.add_place(place, self._initial.get(place, 0))
        for trans in self._transitions:
            dup.add_transition(trans, pre=self._trans_pre[trans],
                               post=self._trans_post[trans])
        return dup

    def __repr__(self) -> str:
        return (f"<PetriNet {self.name!r} |P|={len(self._places)} "
                f"|T|={len(self._transitions)} "
                f"M0={self.initial_marking!r}>")
