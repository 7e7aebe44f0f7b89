"""State Machine Components (Sections 2.2 and 4).

An SMC is a subnet generated by a subset of places that forms a strongly
connected State Machine.  By Theorem 2.1 its characteristic vector is a
minimal semi-positive P-invariant, so its token count is constant across
all reachable markings; when that count is one, exactly one place of the
SMC is marked in every reachable marking — the property the paper's dense
encoding exploits.

Two extraction strategies are provided, mirroring the paper's references
[14, 11]:

* exhaustive enumeration from the minimal semi-positive invariants
  (Farkas, exact arithmetic), and
* integer linear programming per place (scipy's HiGHS backend), solving
  the system of Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .invariants import (InvariantExplosion, invariant_support,
                         minimal_semipositive_invariants)
from .net import PetriNet, PetriNetError


@dataclass(frozen=True)
class StateMachineComponent:
    """An SMC: its places (net order), transitions and invariant tokens."""

    places: Tuple[str, ...]
    transitions: Tuple[str, ...]
    token_count: int
    name: str = field(default="SM", compare=False)

    def __len__(self) -> int:
        return len(self.places)

    @property
    def place_set(self) -> FrozenSet[str]:
        """The covered places as a frozenset."""
        return frozenset(self.places)

    def __repr__(self) -> str:
        return (f"SMC({self.name}, places={list(self.places)}, "
                f"tokens={self.token_count})")


def smc_from_places(net: PetriNet, places: Sequence[str],
                    name: str = "SM") -> Optional[StateMachineComponent]:
    """Validate a place subset as an SMC; None if it is not one.

    Checks the Section 2.2 definition on the subnet the subset generates
    (the subset and every transition touching it), read straight off the
    net's pre- and post-sets: every such transition has exactly one
    input and one output place inside the subset (a State Machine), and
    its arcs connect the subset strongly.
    """
    subset = list(dict.fromkeys(places))
    if not subset:
        return None
    known = set(net.places)
    unknown = [place for place in subset if place not in known]
    if unknown:
        raise PetriNetError(f"unknown place: {unknown[0]!r}")
    chosen = set(subset)
    transitions = tuple(t for t in net.transitions
                        if (net.preset(t) | net.postset(t)) & chosen)
    successors = {place: set() for place in subset}
    predecessors = {place: set() for place in subset}
    for transition in transitions:
        inputs = net.preset(transition) & chosen
        outputs = net.postset(transition) & chosen
        if len(inputs) != 1 or len(outputs) != 1:
            return None
        (source,), (target,) = inputs, outputs
        successors[source].add(target)
        predecessors[target].add(source)
    # In a State Machine every transition sits on one place-to-place
    # arc, so the subnet is strongly connected iff its places are.
    for edges in (successors, predecessors):
        seen, stack = {subset[0]}, [subset[0]]
        while stack:
            for place in edges[stack.pop()] - seen:
                seen.add(place)
                stack.append(place)
        if len(seen) != len(subset):
            return None
    initial = net.initial_marking
    return StateMachineComponent(
        places=tuple(p for p in net.places if p in chosen),
        transitions=transitions,
        token_count=sum(initial[p] for p in subset), name=name)


def smcs_from_invariants(net: PetriNet, max_rows: int = 50_000
                         ) -> List[StateMachineComponent]:
    """All SMCs whose place sets are supports of minimal semi-positive
    P-invariants (the Theorem 2.1 candidates)."""
    invariants = minimal_semipositive_invariants(net, max_rows=max_rows)
    components = []
    seen = set()
    for number, weights in enumerate(invariants, start=1):
        support = invariant_support(net, weights)
        if frozenset(support) in seen:
            continue
        component = smc_from_places(net, support, name=f"SM{number}")
        if component is not None:
            seen.add(component.place_set)
            components.append(component)
    return components


def single_token_smcs(components: List[StateMachineComponent]
                      ) -> List[StateMachineComponent]:
    """Filter to the SMCs usable for dense encoding (exactly one token)."""
    return [c for c in components if c.token_count == 1]


def smc_covering_place_lp(net: PetriNet, place: str
                          ) -> Optional[StateMachineComponent]:
    """An SMC covering ``place`` via the paper's ILP (Section 2.2).

    Solves ``min 1.I  s.t.  I C = 0, I(p) >= 1, sum I(p) M0(p) = 1,
    I >= 0, I integer`` with scipy's HiGHS solver, then validates the
    support structurally.  Returns None when no valid SMC is found.
    """
    import numpy as np
    from scipy.optimize import linprog

    from .incidence import incidence_matrix

    places = net.places
    if place not in places:
        raise PetriNetError(f"unknown place: {place!r}")
    index = {p: i for i, p in enumerate(places)}
    matrix = incidence_matrix(net)
    num_places = len(places)

    # Equality constraints: I C = 0 (transposed: C^T I = 0) and the token
    # count of the invariant in M0 equals one.
    initial = net.initial_marking
    token_row = np.array([[initial[p] for p in places]], dtype=float)
    a_eq = np.vstack([matrix.T.astype(float), token_row])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0

    bounds = [(1, None) if p == place else (0, None) for p in places]

    result = linprog(c=np.ones(num_places), A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs",
                     integrality=np.ones(num_places))
    if not result.success:
        return None
    weights = [int(round(x)) for x in result.x]
    support = [p for p, w in zip(places, weights) if w > 0]
    component = smc_from_places(net, support, name=f"SM[{place}]")
    if component is None or component.token_count != 1:
        return None
    return component


def sort_components_by_locality(net: PetriNet,
                                components: List[StateMachineComponent]
                                ) -> List[StateMachineComponent]:
    """Order components by the net position of their places.

    Structured nets (rings, pipelines) declare related places together;
    keeping component variables in that order preserves the locality that
    makes their reachability BDDs small, instead of inheriting the
    arbitrary order of invariant enumeration.
    """
    index = {place: i for i, place in enumerate(net.places)}

    def key(component: StateMachineComponent):
        positions = sorted(index[p] for p in component.places)
        return (positions[0], positions[-1], positions)

    return sorted(components, key=key)


def find_smcs(net: PetriNet, strategy: str = "auto",
              max_rows: int = 50_000) -> List[StateMachineComponent]:
    """Discover single-token SMCs of ``net``.

    Strategies:

    * ``"farkas"`` — enumerate all minimal semi-positive invariants and
      keep the ones that generate strongly connected state machines.
    * ``"lp"`` — for each place, ask the ILP for a covering SMC.
    * ``"auto"`` — Farkas first; on :class:`InvariantExplosion`, fall back
      to the LP strategy.
    """
    if strategy not in ("auto", "farkas", "lp"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("auto", "farkas"):
        try:
            components = single_token_smcs(
                smcs_from_invariants(net, max_rows=max_rows))
            return sort_components_by_locality(net, components)
        except InvariantExplosion:
            if strategy == "farkas":
                raise
    # LP strategy: one query per yet-uncovered place.
    components: List[StateMachineComponent] = []
    covered: set = set()
    seen_supports: set = set()
    for place in net.places:
        if place in covered:
            continue
        component = smc_covering_place_lp(net, place)
        if component is None:
            continue
        if component.place_set in seen_supports:
            continue
        seen_supports.add(component.place_set)
        components.append(StateMachineComponent(
            places=component.places, transitions=component.transitions,
            token_count=component.token_count,
            name=f"SM{len(components) + 1}"))
        covered.update(component.places)
    return sort_components_by_locality(net, components)
