"""Symbolic characteristic functions (Section 5.1).

Builds, for a given encoding and BDD manager:

* the place characteristic functions ``[p]`` of Eq. 4 (with the recursive
  generalization for shared-code chains),
* the transition enabling functions ``E_t`` of Eq. 5,
* the encoded initial-state BDD.

These are the raw ingredients of the symbolic traversal in
:mod:`repro.symbolic`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..bdd import BDD, Function, cube, true
from ..petri.marking import Marking
from ..petri.order import force_order, place_order
from .scheme import Encoding


def order_hyperedges(encoding: Encoding) -> List[FrozenSet[str]]:
    """The FORCE hyperedges of :func:`variable_order`, one per
    transition: its ``quantify`` variables plus the support of every
    preset place, where a place's support is its owner-code variables
    and, recursively, its partners' (Eq. 4)."""
    memo: Dict[str, FrozenSet[str]] = {}

    def support(place: str) -> FrozenSet[str]:
        if place not in memo:
            memo[place] = frozenset(
                var for var, _ in encoding.owner_code(place)).union(
                    *map(support, encoding.partners(place)))
        return memo[place]

    net = encoding.net
    return [frozenset(encoding.transition_spec(t).quantify).union(
                *map(support, net.preset(t)))
            for t in net.transitions]


def variable_order(encoding: Encoding) -> Tuple[str, ...]:
    """The encoding's variables in FORCE order (:mod:`repro.petri.order`)
    over :func:`order_hyperedges`.

    FORCE runs from two starts and keeps the order of smaller total
    span, the first on a tie: the naming order, and each variable at
    the mean :func:`~repro.petri.order.place_order` position of the
    places whose owner code uses it (ties by naming index, unused
    variables last).  The second start keeps one component's code bits
    together where the naming order groups them by role across
    components, as on DME's cells.  Purely structural — no BDD is
    built.
    """
    users: Dict[str, List[int]] = {var: [] for var in encoding.variables}
    for position, place in enumerate(place_order(encoding.net)):
        for var, _ in encoding.owner_code(place):
            users[var].append(position)
    naming = {var: i for i, var in enumerate(encoding.variables)}
    by_place = sorted(encoding.variables, key=lambda var: (
        sum(users[var]) / len(users[var]) if users[var] else float("inf"),
        naming[var]))
    return force_order(encoding.variables, order_hyperedges(encoding),
                       alternatives=[by_place])


def declare_variables(encoding: Encoding, bdd: BDD) -> None:
    """Declare the encoding's variables on a BDD manager, in
    :func:`variable_order`."""
    bdd.add_vars(variable_order(encoding))


def place_functions(encoding: Encoding, bdd: BDD) -> Dict[str, Function]:
    """The characteristic function ``[p]`` of every place (Eq. 4).

    ``[p]`` holds on an assignment iff the marking it encodes marks ``p``:
    the owner component's variables spell ``p``'s code and no place
    sharing that code is marked.
    """
    memo: Dict[str, Function] = {}

    def build(place: str) -> Function:
        cached = memo.get(place)
        if cached is not None:
            return cached
        func = cube(bdd, dict(encoding.owner_code(place)))
        for partner in encoding.partners(place):
            func = func & ~build(partner)
        memo[place] = func
        return func

    return {place: build(place) for place in encoding.net.places}


def enabling_functions(encoding: Encoding, bdd: BDD,
                       places: Dict[str, Function] = None
                       ) -> Dict[str, Function]:
    """The enabling function ``E_t`` of every transition (Eq. 5)."""
    if places is None:
        places = place_functions(encoding, bdd)
    enabling: Dict[str, Function] = {}
    for transition in encoding.net.transitions:
        func = true(bdd)
        for place in sorted(encoding.net.preset(transition)):
            func = func & places[place]
        enabling[transition] = func
    return enabling


def marking_function(encoding: Encoding, bdd: BDD,
                     marking: Marking) -> Function:
    """The BDD (a minterm) of one encoded marking."""
    return cube(bdd, encoding.marking_to_assignment(marking))


def initial_function(encoding: Encoding, bdd: BDD) -> Function:
    """The encoded initial marking of the net."""
    return marking_function(encoding, bdd, encoding.net.initial_marking)
