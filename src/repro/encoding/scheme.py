"""Encoding schemes: the common abstraction (Sections 3-5).

An encoding maps safe-net markings to boolean-variable assignments.  The
symbolic layer only needs four things from it:

* the ordered list of boolean variables,
* per place, the *owner equality term* (variable values identifying the
  place's code in the SMC that encodes it) and the *partner places* whose
  characteristic functions must be negated to resolve shared codes
  (Equation 4, applied recursively — see :meth:`Encoding.partners`),
* per transition, a :class:`TransitionSpec`: which variables change and
  the values they take (Equations 2 and 6), plus the toggle set for the
  Section 5.2 fast path,
* conversions between markings and assignments.

Concrete schemes: :class:`repro.encoding.sparse.SparseEncoding`,
:class:`repro.encoding.dense.DenseEncoding` (covering-based, Section 4.2)
and :class:`repro.encoding.improved.ImprovedEncoding` (overlap-aware,
Section 4.4).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.smc import StateMachineComponent

Code = Tuple[bool, ...]


class EncodingError(Exception):
    """Raised for invalid encoding constructions or inputs."""


@dataclass(frozen=True)
class EncodedComponent:
    """An SMC together with its variables and place codes.

    ``owned`` places are the ones this component *encodes*; other covered
    places carry codes here only so the transition functions (Eq. 6) and
    the ambiguity resolution (Eq. 4) can refer to them.
    """

    component: StateMachineComponent
    variables: Tuple[str, ...]
    codes: Dict[str, Code] = field(hash=False)
    owned: FrozenSet[str]

    @property
    def name(self) -> str:
        """Name of the underlying SMC."""
        return self.component.name


@dataclass(frozen=True)
class TransitionSpec:
    """How firing one transition acts on the encoding variables.

    ``quantify`` lists the variables whose pre-firing value must be
    forgotten, ``force`` the post-firing values they take (Eq. 2/6 —
    always constants for safe nets), and ``toggle`` the variables whose
    value flips on the enabled set (the Section 5.2 fast path, valid for
    safe nets).
    """

    transition: str
    quantify: Tuple[str, ...]
    force: Tuple[Tuple[str, bool], ...]
    toggle: Tuple[str, ...]


class Encoding(ABC):
    """Base class for marking encodings of a safe Petri net."""

    def __init__(self, net: PetriNet) -> None:
        self.net = net

    # -- abstract interface ------------------------------------------------

    @property
    @abstractmethod
    def variables(self) -> Tuple[str, ...]:
        """The boolean variables, in naming (Table 1) order.

        Managers declare them in the structural order of
        :func:`~repro.encoding.characteristic.variable_order`.
        """

    @abstractmethod
    def owner_code(self, place: str) -> Tuple[Tuple[str, bool], ...]:
        """``(variable, value)`` pairs identifying ``place`` in its owner
        component (the first factor of Eq. 4)."""

    @abstractmethod
    def partners(self, place: str) -> Tuple[str, ...]:
        """Places sharing ``place``'s code inside its owner component.

        Every partner is owned by an earlier component, so the recursive
        form of Eq. 4 — ``[p] = (X = E(p)) and AND(not [p'])`` — is well
        founded.  (The paper states the non-recursive form, which is the
        special case where partner codes are unshared.)
        """

    @abstractmethod
    def transition_spec(self, transition: str) -> TransitionSpec:
        """The variable-level effect of firing ``transition``."""

    @abstractmethod
    def marking_to_assignment(self, marking: Marking) -> Dict[str, bool]:
        """Encode a marking as a total variable assignment."""

    # -- shared behaviour ---------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of boolean variables used."""
        return len(self.variables)

    def _validate_assignment(self, marking: Marking,
                             assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Check that an encoded assignment decodes back to ``marking``."""
        decoded = self.assignment_to_marking(assignment)
        if decoded.support != marking.support:
            raise EncodingError(
                f"marking {marking!r} is not representable: decodes to "
                f"{decoded!r}")
        return assignment

    def assignment_to_marking(self, assignment: Dict[str, bool]) -> Marking:
        """Decode a total assignment into the marking it represents."""
        memo: Dict[str, bool] = {}

        def marked(place: str) -> bool:
            cached = memo.get(place)
            if cached is not None:
                return cached
            result = all(assignment[var] == value
                         for var, value in self.owner_code(place))
            if result:
                result = not any(marked(q) for q in self.partners(place))
            memo[place] = result
            return result

        return Marking([p for p in self.net.places if marked(p)])

    def density(self, marking_count: int) -> float:
        """The Section 3 density: optimal bits over used variables."""
        if marking_count <= 0:
            raise EncodingError("marking count must be positive")
        optimal = max(1, math.ceil(math.log2(marking_count)))
        return optimal / self.num_variables

    def describe(self) -> str:
        """A human-readable summary of the encoding."""
        lines = [f"{type(self).__name__} of {self.net.name!r}: "
                 f"{self.num_variables} variables for "
                 f"{len(self.net.places)} places"]
        for place in self.net.places:
            code = " ".join(f"{var}={int(val)}"
                            for var, val in self.owner_code(place))
            partners = self.partners(place)
            suffix = f"  (shared with {', '.join(partners)})" \
                if partners else ""
            lines.append(f"  [{place}] <-> {code}{suffix}")
        return "\n".join(lines)


def component_transition_effects(
        net: PetriNet,
        encoded: Sequence[EncodedComponent],
        transition: str) -> Tuple[List[str], List[Tuple[str, bool]],
                                  List[str], FrozenSet[str]]:
    """Shared Eq. 6 logic for SMC-based encodings.

    Returns ``(quantify, force, toggle, handled_places)`` contributed by
    the encoded components that contain ``transition``; ``handled_places``
    are the adjacent places already accounted for by those components.
    """
    quantify: List[str] = []
    force: List[Tuple[str, bool]] = []
    toggle: List[str] = []
    handled: set = set()
    pre = net.preset(transition)
    post = net.postset(transition)
    for comp in encoded:
        covered = comp.component.place_set
        if transition not in comp.component.transitions:
            continue
        sources = pre & covered
        targets = post & covered
        if len(sources) != 1 or len(targets) != 1:
            raise EncodingError(
                f"{transition!r} is not a state-machine transition in "
                f"{comp.name}")
        handled.update(sources | targets)
        if not comp.variables:
            continue
        source_code = comp.codes[next(iter(sources))]
        target_code = comp.codes[next(iter(targets))]
        if source_code == target_code:
            # Token stays on the same code (read arc or shared code):
            # the variables cannot change.
            continue
        quantify.extend(comp.variables)
        force.extend(zip(comp.variables, target_code))
        toggle.extend(var for var, a, b in
                      zip(comp.variables, source_code, target_code)
                      if a != b)
    return quantify, force, toggle, frozenset(handled)


def sparse_place_effects(pre: FrozenSet[str], post: FrozenSet[str],
                         skip: FrozenSet[str]
                         ) -> Tuple[List[str], List[Tuple[str, bool]],
                                    List[str]]:
    """One-variable-per-place effect (Eq. 2) for places not in ``skip``."""
    quantify: List[str] = []
    force: List[Tuple[str, bool]] = []
    toggle: List[str] = []
    for place in sorted(pre - post):
        if place in skip:
            continue
        quantify.append(place)
        force.append((place, False))
        toggle.append(place)
    for place in sorted(post - pre):
        if place in skip:
            continue
        quantify.append(place)
        force.append((place, True))
        toggle.append(place)
    return quantify, force, toggle
