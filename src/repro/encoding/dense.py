"""The SMC-based dense encoding (Sections 4.1-4.3).

A set of single-token SMCs is selected by solving the unate covering
problem of Section 4.2 (each SMC costs ``ceil(log2 |Pi|)`` variables, each
uncovered place one variable).  Every selected SMC is encoded with an
injective Gray-like code over *all* its places; places covered by several
selected SMCs are owned by the first and merely carry consistent codes in
the rest.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.smc import StateMachineComponent, find_smcs, single_token_smcs
from .covering import smc_cover_options, solve_cover
from .gray import assign_arbitrary_codes, assign_gray_codes
from .scheme import (EncodedComponent, Encoding, EncodingError,
                     TransitionSpec, component_transition_effects,
                     sparse_place_effects)


class SMCEncodingBase(Encoding):
    """Shared behaviour of the covering-based and improved encodings."""

    def __init__(self, net: PetriNet) -> None:
        super().__init__(net)
        self.components: List[EncodedComponent] = []
        self.free_places: List[str] = []
        self._owner: Dict[str, Optional[EncodedComponent]] = {}
        self._variables: Tuple[str, ...] = ()
        self._specs: Dict[str, TransitionSpec] = {}

    # -- construction helpers ------------------------------------------------

    def _finalize(self) -> None:
        names: List[str] = []
        for comp in self.components:
            names.extend(comp.variables)
        names.extend(self.free_places)
        if len(set(names)) != len(names):
            raise EncodingError("variable names collide")
        self._variables = tuple(names)

    def _next_var_names(self, count: int) -> Tuple[str, ...]:
        start = sum(len(c.variables) for c in self.components)
        return tuple(f"x{start + i + 1}" for i in range(count))

    # -- Encoding interface ---------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._variables

    def owner_code(self, place: str) -> Tuple[Tuple[str, bool], ...]:
        owner = self._owner[place]
        if owner is None:
            return ((place, True),)
        return tuple(zip(owner.variables, owner.codes[place]))

    def partners(self, place: str) -> Tuple[str, ...]:
        owner = self._owner[place]
        if owner is None:
            return ()
        code = owner.codes[place]
        return tuple(q for q in owner.component.places
                     if q != place and owner.codes[q] == code)

    def transition_spec(self, transition: str) -> TransitionSpec:
        spec = self._specs.get(transition)
        if spec is not None:
            return spec
        quantify, force, toggle, handled = component_transition_effects(
            self.net, self.components, transition)
        # Every covered place adjacent to the transition is handled by one
        # of its components (T' contains all transitions adjacent to P'),
        # so the sparse fallback below only ever touches free places.
        extra_q, extra_f, extra_t = sparse_place_effects(
            self.net.preset(transition), self.net.postset(transition),
            skip=handled)
        # Deduplicate while preserving order (overlapping components may
        # both force the same variables — with equal values).
        seen = set()
        quantify_all = []
        for var in quantify + extra_q:
            if var not in seen:
                seen.add(var)
                quantify_all.append(var)
        force_map: Dict[str, bool] = {}
        for var, value in force + extra_f:
            if var in force_map and force_map[var] != value:
                raise EncodingError(
                    f"components disagree on {var!r} when firing "
                    f"{transition!r}")
            force_map[var] = value
        toggle_seen = set()
        toggle_all = []
        for var in toggle + extra_t:
            if var not in toggle_seen:
                toggle_seen.add(var)
                toggle_all.append(var)
        spec = TransitionSpec(transition=transition,
                              quantify=tuple(quantify_all),
                              force=tuple(force_map.items()),
                              toggle=tuple(toggle_all))
        self._specs[transition] = spec
        return spec

    def marking_to_assignment(self, marking: Marking) -> Dict[str, bool]:
        marking = Marking(marking)
        assignment: Dict[str, bool] = {}
        for comp in self.components:
            marked = [p for p in comp.component.places if marking[p] > 0]
            if len(marked) != 1:
                raise EncodingError(
                    f"component {comp.name} must hold exactly one token, "
                    f"got {marked!r} in {marking!r}")
            for var, value in zip(comp.variables, comp.codes[marked[0]]):
                assignment[var] = value
        for place in self.free_places:
            assignment[place] = marking[place] > 0
        return self._validate_assignment(marking, assignment)


class DenseEncoding(SMCEncodingBase):
    """Covering-based SMC encoding (Sections 4.2-4.3).

    Parameters
    ----------
    net:
        The safe net to encode.
    components:
        Candidate single-token SMCs; discovered automatically when omitted.
    gray:
        Assign Gray-like codes along the SMC adjacency (Section 5.2);
        plain binary-counting codes otherwise (the ablation baseline).
    exact_limit:
        Budget for the exact covering search (see
        :func:`repro.encoding.covering.solve_cover`).
    """

    def __init__(self, net: PetriNet,
                 components: Optional[Sequence[StateMachineComponent]] = None,
                 gray: bool = True, exact_limit: int = 24) -> None:
        super().__init__(net)
        if components is None:
            components = find_smcs(net)
        candidates = single_token_smcs(list(components))
        smc_options, place_options = smc_cover_options(net.places, candidates)
        chosen = solve_cover(net.places, smc_options + place_options,
                             exact_limit=exact_limit)
        owner: Dict[str, Optional[EncodedComponent]] = {}
        chosen_smcs = [opt.label for opt in chosen
                       if isinstance(opt.label, StateMachineComponent)]
        # Deterministic order: as produced by the candidate list.
        chosen_smcs.sort(key=lambda c: candidates.index(c))
        for component in chosen_smcs:
            width = max(1, math.ceil(math.log2(len(component))))
            variables = self._next_var_names(width)
            if gray:
                codes = assign_gray_codes(net, component, width=width)
            else:
                codes = assign_arbitrary_codes(component, width=width)
            encoded = EncodedComponent(
                component=component, variables=variables, codes=codes,
                owned=frozenset(p for p in component.places
                                if p not in owner))
            self.components.append(encoded)
            for place in component.places:
                owner.setdefault(place, encoded)
        self.free_places = [p for p in net.places if p not in owner]
        for place in self.free_places:
            owner[place] = None
        self._owner = owner
        self._finalize()
