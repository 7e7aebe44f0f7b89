"""The improved overlap-aware encoding (Section 4.4).

Components are added greedily; each new SMC only pays
``ceil(log2 |P_new|)`` variables for its not-yet-covered places.  Places
of the SMC that are already covered receive codes that may collide with
the new places' codes — the ambiguity is resolved by the characteristic
functions of Eq. 4 (generalized recursively, see
:meth:`repro.encoding.scheme.Encoding.partners`).

On the paper's Figure 4 net this reproduces Table 1 exactly: SM1 and SM3
with two variables each, SM2 and SM4 with one, forks p4/p5 one variable
each — eight variables total.

As an extension (the paper stops at one variable per leftover place), a
component whose ``P_new`` is a single place can encode it with *zero*
variables: the place is marked iff no other place of the component is.
Enable with ``allow_zero_variable_components=True``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..petri.net import PetriNet
from ..petri.smc import StateMachineComponent, find_smcs, single_token_smcs
from .gray import gray_sequence, hamming, place_adjacency, walk_order
from .scheme import EncodedComponent
from .dense import SMCEncodingBase

Code = Tuple[bool, ...]


class ImprovedEncoding(SMCEncodingBase):
    """Greedy overlap-aware SMC encoding (Section 4.4)."""

    def __init__(self, net: PetriNet,
                 components: Optional[Sequence[StateMachineComponent]] = None,
                 gray: bool = True,
                 allow_zero_variable_components: bool = False) -> None:
        super().__init__(net)
        if components is None:
            components = find_smcs(net)
        candidates = single_token_smcs(list(components))
        owner: Dict[str, Optional[EncodedComponent]] = {}
        covered: Set[str] = set()
        remaining = list(candidates)

        while True:
            best = None
            best_key = (0, 0, 0)
            for index, component in enumerate(remaining):
                new_places = [p for p in component.places
                              if p not in covered]
                if not new_places:
                    continue
                if len(new_places) == 1:
                    cost = 0 if allow_zero_variable_components else 1
                else:
                    cost = math.ceil(math.log2(len(new_places)))
                benefit = len(new_places) - cost
                if benefit <= 0:
                    continue
                # Prefer higher benefit, then cheaper, then smaller
                # components (pairs beat mixed cycles on ties — less
                # over-encoding), then earlier candidates.
                key = (benefit, -cost, -len(component), -index)
                if best is None or key > best_key:
                    best = (component, new_places, cost)
                    best_key = key
            if best is None:
                break
            component, new_places, cost = best
            remaining.remove(component)
            encoded = self._encode_component(component, new_places, cost,
                                             gray)
            self.components.append(encoded)
            for place in new_places:
                owner[place] = encoded
            covered.update(component.places)

        self.free_places = [p for p in net.places if p not in owner]
        for place in self.free_places:
            owner[place] = None
        self._owner = owner
        self._finalize()

    def _encode_component(self, component: StateMachineComponent,
                          new_places: List[str], width: int,
                          gray: bool) -> EncodedComponent:
        """Codes for all places: injective over ``new_places``, free
        (possibly colliding) for the already-covered rest."""
        variables = self._next_var_names(width)
        order = walk_order(self.net, component)
        moves = place_adjacency(self.net, component)
        codes: Dict[str, Code] = {}
        if width == 0:
            empty: Code = ()
            for place in component.places:
                codes[place] = empty
            return EncodedComponent(component=component, variables=(),
                                    codes=codes,
                                    owned=frozenset(new_places))
        if gray:
            new_in_order = [p for p in order if p in set(new_places)]
            new_codes = gray_sequence(len(new_in_order), width)
        else:
            # Ablation baseline: binary counting in declaration order.
            new_in_order = list(new_places)
            new_codes = [tuple(bool((i >> b) & 1)
                               for b in reversed(range(width)))
                         for i in range(len(new_in_order))]
        for place, code in zip(new_in_order, new_codes):
            codes[place] = code
        all_codes = gray_sequence(1 << width, width)
        for place in order:
            if place in codes:
                continue
            codes[place] = self._best_cover_code(place, codes, moves,
                                                 all_codes, gray)
        return EncodedComponent(component=component, variables=variables,
                                codes=codes, owned=frozenset(new_places))

    @staticmethod
    def _best_cover_code(place: str, codes: Dict[str, Code], moves,
                         all_codes: List[Code], gray: bool) -> Code:
        """Pick the code of an already-covered place to minimize toggling
        against its coded neighbours (any code may be reused).

        Ties are broken toward the code of a move *predecessor* (the
        place the token arrives from), continuing the Gray walk in token
        direction — this reproduces the paper's Table 1 assignment.
        """
        if not gray:
            return all_codes[0]
        successors = [dst for src, dst in moves if src == place]
        predecessors = [src for src, dst in moves if dst == place]
        coded = [codes[q] for q in successors + predecessors if q in codes]
        if not coded:
            return all_codes[0]
        pred_codes = {codes[q] for q in predecessors if q in codes}
        return min(all_codes,
                   key=lambda c: (sum(hamming(c, other) for other in coded),
                                  c not in pred_codes))


def encoding_variable_summary(encoding: SMCEncodingBase) -> str:
    """Tabulate components, their variables and place codes (Table 1
    style)."""
    lines = []
    for comp in encoding.components:
        var_list = ", ".join(comp.variables) if comp.variables else "(none)"
        lines.append(f"{comp.name}: variables {var_list}")
        for place in comp.component.places:
            bits = "".join(str(int(b)) for b in comp.codes[place])
            owned = "*" if place in comp.owned else " "
            lines.append(f"  {owned} {place} = {bits or '-'}")
    if encoding.free_places:
        lines.append("free places (one variable each): "
                     + ", ".join(encoding.free_places))
    lines.append(f"total variables: {encoding.num_variables}")
    return "\n".join(lines)
