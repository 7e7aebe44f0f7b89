"""P-invariant computation (Section 2.2).

A P-invariant is a rational solution of ``X^T C = 0``; semi-positive
invariants (``X >= 0``, ``X != 0``) with minimal support generate all
others, and by Theorem 2.1 the characteristic vector of a State Machine
Component is such a minimal invariant.  This module enumerates minimal
semi-positive invariants with the Farkas / Martinez-Silva elimination,
using exact integer arithmetic so no invariant is ever lost or corrupted
by floating point.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .net import PetriNet, PetriNetError


class InvariantExplosion(PetriNetError):
    """Raised when the Farkas elimination exceeds its row budget."""


def incidence_rows(net: PetriNet) -> List[List[int]]:
    """The incidence matrix ``C[p, t]`` as one list of ints per place.

    Plain ints, not numpy: the elimination is exact integer arithmetic,
    and ``analyze()`` reaches this module without loading numpy.
    :func:`repro.petri.incidence.incidence_matrix` is this as an array.
    """
    place_index = {place: i for i, place in enumerate(net.places)}
    rows = [[0] * len(net.transitions) for _ in net.places]
    for j, trans in enumerate(net.transitions):
        for place in net.preset(trans):
            rows[place_index[place]][j] -= 1
        for place in net.postset(trans):
            rows[place_index[place]][j] += 1
    return rows


def _normalize(row: Tuple[int, ...]) -> Tuple[int, ...]:
    """Divide a row by the gcd of its entries."""
    divisor = 0
    for value in row:
        divisor = gcd(divisor, abs(value))
        if divisor == 1:
            return row
    if divisor <= 1:
        return row
    return tuple(value // divisor for value in row)


def _support_mask(row: Sequence[int], offset: int) -> int:
    """The place support of a row (the entries from ``offset`` on) as a
    bitmask."""
    mask = 0
    for i, value in enumerate(row[offset:]):
        if value != 0:
            mask |= 1 << i
    return mask


def _minimal_rows(rows: Sequence[Sequence[int]], masks: Sequence[int],
                  settled: int) -> List[int]:
    """Indices, in order, of the rows no other row dominates.

    Row ``j`` dominates row ``i`` when its support ``masks[j]`` is a
    strict subset of ``masks[i]``, or when the supports are equal,
    ``j < i`` and the rows are proportional.  The first ``settled`` rows
    survived an earlier pass and are unchanged since, so no two of them
    dominate each other: only pairs holding a later row are compared.
    A dropped row stops comparing, since any row it would drop also
    contains the support of the row that dropped it.
    """
    keep = [True] * len(rows)
    for i in range(settled, len(rows)):
        mask = masks[i]
        for j in range(i):
            other = masks[j]
            common = mask & other
            if common == other:
                if other != mask or _proportional(rows[i], rows[j]):
                    keep[i] = False
                    break
            elif common == mask:
                keep[j] = False
    return [i for i, kept in enumerate(keep) if kept]


def _prune_supersets(rows: List[Tuple[int, ...]], offset: int
                     ) -> List[Tuple[int, ...]]:
    """Drop rows whose place-support strictly contains another row's.

    Keeping only support-minimal rows between elimination steps is the
    standard Martinez-Silva refinement: every *minimal* semi-positive
    invariant survives, and the intermediate row sets stay small.  Of
    rows with equal supports, the first of each proportional class is
    kept.
    """
    masks = [_support_mask(row, offset) for row in rows]
    return [rows[i] for i in _minimal_rows(rows, masks, 0)]


def _proportional(row_a: Sequence[int], row_b: Sequence[int]) -> bool:
    ratio = None
    for a, b in zip(row_a, row_b):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return False
        if ratio is None:
            ratio = (a, b)
        elif a * ratio[1] != b * ratio[0]:
            return False
    return True


def minimal_semipositive_invariants(net: PetriNet,
                                    max_rows: int = 50_000
                                    ) -> List[Tuple[int, ...]]:
    """All minimal semi-positive P-invariants of ``net``.

    Returns integer weight vectors over ``net.places`` (gcd-normalized).
    Raises :class:`InvariantExplosion` if the elimination working set
    exceeds ``max_rows`` rows.
    """
    num_places = len(net.places)
    num_transitions = len(net.transitions)
    # Working rows are [C-part | identity-part], all exact Python ints.
    # Each row's place support travels with it as a bitmask: the
    # identity parts stay non-negative, so a combination's support is
    # the union of its parents'.
    rows: List[Tuple[int, ...]] = []
    masks: List[int] = []
    for i, incidence in enumerate(incidence_rows(net)):
        identity = [0] * num_places
        identity[i] = 1
        rows.append(tuple(incidence) + tuple(identity))
        masks.append(1 << i)

    for col in range(num_transitions):
        zeros, zero_masks, pos, neg = [], [], [], []
        for row, mask in zip(rows, masks):
            value = row[col]
            if value == 0:
                zeros.append(row)
                zero_masks.append(mask)
            elif value > 0:
                pos.append((row, mask))
            else:
                neg.append((row, mask))
        combined: Dict[Tuple[int, ...], int] = {}
        for row_p, mask_p in pos:
            scale_n = row_p[col]
            for row_n, mask_n in neg:
                scale_p = -row_n[col]
                new_row = _normalize(tuple(
                    scale_p * a + scale_n * b
                    for a, b in zip(row_p, row_n)))
                combined[new_row] = mask_p | mask_n
        rows = zeros + list(combined)
        masks = zero_masks + list(combined.values())
        if len(rows) > max_rows:
            raise InvariantExplosion(
                f"Farkas elimination exceeded {max_rows} rows at "
                f"transition column {col}")
        # The zero rows survived the previous pass (the identity rows,
        # before the first, have pairwise distinct singleton supports).
        keep = _minimal_rows(rows, masks, len(zeros))
        rows = [rows[i] for i in keep]
        masks = [masks[i] for i in keep]

    # All C-columns are now zero; extract the place weights.
    invariants: Dict[Tuple[int, ...], int] = {}
    for row, mask in zip(rows, masks):
        weights = _normalize(row[num_transitions:])
        if any(w < 0 for w in weights):
            continue
        if all(w == 0 for w in weights):
            continue
        invariants[weights] = mask

    # Final support-minimality filter.
    supports = list(invariants.values())
    return [inv for inv, mask in invariants.items()
            if not any(other & mask == other != mask
                       for other in supports)]


def is_semipositive_invariant(net: PetriNet,
                              weights: Sequence[int]) -> bool:
    """True iff ``weights >= 0``, nonzero, and ``weights @ C == 0``."""
    if len(weights) != len(net.places):
        raise ValueError("weight vector length must equal |P|")
    if any(w < 0 for w in weights) or all(w == 0 for w in weights):
        return False
    rows = incidence_rows(net)
    for col in range(len(net.transitions)):
        if sum(int(weight) * row[col]
               for weight, row in zip(weights, rows)) != 0:
            return False
    return True


def invariant_support(net: PetriNet,
                      weights: Sequence[int]) -> Tuple[str, ...]:
    """The places with positive weight, in net place order."""
    return tuple(place for place, weight in zip(net.places, weights)
                 if weight > 0)


def invariant_token_sum(net: PetriNet, weights: Sequence[int]) -> int:
    """Weighted token count of the initial marking (invariant over time)."""
    initial = net.initial_marking
    return sum(int(weight) * initial[place]
               for place, weight in zip(net.places, weights))


def structural_bound(net: PetriNet, place: str,
                     invariants: Optional[List[Tuple[int, ...]]] = None
                     ) -> Optional[int]:
    """Structural token bound of ``place`` from P-invariants.

    Any semi-positive invariant ``I`` with ``I(p) > 0`` bounds the count
    of ``p`` by ``(I . M0) / I(p)`` in every reachable marking.  Returns
    the tightest such bound, or None if no invariant covers the place
    (the place is structurally unbounded as far as invariants can tell).
    """
    if place not in net.places:
        raise PetriNetError(f"unknown place: {place!r}")
    if invariants is None:
        invariants = minimal_semipositive_invariants(net)
    index = net.places.index(place)
    best: Optional[int] = None
    for weights in invariants:
        if weights[index] <= 0:
            continue
        bound = invariant_token_sum(net, weights) // weights[index]
        if best is None or bound < best:
            best = bound
    return best


def is_structurally_safe(net: PetriNet,
                         invariants: Optional[List[Tuple[int, ...]]] = None
                         ) -> bool:
    """True if P-invariants bound every place by one token.

    A sufficient (not necessary) condition for safeness — exactly the
    property the paper's encodings rely on when every place is covered
    by a single-token SMC.
    """
    if invariants is None:
        invariants = minimal_semipositive_invariants(net)
    return all(structural_bound(net, place, invariants) == 1
               for place in net.places)


def minimal_semipositive_t_invariants(net: PetriNet,
                                      max_rows: int = 50_000
                                      ) -> List[Tuple[int, ...]]:
    """All minimal semi-positive T-invariants of ``net``.

    A T-invariant is a firing-count vector ``X >= 0`` with ``C X = 0``:
    firing each transition ``X(t)`` times reproduces the starting
    marking.  Computed by running the Farkas elimination on the
    transposed incidence matrix (the exact dual of the P-invariant
    case).  Returns integer weight vectors over ``net.transitions``.
    """
    transposed = _TransposedNet(net)
    return minimal_semipositive_invariants(transposed, max_rows=max_rows)


class _TransposedNet:
    """Duck-typed view swapping the roles of places and transitions, so
    the P-invariant elimination computes T-invariants."""

    def __init__(self, net: PetriNet) -> None:
        self._net = net
        self.places = net.transitions
        self.transitions = net.places

    def preset(self, node: str):
        return self._net.preset(node)

    def postset(self, node: str):
        return self._net.postset(node)


def is_t_invariant(net: PetriNet, weights: Sequence[int]) -> bool:
    """True iff firing transitions per ``weights`` has zero net effect."""
    if len(weights) != len(net.transitions):
        raise ValueError("weight vector length must equal |T|")
    for row in incidence_rows(net):
        if sum(int(weight) * value
               for weight, value in zip(weights, row)) != 0:
            return False
    return True
