"""Markings of a Petri net.

A marking assigns a non-negative token count to every place.  For the safe
nets this package analyzes, a marking is equivalently the set of marked
places; :class:`Marking` supports both views.  Markings are immutable and
hashable so they can key reachability sets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

MarkingLike = Union["Marking", Mapping[str, int], Iterable[str]]


class Marking:
    """An immutable place -> token-count assignment (zero counts dropped)."""

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: MarkingLike = ()) -> None:
        if isinstance(tokens, Marking):
            counts: Dict[str, int] = dict(tokens._tokens)
        elif isinstance(tokens, Mapping):
            counts = {place: int(count) for place, count in tokens.items()
                      if int(count) != 0}
        else:
            counts = {}
            for place in tokens:
                counts[place] = counts.get(place, 0) + 1
        for place, count in counts.items():
            if count < 0:
                raise ValueError(
                    f"negative token count for place {place!r}: {count}")
        self._tokens: Tuple[Tuple[str, int], ...] = tuple(
            sorted(counts.items()))
        self._hash = hash(self._tokens)

    # -- mapping interface -------------------------------------------------

    def __getitem__(self, place: str) -> int:
        for name, count in self._tokens:
            if name == place:
                return count
        return 0

    def get(self, place: str, default: int = 0) -> int:
        """Token count of ``place`` (``default`` if unmarked)."""
        count = self[place]
        return count if count else default

    def items(self) -> Iterator[Tuple[str, int]]:
        """Iterate ``(place, count)`` pairs of marked places."""
        return iter(self._tokens)

    def __contains__(self, place: str) -> bool:
        return self[place] > 0

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Marking) and self._tokens == other._tokens

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    # -- views ---------------------------------------------------------------

    @property
    def support(self) -> FrozenSet[str]:
        """The set of marked places."""
        return frozenset(name for name, _ in self._tokens)

    def is_safe(self) -> bool:
        """True iff no place holds more than one token."""
        return all(count <= 1 for _, count in self._tokens)

    def as_dict(self) -> Dict[str, int]:
        """A mutable dict copy of the marking."""
        return dict(self._tokens)

    # -- token game ----------------------------------------------------------

    def add(self, places: Iterable[str]) -> "Marking":
        """A new marking with one extra token on each listed place."""
        counts = self.as_dict()
        for place in places:
            counts[place] = counts.get(place, 0) + 1
        return Marking(counts)

    def remove(self, places: Iterable[str]) -> "Marking":
        """A new marking with one token removed from each listed place."""
        counts = self.as_dict()
        for place in places:
            if counts.get(place, 0) <= 0:
                raise ValueError(f"cannot remove token from empty {place!r}")
            counts[place] -= 1
        return Marking(counts)

    def __repr__(self) -> str:
        if not self._tokens:
            return "Marking({})"
        inner = ", ".join(
            name if count == 1 else f"{name}*{count}"
            for name, count in self._tokens)
        return f"Marking({{{inner}}})"
