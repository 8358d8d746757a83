"""Exact arithmetic on finite unions of bounded open intervals.

All intervals are open and endpoints are compared exactly: every endpoint
produced by this package is either an input endpoint or an input endpoint
plus an exactly accumulated length, so no epsilon comparisons are needed.
Boundary points form a null set; membership queries answer with a third
verdict instead of silently assigning them to either side.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence


class Location(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Interval:
    """Bounded open interval (lo, hi); empty and degenerate inputs are rejected."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval: ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def locate(self, x: float) -> Location:
        if self.lo < x < self.hi:
            return Location.INSIDE
        if x == self.lo or x == self.hi:
            return Location.BOUNDARY
        return Location.OUTSIDE

    def overlaps(self, other: "Interval") -> bool:
        """True when the open intersection has positive measure."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)


class DisjointIntervalSet:
    """Sorted tuple of open intervals with sup I_k <= inf I_{k+1}."""

    __slots__ = ("items", "_los", "_his")

    def __init__(self, items: Iterable[Interval]):
        items = tuple(items)
        for a, b in zip(items, items[1:]):
            if not a.hi <= b.lo:
                raise ValueError(f"intervals out of order or overlapping: {a} then {b}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_los", tuple(i.lo for i in items))
        object.__setattr__(self, "_his", tuple(i.hi for i in items))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DisjointIntervalSet) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"DisjointIntervalSet({list(self.pairs())})"

    @property
    def measure(self) -> float:
        return math.fsum(i.length for i in self.items)

    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(i.as_pair() for i in self.items)

    def locate(self, x: float) -> Location:
        j = bisect_right(self._los, x) - 1
        if j < 0:
            return Location.OUTSIDE
        if x == self._los[j] or x == self._his[j]:
            return Location.BOUNDARY
        if x < self._his[j]:
            return Location.INSIDE
        return Location.OUTSIDE


@dataclass(frozen=True)
class AtomCell:
    cell: Interval
    label: frozenset[int]


@dataclass(frozen=True)
class AtomDecomposition:
    """Membership atoms of a finite interval family.

    Each cell is a maximal open interval on which the covering index set is
    constant and nonempty; cells with equal labels form the atom class of
    that label.  Shared endpoints are dropped (a null set).
    """

    cells: tuple[AtomCell, ...]
    n_inputs: int

    @property
    def measure(self) -> float:
        return math.fsum(c.cell.length for c in self.cells)


def atoms(intervals: Sequence[Interval]) -> AtomDecomposition:
    """Sweep the endpoint arrangement of a family into labelled cells.

    The inputs may overlap arbitrarily; they are identified by their list
    position.  The family of covering index sets is realized purely through
    cells, never by enumerating a power set.
    """
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    coords: set[float] = set()
    for idx, it in enumerate(intervals):
        starts.setdefault(it.lo, []).append(idx)
        ends.setdefault(it.hi, []).append(idx)
        coords.add(it.lo)
        coords.add(it.hi)
    ordered = sorted(coords)
    active: set[int] = set()
    cells: list[AtomCell] = []
    for c1, c2 in zip(ordered, ordered[1:]):
        for idx in ends.get(c1, ()):
            active.discard(idx)
        for idx in starts.get(c1, ()):
            active.add(idx)
        if active:
            cells.append(AtomCell(Interval(c1, c2), frozenset(active)))
    return AtomDecomposition(cells=tuple(cells), n_inputs=len(intervals))

