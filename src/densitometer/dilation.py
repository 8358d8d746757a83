"""Simultaneous dilation of interval families and of square packings.

The 1-D operation enlarges every member of a pairwise disjoint family, in
left-to-right order, by exactly ``gamma`` times its own length of previously
unoccupied measure on each side, so the union of the enlarged family has
measure exactly (2*gamma + 1) times the input measure.

The 2-D operation sweeps the squares' y-endpoints and keeps the merged
union of the active horizontal sections as one sorted list of x-boundaries:
a square entering or leaving the sweep toggles its two x-endpoints (inserts
a value that is absent, deletes one that is present).  The squares must be
pairwise disjoint, so the sections active on one y-cell are pairwise
disjoint and every value ends at most two of them; it is a boundary of
their merged union exactly when it ends one.  The list therefore is that
union, and each distinct union is dilated once.  A second sweep over the
dilated unions' x-endpoints toggles the y-bounds of the cells that enter or
leave a column in the same way, and each distinct vertical union is dilated
once.  The output is a finite disjoint rectangle union.  For N squares the
cost is O(N log N) comparisons plus the total size of the distinct merged
unions; no per-cell index set is ever built.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGamma, OverlappingCubes, OverlappingInputs, PointNotOutside
from .interval1d import DisjointIntervalSet, Interval, Location
from .interval1d import atoms  # noqa: F401  # bench/tracing.py wraps dilation.atoms

__all__ = [
    "DilationPiece",
    "DilationResult1D",
    "Rectangle",
    "RectUnion",
    "WitnessResult",
    "dilate_1d",
    "dilate_2d",
    "contains",
    "ratio_bound_witness",
]


def _check_gamma(gamma: float, allow_gamma_one: bool) -> float:
    gamma = float(gamma)
    lower_ok = gamma >= 1.0 if allow_gamma_one else gamma > 1.0
    if not (math.isfinite(gamma) and lower_ok):
        bound = ">= 1" if allow_gamma_one else "> 1"
        raise InvalidGamma(f"dilation factor must be {bound}, got {gamma}")
    return gamma


class _OccupiedSet:
    """Mutable sorted union of closed blocks [lo, hi] merged across touching."""

    __slots__ = ("los", "his")

    def __init__(self) -> None:
        self.los: list[float] = []
        self.his: list[float] = []

    def insert(self, lo: float, hi: float) -> None:
        i = bisect_left(self.his, lo)
        j = bisect_right(self.los, hi)
        if i < j:
            lo = min(lo, self.los[i])
            hi = max(hi, self.his[j - 1])
        self.los[i:j] = [lo]
        self.his[i:j] = [hi]

    def sweep_left(self, x: float, need: float) -> float:
        """Endpoint left of x past exactly ``need`` of unoccupied measure."""
        j = bisect_right(self.los, x) - 1
        cur = x
        if j >= 0 and x <= self.his[j]:
            cur = self.los[j]
            j -= 1
        while need > 0.0:
            gap_lo = self.his[j] if j >= 0 else -math.inf
            if cur - gap_lo >= need:
                return cur - need
            need -= cur - gap_lo
            cur = self.los[j]
            j -= 1
        return cur

    def sweep_right(self, x: float, need: float) -> float:
        """Endpoint right of x past exactly ``need`` of unoccupied measure."""
        j = bisect_right(self.los, x) - 1
        cur = x
        if j >= 0 and x < self.his[j]:
            cur = self.his[j]
        j += 1
        while need > 0.0:
            gap_hi = self.los[j] if j < len(self.los) else math.inf
            if gap_hi - cur >= need:
                return cur + need
            need -= gap_hi - cur
            cur = self.his[j]
            j += 1
        return cur

    def intervals(self) -> DisjointIntervalSet:
        return DisjointIntervalSet(Interval(lo, hi) for lo, hi in zip(self.los, self.his))


def _grow(
    los: Sequence[float], his: Sequence[float], gamma: float
) -> tuple[_OccupiedSet, list[float], list[float]]:
    """Grow sorted, pairwise disjoint members (lo, hi) left to right.

    Returns the occupied set, which ends as the dilated union, and the left
    and right hull ends of every member.
    """
    occupied = _OccupiedSet()
    for lo, hi in zip(los, his):
        if occupied.his and lo == occupied.his[-1]:
            occupied.his[-1] = hi
        else:
            occupied.los.append(lo)
            occupied.his.append(hi)
    lefts: list[float] = []
    rights: list[float] = []
    for lo, hi in zip(los, his):
        need = gamma * (hi - lo)
        left = occupied.sweep_left(lo, need)
        right = occupied.sweep_right(hi, need)
        occupied.insert(left, right)
        lefts.append(left)
        rights.append(right)
    return occupied, lefts, rights


@dataclass(frozen=True)
class DilationPiece:
    """Per-input record: left arm, right arm and their hull."""

    source: Interval
    left_arm: Interval
    right_arm: Interval
    hull: Interval


@dataclass(frozen=True)
class DilationResult1D:
    gamma: float
    pieces: tuple[DilationPiece, ...]
    union: DisjointIntervalSet
    input_measure: float

    @property
    def identity_rhs(self) -> float:
        """(2*gamma + 1) times the input measure; equals the union measure."""
        return (2.0 * self.gamma + 1.0) * self.input_measure

    def locate(self, x: float) -> Location:
        return self.union.locate(x)


def dilate_1d(
    intervals: Sequence[Interval],
    gamma: float,
    *,
    allow_gamma_one: bool = False,
) -> DilationResult1D:
    """Simultaneously dilate a pairwise disjoint family of open intervals.

    Members are processed left to right.  The k-th member grows a left arm
    sharing its right endpoint and a right arm sharing its left endpoint;
    each arm sweeps outward until it has crossed exactly gamma times the
    member's length of measure not occupied by already-grown hulls or by
    still-waiting members.  Arm endpoints are exact sums of input endpoints
    and accumulated lengths.

    ``allow_gamma_one`` admits the boundary factor gamma = 1 for
    hand-verification; by default any gamma <= 1 raises InvalidGamma.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    members = sorted(intervals, key=lambda i: i.lo)
    for a, b in zip(members, members[1:]):
        if not a.hi <= b.lo:
            raise OverlappingInputs(f"inputs overlap: {a} and {b}")
    occupied, lefts, rights = _grow([m.lo for m in members], [m.hi for m in members], gamma)
    pieces = tuple(
        DilationPiece(
            source=m,
            left_arm=Interval(left, m.hi),
            right_arm=Interval(m.lo, right),
            hull=Interval(left, right),
        )
        for m, left, right in zip(members, lefts, rights)
    )
    input_measure = math.fsum(m.length for m in members)
    return DilationResult1D(
        gamma=gamma,
        pieces=pieces,
        union=occupied.intervals(),
        input_measure=input_measure,
    )


# -- rectangles ----------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Open axis-parallel rectangle x * y."""

    x: Interval
    y: Interval

    @classmethod
    def from_bounds(cls, x0: float, x1: float, y0: float, y1: float) -> "Rectangle":
        return cls(Interval(x0, x1), Interval(y0, y1))

    @property
    def area(self) -> float:
        return self.x.length * self.y.length

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.x.lo, self.x.hi, self.y.lo, self.y.hi)

    def locate(self, point: tuple[float, float]) -> Location:
        lx = self.x.locate(point[0])
        ly = self.y.locate(point[1])
        if lx is Location.OUTSIDE or ly is Location.OUTSIDE:
            return Location.OUTSIDE
        if lx is Location.INSIDE and ly is Location.INSIDE:
            return Location.INSIDE
        return Location.BOUNDARY

    def overlap_area(self, other: "Rectangle") -> float:
        wx = min(self.x.hi, other.x.hi) - max(self.x.lo, other.x.lo)
        wy = min(self.y.hi, other.y.hi) - max(self.y.lo, other.y.lo)
        if wx <= 0.0 or wy <= 0.0:
            return 0.0
        return wx * wy


class RectUnion:
    """Disjoint rectangle union organized as x-disjoint columns.

    ``columns`` is a sorted tuple of (x-interval, vertical section) pairs with
    pairwise disjoint x-intervals; the rectangles of a column share its
    x-interval.  ``block`` optionally records which cube block the union
    dilates (block index s, factor, 1-based cube index range).
    """

    __slots__ = ("columns", "gamma", "block", "_los", "_his", "_arrays")

    def __init__(
        self,
        columns: Iterable[tuple[Interval, DisjointIntervalSet]],
        gamma: float | None = None,
        block: tuple[int, int, int] | None = None,
    ):
        cols = tuple(columns)
        for (a, _), (b, _) in zip(cols, cols[1:]):
            if not a.hi <= b.lo:
                raise ValueError("columns must be sorted and x-disjoint")
        self.columns = cols
        self.gamma = gamma
        self.block = block
        self._los = tuple(c[0].lo for c in cols)
        self._his = tuple(c[0].hi for c in cols)
        self._arrays: tuple[np.ndarray, ...] | None = None

    @classmethod
    def empty(cls) -> "RectUnion":
        return cls(())

    def __len__(self) -> int:
        return sum(len(ys) for _, ys in self.columns)

    @property
    def is_empty(self) -> bool:
        return not self.columns

    @property
    def rects(self) -> tuple[Rectangle, ...]:
        out = []
        for x_int, ys in self.columns:
            for y_int in ys:
                out.append(Rectangle(x_int, y_int))
        return tuple(out)

    @property
    def measure(self) -> float:
        return math.fsum(x_int.length * ys.measure for x_int, ys in self.columns)

    def meets(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which points (x[i], y[i]) lie in the closed union, that is, where
        ``locate`` is not OUTSIDE.

        Bisecting the column x-starts gives the last column starting at or
        left of x; it holds the point when x is at most its right end, and
        the column before it when x is that column's right end.  Each of the
        k section intervals gets the key column * (k + 1) + 1 + the number of
        lower ends below its own.  That key is at most column * (k + 1) + the
        number of lower ends at or below y exactly when its own lower end is
        at or below y, so one bisection of the sorted keys finds the last
        interval of the column that starts at or below y.
        """
        hit = np.zeros(len(x), dtype=bool)
        if not self.columns:
            return hit
        if self._arrays is None:
            col = np.repeat(np.arange(len(self.columns)), [len(ys) for _, ys in self.columns])
            lo = np.array([i.lo for _, ys in self.columns for i in ys])
            hi = np.array([i.hi for _, ys in self.columns for i in ys])
            starts = np.sort(lo)
            key = col * (starts.size + 1) + np.searchsorted(starts, lo) + 1
            self._arrays = (np.array(self._los), np.array(self._his), starts, key, col, hi)
        x_lo, x_hi, starts, key, col, hi = self._arrays
        j = np.searchsorted(x_lo, x, "right") - 1
        rank = np.searchsorted(starts, y, "right")
        for c in (j, j - 1):
            c0 = np.maximum(c, 0)
            i = np.searchsorted(key, c0 * (starts.size + 1) + rank, "right") - 1
            i0 = np.maximum(i, 0)
            hit |= (c >= 0) & (x <= x_hi[c0]) & (i >= 0) & (col[i0] == c0) & (y <= hi[i0])
        return hit

    def locate(self, point: tuple[float, float]) -> Location:
        x, y = point
        j = bisect_right(self._los, x) - 1
        if j >= 0:
            x_int, ys = self.columns[j]
            lx = x_int.locate(x)
            if lx is Location.INSIDE:
                return ys.locate(y)
            if lx is Location.BOUNDARY and ys.locate(y) is not Location.OUTSIDE:
                return Location.BOUNDARY
        if j - 1 >= 0:
            x_int, ys = self.columns[j - 1]
            if x == x_int.hi and ys.locate(y) is not Location.OUTSIDE:
                return Location.BOUNDARY
        return Location.OUTSIDE


def find_overlap(
    x_lo: Sequence[float], x_hi: Sequence[float], y_lo: Sequence[float], y_hi: Sequence[float]
) -> tuple[int, int] | None:
    """First index pair of open rectangles whose interiors meet, else None.

    Sweeps the x-endpoints, leaving before entering at equal x so that
    rectangles touching along an edge stay disjoint, and keeps the active
    y-intervals sorted.  While those are pairwise disjoint, an entering
    interval meets one of them exactly when it meets its neighbour below or
    above, so the check takes O(N log N) comparisons.
    """
    n = len(x_lo)
    ends = np.concatenate((np.asarray(x_hi, dtype=np.float64), np.asarray(x_lo, dtype=np.float64)))
    entering = np.arange(2 * n) >= n
    order = np.lexsort((entering, ends)).tolist()
    y_lo = np.asarray(y_lo, dtype=np.float64).tolist()
    y_hi = np.asarray(y_hi, dtype=np.float64).tolist()
    act_lo: list[float] = []
    act_hi: list[float] = []
    act_id: list[int] = []
    for e in order:
        if e < n:
            k = bisect_left(act_lo, y_lo[e])
            del act_lo[k], act_hi[k], act_id[k]
            continue
        i = e - n
        k = bisect_right(act_lo, y_lo[i])
        if k > 0 and act_hi[k - 1] > y_lo[i]:
            return act_id[k - 1], i
        if k < len(act_lo) and act_lo[k] < y_hi[i]:
            return act_id[k], i
        act_lo.insert(k, y_lo[i])
        act_hi.insert(k, y_hi[i])
        act_id.insert(k, i)
    return None


def _toggle(bounds: list[float], values: Iterable[float]) -> None:
    """Insert each value absent from the sorted list, delete each one present."""
    for v in values:
        i = bisect_left(bounds, v)
        if i < len(bounds) and bounds[i] == v:
            del bounds[i]
        else:
            bounds.insert(i, v)


def dilate_2d(
    cubes: Sequence[Rectangle],
    gamma: float,
    *,
    allow_gamma_one: bool = False,
    block: tuple[int, int, int] | None = None,
) -> RectUnion:
    """Simultaneously dilate a pairwise disjoint family of open squares.

    Steps: (1) reject overlapping inputs, the precondition of both toggle
    sweeps; (2) sweep the y-endpoints, toggling the x-endpoints of each
    square that enters or leaves, so the sorted boundary list is the merged
    union of the x-sections on every y-cell, and group the cells by that
    union; (3) dilate each distinct x-union once; (4) sweep the x-endpoints
    of those dilations, toggling the y-bounds of each group's cells where
    the group's dilation starts or ends, so the boundary list is the merged
    vertical union of every column; (5) dilate each distinct vertical union
    once and emit column x vertical-section rectangles.

    The result is deterministic, pairwise disjoint, and its measure equals
    (2*gamma + 1)**2 times the total input area up to float rounding.
    Rectangular (non-square) inputs are accepted; the identity holds for
    squares.  For N squares the cost is O(N log N) comparisons plus the
    total size of the distinct merged unions.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    cubes = list(cubes)
    if not cubes:
        return RectUnion.empty()
    hit = find_overlap(*zip(*(c.x.as_pair() + c.y.as_pair() for c in cubes)))
    if hit is not None:
        raise OverlappingCubes(f"cubes {hit[0]} and {hit[1]} overlap")

    # 2. y-sweep; each x-union maps to the y-bounds of its cells, touching cells merged
    y_events: dict[float, list[float]] = {}
    for c in cubes:
        y_events.setdefault(c.y.lo, []).extend((c.x.lo, c.x.hi))
        y_events.setdefault(c.y.hi, []).extend((c.x.lo, c.x.hi))
    x_bounds: list[float] = []
    groups: dict[tuple[float, ...], list[float]] = {}
    ys = sorted(y_events)
    for y1, y2 in zip(ys, ys[1:]):
        _toggle(x_bounds, y_events[y1])
        if not x_bounds:
            continue
        runs = groups.setdefault(tuple(x_bounds), [])
        if runs and runs[-1] == y1:
            runs[-1] = y2
        else:
            runs += (y1, y2)

    # 3. horizontal dilation per distinct x-union
    x_events: dict[float, list[list[float]]] = {}
    for key, runs in groups.items():
        dilated = _grow(key[0::2], key[1::2], gamma)[0]
        for lo, hi in zip(dilated.los, dilated.his):
            x_events.setdefault(lo, []).append(runs)
            x_events.setdefault(hi, []).append(runs)

    # 4+5. column sweep; one dilation per distinct vertical union
    y_bounds: list[float] = []
    sections: dict[tuple[float, ...], DisjointIntervalSet] = {}
    columns: list[tuple[Interval, DisjointIntervalSet]] = []
    xs = sorted(x_events)
    for x1, x2 in zip(xs, xs[1:]):
        for runs in x_events[x1]:
            _toggle(y_bounds, runs)
        if not y_bounds:
            continue
        key = tuple(y_bounds)
        section = sections.get(key)
        if section is None:
            section = sections[key] = _grow(key[0::2], key[1::2], gamma)[0].intervals()
        columns.append((Interval(x1, x2), section))
    return RectUnion(columns, gamma=gamma, block=block)


def contains(
    result: DilationResult1D | RectUnion | DisjointIntervalSet,
    point,
) -> Location:
    """Three-verdict membership for dilation results."""
    if isinstance(result, (DilationResult1D, DisjointIntervalSet)):
        return result.locate(float(point))
    return result.locate((float(point[0]), float(point[1])))


@dataclass(frozen=True)
class WitnessResult:
    """Observed overlap fraction of a rectangle against the cubes, with its bound."""

    lhs: float
    bound: float
    passed: bool
    rect_area: float
    overlap: float


def ratio_bound_witness(
    cubes: Sequence[Rectangle],
    gamma: float,
    point: tuple[float, float],
    rect: Rectangle,
    *,
    dilation: RectUnion | None = None,
) -> WitnessResult:
    """Check |rect intersect cubes| / |rect| < 2/gamma for an outside point.

    The point must lie strictly outside the simultaneous dilation of the
    cubes and strictly inside the rectangle; the overlap is computed exactly
    as a sum over the disjoint cubes.
    """
    if dilation is None:
        dilation = dilate_2d(cubes, gamma)
    if dilation.locate(point) is not Location.OUTSIDE:
        raise PointNotOutside(f"point {point} is not strictly outside the dilation")
    if rect.locate(point) is not Location.INSIDE:
        raise PointNotOutside(f"point {point} is not strictly inside the rectangle")
    overlap = math.fsum(rect.overlap_area(c) for c in cubes)
    lhs = overlap / rect.area
    bound = 2.0 / float(gamma)
    return WitnessResult(
        lhs=lhs, bound=bound, passed=lhs < bound, rect_area=rect.area, overlap=overlap
    )
