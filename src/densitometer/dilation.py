"""Simultaneous dilation of interval families and of square packings.

The 1-D operation enlarges every member of a pairwise disjoint family, in
left-to-right order, by exactly ``gamma`` times its own length of previously
unoccupied measure on each side, so the union of the enlarged family has
measure exactly (2*gamma + 1) times the input measure.

The 2-D operation factors a disjoint square family through the membership
atoms of its axis projections: per atom class of the vertical projection the
horizontal sections are dilated, the resulting arrangement is cut into
columns, and each column receives the dilation of the vertical sections it
sees.  The output is a finite disjoint rectangle union; index families are
realized only as arrangement-cell labels, never enumerated as a power set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGamma, OverlappingCubes, OverlappingInputs, PointNotOutside
from .interval1d import DisjointIntervalSet, Interval, Location, atoms

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
    occupied = _OccupiedSet()
    for m in members:
        occupied.insert(m.lo, m.hi)
    pieces = []
    for m in members:
        need = gamma * m.length
        left_end = occupied.sweep_left(m.lo, need)
        right_end = occupied.sweep_right(m.hi, need)
        pieces.append(
            DilationPiece(
                source=m,
                left_arm=Interval(left_end, m.hi),
                right_arm=Interval(m.lo, right_end),
                hull=Interval(left_end, right_end),
            )
        )
        occupied.insert(left_end, right_end)
    input_measure = math.fsum(m.length for m in members)
    return DilationResult1D(
        gamma=gamma,
        pieces=tuple(pieces),
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

    __slots__ = ("columns", "gamma", "block", "_los", "_his")

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


def _check_cubes_disjoint(cubes: Sequence[Rectangle]) -> None:
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].x.lo)
    active: list[int] = []
    for i in order:
        cube = cubes[i]
        still = []
        for j in active:
            if cubes[j].x.hi > cube.x.lo:
                still.append(j)
                if cube.x.overlaps(cubes[j].x) and cube.y.overlaps(cubes[j].y):
                    raise OverlappingCubes(f"cubes {j} and {i} overlap")
        active = still + [i]


def dilate_2d(
    cubes: Sequence[Rectangle],
    gamma: float,
    *,
    allow_gamma_one: bool = False,
    block: tuple[int, int, int] | None = None,
) -> RectUnion:
    """Simultaneously dilate a pairwise disjoint family of open squares.

    Steps: (1) cut the vertical projections into membership atoms; (2) for
    each realized atom label, dilate the union of the horizontal sections of
    the member squares (labels with identical section unions share one
    dilation); (3) sweep the arrangement of those dilations into maximal
    x-columns; (4) per column, dilate the union of the vertical atom cells
    whose labels are active there (cached by the cell union, not the label
    set); (5) emit column x vertical-section rectangles.

    The result is deterministic, pairwise disjoint, and its measure equals
    (2*gamma + 1)**2 times the total input area up to float rounding.
    Rectangular (non-square) inputs are accepted; the identity holds for
    squares.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    cubes = list(cubes)
    if not cubes:
        return RectUnion.empty()
    _check_cubes_disjoint(cubes)

    # 1. vertical membership atoms, grouped into classes
    y_atoms = atoms([c.y for c in cubes])
    y_cells = y_atoms.cells
    cell_lo = np.array([c.cell.lo for c in y_cells])
    cell_hi = np.array([c.cell.hi for c in y_cells])
    label_ids: dict[frozenset[int], int] = {}
    label_cells: list[list[int]] = []
    label_members: list[frozenset[int]] = []
    for idx, c in enumerate(y_cells):
        beta = label_ids.get(c.label)
        if beta is None:
            beta = len(label_cells)
            label_ids[c.label] = beta
            label_cells.append([])
            label_members.append(c.label)
        label_cells[beta].append(idx)

    # 2. horizontal dilation per class, deduplicated by the section union
    xs_sorted = sorted(range(len(cubes)), key=lambda i: cubes[i].x.lo)
    rank = {i: r for r, i in enumerate(xs_sorted)}
    dilation_cache: dict[tuple[float, ...], DisjointIntervalSet] = {}
    label_dilation: list[DisjointIntervalSet] = []
    for beta, members in enumerate(label_members):
        ranks = sorted(rank[i] for i in members)
        merged: list[list[float]] = []
        for r in ranks:
            seg = cubes[xs_sorted[r]].x
            if merged and seg.lo <= merged[-1][1]:
                if seg.hi > merged[-1][1]:
                    merged[-1][1] = seg.hi
            else:
                merged.append([seg.lo, seg.hi])
        key = tuple(v for pair in merged for v in pair)
        hit = dilation_cache.get(key)
        if hit is None:
            base = [Interval(lo, hi) for lo, hi in merged]
            hit = dilate_1d(base, gamma, allow_gamma_one=allow_gamma_one).union
            dilation_cache[key] = hit
        label_dilation.append(hit)

    # 3. sweep the arrangement of the horizontal dilations
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    coords: set[float] = set()
    for beta, dil in enumerate(label_dilation):
        for seg in dil:
            starts.setdefault(seg.lo, []).append(beta)
            ends.setdefault(seg.hi, []).append(beta)
            coords.add(seg.lo)
            coords.add(seg.hi)
    ordered = sorted(coords)
    active_cells = np.zeros(len(y_cells), dtype=bool)
    cell_arrays = [np.array(cells, dtype=np.intp) for cells in label_cells]

    # 4+5. per column: merge active vertical cells, dilate, emit
    section_cache: dict[bytes, DisjointIntervalSet] = {}
    columns: list[tuple[Interval, DisjointIntervalSet]] = []
    for c1, c2 in zip(ordered, ordered[1:]):
        for beta in ends.get(c1, ()):
            active_cells[cell_arrays[beta]] = False
        for beta in starts.get(c1, ()):
            active_cells[cell_arrays[beta]] = True
        ids = np.flatnonzero(active_cells)
        if ids.size == 0:
            continue
        los = cell_lo[ids]
        his = cell_hi[ids]
        breaks = np.flatnonzero(los[1:] != his[:-1]) + 1
        seg_lo = los[np.concatenate(([0], breaks))]
        seg_hi = his[np.concatenate((breaks - 1, [ids.size - 1]))]
        key = seg_lo.tobytes() + seg_hi.tobytes()
        section = section_cache.get(key)
        if section is None:
            base = [Interval(float(lo), float(hi)) for lo, hi in zip(seg_lo, seg_hi)]
            section = dilate_1d(base, gamma, allow_gamma_one=allow_gamma_one).union
            section_cache[key] = section
        columns.append((Interval(c1, c2), section))
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
