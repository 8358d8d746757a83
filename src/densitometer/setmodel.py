"""Box-minus-squares set models, density ratios, and the exceptional cover.

A model materializes cubes 1..N of a weight sequence inside an open outer
box by deterministic shelf packing.  Density ratios against axis-aligned
rectangles are exact on the truncated set and carry a certified lower bound
for the untruncated one.  The exceptional cover unites, for blocks
s = m..s_hi of the schedule, the 2^s-dilation of the block's cubes; its
total measure is bounded analytically across all blocks s >= m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dilation import LOCATIONS, Rectangle, RectUnion, dilate_2d, find_overlap
from .errors import (
    EmptyRect,
    HorizonExhausted,
    OutOfRange,
    OverlappingCubes,
    PackingInfeasible,
    TruncationTooSmall,
)
from .interval1d import Location
from .logdomain import LOG_ZERO, LogBracket, log_sum
from .weights import WeightSequence, tail_sum

__all__ = [
    "CompactSetModel",
    "CubeIndex",
    "DensityResult",
    "BlockDilation",
    "ExceptionalCover",
    "build_packing",
    "density_ratio",
    "cover_measure_bound",
    "build_cover",
]

# Rectangles x cubes per overlap-kernel block: 128 KiB per float64 temporary.
_BLOCK_CELLS = 1 << 14
# Stopping rule of cover_measure_bound.
_COVER_REL_TOL = 1e-15
_COVER_S_CAP = 400


def closed_hits(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: True where a closed cube meets the closed rectangle."""
    return (wx >= 0.0) & (wy >= 0.0)


def overlap_totals(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Overlap reduction: each rectangle's total overlap area, exactly rounded.

    The areas ``max(wx, 0) * max(wy, 0)`` are formed in place in ``wx``.
    The total depends only on the positive areas, not on which other cubes a
    row holds or their order.  Adding a zero is exact, so a row with at most
    two positive areas rounds once and numpy's sum is already exact there.
    The positive areas of the other rows are gathered row by row into one
    list, and each row's slice of it goes through math.fsum.
    """
    pieces = np.maximum(wx, 0.0, out=wx)
    pieces *= np.maximum(wy, 0.0, out=wy)
    positive = pieces > 0.0
    totals = pieces.sum(axis=1)
    counts = np.count_nonzero(positive, axis=1)
    many = np.flatnonzero(counts > 2)
    if many.size:
        flat = pieces[many][positive[many]].tolist()
        ends = np.cumsum(counts[many]).tolist()
        totals[many] = [math.fsum(flat[a:b]) for a, b in zip([0, *ends], ends)]
    return totals


class CubeIndex:
    """Uniform-grid index of a model's cubes for box queries.

    The outer box is cut into g x g cells with g = isqrt(N // 4) (at least
    1), about four cubes to a cell.  A cube no larger than a cell is listed
    once, in the cell of its lower-left corner: ``ids`` holds those cube
    indexes sorted by cell (x-major) and then by index, and cell c's cubes
    are ``ids[starts[c]:starts[c + 1]]``.  The few cubes larger than a cell
    are the list ``big``, which every query returns (Bentley and Friedman,
    "Data structures for range searching", ACM Computing Surveys 1979).
    """

    __slots__ = ("g", "origin", "cell", "ids", "starts", "big")

    def __init__(
        self, outer: Rectangle, xs: np.ndarray, ys: np.ndarray, sides: np.ndarray
    ) -> None:
        g = max(1, math.isqrt(len(xs) // 4))
        self.g = g
        self.origin = (outer.x.lo, outer.y.lo)
        self.cell = (outer.x.length / g, outer.y.length / g)
        small = sides <= min(self.cell)
        self.big = np.flatnonzero(~small).astype(np.int32)
        ids = np.flatnonzero(small).astype(np.int32)
        ix, iy = (
            np.clip(np.floor((v[ids] - o) / h), 0, g - 1).astype(np.intp)
            for v, o, h in zip((xs, ys), self.origin, self.cell)
        )
        cells = ix * g + iy
        order = np.argsort(cells, kind="stable")
        self.ids = ids[order]
        self.starts = np.zeros(g * g + 1, dtype=np.intp)
        np.cumsum(np.bincount(cells, minlength=g * g), out=self.starts[1:])

    def _span(self, lo: float, hi: float, axis: int) -> range:
        """Cells along one axis that can hold the corner of a cube meeting
        [lo, hi]: a corner lies at most one cell side below lo, and one more
        cell on each side absorbs the rounding of the cell arithmetic."""
        o, h = self.origin[axis], self.cell[axis]
        first = math.floor((lo - o - h) / h) - 1
        last = math.floor((hi - o) / h) + 1
        return range(max(first, 0), min(last, self.g - 1) + 1)

    def query(self, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
        """Ascending indexes of a superset of the cubes whose closed square
        meets the closed box [x0, x1] x [y0, y1] (finite bounds)."""
        cols, rows = self._span(x0, x1, 0), self._span(y0, y1, 1)
        g, s, ids = self.g, self.starts, self.ids
        parts = [ids[s[i * g + rows.start] : s[i * g + rows.stop]] for i in cols] if rows else []
        return np.sort(np.concatenate([self.big, *parts]))


class CompactSetModel:
    """Open outer box minus open squares 1..N with sides from a weight sequence.

    Cube geometry lives in numpy arrays (lower-left corners ``xs``, ``ys``
    and ``sides``); the remaining set is the closed complement of the open
    cubes within the closed outer box.  ``removed_area`` sums the sequence
    areas, so the measure bookkeeping identity
    ``measure_remaining + removed_area == outer.area`` is exact up to float
    rounding, and ``residual_tail`` brackets the area that cubes beyond the
    truncation would still remove.  ``index`` answers box queries for cubes.
    """

    __slots__ = (
        "outer", "seq", "trunc", "xs", "ys", "sides", "removed_area", "residual_tail", "index"
    )

    def __init__(
        self,
        outer: Rectangle,
        seq: WeightSequence,
        trunc: int,
        xs: np.ndarray,
        ys: np.ndarray,
        sides: np.ndarray,
    ) -> None:
        if trunc < 1:
            raise ValueError(f"truncation must keep at least one cube, got {trunc}")
        if not (len(xs) == len(ys) == len(sides) == trunc):
            raise ValueError("cube arrays must have exactly trunc entries")
        self.outer = outer
        self.seq = seq
        self.trunc = trunc
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.sides = np.asarray(sides, dtype=np.float64)
        for n in range(1, trunc + 1):
            w = seq.w(n)
            if not abs(self.sides[n - 1] - w) <= 1e-12 * w:  # NaN fails too
                raise ValueError(f"cube {n} side {self.sides[n - 1]} differs from weight {w}")
        if np.any(self.sides[1:] > self.sides[:-1]):
            raise ValueError("cube sides must be non-increasing")
        inside = (
            (self.xs >= outer.x.lo)
            & (self.xs + self.sides <= outer.x.hi)
            & (self.ys >= outer.y.lo)
            & (self.ys + self.sides <= outer.y.hi)
        )
        if not bool(np.all(inside)):
            raise ValueError("every cube must lie inside the outer box")
        self.removed_area = math.fsum(seq.w2(n) for n in range(1, trunc + 1))
        self.residual_tail = tail_sum(seq, trunc + 1)
        self.index = CubeIndex(outer, self.xs, self.ys, self.sides)

    @property
    def measure_remaining(self) -> float:
        return self.outer.area - self.removed_area

    def overlaps(
        self,
        rects: np.ndarray,
        reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
        cubes: np.ndarray | slice,
    ) -> np.ndarray:
        """Reduce the signed overlap widths of rectangles against cubes.

        ``rects`` is a nonempty (n, 4) array of [x0, x1, y0, y1]; a point is
        the rectangle [x, x, y, y].  ``cubes`` selects cubes by index array or
        slice.  Per block of rectangle rows, ``wx = min(x1, cx + w) - max(x0,
        cx)`` and ``wy`` (the same in y) are (rows, cubes) arrays, negative
        by the gap when the two are apart; ``reduce(wx, wy)`` maps them to an
        array whose first axis is the rows (it may overwrite ``wx`` and
        ``wy``), and the blocks are concatenated.
        A block holds at most _BLOCK_CELLS widths, or one row when a row alone
        holds more; the cube axis is never split, so row-wise sums are the
        same as over one unblocked array.
        """
        rects = np.asarray(rects, dtype=np.float64)
        cx0, cy0, w = self.xs[cubes], self.ys[cubes], self.sides[cubes]
        cx1, cy1 = cx0 + w, cy0 + w
        rows = max(1, _BLOCK_CELLS // max(1, cx0.size))
        out = []
        for i in range(0, len(rects), rows):
            x0, x1, y0, y1 = rects[i : i + rows].T[:, :, None]
            wx = np.minimum(x1, cx1)
            wx -= np.maximum(x0, cx0)
            wy = np.minimum(y1, cy1)
            wy -= np.maximum(y0, cy0)
            out.append(reduce(wx, wy))
        return np.concatenate(out)

    def to_json(self) -> dict:
        return {
            "outer": [self.outer.x.lo, self.outer.x.hi, self.outer.y.lo, self.outer.y.hi],
            "cubes": [
                [float(x), float(y), float(w)] for x, y, w in zip(self.xs, self.ys, self.sides)
            ],
            "trunc": self.trunc,
            "seq": self.seq.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompactSetModel":
        """Model from a set.json object.

        ValueError names the field when the object does not have the shape
        that :meth:`to_json` writes; OverlappingCubes when two cubes'
        interiors meet.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"set.json must hold an object, got {type(obj).__name__}")
        missing = [k for k in ("outer", "cubes", "trunc", "seq") if k not in obj]
        if missing:
            raise ValueError(f"set.json lacks field {missing[0]!r}")
        outer, trunc = obj["outer"], obj["trunc"]
        if not (
            isinstance(outer, list)
            and len(outer) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in outer)
        ):
            raise ValueError(f"set.json field 'outer' must be [x0, x1, y0, y1], got {outer!r}")
        if isinstance(trunc, bool) or not isinstance(trunc, int):
            raise ValueError(f"set.json field 'trunc' must be an integer, got {trunc!r}")
        rows_error = "set.json field 'cubes' must be a list of [x, y, side] rows"
        try:
            cubes = np.array(obj["cubes"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{rows_error}: {exc}") from exc
        if cubes.ndim != 2 or cubes.shape[1] != 3:
            raise ValueError(f"{rows_error}, got shape {cubes.shape}")
        xs, ys, sides = cubes.T.copy()
        model = cls(
            Rectangle.from_bounds(*outer),
            WeightSequence.from_json(obj["seq"]),
            trunc,
            xs,
            ys,
            sides,
        )
        hit = find_overlap(model.xs, model.xs + model.sides, model.ys, model.ys + model.sides)
        if hit is not None:
            raise OverlappingCubes(f"cubes {hit[0] + 1} and {hit[1] + 1} overlap")
        return model

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompactSetModel):
            return NotImplemented
        return (
            self.outer == other.outer
            and self.seq == other.seq
            and self.trunc == other.trunc
            and bool(np.all(self.xs == other.xs))
            and bool(np.all(self.ys == other.ys))
            and bool(np.all(self.sides == other.sides))
        )


def build_packing(seq: WeightSequence, trunc: int, outer: Rectangle) -> CompactSetModel:
    """Deterministic shelf packing of cubes 1..trunc into the outer box.

    Cubes go left to right in rows; a row's height is the side of its first
    cube, rows stack bottom-up with no separation margin (open cubes touching
    along edges are still disjoint).  Feasibility precondition: total removed
    area at most half the box and the first side at most the shorter box
    side; with non-increasing sides this guarantees the shelves fit.
    """
    if trunc < 1:
        raise ValueError(f"truncation must keep at least one cube, got {trunc}")
    if seq.n_max is not None and trunc > seq.n_max:
        raise OutOfRange(f"sequence defines {seq.n_max} areas, cannot materialize {trunc}")
    total = math.fsum(seq.w2(n) for n in range(1, trunc + 1))
    w1 = seq.w(1)
    min_side = min(outer.x.length, outer.y.length)
    if total > 0.5 * outer.area or w1 > min_side:
        raise PackingInfeasible(
            f"total area {total:.6g} (limit {0.5 * outer.area:.6g}) with first side "
            f"{w1:.6g} (limit {min_side:.6g})"
        )
    xs = np.empty(trunc)
    ys = np.empty(trunc)
    sides = np.empty(trunc)
    x_cursor = outer.x.lo
    row_base = outer.y.lo
    row_height = 0.0
    for n in range(1, trunc + 1):
        w = seq.w(n)
        if row_height == 0.0:
            row_height = w
        elif x_cursor + w > outer.x.hi:
            row_base += row_height
            x_cursor = outer.x.lo
            row_height = w
        if row_base + row_height > outer.y.hi:
            raise PackingInfeasible(
                f"rows overflow the box at cube {n}: base {row_base:.6g} + height "
                f"{row_height:.6g} exceeds {outer.y.hi:.6g}"
            )
        xs[n - 1] = x_cursor
        ys[n - 1] = row_base
        sides[n - 1] = w
        x_cursor += w
    return CompactSetModel(outer, seq, trunc, xs, ys, sides)


@dataclass(frozen=True)
class DensityResult:
    """Exact truncated-set density of a rectangle, with the true-set bracket.

    ``ratio_n`` is 1 minus the removed fraction over cubes 1..N; the density
    of the untruncated set lies in [``lower_bound_true``, ``ratio_n``].
    """

    ratio_n: float
    lower_bound_true: float
    rect: Rectangle
    clipped: bool
    overlap_total: float


def density_ratio(model: CompactSetModel, rect: Rectangle) -> DensityResult:
    """Exact overlap arithmetic for |rect minus cubes| / |rect| within the box.

    A rectangle reaching outside the outer box is clipped first (flagged);
    one with no interior inside the box raises EmptyRect.
    """
    ox, oy = model.outer.x, model.outer.y
    x_lo, x_hi = max(rect.x.lo, ox.lo), min(rect.x.hi, ox.hi)
    y_lo, y_hi = max(rect.y.lo, oy.lo), min(rect.y.hi, oy.hi)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise EmptyRect(f"rectangle {rect.bounds} has no interior inside the outer box")
    clipped = (x_lo, x_hi, y_lo, y_hi) != rect.bounds
    area = (x_hi - x_lo) * (y_hi - y_lo)
    cubes = model.index.query(x_lo, x_hi, y_lo, y_hi)
    overlap = float(model.overlaps([[x_lo, x_hi, y_lo, y_hi]], overlap_totals, cubes)[0])
    ratio_n = min(1.0, max(0.0, 1.0 - overlap / area))
    tail_hi = model.residual_tail.linear_hi
    return DensityResult(
        ratio_n=ratio_n,
        lower_bound_true=max(0.0, ratio_n - tail_hi / area),
        rect=Rectangle.from_bounds(x_lo, x_hi, y_lo, y_hi),
        clipped=clipped,
        overlap_total=overlap,
    )


@dataclass(frozen=True)
class BlockDilation:
    """One cover block: the 2^s-dilation of cubes n(s)..n(s+1)-1."""

    s: int
    gamma: float
    n_lo: int
    n_hi: int
    union: RectUnion
    block_area: float

    @property
    def exact_measure(self) -> float:
        return self.union.measure

    @property
    def identity_rhs(self) -> float:
        """(2*gamma + 1)^2 times the block's input area."""
        return (2.0 * self.gamma + 1.0) ** 2 * self.block_area


@dataclass(frozen=True)
class ExceptionalCover:
    """Union of block dilations for s = m..s_hi plus the analytic tail bound."""

    m: int
    s_hi: int
    blocks: tuple[BlockDilation, ...]
    measure_bound_bracket: LogBracket

    @classmethod
    def empty(cls) -> "ExceptionalCover":
        """Degenerate cover with no blocks and bound zero."""
        return cls(m=1, s_hi=0, blocks=(), measure_bound_bracket=LogBracket(LOG_ZERO, LOG_ZERO))

    @property
    def measure_bound(self) -> float:
        """Certified upper bound for the full cover measure, all blocks s >= m."""
        return self.measure_bound_bracket.linear_hi

    def classify(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Location code of each point (x[i], y[i]) in the closed cover: the
        largest of the blocks' ``RectUnion.classify`` codes, so 2 where a
        block holds the point inside, else 1 where one has it on its
        boundary, else 0."""
        code = np.zeros(len(x), dtype=np.int8)
        for b in self.blocks:
            np.maximum(code, b.union.classify(x, y), out=code)
        return code

    def locate(self, point: tuple[float, float]) -> Location:
        return LOCATIONS[self.classify([point[0]], [point[1]])[0]]


def cover_measure_bound(seq: WeightSequence, m: int) -> LogBracket:
    """Bracket for the analytic bound sum_{s >= m} (2*2^s + 1)^2 * r(n(s)).

    Terms accumulate until one is certainly below _COVER_REL_TOL of the
    running total; HorizonExhausted if that never happens within
    _COVER_S_CAP blocks (the sum still converges for any admissible
    sequence, but certifying it would need a deeper scan).
    """
    if m < 1:
        raise OutOfRange(f"cover start index must be >= 1, got {m}")
    los: list[float] = []
    his: list[float] = []
    for s in range(m, _COVER_S_CAP + 1):
        factor = 2.0 * math.log(2 ** (s + 1) + 1)
        tail = tail_sum(seq, s**s)
        term = tail.scaled(factor)
        los.append(term.lo)
        his.append(term.hi)
        if term.is_zero:
            break
        if term.hi <= log_sum(his) + math.log(_COVER_REL_TOL):
            break
    else:
        raise HorizonExhausted(
            f"cover bound did not stabilize within {_COVER_S_CAP} blocks from m = {m}"
        )
    return LogBracket(log_sum(los), log_sum(his))


def build_cover(model: CompactSetModel, m: int, s_hi: int) -> ExceptionalCover:
    """Materialize block dilations s = m..s_hi; the bound covers all s >= m.

    Raises TruncationTooSmall when the model does not hold every cube of
    block s_hi.
    """
    if not 1 <= m <= s_hi:
        raise OutOfRange(f"need 1 <= m <= s_hi, got m = {m}, s_hi = {s_hi}")
    needed = (s_hi + 1) ** (s_hi + 1) - 1
    if needed > model.trunc:
        raise TruncationTooSmall(
            f"cover horizon s_hi = {s_hi} needs cubes through {needed}, model holds {model.trunc}"
        )
    blocks = []
    for s in range(m, s_hi + 1):
        n_lo, n_hi = s**s, (s + 1) ** (s + 1) - 1
        gamma = float(2**s)
        x, y, w = model.xs[n_lo - 1 : n_hi], model.ys[n_lo - 1 : n_hi], model.sides[n_lo - 1 : n_hi]
        rows = np.column_stack((x, x + w, y, y + w))
        union = dilate_2d(rows, gamma, block=(s, n_lo, n_hi))
        block_area = math.fsum(model.seq.w2(n) for n in range(n_lo, n_hi + 1))
        blocks.append(
            BlockDilation(
                s=s, gamma=gamma, n_lo=n_lo, n_hi=n_hi, union=union, block_area=block_area
            )
        )
    return ExceptionalCover(
        m=m,
        s_hi=s_hi,
        blocks=tuple(blocks),
        measure_bound_bracket=cover_measure_bound(model.seq, m),
    )
