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

Both sweeps run on floats and arrays, not on per-interval objects.  The
squares come in as an (n, 4) array of rows [x0, x1, y0, y1].  Each sweep
first collects its distinct unions and then dilates them together, in
batches of at most ``_BATCH_MEMBERS`` members: ``_grow_batch`` grows member
s of every union of a batch in one numpy step, with the float operations of
the one-union loop in the same order, so every union comes out the same bit
for bit.  ``dilate_1d`` is a batch of one union.  The result keeps flat
arrays: column x-bounds, a section index per column, and a pool of the
distinct vertical sections with their exact measures (see ``RectUnion``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGamma, OverlappingCubes, OverlappingInputs
from .interval1d import DisjointIntervalSet, Interval, Location
from .interval1d import atoms  # noqa: F401  # bench/tracing.py wraps dilation.atoms

__all__ = [
    "DilationResult1D",
    "Rectangle",
    "RectUnion",
    "dilate_1d",
    "cube_rows",
    "dilate_2d",
]

# the Location of each RectUnion.classify code
LOCATIONS = (Location.OUTSIDE, Location.BOUNDARY, Location.INSIDE)


def _check_gamma(gamma: float, allow_gamma_one: bool) -> float:
    gamma = float(gamma)
    lower_ok = gamma >= 1.0 if allow_gamma_one else gamma > 1.0
    if not (math.isfinite(gamma) and lower_ok):
        bound = ">= 1" if allow_gamma_one else "> 1"
        raise InvalidGamma(f"dilation factor must be {bound}, got {gamma}")
    return gamma


# Members per ``_grow_batch`` call in ``dilate_2d``'s sweeps.  Every lockstep
# step costs the same few dozen numpy calls however many unions it advances,
# so a batch must be large to amortise them, and small to keep its working
# arrays (about six floats per member) well below the sweep's own keys.  A
# union longer than this forms a batch of its own.
_BATCH_MEMBERS = 16384


@np.errstate(over="ignore")  # an overflowing arm raises ValueError below
def _grow_batch(
    counts: Sequence[int] | np.ndarray, los: np.ndarray, his: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grow a batch of unions at once, each left to right.

    Union u is the next ``counts[u]`` members (``los[i]``, ``his[i]``),
    sorted and pairwise disjoint.  Returns the number of blocks of every
    dilated union and their lower and upper ends, concatenated in union
    order, and the left and right hull ends of every member.  An arm that
    leaves the float range raises ValueError, as the non-finite interval it
    would end does.

    Each union's occupied set is two sorted runs of closed blocks, each
    merged across touching ends: the grown blocks (a stack whose top holds
    the last hull) and the waiting blocks, the members not yet reached.  A
    member lies in the top grown block or in the first waiting one, so no
    search is needed.  Its left arm sweeps down the grown blocks and its
    right arm up the waiting ones, each past exactly gamma times its length
    of unoccupied measure; the hull then replaces every block it meets.
    Sentinels at -inf below every union's grown blocks and at +inf above
    its waiting ones end both sweeps.

    Step s grows member s of every union at once.  The unions are ranked
    longest first, so the ones with a member s are a prefix of the ranks
    and every per-union state array is read and written as one prefix
    slice.  The arm walks and the absorbing of met blocks run as masked
    loops over the unions still walking.  Every union sees the float
    operations of the one-union loop (``tests/oracles.py``'s ``_grow``) in
    the same order, so the result is the same bit for bit.
    """
    counts = np.asarray(counts, dtype=np.intp)
    los = np.asarray(los, dtype=np.float64)
    his = np.asarray(his, dtype=np.float64)
    n_u, total = counts.size, int(counts.sum())
    start = np.cumsum(counts) - counts
    # grown blocks: room for one per member above a -inf slot
    glo = np.empty(total + n_u)
    ghi = np.empty(total + n_u)
    g_base = np.cumsum(counts + 1) - counts
    glo[g_base - 1] = ghi[g_base - 1] = -math.inf
    # waiting blocks, union after union, each union's followed by a +inf slot
    head = np.ones(total, dtype=bool)  # the first member of a waiting block
    head[1:] = los[1:] != his[:-1]
    head[start[counts > 0]] = True
    owner = np.repeat(np.arange(n_u), counts)[head]
    n_blocks = np.bincount(owner, minlength=n_u)
    w_end = np.cumsum(n_blocks + 1) - 1
    slot = np.arange(owner.size) + owner
    del owner
    wlo = np.full(total + n_u, math.inf)
    whi = np.full(total + n_u, math.inf)
    wlo[slot] = los[head]
    head[:-1] = head[1:]  # now the last member of a waiting block
    head[-1:] = True
    whi[slot] = his[head]
    del head, slot

    rank = np.argsort(-counts, kind="stable")
    active = np.bincount(counts, minlength=1)[::-1].cumsum()[::-1][1:]  # unions with > s members
    start, base, end = start[rank], g_base[rank], w_end[rank]
    top = base - 1
    w = end - n_blocks[rank]
    lefts = np.empty(total)
    rights = np.empty(total)

    for s, a in enumerate(active.tolist()):
        member = start[:a] + s
        lo, hi = los[member], his[member]
        t, wt = top[:a], w[:a]
        need = gamma * (hi - lo)
        top_hi = ghi[t]
        inside = lo <= top_hi
        j = t - inside
        k = wt + ~inside
        cur = np.where(inside, glo[t], wlo[wt])
        gap = cur - ghi[j]
        left = cur - need
        walk = np.flatnonzero(gap < need)
        rest, jw, gap = need[walk], j[walk], gap[walk]
        while walk.size:
            rest = rest - gap
            cur = glo[jw]
            jw = jw - 1
            gap = cur - ghi[jw]
            done = gap >= rest
            left[walk[done]] = cur[done] - rest[done]
            j[walk[done]] = jw[done]
            more = ~done
            walk, rest, jw, gap = walk[more], rest[more], jw[more], gap[more]
        cur = np.where(inside, top_hi, whi[wt])
        gap = wlo[k] - cur
        right = cur + need
        walk = np.flatnonzero(gap < need)
        rest, kw, gap = need[walk], k[walk], gap[walk]
        while walk.size:
            rest = rest - gap
            cur = whi[kw]
            kw = kw + 1
            gap = wlo[kw] - cur
            done = gap >= rest
            right[walk[done]] = cur[done] + rest[done]
            k[walk[done]] = kw[done]
            more = ~done
            walk, rest, kw, gap = walk[more], rest[more], kw[more], gap[more]
        if not (left.min() > -math.inf and right.max() < math.inf):
            raise ValueError("a dilation arm overflows the float range")
        # the closed hull [left, right] absorbs grown blocks i..top and waiting ones up to k
        i = j + 1
        meets = (i > base[:a]) & (ghi[j] >= left)
        while meets.any():
            i -= meets
            meets &= (i > base[:a]) & (ghi[i - 1] >= left)
        meets = (k < end[:a]) & (wlo[k] <= right)
        while meets.any():
            k += meets
            meets &= (k < end[:a]) & (wlo[k] <= right)
        first_lo = np.where(i <= t, glo[i], wlo[wt])
        last_hi = np.where(k > wt, whi[k - 1], top_hi)
        glo[i] = np.where(first_lo < left, first_lo, left)
        ghi[i] = np.where(last_hi > right, last_hi, right)
        top[:a], w[:a] = i, k
        lefts[member], rights[member] = left, right

    # every waiting block has been reached: each union's result is its grown
    # blocks, the slots from its base to its top
    del wlo, whi
    kept = np.zeros(total + n_u + 1, dtype=np.int8)
    kept[base] = 1
    kept[top + 1] -= 1
    kept = np.cumsum(kept[:-1], dtype=np.int8).view(bool)
    n_out = np.empty_like(counts)
    n_out[rank] = top - base + 1
    out_lo = glo[kept]
    del glo
    return n_out, out_lo, ghi[kept], lefts, rights


@dataclass(frozen=True)
class DilationResult1D:
    gamma: float
    union: DisjointIntervalSet
    input_measure: float

    @property
    def identity_rhs(self) -> float:
        """(2*gamma + 1) times the input measure; equals the union measure."""
        return (2.0 * self.gamma + 1.0) * self.input_measure


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

    The family grows as a ``_grow_batch`` of one union, one lockstep step
    of a few dozen numpy calls per member: about 50 us a member on an
    x86-64 core, against about 1 us for a plain float loop, so 10**4
    members take about half a second.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    members = sorted(intervals, key=lambda i: i.lo)
    for a, b in zip(members, members[1:]):
        if not a.hi <= b.lo:
            raise OverlappingInputs(f"inputs overlap: {a} and {b}")
    los, his = [m.lo for m in members], [m.hi for m in members]
    _, los, his, _, _ = _grow_batch([len(members)], los, his, gamma)
    return DilationResult1D(
        gamma=gamma,
        union=DisjointIntervalSet(Interval(lo, hi) for lo, hi in zip(los.tolist(), his.tolist())),
        input_measure=math.fsum(m.length for m in members),
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


class RectUnion:
    """Disjoint rectangle union organized as x-disjoint columns, in flat arrays.

    Column c is the open x-interval (``x_lo[c]``, ``x_hi[c]``); the columns
    are sorted and pairwise disjoint.  Its vertical section is entry
    ``col_sec[c]`` of a pool of distinct sections, which columns with equal
    vertical unions share: section s is the sorted, pairwise separated open
    y-intervals (``y_lo[i]``, ``y_hi[i]``) for ``sec_off[s] <= i <
    sec_off[s + 1]``, and ``sec_measure[s]`` is their exact ``fsum``
    measure.  ``measure``, ``classify``, ``locate`` and ``len`` read these
    arrays; ``columns`` builds interval objects on first use, one
    DisjointIntervalSet per section, and ``rects`` derives from it.
    ``block`` optionally records which cube block the union dilates (block
    index s, factor, 1-based cube index range).
    """

    __slots__ = (
        "x_lo",
        "x_hi",
        "col_sec",
        "sec_off",
        "y_lo",
        "y_hi",
        "sec_measure",
        "gamma",
        "block",
        "_keys",
        "_columns",
    )

    def __init__(
        self,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        col_sec: np.ndarray,
        sec_off: np.ndarray,
        y_lo: np.ndarray,
        y_hi: np.ndarray,
        sec_measure: np.ndarray,
        gamma: float | None = None,
        block: tuple[int, int, int] | None = None,
    ):
        self.x_lo = np.asarray(x_lo, dtype=np.float64)
        self.x_hi = np.asarray(x_hi, dtype=np.float64)
        self.y_lo = np.asarray(y_lo, dtype=np.float64)
        self.y_hi = np.asarray(y_hi, dtype=np.float64)
        if not all(np.isfinite(a).all() for a in (self.x_lo, self.x_hi, self.y_lo, self.y_hi)):
            raise ValueError("rectangle union bounds must be finite")
        if np.any(self.x_hi[:-1] > self.x_lo[1:]):
            raise ValueError("columns must be sorted and x-disjoint")
        self.col_sec = np.asarray(col_sec, dtype=np.intp)
        self.sec_off = np.asarray(sec_off, dtype=np.intp)
        self.sec_measure = np.asarray(sec_measure, dtype=np.float64)
        self.gamma = gamma
        self.block = block
        self._keys: tuple[np.ndarray, ...] | None = None
        self._columns: tuple[tuple[Interval, DisjointIntervalSet], ...] | None = None

    @classmethod
    def empty(cls) -> "RectUnion":
        return cls((), (), (), (0,), (), (), ())

    def __len__(self) -> int:
        return int(np.diff(self.sec_off)[self.col_sec].sum())

    @property
    def columns(self) -> tuple[tuple[Interval, DisjointIntervalSet], ...]:
        if self._columns is None:
            off = self.sec_off.tolist()
            y_lo, y_hi = self.y_lo.tolist(), self.y_hi.tolist()
            sections = [
                DisjointIntervalSet(Interval(y_lo[i], y_hi[i]) for i in range(a, b))
                for a, b in zip(off, off[1:])
            ]
            self._columns = tuple(
                (Interval(x0, x1), sections[s])
                for x0, x1, s in zip(self.x_lo.tolist(), self.x_hi.tolist(), self.col_sec.tolist())
            )
        return self._columns

    @property
    def rects(self) -> tuple[Rectangle, ...]:
        return tuple(Rectangle(x_int, y_int) for x_int, ys in self.columns for y_int in ys)

    @property
    def measure(self) -> float:
        widths = self.x_hi - self.x_lo
        return math.fsum((widths * self.sec_measure[self.col_sec]).tolist())

    def _section_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted pooled lower ends, and the sort key and section of every
        pooled interval (see ``_interval``), built on first use."""
        if self._keys is None:
            sec = np.repeat(np.arange(self.sec_off.size - 1), np.diff(self.sec_off))
            starts = np.sort(self.y_lo)
            key = sec * (starts.size + 1) + np.searchsorted(starts, self.y_lo) + 1
            self._keys = (starts, key, sec)
        return self._keys

    def _interval(
        self, c: np.ndarray, rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lower and upper ends of the last interval of column c's section
        that starts at or below y, where ``rank`` is the number of pooled
        lower ends at or below y, and whether the interval found belongs to
        c's section.

        Each of the k pooled section intervals gets the key section * (k + 1)
        + 1 + the number of pooled lower ends below its own.  That key is at
        most section * (k + 1) + rank exactly when its own lower end is at or
        below y, so one bisection of the sorted keys finds the interval.  When
        none qualifies, the bisection lands on an interval of an earlier
        section, or before index 0, which is clipped to interval 0, and that
        interval starts above y: callers test both the section and the lower
        end.
        """
        starts, key, sec = self._section_keys()
        s = self.col_sec[c]
        i = np.maximum(np.searchsorted(key, s * (starts.size + 1) + rank, "right") - 1, 0)
        return self.y_lo[i], self.y_hi[i], sec[i] == s

    def classify(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Location code of each point (x[i], y[i]): 0 outside the closed
        union, 1 on the boundary, 2 inside; the int8 form of ``locate``.

        A point is inside only strictly inside one column rectangle: a
        shared column edge or section end counts as boundary.  Bisecting the
        column x-starts gives the last column c starting at or left of x,
        and ``_interval`` the candidate y-interval of c's section; the point
        is in that closed rectangle when it lies within both bounds, inside
        when strictly so.  The column before c also holds it when x is both
        c's start and that column's end.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        code = np.zeros(x.shape, dtype=np.int8)
        if not self.x_lo.size:
            return code
        rank = np.searchsorted(self._section_keys()[0], y, "right")
        c = np.maximum(np.searchsorted(self.x_lo, x, "right") - 1, 0)
        xl, xh = self.x_lo[c], self.x_hi[c]
        yl, yh, same = self._interval(c, rank)
        closed = same & (xl <= x) & (x <= xh) & (yl <= y) & (y <= yh)
        code += closed
        code += closed & (xl < x) & (x < xh) & (yl < y) & (y < yh)
        edge = np.flatnonzero((x == xl) & (c > 0))
        if edge.size:
            p, ye = c[edge] - 1, y[edge]
            yl, yh, same = self._interval(p, rank[edge])
            code[edge] |= same & (self.x_hi[p] == x[edge]) & (yl <= ye) & (ye <= yh)
        return code

    def locate(self, point: tuple[float, float]) -> Location:
        return LOCATIONS[self.classify([point[0]], [point[1]])[0]]


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


def _grow_sweep(keys: list[tuple[float, ...]], gamma: float) -> tuple[np.ndarray, ...]:
    """Dilate every union of a sweep, each given as its boundary tuple (lo,
    hi, lo, hi, ...), in batches of consecutive unions holding at most
    ``_BATCH_MEMBERS`` members.  Returns ``_grow_batch``'s block counts and
    ends, in key order.  Each batch's keys are released from ``keys`` as
    soon as they are flattened."""
    counts = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys)) // 2
    ends = np.cumsum(counts)
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))]
    a = 0
    while a < len(keys):
        lo = int(ends[a] - counts[a])
        b = max(int(np.searchsorted(ends, lo + _BATCH_MEMBERS, "right")), a + 1)
        size = 2 * (int(ends[b - 1]) - lo)
        flat = np.fromiter(chain.from_iterable(keys[a:b]), dtype=np.float64, count=size)
        keys[a:b] = [None] * (b - a)
        parts.append(_grow_batch(counts[a:b], flat[0::2], flat[1::2], gamma)[:3])
        a = b
    return tuple(np.concatenate(p) for p in zip(*parts))


def _section_measures(sec_off: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``fsum`` of each section's block lengths."""
    off, pieces = sec_off.tolist(), lengths.tolist()
    return np.array([math.fsum(pieces[a:b]) for a, b in zip(off, off[1:])], dtype=np.float64)


def cube_rows(cubes) -> np.ndarray:
    """The (n, 4) float array of open rectangles [x0, x1, y0, y1] that
    ``dilate_2d`` takes; ValueError unless every row is finite with x0 < x1
    and y0 < y1."""
    try:
        rows = np.asarray(cubes, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"cubes must be rows [x0, x1, y0, y1]: {exc}") from exc
    if not rows.size:
        return rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"cubes must be rows [x0, x1, y0, y1], got shape {rows.shape}")
    x0, x1, y0, y1 = rows.T
    bad = np.flatnonzero(~(np.isfinite(rows).all(axis=1) & (x0 < x1) & (y0 < y1)))
    if bad.size:
        raise ValueError(f"cube {bad[0]} is not a bounded open rectangle: {rows[bad[0]].tolist()}")
    return rows


def dilate_2d(
    cubes: np.ndarray | Sequence[Sequence[float]],
    gamma: float,
    *,
    allow_gamma_one: bool = False,
    block: tuple[int, int, int] | None = None,
) -> RectUnion:
    """Simultaneously dilate a pairwise disjoint family of open squares.

    ``cubes`` is an (n, 4) array-like of rows [x0, x1, y0, y1], the row
    layout of ``CompactSetModel.overlaps`` (see ``cube_rows``).  Steps:
    (1) reject overlapping inputs, the precondition of both toggle sweeps;
    (2) sweep the y-endpoints, toggling the x-endpoints of each square that
    enters or leaves, so the sorted boundary list is the merged union of the
    x-sections on every y-cell, and group the cells by that union; (3)
    dilate each distinct x-union once; (4) sweep the x-endpoints of those
    dilations, toggling the y-bounds of each group's cells where the group's
    dilation starts or ends, so the boundary list is the merged vertical
    union of every column, and number the distinct ones as they appear;
    (5) dilate the distinct vertical unions into the section pool.  Steps 3
    and 5 each hand all their unions to ``_grow_sweep`` at once.

    The result is deterministic, pairwise disjoint, and its measure equals
    (2*gamma + 1)**2 times the total input area up to float rounding.
    Rectangular (non-square) inputs are accepted; the identity holds for
    squares.  For N squares the cost is O(N log N) comparisons plus the
    total size of the distinct merged unions.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    rows = cube_rows(cubes)
    if not len(rows):
        return RectUnion.empty()
    hit = find_overlap(*rows.T)
    if hit is not None:
        raise OverlappingCubes(f"cubes {hit[0]} and {hit[1]} overlap")

    # 2. y-sweep; each x-union maps to the y-bounds of its cells, touching cells merged
    y_events: dict[float, list[float]] = {}
    for x0, x1, y0, y1 in rows.tolist():
        y_events.setdefault(y0, []).extend((x0, x1))
        y_events.setdefault(y1, []).extend((x0, x1))
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
    del y_events, ys, x_bounds

    # 3. horizontal dilation of the distinct x-unions.  The column sweep
    # reads only their runs, at the distinct ends xs of their dilations:
    # owner[a:b], between consecutive cuts a and b, lists the unions whose
    # dilation starts or ends at one of them
    keys, runs_of = list(groups), list(groups.values())
    del groups
    counts, los, his = _grow_sweep(keys, gamma)
    owner = np.repeat(np.arange(len(runs_of)), counts)
    ends = np.concatenate((los, his))
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    owner = np.concatenate((owner, owner))[order].tolist()
    cut = np.flatnonzero(np.diff(ends)) + 1
    xs = ends[np.concatenate(([0], cut))]
    cut = cut.tolist()
    del los, his, order, ends

    # 4. column sweep over the cells between consecutive ends, numbering the
    # distinct vertical unions; a cell whose union is empty is no column
    y_bounds: list[float] = []
    sections: dict[tuple[float, ...], int] = {}
    is_col = bytearray(len(cut))
    col_sec = array("q")
    for c, (a, b) in enumerate(zip([0] + cut, cut)):
        for u in owner[a:b]:
            _toggle(y_bounds, runs_of[u])
        if y_bounds:
            is_col[c] = 1
            col_sec.append(sections.setdefault(tuple(y_bounds), len(sections)))
    del runs_of, owner, cut
    is_col = np.frombuffer(is_col, dtype=bool)
    x_lo, x_hi = xs[:-1][is_col], xs[1:][is_col]
    col_sec = np.frombuffer(col_sec, dtype=np.int64).astype(np.intp)

    # 5. vertical dilation of the distinct sections, in numbering order
    keys = list(sections)
    del sections
    counts, y_lo, y_hi = _grow_sweep(keys, gamma)
    sec_off = np.concatenate(([0], np.cumsum(counts)))
    sec_measure = _section_measures(sec_off, y_hi - y_lo)
    return RectUnion(
        x_lo, x_hi, col_sec, sec_off, y_lo, y_hi, sec_measure, gamma=gamma, block=block
    )
