"""Simultaneous dilation of interval families and of square packings.

The 1-D operation enlarges every member of a pairwise disjoint family, in
left-to-right order, by exactly ``gamma`` times its own length of previously
unoccupied measure on each side, so the union of the enlarged family has
measure exactly (2*gamma + 1) times the input measure.

The 2-D operation sweeps the cells between consecutive distinct
y-endpoints of the squares.  A square toggles its two x-endpoints at the
cells where it starts and ends, and a value is present on a cell when an odd
number of its toggles fall at or before that cell.  The squares must be
pairwise disjoint, so the sections active on one y-cell are pairwise
disjoint and every value ends at most two of them; it is a boundary of their
merged union exactly when it ends one.  A cell's present values therefore
are that union, and each distinct union is dilated once.  A second sweep
over the columns between the dilated unions' distinct x-endpoints toggles
the y-bounds of the cells that enter or leave a column in the same way, and
each distinct vertical union is dilated once.  The output is a finite
disjoint rectangle union.

The sweeps are array passes (``_sweep_rows``).  Toggles of one value at one
cell that cancel in pairs are dropped, and the rest pair up into ranges of
cells over which the value is present.  Each cell's row length and Zobrist
hash (the XOR of its values' 64-bit tokens) follow from the ranges by
cumulative sums, so distinct rows are numbered in order of first appearance
without building any row.  The rows are then expanded a slab of cells at a
time, with one ``np.repeat`` over the ranges, and every row is compared
value by value with the first row of its number; if two rows share a key
but differ, the sweep is numbered again exactly.  For N squares the cost is
O(N log N) plus the total size of the cells' merged unions.

The squares come in as an (n, 4) array of rows [x0, x1, y0, y1].  Each sweep
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

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
    index s and 1-based cube index range).
    """

    __slots__ = (
        "x_lo",
        "x_hi",
        "col_sec",
        "sec_off",
        "y_lo",
        "y_hi",
        "sec_measure",
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


# -- the toggle sweeps ---------------------------------------------------------
#
# A sweep runs over cells: the y-cells between consecutive distinct y-ends,
# then the columns between consecutive distinct dilated x-ends.  Boundary
# values are toggled at the cells where they take effect, and a value is
# present on a cell when an odd number of its toggles fall at or before it.
# A cell's row is its present values in order; the sweep numbers the
# distinct nonempty rows.

# Presence values that ``_slabs`` expands at once (a cell whose row alone
# holds more forms a slab of its own), so a sweep's working arrays stay a few
# hundred kB whatever the family's size.
_SLAB_VALUES = 1 << 14


def _expand(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + sizes[i] - 1."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))


def _presence(cells: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ranges over which each toggled value is present, as arrays
    (value, on, off) sorted by value and then by cell: the value is present
    on the cells on <= c < off.

    Toggles of one value at one cell cancel in pairs, so a (value, cell)
    group toggles anything only when its count is odd.  Up to four toggles
    meet there: three when two squares leave and one enters at a shared
    x-end.  Every value is toggled an even number of times in all (a square
    or a dilated block toggles its ends where it starts and again where it
    ends), so the surviving toggles of each value alternate on, off from an
    even index of the whole sorted list."""
    order = np.lexsort((cells, values))
    cells, values = cells[order], values[order]
    del order
    head = np.ones(cells.size + 1, dtype=bool)
    head[1:-1] = (cells[1:] != cells[:-1]) | (values[1:] != values[:-1])
    start = np.flatnonzero(head)
    odd = start[:-1][np.diff(start) % 2 == 1]
    cells, values = cells[odd], values[odd]
    return values[0::2], cells[0::2], cells[1::2]


def _tokens(values: np.ndarray) -> np.ndarray:
    """A pseudo-random 64-bit token per value: the splitmix64 finaliser of
    its bits, with -0.0 read as 0.0.  A row's hash is the XOR of its values'
    tokens (Zobrist 1970)."""
    z = (values + 0.0).view(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _row_keys(
    v: np.ndarray, on: np.ndarray, off: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """The length and the hash of every cell's row, from the ranges alone:
    each changes at a cell by the values that turn on or off there."""
    length = np.bincount(on, minlength=n_cells + 1) - np.bincount(off, minlength=n_cells + 1)
    flip = np.zeros(n_cells + 1, dtype=np.uint64)
    tokens = _tokens(v)
    np.bitwise_xor.at(flip, on, tokens)
    np.bitwise_xor.at(flip, off, tokens)
    return np.cumsum(length[:n_cells]), np.bitwise_xor.accumulate(flip[:n_cells])


def _first_appearance(length: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the nonempty rows by their (hash, length) key in order of
    first appearance.  Returns every cell's number (-1 where its row is
    empty) and the first cell of every number."""
    live = np.flatnonzero(length)
    order = np.lexsort((length[live], hashes[live]))  # stable: equal keys stay in cell order
    h, n = hashes[live][order], length[live][order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (h[1:] != h[:-1]) | (n[1:] != n[:-1])
    first = live[order[new]]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    num = np.full(length.size, -1, dtype=np.intp)
    num[live[order]] = rank[np.cumsum(new) - 1]
    return num, np.sort(first)


def _slabs(v: np.ndarray, on: np.ndarray, off: np.ndarray, length: np.ndarray):
    """Every cell's row, one slab of consecutive cells at a time: yields the
    slab's first cell and end cell, the offsets of its rows within the slab
    and their values, each row sorted.  A slab holds at most
    ``_SLAB_VALUES`` values unless its one cell holds more.

    The ranges are expanded in order of their first cell, and those still
    present at a slab's end carry into the next, so each slab expands only
    its own cells: one ``np.repeat`` over the ranges, never over squares."""
    rank = np.cumsum(v[1:] != v[:-1])  # v is sorted
    rank = np.concatenate(([0], rank))
    by_on = np.argsort(on, kind="stable")
    v, on, off, rank = v[by_on], on[by_on], off[by_on], rank[by_on]
    span = int(rank.max()) + 1 if rank.size else 1
    total = np.cumsum(length)
    carry = np.zeros(0, dtype=np.intp)
    c0 = i0 = 0
    while c0 < length.size:
        done = int(total[c0 - 1]) if c0 else 0
        c1 = max(int(np.searchsorted(total, done + _SLAB_VALUES, "right")), c0 + 1)
        i1 = int(np.searchsorted(on, c1))
        act = np.concatenate((carry, np.arange(i0, i1)))
        lo = np.maximum(on[act], c0)
        size = np.minimum(off[act], c1) - lo
        key = (_expand(lo, size) - c0) * span + np.repeat(rank[act], size)
        vals = np.repeat(v[act], size)[np.argsort(key)]
        yield c0, c1, np.concatenate(([0], np.cumsum(length[c0:c1]))), vals
        carry = act[off[act] > c1]
        c0, i0 = c1, i1


class _Collision(Exception):
    """Two different rows share a (hash, length) key."""


def _hashed_rows(
    v: np.ndarray, on: np.ndarray, off: np.ndarray, length: np.ndarray, hashes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sweep_rows`` numbered by (hash, length) key, each row checked
    value by value against the first row of its number; _Collision when
    one differs."""
    num, first = _first_appearance(length, hashes)
    row_off = np.concatenate(([0], np.cumsum(length[first])))
    rows = np.empty(int(row_off[-1]))
    for c0, c1, slab_off, vals in _slabs(v, on, off, length):
        k, n = num[c0:c1], length[c0:c1]
        is_first = k >= 0
        is_first[is_first] = first[k[is_first]] == np.arange(c0, c1)[is_first]
        mine = np.repeat(is_first, n)
        new = k[is_first]
        if new.size:  # their numbers are consecutive, in cell order
            rows[row_off[new[0]] : row_off[new[-1] + 1]] = vals[mine]
        seen = np.flatnonzero(~mine)
        if seen.size:
            again = ~is_first & (n > 0)
            shift = np.repeat(row_off[k[again]] - slab_off[:-1][again], n[again])
            if not np.array_equal(vals[seen], rows[seen + shift]):
                raise _Collision
    return num, row_off, rows


def _exact_rows(
    v: np.ndarray, on: np.ndarray, off: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sweep_rows`` numbered through a dict of row tuples, for when two
    different rows share a key."""
    num = np.full(length.size, -1, dtype=np.intp)
    numbers: dict[tuple[float, ...], int] = {}
    rows = []
    for c0, _, slab_off, vals in _slabs(v, on, off, length):
        bounds, flat = slab_off.tolist(), vals.tolist()
        for c, (a, b) in enumerate(zip(bounds, bounds[1:]), c0):
            if a < b:
                num[c] = k = numbers.setdefault(tuple(flat[a:b]), len(numbers))
                if k == len(rows):
                    rows.append(vals[a:b])
    row_off = np.concatenate(([0], np.cumsum([r.size for r in rows], dtype=np.intp)))
    return num, row_off, np.concatenate(rows) if rows else np.zeros(0)


def _sweep_rows(
    cells: np.ndarray, values: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One toggle sweep: ``values[i]`` toggles at cell ``cells[i]`` (a cell
    index of ``n_cells`` ends a value after the last cell).  Returns every
    cell's row number (-1 where the row is empty), numbered in order of first
    appearance, and the distinct rows in that order as CSR: row r is
    ``rows[row_off[r]:row_off[r + 1]]``.

    Rows are numbered by key, the XOR hash of their values' tokens plus
    their length, both read off the toggles without expanding a row; the
    rows are then expanded a slab at a time and compared with the first row
    of their number value by value.  If two rows share a key but differ,
    they are numbered again exactly, through a dict of row tuples."""
    v, on, off = _presence(cells, values)
    del cells, values
    length, hashes = _row_keys(v, on, off, n_cells)
    try:
        return _hashed_rows(v, on, off, length, hashes)
    except _Collision:
        return _exact_rows(v, on, off, length)


def _grow_sweep(
    off: np.ndarray, bounds: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dilate every union of a sweep, union i given by its sorted boundary
    values ``bounds[off[i]:off[i + 1]]`` (lo, hi, lo, hi, ...), in batches
    of consecutive unions holding at most ``_BATCH_MEMBERS`` members.
    Returns ``_grow_batch``'s block counts and ends, in union order."""
    counts = np.diff(off) // 2
    ends = np.cumsum(counts)
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))]
    a = 0
    while a < counts.size:
        lo = int(ends[a] - counts[a])
        b = max(int(np.searchsorted(ends, lo + _BATCH_MEMBERS, "right")), a + 1)
        flat = bounds[off[a] : off[b]]
        parts.append(_grow_batch(counts[a:b], flat[0::2], flat[1::2], gamma)[:3])
        a = b
    return tuple(np.concatenate(p) for p in zip(*parts))


def _section_measures(sec_off: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``fsum`` of each section's block lengths.  The fsum of one float
    is that float (+0.0 for -0.0, hence the added zero), so a section of one
    block takes its length, and only longer sections call ``math.fsum``."""
    counts = np.diff(sec_off)
    out = np.zeros(len(counts))
    one = counts == 1
    out[one] = lengths[sec_off[:-1][one]] + 0.0
    many = np.flatnonzero(counts > 1).tolist()
    if many:
        off, pieces = sec_off.tolist(), lengths.tolist()
        out[many] = [math.fsum(pieces[off[i] : off[i + 1]]) for i in many]
    return out


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
    (2) sweep the y-cells between consecutive distinct y-ends: each square
    toggles its x-ends at the cells of its y0 and y1, so a cell's present
    x-values are the merged union of its x-sections, and the distinct
    x-unions are numbered, each with its y-runs, the maximal stretches of
    consecutive cells that carry its number; (3) dilate each distinct
    x-union once; (4) sweep the columns between consecutive distinct ends of
    those dilations: each dilated block toggles its x-union's run ends at
    the columns where it starts and ends, so a column's present y-values are
    its merged vertical union, and the distinct ones are numbered in column
    order; (5) dilate the distinct vertical unions into the section pool.
    Both sweeps are ``_sweep_rows``, and steps 3 and 5 each hand all their
    unions to ``_grow_sweep`` at once.

    The result is deterministic, pairwise disjoint, and its measure equals
    (2*gamma + 1)**2 times the total input area up to float rounding.
    Rectangular (non-square) inputs are accepted; the identity holds for
    squares.  For N squares the cost is O(N log N) plus the total size of
    the cells' merged unions, expanded a slab at a time.
    """
    gamma = _check_gamma(gamma, allow_gamma_one)
    rows = cube_rows(cubes)
    if not len(rows):
        return RectUnion.empty()
    hit = find_overlap(*rows.T)
    if hit is not None:
        raise OverlappingCubes(f"cubes {hit[0]} and {hit[1]} overlap")

    # 2. y-sweep: each square toggles x0 and x1 at the cells of y0 and y1
    x0, x1, y0, y1 = rows.T
    ys, at = np.unique(np.concatenate((y0, y1)), return_inverse=True)
    num, off, bounds = _sweep_rows(
        np.concatenate((at, at)), np.concatenate((x0, x0, x1, x1)), ys.size - 1
    )
    del at
    # the y-runs of x-union u: the maximal stretches of consecutive cells numbered u
    live = num >= 0
    starts = np.flatnonzero(live & (num != np.concatenate(([-1], num[:-1]))))
    stops = np.flatnonzero(live & (num != np.concatenate((num[1:], [-1])))) + 1
    owner = num[starts]
    order = np.argsort(owner, kind="stable")
    run_ends = np.column_stack((ys[starts], ys[stops]))[order].ravel()
    n_runs = np.bincount(owner, minlength=off.size - 1)
    del num, live, starts, stops, owner, order

    # 3. horizontal dilation of the distinct x-unions
    counts, los, his = _grow_sweep(off, bounds, gamma)
    del off, bounds

    # 4. column sweep: each dilated block of x-union u toggles u's run ends
    # at the columns where it starts and ends; a column whose union is empty
    # is no column
    xs, at = np.unique(np.concatenate((los, his)), return_inverse=True)
    owner = np.repeat(np.arange(counts.size), counts)
    owner = np.concatenate((owner, owner))
    size = 2 * n_runs[owner]
    first = 2 * (np.cumsum(n_runs) - n_runs)[owner]
    del los, his, owner, counts, n_runs
    num, sec_off, bounds = _sweep_rows(
        np.repeat(at, size), run_ends[_expand(first, size)], xs.size - 1
    )
    del at, size, first, run_ends
    is_col = num >= 0
    x_lo, x_hi, col_sec = xs[:-1][is_col], xs[1:][is_col], num[is_col]
    del num, is_col

    # 5. vertical dilation of the distinct sections, in numbering order
    counts, y_lo, y_hi = _grow_sweep(sec_off, bounds, gamma)
    del bounds
    sec_off = np.concatenate(([0], np.cumsum(counts)))
    sec_measure = _section_measures(sec_off, y_hi - y_lo)
    return RectUnion(x_lo, x_hi, col_sec, sec_off, y_lo, y_hi, sec_measure, block=block)
