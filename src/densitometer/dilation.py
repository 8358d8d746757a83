"""Simultaneous dilation of interval families and of square packings.

The 1-D operation enlarges every member of a pairwise disjoint family, in
left-to-right order, by exactly ``gamma`` times its own length of previously
unoccupied measure on each side, so the union of the enlarged family has
measure exactly (2*gamma + 1) times the input measure.

The 2-D operation sweeps the cells between consecutive distinct
y-endpoints of the squares.  A square toggles its two x-endpoints at the
cells where it starts and ends, and a value is present on a cell when an odd
number of its toggles fall at or before that cell.  When the squares are
pairwise disjoint, the sections active on one y-cell are pairwise disjoint
and every value ends at most two of them; it is a boundary of their merged
union exactly when it ends one.  A cell's present values therefore are that
union, and each cell's union is dilated.  The same sweep checks that the
squares are disjoint: on every y-cell, the widths of the active sections,
counted in ranks of the x-endpoints, add up to the width of the cell's row
exactly when no two of them overlap; this is the one general overlap check,
and it names an overlapping pair (see ``_y_sweep``).  A second
sweep over the columns between the dilated unions' distinct x-endpoints
toggles the y-bounds of each cell at the columns where its dilated blocks
start and end, and each column's vertical union is dilated.  The output is
a finite disjoint rectangle union.

The sweeps are array passes (``_sweep_rows``) over integer ranks: each value
is its index in the sorted table of distinct values, and each toggle one
int64 key, value rank * span + cell.  One sort of the keys groups the
toggles of one value at one cell; the groups that cancel in pairs are
dropped, and the rest pair up into ranges of cells over which the value is
present.  Each cell's row length follows from the ranges by one cumulative
sum, and the rows are expanded a slab of cells at a time, with one
``np.repeat`` over the ranges and one stable radix sort of 16-bit cell
offsets, and written through the table.  Ranks keep the order of the values
and the ties between them, so the rows are the float sweep's, bit for bit
(a zero of either sign reads as the table's one zero).
For N squares the cost is O(N log N) plus the total size of the cells'
merged unions.

The squares come in as an (n, 4) array of rows [x0, x1, y0, y1].  Each sweep
first collects its cells' unions and then dilates them together, in batches
of at most ``_BATCH_MEMBERS`` members: ``_grow_batch`` grows member s of
every union of a batch in one numpy step, with the float operations of the
one-union loop in the same order, so every union comes out the same bit for
bit.  ``dilate_1d`` is a batch of one union.  The result keeps flat arrays:
column x-bounds and each column's vertical section with its exact measure
(see ``RectUnion``).
"""

from __future__ import annotations

import math
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
# union longer than this forms a batch of its own.  The deposition layout's
# block-4 column sweep (5,729 unions, 108,353 members) dilated in 45-57 ms
# at 32,768 against 52-64 ms at 16,384 (six alternating rounds of ten on a
# 2-CPU x86-64 machine); 65,536 raised the scatter-l4 benchmark's peak
# resident set by about 1.7 MB.
_BATCH_MEMBERS = 32768


@np.errstate(over="ignore")  # an overflowing arm raises ValueError below
def _grow_batch(
    counts: Sequence[int] | np.ndarray, los: np.ndarray, his: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow a batch of unions at once, each left to right.

    Union u is the next ``counts[u]`` members (``los[i]``, ``his[i]``),
    sorted and pairwise disjoint.  Returns the number of blocks of every
    dilated union and their lower and upper ends, concatenated in union
    order.  An arm that leaves the float range raises ValueError, as the
    non-finite interval it would end does.

    Each union's occupied set is two sorted runs of closed blocks: the
    grown blocks (a stack whose top holds the last hull), merged across
    touching ends, and the waiting blocks, the members not yet reached.  A
    member lies in the top grown block or is the first waiting one, so no
    search is needed.  Its left arm sweeps down the grown blocks and its
    right arm up the waiting ones, each past exactly gamma times its length
    of unoccupied measure; the hull then replaces every block it meets.
    Sentinels at -inf below every union's grown blocks and at +inf above
    its waiting ones end both sweeps.  Members that touch (only
    ``dilate_1d`` passes them; a sweep's unions have none) are crossed by
    an arm at gap 0.0, which leaves its rest unchanged, and absorbed by the
    closed hull, so the one-union loop's merged waiting blocks give the
    same bits.

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
    # waiting blocks: the members, union after union, each union's followed by a +inf slot
    wlo = np.insert(los, start + counts, math.inf)
    whi = np.insert(his, start + counts, math.inf)

    rank = np.argsort(-counts, kind="stable")
    active = np.bincount(counts, minlength=1)[::-1].cumsum()[::-1][1:]  # unions with > s members
    start, base = start[rank], g_base[rank]
    top = base - 1
    w = base - 1  # a union's waiting slots start one below its grown ones

    for s, a in enumerate(active.tolist()):
        member = start[:a] + s
        lo, hi = los[member], his[member]
        t, wt = top[:a], w[:a]
        need = gamma * (hi - lo)
        top_hi = ghi[t]
        inside = lo <= top_hi
        j = t - inside
        k = wt + ~inside
        cur = np.where(inside, glo[t], lo)
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
        cur = np.where(inside, top_hi, hi)
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
        # the closed hull [left, right] absorbs grown blocks i..top and waiting
        # ones up to k; both ends are finite, so the -inf and +inf slots stop it
        i = j + 1
        meets = ghi[j] >= left
        while meets.any():
            i -= meets
            meets &= ghi[i - 1] >= left
        meets = wlo[k] <= right
        while meets.any():
            k += meets
            meets &= wlo[k] <= right
        first_lo = np.where(i <= t, glo[i], lo)
        last_hi = np.where(k > wt, whi[k - 1], top_hi)
        glo[i] = np.where(first_lo < left, first_lo, left)
        ghi[i] = np.where(last_hi > right, last_hi, right)
        top[:a], w[:a] = i, k

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
    return n_out, out_lo, ghi[kept]


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
    _, los, his = _grow_batch([len(members)], los, his, gamma)
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
    are sorted and pairwise disjoint.  Its vertical section is the one or
    more sorted, pairwise separated open y-intervals (``y_lo[i]``,
    ``y_hi[i]``) for ``sec_off[c] <= i < sec_off[c + 1]``, and
    ``sec_measure[c]`` is their exact ``fsum`` measure.  ``measure``,
    ``classify``, ``locate`` and ``len`` read these arrays; ``columns``
    builds interval objects on first use, one DisjointIntervalSet per
    column, and ``rects`` derives from it.
    """

    __slots__ = (
        "x_lo",
        "x_hi",
        "sec_off",
        "y_lo",
        "y_hi",
        "sec_measure",
        "_columns",
    )

    def __init__(
        self,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        sec_off: np.ndarray,
        y_lo: np.ndarray,
        y_hi: np.ndarray,
        sec_measure: np.ndarray,
    ):
        self.x_lo = np.asarray(x_lo, dtype=np.float64)
        self.x_hi = np.asarray(x_hi, dtype=np.float64)
        self.y_lo = np.asarray(y_lo, dtype=np.float64)
        self.y_hi = np.asarray(y_hi, dtype=np.float64)
        if not all(np.isfinite(a).all() for a in (self.x_lo, self.x_hi, self.y_lo, self.y_hi)):
            raise ValueError("rectangle union bounds must be finite")
        if np.any(self.x_hi[:-1] > self.x_lo[1:]):
            raise ValueError("columns must be sorted and x-disjoint")
        self.sec_off = np.asarray(sec_off, dtype=np.intp)
        if self.sec_off.size != self.x_lo.size + 1:
            raise ValueError("every column must have one section")
        if np.any(self.sec_off[1:] <= self.sec_off[:-1]):
            raise ValueError("every section must hold an interval")
        self.sec_measure = np.asarray(sec_measure, dtype=np.float64)
        self._columns: tuple[tuple[Interval, DisjointIntervalSet], ...] | None = None

    @classmethod
    def empty(cls) -> "RectUnion":
        return cls((), (), (0,), (), (), ())

    def __len__(self) -> int:
        return self.y_lo.size

    @property
    def columns(self) -> tuple[tuple[Interval, DisjointIntervalSet], ...]:
        if self._columns is None:
            off = self.sec_off.tolist()
            y_lo, y_hi = self.y_lo.tolist(), self.y_hi.tolist()
            self._columns = tuple(
                (
                    Interval(x0, x1),
                    DisjointIntervalSet(Interval(y_lo[i], y_hi[i]) for i in range(a, b)),
                )
                for x0, x1, a, b in zip(self.x_lo.tolist(), self.x_hi.tolist(), off, off[1:])
            )
        return self._columns

    @property
    def rects(self) -> tuple[Rectangle, ...]:
        return tuple(Rectangle(x_int, y_int) for x_int, ys in self.columns for y_int in ys)

    @property
    def measure(self) -> float:
        widths = self.x_hi - self.x_lo
        return math.fsum((widths * self.sec_measure).tolist())

    def _interval(self, c: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of the last interval of column c's section
        whose lower end is at or below y.

        A branch-free bisection of all points at once (Khuong and Morin
        2017): each point keeps the first index ``base`` of its open range of
        ``n`` intervals, and every step moves ``base`` up by half the range
        where the interval there starts at or below y, until no range holds
        more than one interval.  A section of k intervals takes ceil(log2 k)
        steps; the shelf sections hold one.  When no interval qualifies
        (also for NaN), the section's first one is returned, which starts
        above y: callers test the lower end.
        """
        base = self.sec_off[c]
        n = self.sec_off[c + 1] - base
        y_lo = self.y_lo
        for _ in range(int(n.max(initial=1) - 1).bit_length()):
            half = n >> 1
            probe = base + half
            base = np.where(y_lo[probe] <= y, probe, base)
            n -= half
        return y_lo[base], self.y_hi[base]

    def classify(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Location code of each point (x[i], y[i]): 0 outside the closed
        union, 1 on the boundary, 2 inside; the int8 form of ``locate``.

        A point is inside only strictly inside one column rectangle: a
        shared column edge or section end counts as boundary.  One search of
        the column x-starts gives the last column c starting at or left of
        x, and ``_interval`` the candidate y-interval of c's section; the
        point is in that closed rectangle when it lies within both bounds,
        inside when strictly so.  The column before c also holds it when x
        is both c's start and that column's end.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        code = np.zeros(x.shape, dtype=np.int8)
        if not self.x_lo.size:
            return code
        c = np.maximum(np.searchsorted(self.x_lo, x, "right") - 1, 0)
        xl, xh = self.x_lo[c], self.x_hi[c]
        yl, yh = self._interval(c, y)
        closed = (xl <= x) & (x <= xh) & (yl <= y) & (y <= yh)
        code += closed
        code += closed & (xl < x) & (x < xh) & (yl < y) & (y < yh)
        edge = np.flatnonzero((x == xl) & (c > 0))
        if edge.size:
            p, ye = c[edge] - 1, y[edge]
            yl, yh = self._interval(p, ye)
            code[edge] |= (self.x_hi[p] == x[edge]) & (yl <= ye) & (ye <= yh)
        return code

    def locate(self, point: tuple[float, float]) -> Location:
        return LOCATIONS[self.classify([point[0]], [point[1]])[0]]


# Rows per step of ``_shelf_disjoint``: its temporaries are a few arrays of
# this many entries, 512 kB per float array, whatever the family's size.
_SHELF_ROWS = 1 << 16


def _shelf_disjoint(rows: np.ndarray) -> bool:
    """Whether the rows [x0, x1, y0, y1] are certified disjoint as shelves.

    The certificate: every row has x0 < x1 and y0 < y1; in index order the
    rows form runs of equal y0 (shelves); within a run x1[i] <= x0[i + 1];
    and each run's top, its largest y1, is at most the next run's y0.  Then
    a run's rows are x-disjoint, and the runs' open y-ranges (y0, top)
    follow one another upward, so any two rows are disjoint.  False refutes
    nothing: it only means the certificate does not apply (NaN fails every
    comparison).  The rows go ``_SHELF_ROWS`` at a time, carrying the top of
    the run left open at a step's end.
    """
    n = len(rows)
    top = -math.inf
    for a in range(0, n, _SHELF_ROWS):
        b = min(n, a + _SHELF_ROWS)
        xl, xh, yl, yh = rows[a:b].T
        if not ((xl < xh).all() and (yl < yh).all()):
            return False
        # the pairs (i, i + 1) that start in this step
        next_xl, next_yl = rows[a + 1 : b + 1, 0], rows[a + 1 : b + 1, 2]
        m = len(next_yl)
        same = yl[:m] == next_yl
        if not (xh[:m][same] <= next_xl[same]).all():
            return False
        # run k of this step ends at ends[k] unless it is the last and open
        ends = np.flatnonzero(~same)
        tops = np.maximum.reduceat(yh, np.concatenate(([0], ends[ends < b - a - 1] + 1)))
        tops[0] = max(tops[0], top)
        if not (tops[: ends.size] <= next_yl[ends]).all():
            return False
        top = tops[-1] if ends.size < tops.size else -math.inf
    return True


def find_overlap(rows: np.ndarray | Sequence[Sequence[float]]) -> tuple[int, int] | None:
    """An index pair i < j of rows [x0, x1, y0, y1], open rectangles, whose
    interiors meet, else None.

    Rows that pass the shelf certificate (``_shelf_disjoint``), as every
    ``build_packing`` layout does, are disjoint without a sweep.  Of any
    others, rows without interior (not x0 < x1 and y0 < y1, also for NaN)
    meet nothing and are skipped, and ``_y_sweep`` checks the rest.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    if _shelf_disjoint(rows):
        return None
    x0, x1, y0, y1 = rows.T
    ids = np.flatnonzero((x0 < x1) & (y0 < y1))
    pair = _y_sweep(rows[ids], bounds=False)[0] if ids.size else None
    return None if pair is None else (int(ids[pair[0]]), int(ids[pair[1]]))


# -- the toggle sweeps ---------------------------------------------------------
#
# A sweep runs over cells: the y-cells between consecutive distinct y-ends,
# then the columns between consecutive distinct dilated x-ends.  Boundary
# values are toggled at the cells where they take effect, and a value is
# present on a cell when an odd number of its toggles fall at or before it.
# A cell's row is its present values in order.  The sweeps work on ranks:
# value v is entry v of a sorted table of distinct values, so ranks keep the
# order of the values and the ties between them, and a toggle is the one
# integer key v * span + cell, span being one more than the number of cells.

# Presence values that ``_slabs`` expands at once (a cell whose row alone
# holds more forms a slab of its own), so a sweep's working arrays stay a few
# hundred kB whatever the family's size.
_SLAB_VALUES = 1 << 14
# Cells per slab at most, so that a slab's cell offsets fit in 16 bits, which
# numpy's stable sort orders by radix sort.  No two adjacent cells are empty
# (the end between them would start or end a square or block on one of
# them), so ``_SLAB_VALUES`` alone keeps a slab well below this; the cap
# makes the fit hold whatever that limit is.
_SLAB_CELLS = 1 << 16


def _expand(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + sizes[i] - 1."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))


def _presence(keys: np.ndarray, span: int) -> tuple[np.ndarray, ...]:
    """The ranges over which each toggled value is present, as arrays
    (value, on, off) sorted by value and then by cell: the value is present
    on the cells on <= c < off.  ``keys`` holds a toggle's value * span +
    cell, and is sorted in place.

    Toggles of one value at one cell cancel in pairs, so a (value, cell)
    group toggles anything only when its count is odd: three toggles meet
    there when two squares leave and one enters at a shared x-end, and two
    when adjacent y-cells hold the same union and so toggle their shared
    y-end at the same columns.  Every value is toggled an even number of
    times in all (a square or a dilated block toggles its ends where it
    starts and again where it ends), so the surviving toggles of each value
    alternate on, off from an even index of the whole sorted list."""
    keys.sort()
    head = np.ones(keys.size + 1, dtype=bool)
    head[1:-1] = keys[1:] != keys[:-1]
    start = np.flatnonzero(head)
    del head
    keys = keys[start[:-1][np.diff(start) % 2 == 1]]
    del start
    value, on = np.divmod(keys[0::2], span)
    return value, on, keys[1::2] % span


def _slabs(v: np.ndarray, on: np.ndarray, off: np.ndarray, length: np.ndarray):
    """Every cell's row, in cell order, one slab of consecutive cells at a
    time: yields the slab's end cell and the ranks of its rows, each row
    sorted.  A slab holds at most ``_SLAB_CELLS`` cells, and at most
    ``_SLAB_VALUES`` values unless its one cell holds more.

    The ranges are expanded in order of their first cell, and those still
    present at a slab's end carry into the next, so each slab expands only
    its own cells: one ``np.repeat`` over the ranges, never over squares.
    A slab's ranges are taken in value order (their order in v), and the
    ranges of one value never share a cell, so a stable radix sort of the
    expanded values by their cell offsets sorts every row."""
    by_on = np.argsort(on, kind="stable")
    total = np.cumsum(length)
    carry = np.zeros(0, dtype=np.intp)
    c0 = i0 = 0
    while c0 < length.size:
        done = int(total[c0 - 1]) if c0 else 0
        c1 = max(int(np.searchsorted(total, done + _SLAB_VALUES, "right")), c0 + 1)
        c1 = min(c1, c0 + _SLAB_CELLS)
        i1 = int(np.searchsorted(on, c1, sorter=by_on))
        act = np.sort(np.concatenate((carry, by_on[i0:i1])))
        lo = np.maximum(on[act], c0)
        size = np.minimum(off[act], c1) - lo
        offset = _expand(lo - c0, size).astype(np.uint16)
        yield c1, np.repeat(v[act], size)[np.argsort(offset, kind="stable")]
        carry = act[off[act] > c1]
        c0, i0 = c1, i1


def _sweep_rows(
    v: np.ndarray,
    on: np.ndarray,
    off: np.ndarray,
    table: np.ndarray | None,
    n_cells: int,
    *,
    widths: bool,
) -> tuple[np.ndarray | None, ...]:
    """One toggle sweep over ``n_cells`` cells, from ``_presence``'s ranges
    of value ranks: rank v stands for ``table[v]``.  Returns the cells whose
    row is not empty, in order, and their rows of values as CSR (the row of
    cell ``live[r]`` is ``rows[row_off[r]:row_off[r + 1]]``), or three Nones
    when ``table`` is None; and, when ``widths`` is set, every cell's width,
    the sum of v1 - v0 over its row's rank pairs (v0, v1), else None.  So
    each caller gets only what it reads: the overlap check the widths, the
    column sweep the rows.

    A row's length changes at a cell by the values that turn on or off
    there, so the lengths follow from the ranges by one cumulative sum.  The
    rows are then expanded a slab at a time, and each slab's ranks are
    written through the table at once, so the ranks of all rows are never
    held beside their values."""
    length = np.bincount(on, minlength=n_cells + 1)
    length -= np.bincount(off, minlength=n_cells + 1)
    length = np.cumsum(length[:n_cells])
    live = row_off = rows = width = None
    if table is not None:
        live = np.flatnonzero(length)
        row_off = np.concatenate(([0], np.cumsum(length[live])))
        rows = np.empty(int(row_off[-1]))
    if widths:
        width = np.empty(n_cells, dtype=np.int64)
    at = c0 = 0
    for c1, ranks in _slabs(v, on, off, length):
        if table is not None:
            np.take(table, ranks, out=rows[at : at + ranks.size])
            at += ranks.size
        if widths:
            # every row holds whole pairs, so a slab starts at an even index
            pairs = np.concatenate(([0], np.cumsum(ranks[1::2] - ranks[0::2])))
            width[c0:c1] = np.diff(pairs[np.cumsum(length[c0:c1] // 2)], prepend=0)
        c0 = c1
    return live, row_off, rows, width


def _y_sweep(rows: np.ndarray, *, bounds: bool = True) -> tuple:
    """Step 1 of ``dilate_2d`` on rows [x0, x1, y0, y1] with x0 < x1 and
    y0 < y1, which also checks that they are pairwise disjoint.  Returns an
    overlapping pair i < j or None, the table ``ys`` of distinct y-ends,
    and ``_sweep_rows``'s live y-cells with their rows of x-ends as CSR;
    without ``bounds`` (``find_overlap``, which reads only the pair) the
    rows of x-ends are not written and those three are None.

    The check compares two integer sums on every y-cell: the widths r1 - r0
    of the rows active there, in ranks of the x-ends (a difference array
    over the rows' first and last cells), and the width of the cell's row.
    A unit [k, k + 1] of ranks lies between a pair of the row exactly when
    an odd number of the row's ranks are at or below k.  The row holds the
    ranks toggled an odd number of times, so that number has the parity of
    all the cell's toggles at or below k: two for each row that ends at or
    below k, one for each row that covers the unit.  So the row's width
    counts the units covered an odd number of times, and equals the sum
    exactly when no unit is covered twice.  Two open rectangles meet
    exactly when their y-ranges share a cell (they meet in an open interval
    between y-ends, which holds one) and their rank intervals share a unit
    (ranks keep the order and the ties of the x-ends, so comparing values
    compares ranks).  So the sums differ on some cell exactly when two rows
    overlap.

    The pair is named on the lowest cell whose sums differ: of the rows
    active there, ordered by (x0, index), the first row k + 1 that starts
    before row k ends, with row k.  Such a pair exists, or the rows' rank
    intervals would follow one another and cover no unit twice (so row k
    also ends last of rows 0..k); and x0[k] <= x0[k + 1] < x1[k], with
    x0[k + 1] < x1[k + 1], so the unit just right of x0[k + 1] is in both.
    """
    n = len(rows)
    x0, x1, y0, y1 = rows.T
    ys, at = np.unique(np.concatenate((y0, y1)), return_inverse=True)
    xs, rx = np.unique(np.concatenate((x0, x1)), return_inverse=True)
    extent = rx[n:] - rx[:n]
    active = np.zeros(ys.size, dtype=np.int64)
    np.add.at(active, at[:n], extent)
    np.subtract.at(active, at[n:], extent)
    np.cumsum(active, out=active)
    keys = rx.reshape(2, 1, n) * ys.size + at.reshape(1, 2, n)
    del at, rx, extent
    ranges = _presence(keys.reshape(-1), ys.size)
    del keys
    cell, off, ends, width = _sweep_rows(*ranges, xs if bounds else None, ys.size - 1, widths=True)
    del ranges
    bad = np.flatnonzero(width != active[:-1])
    if not bad.size:
        return None, ys, cell, off, ends
    c = int(bad[0])
    on = np.flatnonzero((y0 <= ys[c]) & (y1 >= ys[c + 1]))
    on = on[np.argsort(x0[on], kind="stable")]
    k = int(np.flatnonzero(x0[on[1:]] < x1[on[:-1]])[0])
    return tuple(sorted((int(on[k]), int(on[k + 1])))), ys, cell, off, ends


def _grow_sweep(
    off: np.ndarray, bounds: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dilate every union of a sweep, union i given by its sorted boundary
    values ``bounds[off[i]:off[i + 1]]`` (lo, hi, lo, hi, ...), in batches
    of consecutive unions holding at most ``_BATCH_MEMBERS`` members.
    Returns ``_grow_batch``'s block counts and ends, in union order, each
    batch's appended in place (by ``realloc``), so they are held once."""
    counts = np.diff(off) // 2
    ends = np.cumsum(counts)
    out = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))
    a = 0
    while a < counts.size:
        lo = int(ends[a] - counts[a])
        b = max(int(np.searchsorted(ends, lo + _BATCH_MEMBERS, "right")), a + 1)
        flat = bounds[off[a] : off[b]]
        for held, part in zip(out, _grow_batch(counts[a:b], flat[0::2], flat[1::2], gamma)):
            at = held.size
            held.resize(at + part.size, refcheck=False)  # no view of it exists
            held[at:] = part
        del part
        a = b
    return out


def _row_sums(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The ``math.fsum`` of each of n rows, bit for bit, from (row, value)
    pairs in any order.  The fsum of at most two floats is their float sum
    from +0.0 (so -0.0 alone reads +0.0), which ``np.bincount`` forms, and
    only rows of more values call ``math.fsum``, whose correctly rounded
    sum depends neither on the order of its terms nor on zero terms."""
    # with no values bincount counts in integers
    sums = np.bincount(rows, values, n).astype(np.float64, copy=False)
    counts = np.bincount(rows, minlength=n)
    many = counts > 2
    if many.any():
        chosen = np.flatnonzero(many[rows])
        flat = values[chosen[np.argsort(rows[chosen], kind="stable")]].tolist()
        ends = np.cumsum(counts[many]).tolist()
        sums[many] = [math.fsum(flat[a:b]) for a, b in zip([0, *ends], ends)]
    return sums


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
    # (s, first cube, last cube): unused here, read from the call by bench/tracing.py
    block: tuple[int, int, int] | None = None,
) -> RectUnion:
    """Simultaneously dilate a pairwise disjoint family of open squares.

    ``cubes`` is an (n, 4) array-like of rows [x0, x1, y0, y1], the row
    layout of ``CompactSetModel.overlaps`` (see ``cube_rows``).  Steps:
    (1) sweep the y-cells between consecutive distinct y-ends: each square
    toggles the ranks of its x-ends at the cells of its y0 and y1, so a
    cell's present ranks bound the merged union of its x-sections, provided
    the squares are pairwise disjoint, which this step checks
    (``_y_sweep``) before anything grows; (2) dilate each live cell's
    x-union; (3) sweep the columns between consecutive distinct ends of
    those dilations: each dilated block of y-cell c toggles the ranks c and
    c + 1 of the cell's y-ends at the columns where it starts and ends, so
    a column's present ranks bound its merged vertical union (two adjacent
    cells with the same union toggle their shared end twice at the same
    columns, which cancels); (4) dilate each column's vertical union into
    its section.  Both sweeps are ``_sweep_rows``, and steps 2 and 4 each
    hand all their unions to ``_grow_sweep`` at once.

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

    # 1. y-sweep, which checks that the squares are disjoint
    pair, ys, cell, off, bounds = _y_sweep(rows)
    if pair is not None:
        raise OverlappingCubes("cubes {} and {} overlap".format(*pair))

    # 2. horizontal dilation of every live y-cell's x-union
    counts, los, his = _grow_sweep(off, bounds, gamma)
    del off, bounds

    # 3. column sweep: each dilated block of y-cell c toggles the ranks c
    # and c + 1 of the cell's y-ends at the columns where it starts and
    # ends; a column whose union is empty is no column
    xs, at = np.unique(np.concatenate((los, his)), return_inverse=True)
    del los, his
    keys = np.repeat(cell, counts) * xs.size + at.reshape(2, -1)
    del at, cell
    ranges = _presence(np.concatenate((keys, keys + xs.size), axis=None), xs.size)
    del keys
    col, sec_off, bounds, _ = _sweep_rows(*ranges, ys, xs.size - 1, widths=False)
    del ranges
    x_lo, x_hi = xs[col], xs[col + 1]
    del xs, ys, col

    # 4. vertical dilation of every column's section
    counts, y_lo, y_hi = _grow_sweep(sec_off, bounds, gamma)
    del bounds
    sec_off = np.concatenate(([0], np.cumsum(counts)))
    sec_measure = _row_sums(np.repeat(np.arange(len(counts)), counts), y_hi - y_lo, len(counts))
    return RectUnion(x_lo, x_hi, sec_off, y_lo, y_hi, sec_measure)
