"""Independent reference implementations used to cross-check the library.

The 1D dilation oracle re-runs the sweep construction in exact rational
arithmetic; the 2D oracle brackets a rectangle-union area by counting grid
cells.  Both avoid the library's float sweep and column bookkeeping.  The
cube-query oracles are the unblocked per-query overlap arithmetic that the
set model's one blocked kernel replaced; the kernel must agree with them
exactly, except the scan's ratio kernel, whose exactly rounded overlap sums
may differ from the dense pairwise sum by that sum's rounding error.
``point_ratios`` is that kernel as it was before the cube tree, with its
per-point candidate pass ``near_cubes``, its per-axis groups
``rect_ratios`` and its reduction ``overlap_totals``; the tree's totals
must equal it bit for bit.
``dilate_2d_labels`` is the label-based square dilation that the toggle
sweeps of ``dilate_2d`` replaced, and ``dilate_2d_objects`` the toggle
sweeps over ``Rectangle`` inputs and per-interval objects that the array
layout replaced; ``grow_ref`` is their growth loop, a sorted occupied set
searched by bisection for every arm, and ``_grow`` the one-union loop that
followed it, before the batched lockstep grower.  Columns, rectangle counts
and measures must be equal, and both growth loops' output equal bit for bit.
``dilate_2d_toggles`` is ``dilate_2d`` with the sweeps over Python lists and
dicts that its array sweeps replaced; all seven ``RectUnion`` arrays must be
equal byte for byte.
``sample_points_ref`` is the sampler with one cover lookup per drawn point,
which the batch cover test replaced, and the dense ``in_cubes_ref`` in place
of the indexed cube test, and ``is_exceptional_ref`` the
per-point classifier that explicit scan points went through before they
shared the sampler's batch test; both look points up in ``ColumnUnion``, the
object-based union that ``RectUnion.classify`` must agree with, and test the
box themselves, so neither runs the location code it checks.
``_point_gaps`` is the per-point cube pass that each scannable point went
through, once in the scan and again in the separation check, before the
scan plan made one regime pass over all points; ``regimes_ref`` gives each
point's regimes from it, and the plan's regimes must equal them.
``scan_points_ref`` is the scan's per-run pass before family boxes: every
rectangle of a run goes to the cube tree (``plain_ratios``, the ratio pass
without family boxes), with regimes from ``regimes_ref``;
``scan_density_bound`` must give the same rows with it.
``two_tree_totals`` and ``two_tree_ratios`` are the ratio pass before the
large cubes were measured against family boxes: the large cubes had a tree
of their own, one cube to a leaf (``big_tree``), that every busy rectangle
descended beside the model's tree; ``total_overlaps`` and ``scan._ratios``
must equal them bit for bit.
``separation_tallies_ref`` is the separation check drawing and testing the
rectangles of every applicable pair, the scan's own (each point's one draw
over the t grid), each against the prefix cubes within the rectangles'
Chebyshev reach of the point (``_reach`` and ``_separation_hits``), where
the library tests the box point +- t of each pair in one pass and draws
only the pairs whose box meets a prefix cube; ``separation_check`` must
count the same.
``overlap_area_ref`` is the pairwise rectangle overlap that the lemma test
and the disjoint random cube families use, and ``cube``/``cubes`` give a
model's cubes as ``Rectangle`` objects.  ``power_tail_bracket_ref``
is the per-index power-tail bracket that the shared tail table replaced; the
table must equal it bit for bit.  ``build_packing_ref`` is the shelf packing
as a scalar loop with four sequence calls per cube, and
``sides_check_ref`` the per-cube side check of ``CompactSetModel``, which
one array pass over the sequence replaced; packings, areas, errors and
their messages must be equal, floats bit for bit.
"""

import functools
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from densitometer import setmodel
from densitometer.dilation import (
    Rectangle,
    RectUnion,
    _check_gamma,
    _grow_batch,
    _section_measures,
    cube_rows,
    find_overlap,
)
from densitometer.errors import OutOfRange, OverlappingCubes, PackingInfeasible
from densitometer.interval1d import DisjointIntervalSet, Interval, Location, atoms
from densitometer.logdomain import LogBracket, log_add, log_sub, log_sum
from densitometer.scan import PointSample, _draw_rects, _substreams


def power_tail_bracket_ref(c: float, p: float, n: int) -> LogBracket:
    """Certified bracket for sum_{m >= n} c * m**(-p), computed for n alone.

    Explicit partial sum up to a cutoff M, then an Euler-Maclaurin closure
    at M whose remainder after the B_2 term is bounded in modulus by the
    first omitted term p(p+1)(p+2)/720 * M**(-p-3); the bracket is the
    midpoint estimate plus/minus that certified remainder.
    """
    log_c = math.log(c)
    # Cutoff chosen so the certified remainder is ~1e-16 relative.
    target = max(n, int(math.ceil(1500.0 * max(p, 1.0))))
    for _ in range(8):
        m_cut = target
        log_terms = [-p * math.log(m) for m in range(n, m_cut)]
        log_integral = (1.0 - p) * math.log(m_cut) - math.log(p - 1.0)
        log_half = -p * math.log(m_cut) - math.log(2.0)
        log_b2 = math.log(p / 12.0) - (p + 1.0) * math.log(m_cut)
        log_mid = log_sum(log_terms + [log_integral, log_half, log_b2])
        log_rem = math.log(p * (p + 1.0) * (p + 2.0) / 720.0) - (p + 3.0) * math.log(m_cut)
        if log_rem <= log_mid + math.log(5e-16):
            return LogBracket(log_sub(log_mid, log_rem) + log_c, log_add(log_mid, log_rem) + log_c)
        target *= 4
    return LogBracket(log_sub(log_mid, log_rem) + log_c, log_add(log_mid, log_rem) + log_c)


def build_packing_ref(seq, trunc: int, outer: Rectangle):
    """(xs, ys, sides, w2, total) of the shelf packing of cubes 1..trunc,
    one cube at a time with the scalar ``seq.w`` and ``seq.w2``; raises
    PackingInfeasible as ``build_packing`` does."""
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
    w2 = np.array([seq.w2(n) for n in range(1, trunc + 1)])
    return xs, ys, sides, w2, total


def sides_check_ref(seq, sides) -> None:
    """ValueError at the first cube whose side is not within 1e-12 of its
    weight, as ``CompactSetModel`` raises it."""
    for n in range(1, len(sides) + 1):
        w = seq.w(n)
        if not abs(sides[n - 1] - w) <= 1e-12 * w:  # NaN fails too
            raise ValueError(f"cube {n} side {sides[n - 1]} differs from weight {w}")


def _merge(segments):
    out = []
    for lo, hi in sorted(segments):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _sweep_right(occupied, start, need):
    pos = start
    remaining = need
    for lo, hi in occupied:
        if hi <= start:
            continue
        if lo > pos:
            gap = lo - pos
            if gap >= remaining:
                return pos + remaining
            remaining -= gap
        pos = max(pos, hi)
    return pos + remaining


def _sweep_left(occupied, start, need):
    pos = start
    remaining = need
    for lo, hi in reversed(occupied):
        if lo >= start:
            continue
        if hi < pos:
            gap = pos - hi
            if gap >= remaining:
                return pos - remaining
            remaining -= gap
        pos = min(pos, lo)
    return pos - remaining


def dilate_1d_exact(pairs, gamma):
    """Simultaneous dilation over Fraction endpoints, members left to right;
    returns merged (lo, hi) Fraction pairs of the dilated union."""
    pairs = sorted(((Fraction(a), Fraction(b)) for a, b in pairs), key=lambda p: p[0])
    gamma = Fraction(gamma)
    occupied = _merge(list(pairs))
    hulls = []
    for lo, hi in pairs:
        need = gamma * (hi - lo)
        left = _sweep_left(occupied, lo, need)
        right = _sweep_right(occupied, hi, need)
        occupied = _merge(occupied + [(left, right)])
        hulls.append((left, right))
    return _merge(hulls)


def measure_exact(pairs) -> Fraction:
    return sum((hi - lo for lo, hi in pairs), Fraction(0))


def raster_area_bracket(rects, cells=2048):
    """[lower, upper] area bracket for a union of (x0, x1, y0, y1) rectangles
    by counting grid cells over the bounding box: cells fully inside a single
    rectangle versus cells meeting any rectangle."""
    x0 = min(r[0] for r in rects)
    x1 = max(r[1] for r in rects)
    y0 = min(r[2] for r in rects)
    y1 = max(r[3] for r in rects)
    hx = (x1 - x0) / cells
    hy = (y1 - y0) / cells
    inner = np.zeros((cells, cells), dtype=bool)
    outer = np.zeros((cells, cells), dtype=bool)
    for a, b, c, d in rects:
        oi0 = max(0, int(np.floor((a - x0) / hx)))
        oi1 = min(cells, int(np.ceil((b - x0) / hx)))
        oj0 = max(0, int(np.floor((c - y0) / hy)))
        oj1 = min(cells, int(np.ceil((d - y0) / hy)))
        outer[oi0:oi1, oj0:oj1] = True
        ii0 = max(0, int(np.ceil((a - x0) / hx)))
        ii1 = min(cells, int(np.floor((b - x0) / hx)))
        ij0 = max(0, int(np.ceil((c - y0) / hy)))
        ij1 = min(cells, int(np.floor((d - y0) / hy)))
        if ii0 < ii1 and ij0 < ij1:
            inner[ii0:ii1, ij0:ij1] = True
    cell = hx * hy
    return float(inner.sum()) * cell, float(outer.sum()) * cell


# -- cube queries: one dense (rectangles x cubes) array per query ------------------

def density_overlap_ref(model, x_lo, x_hi, y_lo, y_hi):
    """Exact total overlap of one rectangle with all cubes."""
    wx = np.minimum(x_hi, model.xs + model.sides) - np.maximum(x_lo, model.xs)
    wy = np.minimum(y_hi, model.ys + model.sides) - np.maximum(y_lo, model.ys)
    pieces = np.maximum(wx, 0.0) * np.maximum(wy, 0.0)
    return math.fsum(pieces[pieces > 0.0].tolist())


def rect_ratios_ref(model, rects, candidates):
    """Density of each (x0, x1, y0, y1) row against the candidate cubes, with
    numpy's pairwise row sum: the scan's ratio kernel before its sums were
    exactly rounded."""
    x0, x1, y0, y1 = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    area = (x1 - x0) * (y1 - y0)
    if candidates.size == 0:
        return np.ones(len(rects))
    cx0 = model.xs[candidates]
    cy0 = model.ys[candidates]
    cw = model.sides[candidates]
    wx = np.minimum(x1[:, None], (cx0 + cw)[None, :]) - np.maximum(x0[:, None], cx0[None, :])
    wy = np.minimum(y1[:, None], (cy0 + cw)[None, :]) - np.maximum(y0[:, None], cy0[None, :])
    overlap = (np.maximum(wx, 0.0) * np.maximum(wy, 0.0)).sum(axis=1)
    return np.clip(1.0 - overlap / area, 0.0, 1.0)


def separation_hits_ref(model, rects, prefix):
    """Rows whose interior meets the interior of one of cubes 1..prefix."""
    cx0 = model.xs[:prefix]
    cy0 = model.ys[:prefix]
    cw = model.sides[:prefix]
    x0, x1, y0, y1 = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    wx = np.minimum(x1[:, None], (cx0 + cw)[None, :]) - np.maximum(x0[:, None], cx0[None, :])
    wy = np.minimum(y1[:, None], (cy0 + cw)[None, :]) - np.maximum(y0[:, None], cy0[None, :])
    return ((wx > 0.0) & (wy > 0.0)).any(axis=1)


def in_cubes_ref(model, pts):
    """Points of an (n, 2) array in or on some cube."""
    px, py = pts[:, 0], pts[:, 1]
    xs, ys, ws = model.xs, model.ys, model.sides
    return (
        (xs[None, :] <= px[:, None])
        & (px[:, None] <= (xs + ws)[None, :])
        & (ys[None, :] <= py[:, None])
        & (py[:, None] <= (ys + ws)[None, :])
    ).any(axis=1)


def overlapping_cubes_ref(model, rect):
    """Indexes of cubes whose interior meets the interior of the rectangle."""
    x0, x1, y0, y1 = rect
    xs, ys, ws = model.xs, model.ys, model.sides
    return np.flatnonzero((xs < x1) & (x0 < xs + ws) & (ys < y1) & (y0 < ys + ws))


def closed_meet_ref(model, box):
    """Indexes of cubes whose closed square meets the closed box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    xs, ys, ws = model.xs, model.ys, model.sides
    return np.flatnonzero((xs <= x1) & (x0 <= xs + ws) & (ys <= y1) & (y0 <= ys + ws))


def overlap_totals(wx, wy):
    """Overlap reduction of ``CompactSetModel.overlaps``: each rectangle's
    total overlap area, exactly rounded, as the scan's ratio kernel summed
    its rows before the cube tree.

    The areas ``max(wx, 0) * max(wy, 0)`` are formed in place in ``wx``.
    A row with at most two positive areas rounds once, so numpy's sum is
    already exact there; the positive areas of the other rows go row by row
    through math.fsum.
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


def near_cubes(model, point, reach):
    """Ascending indexes of the cubes within Chebyshev distance ``reach`` of
    the point, with their x-gaps and y-gaps from it: the scan's per-point
    candidate pass before the cube tree.

    The x-gap is max(-wx, 0) of the point as a rectangle; the y-gap
    likewise.  A rectangle holding the point whose x-extent from it is ex
    overlaps only cubes with x-gap <= ex, because rounding is monotone, and
    the same holds in y.
    """
    x, y = point
    cand = closed_meet_ref(model, (x - reach, x + reach, y - reach, y + reach))
    if not cand.size:
        return cand, np.empty(0), np.empty(0)
    gx, gy = model.overlaps(
        [[x, x, y, y]], lambda wx, wy: np.maximum(np.stack([-wx, -wy], axis=1), 0.0), cand
    )[0]
    keep = np.flatnonzero(np.maximum(gx, gy) <= reach)
    return cand[keep], gx[keep], gy[keep]


def rect_ratios(model, rects, near, gaps, extents):
    """The scan's ratio kernel before the cube tree: the density of each
    rectangle, where ``gaps`` holds the x-gaps and y-gaps of the cubes
    ``near`` as a (2, len(near)) array, ``extents`` the rectangles'
    x-extents and y-extents as a (2, n) array, and row i overlaps no cube
    outside ``near[gaps[a] <= extents[a, i]]`` for either axis a.

    Each row takes the axis whose set is smaller; rows are grouped by that
    axis and the bit length of that count, and each group makes one kernel
    call on the cubes within the group's largest extent on its axis.
    Overlap totals are exactly rounded, so a row's ratio does not depend on
    its group.
    """
    x0, x1, y0, y1 = rects.T
    counts = np.stack([np.searchsorted(np.sort(g), e, "right") for g, e in zip(gaps, extents)])
    groups = 2 * np.frexp(counts.min(axis=0))[1] + (counts[1] < counts[0])
    overlap = np.zeros(len(rects))
    for key in sorted(set(groups.tolist()) - {0, 1}):
        a, rows = key % 2, np.flatnonzero(groups == key)
        cubes = near[gaps[a] <= extents[a, rows].max()]
        overlap[rows] = model.overlaps(rects[rows], overlap_totals, cubes)
    return np.clip(1.0 - overlap / ((x1 - x0) * (y1 - y0)), 0.0, 1.0)


def point_ratios(model, point, rects):
    """Ratios of rectangles that hold the point, each against the point's
    near cubes within its x-extent or its y-extent from the point: the scan's
    per-point ratio pass before the cube tree."""
    d = np.abs(rects - np.repeat(point, 2))
    extents = np.stack([np.maximum(d[:, 0], d[:, 1]), np.maximum(d[:, 2], d[:, 3])])
    near, gx, gy = near_cubes(model, point, float(extents.max()))
    return rect_ratios(model, rects, near, np.stack([gx, gy]), extents)


def candidate_cubes_ref(model, point, t):
    """Indexes of cubes whose closure meets the box point +- t."""
    px, py = point
    return closed_meet_ref(model, (px - t, px + t, py - t, py + t))


def locate_in_cubes_ref(model, point):
    """('inside' | 'boundary', 1-based cube) or ('outside', None)."""
    x, y = point
    hit = (
        (model.xs <= x)
        & (x <= model.xs + model.sides)
        & (model.ys <= y)
        & (y <= model.ys + model.sides)
    )
    for i in np.flatnonzero(hit):
        if (
            model.xs[i] < x < model.xs[i] + model.sides[i]
            and model.ys[i] < y < model.ys[i] + model.sides[i]
        ):
            return "inside", int(i) + 1
    idx = np.flatnonzero(hit)
    if idx.size:
        return "boundary", int(idx[0]) + 1
    return "outside", None


@dataclass(frozen=True)
class ExceptionalVerdict:
    """Point classification against the cubes and the cover, at horizon."""

    point: tuple[float, float]
    cube_location: Location
    cube_index: int | None
    per_block: tuple[tuple[int, Location], ...]
    overall: str

    @property
    def is_scannable(self) -> bool:
        return self.overall == "outside-cover-up-to-horizon"


def is_exceptional_ref(model, cover, point):
    """Classify a point: cube boundary, in-cover, inside an uncovered cube,
    or outside the cover up to its horizon.

    Cube-boundary hits win (they are excluded from every claim); covered
    points are next, including interiors of the cover's own cubes; a point
    inside an uncovered cube is not part of the remaining set at all.
    """
    ox, oy = model.outer.x, model.outer.y
    if not (ox.lo < point[0] < ox.hi and oy.lo < point[1] < oy.hi):
        raise OutOfRange(f"point {point} is not strictly inside the outer box")
    cube_loc, cube_idx = locate_in_cubes_ref(model, point)
    cube_loc = Location(cube_loc)
    per_block = tuple((b.s, column_union(b.union).locate(point)) for b in cover.blocks)
    if cube_loc is Location.BOUNDARY:
        overall = "on-cube-boundary"
    elif any(loc is not Location.OUTSIDE for _, loc in per_block):
        overall = "in-cover"
    elif cube_loc is Location.INSIDE:
        overall = "in-cube"
    else:
        overall = "outside-cover-up-to-horizon"
    return ExceptionalVerdict(
        point=(float(point[0]), float(point[1])),
        cube_location=cube_loc,
        cube_index=cube_idx,
        per_block=per_block,
        overall=overall,
    )


def distance_to_cubes_ref(model, point, upto):
    """Euclidean distance from the point to the union of cubes 1..upto."""
    x, y = point
    xs, ys, ws = model.xs[:upto], model.ys[:upto], model.sides[:upto]
    dx = np.maximum(np.maximum(xs - x, x - (xs + ws)), 0.0)
    dy = np.maximum(np.maximum(ys - y, y - (ys + ws)), 0.0)
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


def sample_points_ref(model, cover, config):
    """Scannable points as ``sample_points`` draws them, each point looked up
    in every block's ``ColumnUnion`` and tested against every cube."""
    blocks = [column_union(b.union) for b in cover.blocks]
    rng = np.random.Generator(np.random.PCG64(_substreams(config, 0, 1)[0]))
    outer = model.outer
    accepted = []
    draws = 0
    batch = max(1024, 4 * config.points)
    while True:
        pts = rng.uniform((outer.x.lo, outer.y.lo), (outer.x.hi, outer.y.hi), size=(batch, 2))
        px, py = pts[:, 0], pts[:, 1]
        in_cube = in_cubes_ref(model, pts)
        strict_inner = (outer.x.lo < px) & (px < outer.x.hi) & (outer.y.lo < py) & (py < outer.y.hi)
        for i in np.flatnonzero(~in_cube & strict_inner):
            point = (float(px[i]), float(py[i]))
            if all(ref.locate(point) is Location.OUTSIDE for ref in blocks):
                accepted.append(point)
                if len(accepted) == config.points:
                    draws_here = draws + int(i) + 1
                    return PointSample(tuple(accepted), len(accepted) / draws_here, draws_here)
        draws += batch


def _point_gaps(model, point, upto):
    """Chebyshev gaps and squared Euclidean distances from the point to
    cubes 1..upto, as rows of a (2, upto) array, from one kernel pass: the
    per-point cube pass of the scan and the separation check before the
    plan's one pass over all points.  A cube's x-gap is max(-wx, 0) of the
    point as a rectangle, its y-gap likewise, and its Chebyshev gap the
    larger of the two.  ``sqrt(min(d2[:p]))`` is the point's distance to the
    union of cubes 1..p for every p <= upto."""
    x, y = point

    def gaps(wx, wy):
        dx, dy = np.maximum(-wx, 0.0), np.maximum(-wy, 0.0)
        return np.stack([np.maximum(dx, dy), dx * dx + dy * dy], axis=1)

    return model.overlaps([[x, x, y, y]], gaps, slice(upto))[0]


def _reach(point, rects):
    """Largest distance fl(|c - p|) from the point to an edge coordinate c
    of the rectangles on its axis."""
    return float(np.abs(rects - np.repeat(point, 2)).max())


def _separation_hits(model, point, rects, gap):
    """Which rectangles meet the interior of one of cubes 1..len(gap), where
    ``gap`` holds those cubes' Chebyshev gaps from the point: the separation
    test before the box pass.

    A rectangle holding the point whose edges are at most e from it meets
    only cubes with gap <= e: a cube starting at cx right of the point has
    x-gap fl(cx - px), and cx < x1 implies fl(cx - px) <= fl(x1 - px),
    because rounding is monotone; the other sides are alike.  So only the
    cubes within the largest extent of all the rectangles go to the kernel,
    and none when no cube is that close."""
    near = np.flatnonzero(gap <= _reach(point, rects))
    if not near.size:
        return np.zeros(len(rects), dtype=bool)
    return model.overlaps(rects, lambda wx, wy: ((wx > 0.0) & (wy > 0.0)).any(axis=1), near)


def plain_ratios(model, rects):
    """The scan's ratio pass without family boxes: every rectangle's exactly
    rounded total from the cube tree, then the ratio formula of
    ``scan._ratios``."""
    x0, x1, y0, y1 = rects.T
    return np.clip(1.0 - model.total_overlaps(rects) / ((x1 - x0) * (y1 - y0)), 0.0, 1.0)


# -- the two-tree ratio pass: the large cubes in a tree of their own ------------------

_BIG_TREES = {}


def big_tree(model):
    """The second tree of the cube index before the large cubes were measured
    against family boxes: the cubes of ``index.big`` sorted by the Morton
    code of their centres, one to a leaf, in the limb format of the model's
    tree; None when the model has no large cube.  Built once per model."""
    model_, tree = _BIG_TREES.get(id(model), (None, None))
    if model_ is not model:
        index = model.index
        tree = None
        if index.big.size:
            code = setmodel._morton(model.xs, model.ys, model.sides, model.outer)
            ids = index.big[np.argsort(code[index.big], kind="stable")].astype(np.int32)
            limb_format = (len(index.tree.limbs), index.bits, index.shift)
            cubes = (model.xs, model.ys, model.sides)
            tree = setmodel._PackedTree(ids, 1, cubes, limb_format)
        _BIG_TREES[id(model)] = (model, tree)
    return tree


def two_tree_totals(model, rects):
    """``total_overlaps`` as it was with two trees: every rectangle descends
    the model's tree and the large cubes' tree (``big_tree``),
    ``setmodel._CHUNK_RECTS`` rows at a time, each tree adding its whole
    nodes' limbs and its boundary leaves' positive pieces; a row with no
    whole node and at most two pieces is their float sum, every other row
    one math.fsum."""
    rects = np.asarray(rects, dtype=np.float64)
    trees = [t for t in (model.index.tree, big_tree(model)) if t is not None]
    out = np.empty(len(rects))
    step = setmodel._CHUNK_RECTS
    for i in range(0, len(rects), step):
        out[i : i + step] = _two_tree_chunk(model, trees, rects[i : i + step])
    return out


def _two_tree_chunk(model, trees, rects):
    n, index = len(rects), model.index
    cols = tuple(np.ascontiguousarray(rects.T))
    limbs = np.zeros((len(index.tree.limbs), n))
    piece_rows, piece_values = [], []
    for tree in trees:
        rows, leaves, whole_rows, whole_nodes = tree.walk(cols, closed=False)
        for total, limb in zip(limbs, tree.limbs):
            total += np.bincount(whole_rows, limb[whole_nodes], n)
        if rows.size:
            pieces = model.overlaps(rects[rows], setmodel._pieces, tree.ids[leaves])
            positive = tree.drop_padding(pieces, leaves) > 0.0
            piece_rows.append(np.repeat(rows, np.count_nonzero(positive, axis=1)))
            piece_values.append(pieces[positive])
    prow = np.concatenate(piece_rows or [np.empty(0, dtype=np.intp)])
    pval = np.concatenate(piece_values or [np.empty(0)])
    totals = np.bincount(prow, pval, n).astype(np.float64, copy=False)
    counts = np.bincount(prow, minlength=n)
    exact = (counts > 2) | limbs.any(axis=0)
    rows = np.flatnonzero(exact)
    if not rows.size:
        return totals
    terms = setmodel._limb_values(limbs[:, rows], index.shift, index.bits)
    chosen = exact[prow]
    keys = np.concatenate([np.tile(rows, len(terms)), prow[chosen]])
    flat = np.concatenate([terms.ravel(), pval[chosen]])[np.argsort(keys, kind="stable")]
    ends = np.cumsum(counts[rows] + len(terms)).tolist()
    flat = flat.tolist()
    totals[rows] = [math.fsum(flat[a:b]) for a, b in zip([0, *ends], ends)]
    return totals


def two_tree_ratios(model, rects, family):
    """``scan._ratios`` as it was with two trees: the families' bounding
    boxes (fmin and fmax, so NaN coordinates are ignored) go through
    ``two_tree_totals`` first, and only the rows of families whose box total
    is positive follow, 4,096 gathered rows at a time; every other row's
    total is 0.0."""
    members = rects.reshape(-1, family, 4)
    folds = (np.fmin, np.fmax) * 2
    boxes = np.stack([f.reduce(members[..., j], axis=1) for j, f in enumerate(folds)], axis=1)
    busy = np.flatnonzero(np.repeat(two_tree_totals(model, boxes) > 0.0, family))
    totals = np.zeros(len(rects))
    for i in range(0, len(busy), 1 << 12):
        rows = busy[i : i + (1 << 12)]
        totals[rows] = two_tree_totals(model, rects[rows])
    x0, x1, y0, y1 = rects.T
    return np.clip(1.0 - totals / ((x1 - x0) * (y1 - y0)), 0.0, 1.0)


def regimes_ref(model, plan):
    """Each point's regime at each t from its own ``_point_gaps`` pass, as
    the scan and the separation check each worked them out before the plan
    made one pass over all points."""
    out = []
    for point, scannable in zip(plan.points, plan.scannable):
        d2 = _point_gaps(model, point, plan.cuts[-1])[1] if scannable and plan.cuts else None
        regimes = []
        for t, prefix in zip(plan.t_sorted, plan.prefixes):
            if not scannable:
                regimes.append("exceptional")
            elif prefix is None:
                regimes.append("applicable")
            elif prefix > model.trunc:
                regimes.append("deferred")
            else:
                near = float(np.sqrt(d2[:prefix].min()))
                regimes.append("applicable" if t <= near else "deferred")
        out.append(tuple(regimes))
    return tuple(out)


def scan_points_ref(model, config, plan):
    """(min_ratio, violations, regime) of each point for each t, as the scan
    measured them before family boxes: runs of points whose rectangles fill
    one tree descent (``setmodel._CHUNK_RECTS``), every rectangle of a run
    sent to the tree in one pass (``plain_ratios``), and regimes from one
    ``_point_gaps`` pass per scannable point (``regimes_ref``)."""
    seeds = _substreams(config, 1, len(plan.points))
    per_point = len(plan.t_sorted) * config.rects_per_point
    run = max(1, setmodel._CHUNK_RECTS // per_point)
    regimes = regimes_ref(model, plan)
    out = []
    for start in range(0, len(plan.points), run):
        ids = range(start, min(start + run, len(plan.points)))
        rects = np.concatenate(
            [
                _draw_rects(
                    np.random.Generator(np.random.PCG64(seeds[i])),
                    plan.points[i],
                    plan.t_sorted,
                    config,
                    model,
                )
                for i in ids
            ]
        )
        ratios = plain_ratios(model, rects).reshape(len(ids), per_point)
        for i, point_ratios in zip(ids, ratios):
            rows = []
            for k, branch in enumerate(plan.branches):
                family = point_ratios[: (k + 1) * config.rects_per_point]
                violations = int(np.count_nonzero(family < branch.floor))
                rows.append((float(family.min()), violations, regimes[i][k]))
            out.append(rows)
    return out


def separation_tallies_ref(model, config, plan):
    """Per checkable t index: checked points, checked rectangles, violations
    and deferred points, as the separation check counted them before it
    skipped pairs whose box point +- t meets no prefix cube: every
    applicable pair's rectangles drawn and tested by ``_separation_hits``,
    regimes from ``regimes_ref``.  The rectangles at the k-th smallest t are
    the scan's cumulative family there, families 0..k of the point's scan
    draw, as ``scan_points_ref`` draws them."""
    seeds = _substreams(config, 1, len(plan.points))
    regimes = regimes_ref(model, plan)
    tallies = {k: [0, 0, 0, 0] for k in plan.checkable}
    for i, point in enumerate(plan.points):
        if not (plan.scannable[i] and plan.cuts):
            continue
        gap = _point_gaps(model, point, plan.cuts[-1])[0]
        rng = np.random.Generator(np.random.PCG64(seeds[i]))
        draw = _draw_rects(rng, point, plan.t_sorted, config, model)
        for k in plan.checkable:
            prefix, tally = plan.prefixes[k], tallies[k]
            rects = draw[: (k + 1) * config.rects_per_point]
            if regimes[i][k] == "deferred":
                tally[3] += 1
                continue
            hit = _separation_hits(model, point, rects, gap[:prefix])
            tally[0] += 1
            tally[1] += len(rects)
            tally[2] += int(np.count_nonzero(hit))
    return tallies


# -- square dilation: per-interval objects ----------------------------------------

class ColumnUnion:
    """The object-based rectangle union that ``RectUnion``'s flat arrays
    replaced: a sorted tuple of (x-interval, vertical section) columns."""

    def __init__(self, columns: Iterable[tuple[Interval, DisjointIntervalSet]]):
        self.columns = tuple(columns)
        self._los = tuple(x_int.lo for x_int, _ in self.columns)

    def __len__(self) -> int:
        return sum(len(ys) for _, ys in self.columns)

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


@functools.cache
def column_union(union: RectUnion) -> ColumnUnion:
    """The ColumnUnion over a RectUnion's columns, built once per union."""
    return ColumnUnion(union.columns)


def overlap_area_ref(a: Rectangle, b: Rectangle) -> float:
    """Area of the intersection of two open rectangles."""
    wx = min(a.x.hi, b.x.hi) - max(a.x.lo, b.x.lo)
    wy = min(a.y.hi, b.y.hi) - max(a.y.lo, b.y.lo)
    return wx * wy if wx > 0.0 and wy > 0.0 else 0.0


def cube(model, n: int) -> Rectangle:
    """Open cube n (1-based) of the model."""
    if not 1 <= n <= model.trunc:
        raise OutOfRange(f"cube index must be in 1..{model.trunc}, got {n}")
    x, y, w = float(model.xs[n - 1]), float(model.ys[n - 1]), float(model.sides[n - 1])
    return Rectangle.from_bounds(x, x + w, y, y + w)


def cubes(model, n_lo: int = 1, n_hi: int | None = None) -> tuple[Rectangle, ...]:
    """Open cubes n_lo..n_hi (through the truncation by default)."""
    if n_hi is None:
        n_hi = model.trunc
    return tuple(cube(model, n) for n in range(n_lo, n_hi + 1))


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
) -> tuple[list[float], list[float], list[float], list[float]]:
    """The one-union growth loop that ``dilation._grow_batch`` replaced,
    which runs it for many unions in lockstep: grow sorted, pairwise
    disjoint members (lo, hi) left to right.

    Returns the dilated union as its sorted lower and upper ends, and the
    left and right hull ends of every member.

    The occupied set is two sorted runs of closed blocks, each merged across
    touching ends: the grown blocks ``glo``/``ghi`` (a stack whose top
    ``top`` holds the last hull) and the waiting blocks ``wlo``/``whi`` from
    index ``w`` on, the members not yet reached.  A member lies in the top
    grown block or in the first waiting one, so no search is needed.  Its
    left arm sweeps down the grown blocks and its right arm up the waiting
    ones, each past exactly gamma times its length of unoccupied measure;
    the hull then replaces every block it meets.  Sentinels at -inf below
    the grown blocks and at +inf above the waiting ones end both sweeps.
    """
    wlo: list[float] = []
    whi: list[float] = []
    for lo, hi in zip(los, his):
        if whi and lo == whi[-1]:
            whi[-1] = hi
        else:
            wlo.append(lo)
            whi.append(hi)
    n = len(wlo)
    wlo.append(math.inf)
    glo = [-math.inf]
    ghi = [-math.inf]
    top = w = 0
    lefts: list[float] = []
    rights: list[float] = []
    for lo, hi in zip(los, his):
        need = gamma * (hi - lo)
        if lo <= ghi[top]:
            j, cur, right_from, k = top - 1, glo[top], ghi[top], w
        else:
            j, cur, right_from, k = top, wlo[w], whi[w], w + 1
        rest = need
        while rest > 0.0:
            if cur - ghi[j] >= rest:
                cur -= rest
                break
            rest -= cur - ghi[j]
            cur = glo[j]
            j -= 1
        left = cur
        cur, rest = right_from, need
        while rest > 0.0:
            if wlo[k] - cur >= rest:
                cur += rest
                break
            rest -= wlo[k] - cur
            cur = whi[k]
            k += 1
        right = cur
        # the closed hull [left, right] absorbs grown blocks i..top and waiting ones up to k
        i = j + 1
        while i > 1 and ghi[i - 1] >= left:
            i -= 1
        while k < n and wlo[k] <= right:
            k += 1
        first_lo = glo[i] if i <= top else wlo[w]
        last_hi = whi[k - 1] if k > w else ghi[top]
        left_end = first_lo if first_lo < left else left
        right_end = last_hi if last_hi > right else right
        if i <= top:
            del glo[i + 1 :], ghi[i + 1 :]
            glo[i], ghi[i] = left_end, right_end
        else:
            glo.append(left_end)
            ghi.append(right_end)
        top, w = i, k
        lefts.append(left)
        rights.append(right)
    return glo[1:] + wlo[w:n], ghi[1:] + whi[w:], lefts, rights


def grow_ref(los, his, gamma):
    """The growth loop that ``_grow`` replaced: every arm bisects
    the occupied set afresh.  Returns the dilated union's lower and upper
    ends and each member's left and right hull ends, as ``_grow`` does."""
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
    return occupied.los, occupied.his, lefts, rights


def _grown_set(los, his, gamma) -> DisjointIntervalSet:
    """``grow_ref``'s dilation of sorted, separated members, as the
    interval set that ``dilate_1d`` would return."""
    los, his, _, _ = grow_ref(los, his, gamma)
    return DisjointIntervalSet(Interval(lo, hi) for lo, hi in zip(los, his))


def _toggle(bounds: list[float], values: Iterable[float]) -> None:
    """Insert each value absent from the sorted list, delete each one present."""
    for v in values:
        i = bisect_left(bounds, v)
        if i < len(bounds) and bounds[i] == v:
            del bounds[i]
        else:
            bounds.insert(i, v)


def _grow_keys(keys: list[tuple[float, ...]], gamma: float) -> tuple[np.ndarray, ...]:
    """``_grow_batch`` of every union given as its boundary tuple (lo, hi,
    lo, hi, ...), all in one batch."""
    counts = np.array([len(k) // 2 for k in keys], dtype=np.intp)
    flat = np.array([v for k in keys for v in k], dtype=np.float64)
    return _grow_batch(counts, flat[0::2], flat[1::2], gamma)[:3]


def dilate_2d_toggles(cubes, gamma: float, *, allow_gamma_one: bool = False) -> RectUnion:
    """The toggle sweeps of ``dilate_2d`` over Python lists that its array
    sweeps replaced: one sorted boundary list per sweep, toggled value by
    value (``_toggle``), and a dict from each distinct union's tuple to its
    y-runs or its section number.  The seven ``RectUnion`` arrays must be
    equal byte for byte."""
    gamma = _check_gamma(gamma, allow_gamma_one)
    rows = cube_rows(cubes)
    if not len(rows):
        return RectUnion.empty()
    hit = find_overlap(*rows.T)
    if hit is not None:
        raise OverlappingCubes(f"cubes {hit[0]} and {hit[1]} overlap")

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

    runs_of = list(groups.values())
    counts, los, his = _grow_keys(list(groups), gamma)
    owner = np.repeat(np.arange(len(runs_of)), counts)
    ends = np.concatenate((los, his))
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    owner = np.concatenate((owner, owner))[order].tolist()
    cut = np.flatnonzero(np.diff(ends)) + 1
    xs = ends[np.concatenate(([0], cut))]
    cut = cut.tolist()

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
    is_col = np.frombuffer(is_col, dtype=bool)
    col_sec = np.frombuffer(col_sec, dtype=np.int64).astype(np.intp)

    counts, y_lo, y_hi = _grow_keys(list(sections), gamma)
    sec_off = np.concatenate(([0], np.cumsum(counts)))
    sec_measure = _section_measures(sec_off, y_hi - y_lo)
    x_lo, x_hi = xs[:-1][is_col], xs[1:][is_col]
    return RectUnion(x_lo, x_hi, col_sec, sec_off, y_lo, y_hi, sec_measure)


def dilate_2d_objects(
    cubes: Sequence[Rectangle], gamma: float, *, allow_gamma_one: bool = False
) -> ColumnUnion:
    """The toggle sweeps of ``dilate_2d`` over ``Rectangle`` inputs, with
    ``grow_ref`` and one Interval and DisjointIntervalSet per column."""
    gamma = _check_gamma(gamma, allow_gamma_one)
    cubes = list(cubes)
    if not cubes:
        return ColumnUnion(())
    hit = find_overlap(*zip(*(c.x.as_pair() + c.y.as_pair() for c in cubes)))
    if hit is not None:
        raise OverlappingCubes(f"cubes {hit[0]} and {hit[1]} overlap")

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

    x_events: dict[float, list[list[float]]] = {}
    for key, runs in groups.items():
        los, his, _, _ = grow_ref(key[0::2], key[1::2], gamma)
        for lo, hi in zip(los, his):
            x_events.setdefault(lo, []).append(runs)
            x_events.setdefault(hi, []).append(runs)

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
            los, his, _, _ = grow_ref(key[0::2], key[1::2], gamma)
            section = sections[key] = DisjointIntervalSet(
                Interval(lo, hi) for lo, hi in zip(los, his)
            )
        columns.append((Interval(x1, x2), section))
    return ColumnUnion(columns)


# -- square dilation: one full index set per vertical atom cell -------------------

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


def dilate_2d_labels(
    cubes: Sequence[Rectangle],
    gamma: float,
    *,
    allow_gamma_one: bool = False,
    block: tuple[int, int, int] | None = None,
) -> "ColumnUnion":
    """Label-based simultaneous square dilation, the differential oracle for
    ``dilate_2d``: every atom cell of the vertical projection carries its full
    covering index set, which costs O(sum of label sizes).

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
        return ColumnUnion(())
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
            hit = _grown_set([lo for lo, _ in merged], [hi for _, hi in merged], gamma)
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
            section = _grown_set(seg_lo.tolist(), seg_hi.tolist(), gamma)
            section_cache[key] = section
        columns.append((Interval(c1, c2), section))
    return ColumnUnion(columns)
