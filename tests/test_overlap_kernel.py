"""The set model's blocked overlap kernel and cube index against the
arithmetic they replaced.

Every cube query (density ratio, separation hit, closed hit, near cubes,
point location, distance) is a reduction of one kernel; each must equal the
unblocked per-query oracle exactly, on seeded rectangles and on rectangles
and points placed on cube edges and corners.  The scan's ratio kernel sums
only the cubes near the point within a rectangle's extent on one axis, with
exactly rounded totals: it must equal ``density_ratio`` exactly and the
dense pairwise-sum oracle within that sum's rounding error.  The separation
test is given only the prefix cubes within a rectangle's reach, and must
find exactly the dense oracle's hits.  The cube index must return every
cube whose closed square meets a query box, on the canonical model and on
46,655 shelf-packed cubes.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from densitometer import scan, setmodel
from densitometer.dilation import Rectangle
from densitometer.scan import (
    ScanConfig,
    _draw_rects,
    _in_cubes,
    _near_cubes,
    _point_gaps,
    _point_ratios,
    _rect_ratios,
    _separation_hits,
    sample_points,
)
from densitometer.setmodel import CompactSetModel, CubeIndex, build_packing, density_ratio
from densitometer.weights import WeightSequence

import oracles


_TINY = WeightSequence.power(1e-4, 2.0)  # sides 0.01 and 0.005


def _seeded_rects(n, seed):
    """(n, 4) rectangles in the box with sides spread over four decades."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    w, h = 10.0 ** rng.uniform(-4.0, 0.0, (2, n))
    return np.stack(
        [
            np.maximum(cx - w / 2, 0.0),
            np.minimum(cx + w / 2, 1.0),
            np.maximum(cy - h / 2, 0.0),
            np.minimum(cy + h / 2, 1.0),
        ],
        axis=1,
    )


def _edge_rects(model, cubes):
    """Rectangles touching each chosen cube from outside along an edge, sharing
    an edge from inside, meeting it at a corner, and equal to it; clipped to
    the box, degenerate ones dropped."""
    out = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        d = w / 2
        out += [
            [x1, x1 + d, y0, y1],  # touches the right edge from outside
            [x0 - d, x0, y0 + d / 2, y1],  # touches the left edge from outside
            [x0, x1, y1, y1 + d],  # touches the top edge from outside
            [x0, x0 + d, y0, y0 + d],  # shares the lower-left corner from inside
            [x1, x1 + d, y1, y1 + d],  # meets only at the upper-right corner
            [x0, x1, y0, y1],  # the cube itself
            [x0 + d / 2, x1 + d, y0 - d, y0 + d / 2],  # straddles a corner
        ]
    rects = np.clip(np.array(out), 0.0, 1.0)
    return rects[(rects[:, 0] < rects[:, 1]) & (rects[:, 2] < rects[:, 3])]


def _edge_points(model, cubes):
    """Corners, edge midpoints and centers of the chosen cubes."""
    out = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        xm, ym = x0 + w / 2, y0 + w / 2
        out += [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (x0, ym), (xm, y1), (xm, ym)]
    return [(float(x), float(y)) for x, y in out if 0.0 < x < 1.0 and 0.0 < y < 1.0]


CUBES = (0, 1, 2, 3, 26, 255, 700, 3123)


@pytest.fixture(scope="module")
def rect_sets(canonical_model):
    return {
        "seeded": _seeded_rects(300, 5),
        "edges": _edge_rects(canonical_model, CUBES),
        "ulp": _ulp_rects(canonical_model, CUBES),
    }


def _ulp_rects(model, cubes):
    """Rectangles reaching one ulp into each chosen cube across an edge or a
    corner, from half a side away, and into cubes that start a shelf row from
    x = 0.99; clipped to the box, those with zero float area dropped."""
    out = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        d = w / 2
        xa, ya = np.nextafter(x0, 2.0), np.nextafter(y0, 2.0)
        xb, yb = np.nextafter(x1, -1.0), np.nextafter(y1, -1.0)
        out += [
            [x0 - d, xa, y0 + d / 2, y1 - d / 2],  # from the left
            [xb, x1 + d, y0 + d / 2, y1 - d / 2],  # from the right
            [x0 + d / 2, x1 - d / 2, y0 - d, ya],  # from below
            [x0 + d / 2, x1 - d / 2, yb, y1 + d],  # from above
            [x0 - d, xa, y0 - d, ya],  # across the lower-left corner
            [xb, x1 + d, yb, y1 + d],  # across the upper-right corner
        ]
    for i in np.flatnonzero(model.xs == 0.0)[1:8]:
        # from x = 0.99: fl(0.99 - x1) == fl(0.99 - (x1 - ulp)), so the cube's
        # gap equals the rectangle's reach
        x1, y0, w = model.sides[i], model.ys[i], model.sides[i]
        out.append([np.nextafter(x1, -1.0), 0.99, y0 + w / 4, y0 + w / 2])
    rects = np.clip(np.array(out), 0.0, 1.0)
    return rects[(rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2]) > 0.0]


def _anchors(rect):
    """Points of the closed rectangle a scan could stand at: corners and center."""
    x0, x1, y0, y1 = (float(v) for v in rect)
    return [(x0, y0), (x1, y1), (x0, y1), (x1, y0), ((x0 + x1) / 2, (y0 + y1) / 2)]


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_ratio_matches_density_ratio(canonical_model, rect_sets, kind):
    """The pruned, exactly rounded kernel is density_ratio bit for bit, seen
    from every corner and the center of each rectangle."""
    for rect in rect_sets[kind]:
        want = density_ratio(canonical_model, Rectangle.from_bounds(*rect)).ratio_n
        for point in _anchors(rect):
            assert _point_ratios(canonical_model, point, rect[None, :])[0] == want


def _axis_counts(model, point, rects):
    """Per rectangle, how many of the point's near cubes lie within its
    x-extent on the x axis and within its y-extent on the y axis: a (2, n)
    array, counted densely."""
    d = np.abs(rects - np.repeat(point, 2))
    extents = np.stack([d[:, :2].max(axis=1), d[:, 2:].max(axis=1)])
    _, gx, gy = _near_cubes(model, point, extents.max())
    return np.stack(
        [np.count_nonzero(g[None, :] <= e[:, None], axis=1) for g, e in zip((gx, gy), extents)]
    )


def test_scan_rects_match_density_ratio(canonical_model):
    """Rectangles drawn by the scan through one point share a kernel call per
    axis and bit length of the smaller of their two axis counts; each row is
    still density_ratio exactly, and both axes are chosen somewhere."""
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=1, rects_per_point=200, seed=0)
    rng = np.random.default_rng(9)
    points = _edge_points(canonical_model, CUBES)[::3] + [(0.5, 0.95), (0.123, 0.987)]
    groups, axes = set(), set()
    for point in points:
        rects = _draw_rects(rng, point, config.t_grid, config, canonical_model)
        got = _point_ratios(canonical_model, point, rects)
        want = [density_ratio(canonical_model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
        assert got.tolist() == want
        counts = _axis_counts(canonical_model, point, rects)
        axis, count = counts[1] < counts[0], counts.min(axis=0)
        keys = {(a, b) for a, b, c in zip(axis.tolist(), np.frexp(count)[1].tolist(), count) if c}
        groups.add(len(keys))
        axes.update(a for a, _ in keys)
    assert max(groups) > 3
    assert axes == {False, True}


_U = 2.0**-53  # unit roundoff of float64


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_ratio_matches_oracle(canonical_model, rect_sets, kind):
    """Against the dense kernel it replaced, which sums all cubes pairwise.

    Bound: a row with m positive areas of exact total S and area A.  Zeros
    add exactly, so any summation order rounds at most m - 1 times on the
    way from a piece to the total, and the dense total is within
    gamma_(m-1) S = (m - 1) u S / (1 - (m - 1) u) of S; the exactly rounded
    total is within u S.  Dividing by A rounds each quotient by at most
    u S / A (to first order), and 1 - q rounds each side by at most u.  So
    |new - dense| <= (m + 3) u S / A + 2 u, the extra u S / A covering the
    gamma denominator and second-order terms for any m below 10**6.  Rows with
    m <= 2 are exact on both sides and must be equal.
    """
    rects = rect_sets[kind]
    every = np.arange(canonical_model.trunc)
    dense = oracles.rect_ratios_ref(canonical_model, rects, every)
    many = 0
    for rect, want in zip(rects, dense):
        x0, x1, y0, y1 = rect
        got = _point_ratios(canonical_model, ((x0 + x1) / 2, (y0 + y1) / 2), rect[None, :])[0]
        hits = oracles.overlapping_cubes_ref(canonical_model, rect)
        m = hits.size
        if m <= 2:
            assert got == want
            continue
        many += 1
        total = oracles.density_overlap_ref(canonical_model, *rect)
        area = (x1 - x0) * (y1 - y0)
        assert abs(got - want) <= (m + 3) * _U * total / area + 2 * _U
    assert many > 0


def test_near_prefix_holds_every_overlap(canonical_model, rect_sets, monkeypatch):
    """Seen from a corner or the center of a rectangle, every cube whose
    interior meets it is among the cubes the ratio kernel is given, including
    rectangles that reach one ulp into a cube across an edge or a corner and
    cubes whose gap on an axis equals the rectangle's extent on that axis."""
    kernel = CompactSetModel.overlaps
    given = []

    def recording(self, rects, reduce, cubes=slice(None)):
        if sys._getframe(1).f_code.co_name == "_rect_ratios":
            given.append(np.asarray(cubes))
        return kernel(self, rects, reduce, cubes)

    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    rects = np.concatenate([rect_sets["seeded"], rect_sets["edges"], rect_sets["ulp"]])
    last_needed = ties = 0
    for rect in rects:
        hits = oracles.overlapping_cubes_ref(canonical_model, rect)
        for point in _anchors(rect):
            given.clear()
            _point_ratios(canonical_model, point, rect[None, :])
            seen = np.concatenate([np.empty(0, dtype=np.intp), *given])
            assert np.isin(hits, seen).all(), (rect, point)
            if hits.size:
                last_needed += seen[-1] in hits
                d = np.abs(rect - np.repeat(point, 2))
                ex, ey = d[:2].max(), d[2:].max()
                near, gx, gy = _near_cubes(canonical_model, point, max(ex, ey))
                ties += bool(np.isin(near[(gx == ex) | (gy == ey)], hits).any())
    assert last_needed > 0 and ties > 0


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_density_ratio_matches_oracle(canonical_model, rect_sets, kind):
    for x0, x1, y0, y1 in rect_sets[kind]:
        got = density_ratio(canonical_model, Rectangle.from_bounds(x0, x1, y0, y1))
        assert got.overlap_total == oracles.density_overlap_ref(canonical_model, x0, x1, y0, y1)


@pytest.mark.parametrize("kind", ["seeded", "edges", "ulp"])
def test_separation_hits_match_oracle(canonical_model, rect_sets, kind):
    """The separation test, given only the cubes of the prefix within the
    rectangle's reach from a corner or the center, finds exactly the
    oracle's hits.  Besides fixed prefixes, each rectangle is tested against
    the prefix that ends at the first cube it meets, which that cube alone
    then decides, and against the prefix just before it; the ulp set reaches
    one ulp into cubes across an edge or a corner, and from x = 0.99 its
    reach equals a cube's gap."""
    model = canonical_model
    decided = ties = 0
    for rect in rect_sets[kind]:
        hits = oracles.overlapping_cubes_ref(model, rect)
        first = hits[:1].tolist()
        prefixes = {1, 26, 255, model.trunc, *(i + 1 for i in first), *(i for i in first if i)}
        want = {p: oracles.separation_hits_ref(model, rect[None, :], p)[0] for p in prefixes}
        for point in _anchors(rect):
            gap = _point_gaps(model, point, model.trunc)[0]
            for prefix in prefixes:
                got = _separation_hits(model, point, rect[None, :], gap[:prefix])[0]
                assert got == want[prefix], (rect, point, prefix)
            if first:
                decided += 1
                reach = np.abs(rect - np.repeat(point, 2)).max()
                ties += bool(gap[first[0]] == reach)
    assert decided > 0
    if kind == "ulp":
        assert ties > 0


def test_closed_hits_match_oracle(canonical_model):
    pts = np.array(_edge_points(canonical_model, CUBES))
    rng = np.random.default_rng(11)
    pts = np.concatenate([pts, rng.uniform(0.0, 1.0, (500, 2))])
    got = _in_cubes(canonical_model, pts)
    want = oracles.in_cubes_ref(canonical_model, pts)
    assert np.array_equal(got, want)
    assert got[: len(_edge_points(canonical_model, CUBES))].all()


def test_distance_matches_oracle(canonical_model):
    """One cube pass gives the distance to every prefix of the cubes it covers."""
    for point in _edge_points(canonical_model, CUBES) + [(0.5, 0.95), (0.999, 0.001)]:
        d2 = _point_gaps(canonical_model, point, 3124)[1]
        for upto in (1, 3, 26, 3124):
            got = float(np.sqrt(d2[:upto].min()))
            assert got == oracles.distance_to_cubes_ref(canonical_model, point, upto)


def _tie_edges(p, e, u):
    """Floats lo < hi below p with fl(p - lo) == fl(p - hi) == e, where u is
    the spacing of floats at e: p - lo and p - hi are e + 0.45 u and
    e - 0.45 u, to within the far finer spacing at lo."""
    lo = float(Fraction(p) - Fraction(e) - Fraction(u) * Fraction(9, 20))
    hi = float(Fraction(p) - Fraction(e) + Fraction(u) * Fraction(9, 20))
    return lo, hi


@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_prefixes_hold_planted_cubes(axis):
    """Negative control for the per-axis prefixes, in the box [-1, 1]^2 and
    seen from the point (0.75, 0.75); the y case is the x case transposed.
    A narrow rectangle reaches left to x = lo, and cube 1 ends at x = hi,
    just past lo, across the rectangle's y range: its x-gap equals the
    rectangle's x-extent, and the overlap, under an ulp of that extent wide,
    moves the ratio to 1 - 2^-53.  Cube 2 lies in the same y band beyond
    x-gap 1.2, within reach of a long rectangle, so the narrow rectangle's
    x set (cube 1) is smaller than its y set (both) and is the one measured.
    Comparing an x-gap with the y-extent, or a gap with an extent by <,
    leaves cube 1 out and reads 1.0."""
    p, e, u, h = 0.75, 0.749, 2.0**-53, 0.002
    lo, hi = _tie_edges(p, e, u)
    assert p - lo == p - hi == e and lo < hi
    w1, w2 = _TINY.w(1), _TINY.w(2)
    xs, ys = [hi - w1, -0.5 - w2], [p - w1 / 2, p - w2 / 2]
    rects = np.array([[lo, p, p - h, p + h], [-0.95, p, p - h / 2, p + h / 2]])
    if axis == "y":
        xs, ys, rects = ys, xs, rects[:, [2, 3, 0, 1]]
    outer = Rectangle.from_bounds(-1.0, 1.0, -1.0, 1.0)
    model = CompactSetModel(outer, _TINY, 2, xs, ys, [w1, w2])
    near, *gaps = _near_cubes(model, (p, p), 1.7)
    tied = gaps[0] if axis == "x" else gaps[1]
    assert near.tolist() == [0, 1] and tied[0] == e
    want = [density_ratio(model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
    assert want[0] == 1.0 - u
    assert _point_ratios(model, (p, p), rects).tolist() == want


# -- the cube index: a superset of the closed-meet set, and the work it saves ------------

SHELF_CUBES = CUBES + (20_000, 46_654)


@pytest.fixture(scope="module")
def shelf_46k(canonical_seq):
    """Blocks through s = 5 on the shelf: trunc = 6^6 - 1."""
    return build_packing(canonical_seq, 46_655, Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0))


def _index_boxes(model, cubes):
    """Closed query boxes: seeded boxes over four decades, the edge and ulp
    rectangles of the chosen cubes, seeded boxes reaching outside the outer
    box (and one around it, one beside it), and point boxes at cube corners,
    edge midpoints and centers, at grid-cell corners and at seeded points."""
    rng = np.random.default_rng(17)
    cx, cy = rng.uniform(-0.2, 1.2, (2, 300))
    w, h = 10.0 ** rng.uniform(-4.0, 0.0, (2, 300))
    outside = np.stack([cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2], axis=1)
    outside = np.concatenate([outside, [[-10.0, 10.0, -10.0, 10.0], [1.5, 2.0, 0.2, 0.3]]])
    hx, hy = model.index.cell
    k = np.arange(1, model.index.g)
    grid = [(float(a), float(b)) for a, b in zip(k * hx, k[::-1] * hy)]
    points = _edge_points(model, cubes) + grid + list(map(tuple, rng.uniform(0.0, 1.0, (300, 2))))
    return np.concatenate(
        [
            _seeded_rects(300, 5),
            _edge_rects(model, cubes),
            _ulp_rects(model, cubes),
            outside,
            np.array(points)[:, [0, 0, 1, 1]],
        ]
    )


def _missed(model, cubes):
    """(box, cube) of the first closed-meet cube a query leaves out, or None.

    Every query must also be ascending int32 indexes, each of a cube larger
    than a cell or of one that meets the box grown by four cells: a listed
    corner lies at most three cells out, and the fourth absorbs rounding."""
    hx, hy = model.index.cell
    for box in _index_boxes(model, cubes):
        got = model.index.query(*box)
        assert got.dtype == np.int32 and bool(np.all(np.diff(got) > 0))
        x0, x1, y0, y1 = box
        grown = oracles.closed_meet_ref(model, (x0 - 4 * hx, x1 + 4 * hx, y0 - 4 * hy, y1 + 4 * hy))
        assert np.isin(got, np.union1d(grown, model.index.big)).all(), box
        lost = np.setdiff1d(oracles.closed_meet_ref(model, box), got)
        if lost.size:
            return box, int(lost[0])
    return None


@pytest.mark.parametrize(
    "fixture, cubes, big", [("canonical_model", CUBES, 13), ("shelf_46k", SHELF_CUBES, 53)]
)
def test_index_query_holds_closed_meet_set(request, fixture, cubes, big):
    """Every cube whose closed square meets the box is among the candidates,
    including boxes that touch a cube at an edge or a corner, reach one ulp
    into it, lie partly or wholly outside the outer box, or are points.  The
    cubes larger than a cell are cubes 1..big."""
    model = request.getfixturevalue(fixture)
    assert model.index.big.tolist() == list(range(big))
    assert _missed(model, cubes) is None


def test_index_query_needs_low_side_reach(canonical_model, monkeypatch):
    """Negative control: a query that does not reach below the box's own
    cells loses cubes whose corner lies in the cell to the left or below."""

    def span(self, lo, hi, axis):
        o, h = self.origin[axis], self.cell[axis]
        first = math.floor((lo - o) / h)
        last = math.floor((hi - o) / h) + 1
        return range(max(first, 0), min(last, self.g - 1) + 1)

    monkeypatch.setattr(CubeIndex, "_span", span)
    assert _missed(canonical_model, CUBES) is not None


def test_near_cubes_measures_only_nearby_cubes(shelf_46k, monkeypatch):
    """On 46,655 cubes, _near_cubes with reach 0.01 returns exactly the cubes
    whose dense per-axis gaps are both within the reach, ascending, with
    those gaps, and its own gap pass is given under 1% of the cubes: at each
    point the scan samples, and on average over seeded points anywhere in
    the box (before the index it was given all of them).  Near the crowded
    top shelf rows a single query can still get more."""
    kernel = CompactSetModel.overlaps
    given = []

    def recording(self, rects, reduce, cubes):
        if sys._getframe(1).f_code.co_name == "_near_cubes":
            given.append(self.xs[cubes].size)
        return kernel(self, rects, reduce, cubes)

    cover = setmodel.build_cover(shelf_46k, 3, 4)
    config = ScanConfig(t_grid=(0.01,), points=50, rects_per_point=1, seed=42)
    sampled = sample_points(shelf_46k, cover, config).points
    seeded = tuple(map(tuple, np.random.default_rng(3).uniform(0.0, 1.0, (300, 2)).tolist()))
    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    xs, ys, sides = shelf_46k.xs, shelf_46k.ys, shelf_46k.sides
    for point in sampled + seeded:
        near, gx, gy = _near_cubes(shelf_46k, point, 0.01)
        x, y = point
        dense_x = np.maximum(np.maximum(xs - x, x - (xs + sides)), 0.0)
        dense_y = np.maximum(np.maximum(ys - y, y - (ys + sides)), 0.0)
        want = np.flatnonzero(np.maximum(dense_x, dense_y) <= 0.01)
        assert near.tolist() == want.tolist()
        assert gx.tolist() == dense_x[want].tolist() and gy.tolist() == dense_y[want].tolist()
    one_percent = shelf_46k.trunc / 100
    assert max(given[: len(sampled)]) < one_percent
    assert sum(given[len(sampled) :]) < len(seeded) * one_percent


def test_axis_prefixes_cut_ratio_kernel_work(shelf_46k, canonical_ratefn, monkeypatch):
    """On a scan of 46,655 cubes (100 points x 500 rectangles on the bench's
    t grid) the ratio kernel evaluates at most a third of the cells of
    measuring each rectangle against its Chebyshev prefix: the cubes whose
    larger axis gap from the point is within the rectangle's largest extent."""
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=100, rects_per_point=500, seed=42)
    cover = setmodel.build_cover(shelf_46k, config.m, config.s_hi)
    kernel, point_ratios = CompactSetModel.overlaps, scan._point_ratios
    cells, chebyshev = [], []

    def recording(self, rects, reduce, cubes):
        if sys._getframe(1).f_code.co_name == "_rect_ratios":
            cells.append(len(rects) * self.xs[cubes].size)
        return kernel(self, rects, reduce, cubes)

    def prefixes(model, point, rects):
        (x, y), xs, ys, sides = point, model.xs, model.ys, model.sides
        gap = np.maximum.reduce([xs - x, x - (xs + sides), ys - y, y - (ys + sides)])
        reach = np.abs(rects - np.repeat(point, 2)).max(axis=1)
        chebyshev.append(int(np.searchsorted(np.sort(gap), reach, "right").sum()))
        return point_ratios(model, point, rects)

    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    monkeypatch.setattr(scan, "_point_ratios", prefixes)
    scan.scan_density_bound(shelf_46k, cover, canonical_ratefn, config)
    assert len(chebyshev) == config.points and sum(chebyshev) > 10**6
    assert sum(cells) <= sum(chebyshev) / 3, (sum(cells), sum(chebyshev))


# -- memory: the kernel never holds a (rectangles x cubes) array ------------------------

# A block holds _BLOCK_CELLS widths; a reduction keeps a handful of block-sized
# float64 temporaries alive at once (wx, wy, the maximum each subtracts, masks).
# Eight of them, plus 1 MB for per-rectangle inputs and outputs, bounds the peak;
# one dense (4000 x 3124) float64 temporary alone is about 100 MB.
_PEAK_BOUND = 8 * 8 * setmodel._BLOCK_CELLS + (1 << 20)


@pytest.mark.parametrize("query", ["ratio", "separation", "closed"])
def test_kernel_memory_is_bounded_by_block(canonical_model, query):
    rects = _seeded_rects(4000, 3)
    every = np.arange(canonical_model.trunc)
    # zero gaps and unit extents: every rectangle against every cube
    gaps, extents = np.zeros((2, every.size)), np.ones((2, len(rects)))
    assert _PEAK_BOUND < rects.shape[0] * every.size * 8 / 10
    pts = np.ascontiguousarray(rects[:, [0, 2]])
    center = (0.5, 0.5)
    gap = _point_gaps(canonical_model, center, canonical_model.trunc)[0]
    run = {
        "ratio": lambda: _rect_ratios(canonical_model, rects, every, gaps, extents),
        "separation": lambda: _separation_hits(canonical_model, center, rects, gap),
        "closed": lambda: _in_cubes(canonical_model, pts),
    }[query]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"


def test_sample_points_memory_is_bounded_by_block(canonical_model, canonical_cover):
    """Sampling 1,000 points draws batches of 4,000; one (batch x cubes)
    boolean array would alone be 12.5 MB on the canonical cubes."""
    config = ScanConfig(t_grid=(0.01,), points=1000, rects_per_point=1, seed=42)
    dense = 4 * config.points * canonical_model.trunc  # one boolean per (draw, cube)
    assert _PEAK_BOUND < dense / 2
    tracemalloc.start()
    try:
        sample = sample_points(canonical_model, canonical_cover, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sample.points) == config.points
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"
