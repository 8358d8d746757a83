"""The set model's blocked overlap kernel and cube tree against the
arithmetic they replaced.

Every cube query (density ratio, separation hit, closed hit, point
location, distance) is a reduction of one kernel; each must equal the
unblocked per-query oracle exactly, on seeded rectangles and on rectangles
and points placed on cube edges and corners.  The ratio pass descends the
cube tree: nodes inside a rectangle add exact integer-limb totals and only
the cubes of boundary leaves go to the kernel.  Its exactly rounded totals
must equal ``density_ratio``, the dense fsum and the per-point kernel it
replaced (``oracles.point_ratios``) bit for bit, also on rectangles equal
to node boxes and on a model whose areas need many limbs, and the dense
pairwise-sum oracle within that sum's rounding error.  Variants that admit
a node one ulp too wide, drop a node overlapping by one ulp, or add node
totals as rounded floats must each fail.  The tree's box query must return
exactly the cubes whose closed square meets the box.  The large cubes kept
out of the tree are measured against each family box's candidates; the
totals and ratios must equal the pass that gave them a tree of their own
(``oracles.two_tree_totals``) bit for bit on three layouts, within a
memory bound set by the kernel block, and so must the totals of calls cut
into several chunks of whole families, whose memory does not grow with the
chunks.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from densitometer import scan, setmodel
from densitometer.dilation import Rectangle
from densitometer.scan import (
    ScanConfig,
    _in_cubes,
    _meets_prefix,
    _prefix_d2,
    _ratios,
    sample_points,
    scan_density_bound,
)
from densitometer.setmodel import CompactSetModel, build_packing, density_ratio
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
        "nodes": _node_rects(canonical_model),
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


def _node_boxes(model, sample=200):
    """Closed boxes (x0, x1, y0, y1) of cube-tree nodes with positive area:
    every node of the top six levels of the model's tree and of the large
    cubes' tree it had beside it (``oracles.big_tree``), and a seeded sample
    of the others."""
    rng = np.random.default_rng(0)
    out = []
    for tree in (model.index.tree, oracles.big_tree(model)):
        if tree is None:
            continue
        x0, x1, y0, y1 = tree.boxes
        nodes = np.flatnonzero((x0 < x1) & (y0 < y1))
        if nodes.size > sample:
            nodes = np.union1d(nodes[nodes < 63], rng.choice(nodes, sample, replace=False))
        out.append(np.stack([x0[nodes], x1[nodes], y0[nodes], y1[nodes]], axis=1))
    return np.concatenate(out)


def _node_rects(model):
    """Rectangles on node boxes: the box itself, the box with its right edge
    one ulp in (the node is one ulp wider than the rectangle), a rectangle
    right of the box reaching one ulp into it, and one straddling it;
    clipped to the unit box, those with zero float area dropped."""
    x0, x1, y0, y1 = _node_boxes(model).T
    inward, w, h = np.nextafter(x1, -np.inf), x1 - x0, (y1 - y0) / 4
    rects = np.concatenate(
        [
            np.stack([x0, x1, y0, y1], axis=1),
            np.stack([x0, inward, y0, y1], axis=1),
            np.stack([inward, x1 + w, y0, y1], axis=1),
            np.stack([x0 - w / 2, x1 + w / 2, y0 + h, y1 - h], axis=1),
        ]
    )
    rects = np.clip(rects, 0.0, 1.0)
    return rects[(rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2]) > 0.0]


def _anchors(rect):
    """Points of the closed rectangle a scan could stand at: corners and center."""
    x0, x1, y0, y1 = (float(v) for v in rect)
    return [(x0, y0), (x1, y1), (x0, y1), (x1, y0), ((x0 + x1) / 2, (y0 + y1) / 2)]


def _first_mismatch(model, rects):
    """The first rectangle whose tree total differs from the dense fsum of
    its positive pieces, or None."""
    for rect, total in zip(rects, model.total_overlaps(rects)):
        if total != oracles.density_overlap_ref(model, *rect):
            return rect
    return None


@pytest.mark.parametrize("kind", ["seeded", "edges", "ulp", "nodes"])
def test_ratio_matches_density_ratio(canonical_model, rect_sets, kind):
    """The tree's totals are the dense fsum bit for bit, and its ratios are
    density_ratio and the per-point kernel it replaced, seen from every
    corner and the center of each rectangle."""
    model, rects = canonical_model, rect_sets[kind]
    assert _first_mismatch(model, rects) is None
    for rect, got in zip(rects, oracles.plain_ratios(model, rects)):
        assert got == density_ratio(model, Rectangle.from_bounds(*rect)).ratio_n
        for point in _anchors(rect):
            assert oracles.point_ratios(model, point, rect[None, :])[0] == got


def _descent(model, rects):
    """Per rectangle of the ratio pass: the cubes of its whole nodes and of
    its boundary leaves in the tree's descent, and its large-cube
    candidates (the cubes of ``index.big`` whose interior it meets), as
    three lists of index arrays."""
    cols = tuple(np.ascontiguousarray(rects.T))
    whole = [[] for _ in rects]
    boundary = [[] for _ in rects]
    tree = model.index.tree
    rows, leaves, whole_rows, whole_nodes = tree.walk(cols, closed=False)
    slots = tree.ids.ravel()
    real = tree.ids.shape[1] * tree.last + tree.fill
    level = np.frexp(whole_nodes + 1)[1] - 1
    span = tree.ids.shape[1] << (tree.depth - level)
    first = (whole_nodes + 1 - (1 << level)) * span
    for r, a, n in zip(whole_rows, first, span):
        whole[r].append(slots[a : min(a + n, real)])
    for r, leaf in zip(rows, leaves):
        cells = np.arange(leaf * tree.ids.shape[1], (leaf + 1) * tree.ids.shape[1])
        boundary[r].append(slots[cells[cells < real]])
    big = model.index.big
    near = model.overlaps(rects, setmodel._interior, big) if big.size else np.zeros((len(rects), 0))
    join = lambda parts: np.concatenate([np.empty(0, dtype=np.int32), *parts])  # noqa: E731
    candidates = [big[row].astype(np.int32) for row in near.astype(bool)]
    return [join(p) for p in whole], [join(p) for p in boundary], candidates


def test_scan_rects_match_density_ratio(canonical_model):
    """Rectangles drawn by the scan through points on cube edges and
    corners, measured family box first as the scan measures them; each row
    is still density_ratio and the per-point kernel it replaced exactly.  Rows with whole nodes and boundary
    pieces, with more than two pieces and no whole node (one fsum), and with
    one or two pieces (a plain sum) all occur."""
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=1, rects_per_point=200, seed=0)
    rng = np.random.default_rng(9)
    points = _edge_points(canonical_model, CUBES)[::3] + [(0.5, 0.95), (0.123, 0.987)]
    kinds = set()
    for point in points:
        rects = oracles._draw_rects(rng, point, config.t_grid, config, canonical_model)
        got = _ratios(canonical_model, rects, config.rects_per_point)
        want = [density_ratio(canonical_model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
        assert got.tolist() == want
        assert oracles.point_ratios(canonical_model, point, rects).tolist() == want
        for rect, whole, boundary, big in zip(rects, *_descent(canonical_model, rects)):
            hits = oracles.overlapping_cubes_ref(canonical_model, rect)
            pieces = np.count_nonzero(np.isin(np.concatenate([boundary, big]), hits))
            kinds.add((whole.size > 0, "none" if not pieces else "few" if pieces <= 2 else "many"))
    assert {(True, "many"), (False, "many"), (False, "few")} <= kinds


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
    for rect, got, want in zip(rects, oracles.plain_ratios(canonical_model, rects), dense):
        x0, x1, y0, y1 = rect
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


def test_descent_holds_every_overlap(canonical_model, rect_sets):
    """Every cube whose interior meets a rectangle is in one of its whole
    nodes or boundary leaves or is one of its large-cube candidates, and
    every cube of a whole node lies in the closed rectangle, including
    rectangles that reach one ulp into a cube across an edge or a corner,
    share an edge with a node box, or are one ulp narrower than one.  Some
    rectangles take whole nodes alone, with no boundary piece, and some
    meet large cubes."""
    rects = np.concatenate([rect_sets[k] for k in ("seeded", "edges", "ulp", "nodes")])
    model = canonical_model
    x1s, y1s = model.xs + model.sides, model.ys + model.sides
    wholes = flush = alone = bigs = 0
    for rect, whole, boundary, big in zip(rects, *_descent(model, rects)):
        x0, x1, y0, y1 = rect
        hits = oracles.overlapping_cubes_ref(model, rect)
        assert np.isin(hits, np.concatenate([whole, boundary, big])).all(), rect
        assert np.isin(big, hits).all(), rect
        assert not np.intersect1d(whole, boundary).size
        bigs += big.size > 0
        assert np.all((model.xs[whole] >= x0) & (x1s[whole] <= x1)), rect
        assert np.all((model.ys[whole] >= y0) & (y1s[whole] <= y1)), rect
        wholes += whole.size > 0
        alone += whole.size > 0 and not np.isin(boundary, hits).any()
        flush += bool(np.any((x1s[whole] == x1) | (model.xs[whole] == x0)))
    assert wholes > alone > 0 and flush > 0 and bigs > 0


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_density_ratio_matches_oracle(canonical_model, rect_sets, kind):
    for x0, x1, y0, y1 in rect_sets[kind]:
        got = density_ratio(canonical_model, Rectangle.from_bounds(x0, x1, y0, y1))
        assert got.overlap_total == oracles.density_overlap_ref(canonical_model, x0, x1, y0, y1)


@pytest.mark.parametrize("kind", ["seeded", "edges", "ulp"])
def test_separation_hits_match_oracle(canonical_model, rect_sets, kind):
    """The separation check's one pass over the prefix cubes finds exactly
    the oracle's hits, and so does the test it replaced, given only the cubes
    of the prefix within the rectangle's reach from a corner or the center.
    Besides fixed prefixes, each rectangle is tested against the prefix that
    ends at the first cube it meets, which that cube alone then decides, and
    against the prefix just before it; the ulp set reaches one ulp into
    cubes across an edge or a corner, and from x = 0.99 its reach equals a
    cube's gap."""
    model = canonical_model
    decided = ties = 0
    for rect in rect_sets[kind]:
        hits = oracles.overlapping_cubes_ref(model, rect)
        first = hits[:1].tolist()
        prefixes = {1, 26, 255, model.trunc, *(i + 1 for i in first), *(i for i in first if i)}
        want = {p: oracles.separation_hits_ref(model, rect[None, :], p)[0] for p in prefixes}
        for prefix in prefixes:
            assert _meets_prefix(model, rect[None, :], prefix)[0] == want[prefix], (rect, prefix)
        for point in _anchors(rect):
            gap = oracles._point_gaps(model, point, model.trunc)[0]
            for prefix in prefixes:
                got = oracles._separation_hits(model, point, rect[None, :], gap[:prefix])[0]
                assert got == want[prefix], (rect, point, prefix)
            if first:
                decided += 1
                ties += bool(gap[first[0]] == oracles._reach(point, rect[None, :]))
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
        d2 = oracles._point_gaps(canonical_model, point, 3124)[1]
        for upto in (1, 3, 26, 3124):
            got = float(np.sqrt(d2[:upto].min()))
            assert got == oracles.distance_to_cubes_ref(canonical_model, point, upto)


@pytest.mark.parametrize("cuts", [(1, 3, 26, 3124), (26,), (1, 3)])
def test_prefix_distances_match_point_passes(canonical_model, cuts):
    """The scan plan's one kernel pass gives each point's squared distance
    to every prefix of cuts, equal to the minimum over that prefix of its
    own _point_gaps pass, whatever the rows per kernel block."""
    rng = np.random.default_rng(12)
    pts = np.concatenate([_edge_points(canonical_model, CUBES), rng.uniform(0.0, 1.0, (50, 2))])
    got = _prefix_d2(canonical_model, pts, cuts)
    assert got.shape == (len(pts), len(cuts))
    for point, row in zip(pts.tolist(), got.tolist()):
        d2 = oracles._point_gaps(canonical_model, point, cuts[-1])[1]
        assert row == [d2[:p].min() for p in cuts]
        assert math.sqrt(row[0]) == oracles.distance_to_cubes_ref(canonical_model, point, cuts[0])


def _tie_edges(p, e, u):
    """Floats lo < hi below p with fl(p - lo) == fl(p - hi) == e, where u is
    the spacing of floats at e: p - lo and p - hi are e + 0.45 u and
    e - 0.45 u, to within the far finer spacing at lo."""
    lo = float(Fraction(p) - Fraction(e) - Fraction(u) * Fraction(9, 20))
    hi = float(Fraction(p) - Fraction(e) + Fraction(u) * Fraction(9, 20))
    return lo, hi


@pytest.mark.parametrize("axis", ["x", "y"])
def test_planted_tie_cubes_are_measured(axis):
    """A cube overlapping a rectangle by under an ulp of the rectangle's
    extent from a point, in the box [-1, 1]^2 seen from (0.75, 0.75); the y
    case is the x case transposed.  A narrow rectangle reaches left to
    x = lo, and cube 1 ends at x = hi, just past lo, across the rectangle's y
    range, so fl(p - lo) == fl(p - hi): the overlap moves the ratio to
    1 - 2^-53.  Cube 2 lies in the same y band within reach of a long
    rectangle.  The tree's ratios are density_ratio, the per-point kernel it
    replaced and the exact value."""
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
    want = [density_ratio(model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
    assert want[0] == 1.0 - u
    assert oracles.plain_ratios(model, rects).tolist() == want
    assert oracles.point_ratios(model, (p, p), rects).tolist() == want


# -- the tree on 46,655 cubes, and on areas that need many limbs ---------------------------

SHELF_CUBES = CUBES + (20_000, 46_654)


def test_shelf_totals_match_oracles(shelf_46k):
    """On 46,655 cubes the tree's totals are the dense fsum bit for bit on
    seeded, edge, ulp and node-box rectangles, and its ratios the per-point
    kernel it replaced."""
    model = shelf_46k
    rects = np.concatenate(
        [
            _seeded_rects(300, 5),
            _edge_rects(model, SHELF_CUBES),
            _ulp_rects(model, SHELF_CUBES),
            _node_rects(model),
        ]
    )
    assert _first_mismatch(model, rects) is None
    for rect, got in zip(rects, oracles.plain_ratios(model, rects)):
        x0, x1, y0, y1 = rect
        center = ((x0 + x1) / 2, (y0 + y1) / 2)
        assert oracles.point_ratios(model, center, rect[None, :])[0] == got


def _diagonal_model(trunc=400):
    """Cubes of sides 2^-(n+1) strung along the diagonal towards the origin,
    cube n at x = y = w (1.5 + u / 2) for seeded u in [0, 1): the areas fall
    from 2^-4 to 2^-802, and cx + w rounds, so whole-cube areas carry full
    mantissas."""
    seq = WeightSequence.geometric(2.0**-4, 0.25)
    sides = np.array([seq.w(n) for n in range(1, trunc + 1)])
    corner = sides * (1.5 + np.random.default_rng(4).uniform(0.0, 1.0, trunc) / 2)
    outer = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    return CompactSetModel(outer, seq, trunc, corner, corner, sides)


def test_many_limbs_match_oracles():
    """Areas spanning about 800 binary orders need 20 limbs; the tree's
    totals still equal the dense fsum and the exact rational sum of the
    pieces, rounded once, on rectangles around the diagonal at every scale
    and on node-box rectangles."""
    model = _diagonal_model()
    assert len(model.index.tree.limbs) >= 15
    rng = np.random.default_rng(6)
    scale = 2.0 ** -rng.uniform(1.0, 390.0, 400)
    center = scale * rng.uniform(1.0, 3.0, 400)
    half = scale * rng.uniform(0.5, 4.0, (2, 400))
    rects = np.stack([center - half[0], center + half[0], center - half[1], center + half[1]], 1)
    rects = np.concatenate([np.clip(rects, 0.0, 1.0), _node_rects(model)])
    assert _first_mismatch(model, rects) is None
    xs, x1s, ys, y1s = model.xs, model.xs + model.sides, model.ys, model.ys + model.sides
    for rect, got in zip(rects[::10], model.total_overlaps(rects[::10])):
        x0, x1, y0, y1 = rect
        wx = np.minimum(x1, x1s) - np.maximum(x0, xs)
        wy = np.minimum(y1, y1s) - np.maximum(y0, ys)
        pieces = np.maximum(wx, 0.0) * np.maximum(wy, 0.0)
        assert got == float(sum(map(Fraction, pieces[pieces > 0.0].tolist()), Fraction(0)))


def test_positive_totals_are_the_positive_totals(canonical_model, rect_sets):
    """positive_totals reads total_overlaps > 0.0 on the seeded, edge,
    one-ulp and node-box rectangles, on rectangles around the diagonal
    model's cubes at every scale and seeded ones, and on corner slivers at the origin of
    cube 1 (a large cube) whose one piece underflows to 0.0 (1e-200 square)
    or not (1e-150 square)."""
    slivers = np.array([[0.0, 1e-200, 0.0, 1e-200], [0.0, 1e-150, 0.0, 1e-150]])
    diagonal = _diagonal_model()
    scale = 2.0 ** -np.random.default_rng(6).uniform(1.0, 390.0, 400)
    around = np.stack([scale, 3 * scale, scale / 2, 2 * scale], axis=1)
    away = np.concatenate([_node_rects(diagonal), _seeded_rects(200, 8)])
    for model, rects in (
        (canonical_model, np.concatenate([*rect_sets.values(), slivers])),
        (diagonal, np.concatenate([np.clip(around, 0.0, 1.0), away])),
    ):
        want = model.total_overlaps(rects) > 0.0
        assert model.positive_totals(rects).tolist() == want.tolist()
        assert want.any() and not want.all()
    assert canonical_model.positive_totals(slivers).tolist() == [False, True]


# -- negative controls: each mis-stepped descent fails a check above ------------------


def _loose_inside(boxes, nodes, rect, rows):
    """Counts a node one ulp wider than the rectangle as inside it."""
    (bx0, bx1, by0, by1), (x0, x1, y0, y1) = boxes, rect
    return (
        (bx0[nodes] >= np.nextafter(x0[rows], -np.inf))
        & (bx1[nodes] <= np.nextafter(x1[rows], np.inf))
        & (by0[nodes] >= np.nextafter(y0[rows], -np.inf))
        & (by1[nodes] <= np.nextafter(y1[rows], np.inf))
    )


def _ulp_blind_meets(boxes, nodes, rect, rows, closed):
    """Drops a node that overlaps the rectangle by one ulp."""
    (bx0, bx1, by0, by1), (x0, x1, y0, y1) = boxes, rect
    return (
        (np.nextafter(bx0[nodes], np.inf) < x1[rows])
        & (np.nextafter(bx1[nodes], -np.inf) > x0[rows])
        & (np.nextafter(by0[nodes], np.inf) < y1[rows])
        & (np.nextafter(by1[nodes], -np.inf) > y0[rows])
    )


_VARIANTS = {
    "loose_inside": ("_node_inside", _loose_inside),
    "ulp_blind_meets": ("_node_meets", _ulp_blind_meets),
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_node_tests_need_exact_comparisons(canonical_model, rect_sets, monkeypatch, variant):
    """A descent that counts a node one ulp wider than the rectangle as
    inside, or drops a node overlapping it by one ulp, gives some node-box
    rectangle a total other than the dense fsum."""
    monkeypatch.setattr(setmodel, *_VARIANTS[variant])
    assert _first_mismatch(canonical_model, rect_sets["nodes"]) is not None


def _planted_rounding_model():
    """Sixteen cubes in the unit box: leaf 1 holds cube 1 (side 2^-2, at
    the origin) and seven cubes of side 2^-30 in the lower-left quadrant,
    leaf 2 eight cubes of side 2^-30 in the upper-right quadrant, two of
    which straddle x = 0.75 by three quarters of their width.  All
    coordinates are dyadic, so every piece is exact.  The rectangle [0,
    0.75] x [0, 0.8125] holds leaf 1 whole: A = 2^-4 + 7 2^-60, which rounds
    to 2^-4, and two boundary pieces B = 1.5 2^-60; A + B rounds to 2^-4 +
    2^-56, but the rounded A plus B rounds back to 2^-4."""
    tiny = 2.0**-30
    seq = WeightSequence.explicit([2.0**-4] + [tiny * tiny] * 15)
    xs = [0.0] + [0.3125 + i / 1024 for i in range(7)]
    ys = [0.0] + [0.125] * 7
    xs += [0.75 - 0.75 * tiny] * 2 + [0.625 + i / 1024 for i in range(6)]
    ys += [0.5625, 0.5625 + 1 / 1024] + [0.875] * 6
    sides = [0.25] + [tiny] * 15
    model = CompactSetModel(Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0), seq, 16, xs, ys, sides)
    return model, np.array([[0.0, 0.75, 0.0, 0.8125]])


def _planted_total_is_exact(model, rect):
    """Whether the tree's total of the rectangle is the exact rational sum
    of its pieces, rounded once."""
    x0, x1, y0, y1 = rect[0]
    wx = np.minimum(x1, model.xs + model.sides) - np.maximum(x0, model.xs)
    wy = np.minimum(y1, model.ys + model.sides) - np.maximum(y0, model.ys)
    pieces = (np.maximum(wx, 0.0) * np.maximum(wy, 0.0)).tolist()
    return model.total_overlaps(rect)[0] == float(sum(map(Fraction, pieces), Fraction(0)))


def test_planted_whole_node_adds_as_limbs():
    """The planted rectangle takes leaf 1 whole and two boundary pieces, and
    its total is the exact sum rounded once: 2^-4 + 2^-56."""
    model, rect = _planted_rounding_model()
    whole, boundary, big = (v[0] for v in _descent(model, rect))
    assert sorted(whole.tolist()) == list(range(8)) and boundary.size == 8 and not big.size
    assert _planted_total_is_exact(model, rect)
    assert model.total_overlaps(rect)[0] == 2.0**-4 + 2.0**-56


def test_node_totals_as_rounded_floats_fail(monkeypatch):
    """Negative control: adding each row's whole-node total as one rounded
    float instead of its limbs rounds the planted total twice."""
    limb_values = setmodel._limb_values

    def rounded(limbs, shift, bits):
        return np.array([[math.fsum(col) for col in limb_values(limbs, shift, bits).T]])

    model, rect = _planted_rounding_model()
    monkeypatch.setattr(setmodel, "_limb_values", rounded)
    assert not _planted_total_is_exact(model, rect)


# -- the box query: exactly the closed-meet set ------------------------------------------


def _index_boxes(model, cubes):
    """Closed query boxes: seeded boxes over four decades, the edge and ulp
    rectangles of the chosen cubes, node boxes, seeded boxes reaching
    outside the outer box (and one around it, one beside it), and point
    boxes at cube corners, edge midpoints and centers, at node-box corners
    and at seeded points."""
    rng = np.random.default_rng(17)
    cx, cy = rng.uniform(-0.2, 1.2, (2, 300))
    w, h = 10.0 ** rng.uniform(-4.0, 0.0, (2, 300))
    outside = np.stack([cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2], axis=1)
    outside = np.concatenate([outside, [[-10.0, 10.0, -10.0, 10.0], [1.5, 2.0, 0.2, 0.3]]])
    nodes = _node_boxes(model)
    corners = np.concatenate([nodes[:, [0, 2]], nodes[:, [1, 3]], nodes[:, [0, 3]]])
    points = np.concatenate(
        [np.array(_edge_points(model, cubes)), corners, rng.uniform(0.0, 1.0, (300, 2))]
    )
    return np.concatenate(
        [
            _seeded_rects(300, 5),
            _edge_rects(model, cubes),
            _ulp_rects(model, cubes),
            nodes,
            outside,
            points[:, [0, 0, 1, 1]],
        ]
    )


def _missed(model, cubes):
    """(box, cube) of the first closed-meet cube a query leaves out, or None.

    Every query must return ascending int32 indexes, each of a cube that
    meets the box."""
    boxes = _index_boxes(model, cubes)
    rows, got = model.meets(boxes)
    assert got.dtype == np.int32
    starts = np.searchsorted(rows, np.arange(len(boxes) + 1))
    for box, a, b in zip(boxes, starts, starts[1:]):
        want = oracles.closed_meet_ref(model, box)
        assert bool(np.all(np.diff(got[a:b]) > 0))
        assert np.isin(got[a:b], want).all(), box
        lost = np.setdiff1d(want, got[a:b])
        if lost.size:
            return box, int(lost[0])
    return None


@pytest.mark.parametrize(
    "fixture, cubes, big", [("canonical_model", CUBES, 13), ("shelf_46k", SHELF_CUBES, 53)]
)
def test_index_query_holds_closed_meet_set(request, fixture, cubes, big):
    """The tree's box query returns exactly the cubes whose closed square
    meets the box, including boxes that touch a cube at an edge or a
    corner, reach one ulp into it, equal a node box, lie partly or wholly
    outside the outer box, or are points.  The cubes larger than the cell of
    an isqrt(N / 4) grid, cubes 1..big, are listed in ``index.big`` and the
    tree holds none of them."""
    model = request.getfixturevalue(fixture)
    assert model.index.big.tolist() == list(range(big))
    assert np.array_equal(np.unique(model.index.tree.ids), np.arange(big, model.trunc))
    assert _missed(model, cubes) is None


def test_every_cube_large_goes_to_the_tree():
    """Sixteen cubes of side 0.6 in one shelf row of a 100 x 1 box are all
    larger than the cell of the 2 x 2 grid (side 0.5); the tree then holds
    them all, and totals and box queries stay exact."""
    equal = WeightSequence.explicit([0.36] * 16)
    model = build_packing(equal, 16, Rectangle.from_bounds(0.0, 100.0, 0.0, 1.0))
    assert bool(np.all(model.sides > 0.5)) and not model.index.big.size
    assert np.array_equal(np.unique(model.index.tree.ids), np.arange(16))
    rects = np.array([[0.3, 2.0, 0.1, 0.9], [0.6, 1.2, 0.0, 1.0], [5.0, 9.7, 0.5, 0.6]])
    want = [oracles.density_overlap_ref(model, *rect) for rect in rects]
    assert model.total_overlaps(rects).tolist() == want
    assert model.total_overlaps(rects[:2], 2).tolist() == want[:2]
    rows, cubes = model.meets(rects)
    for i, rect in enumerate(rects):
        assert cubes[rows == i].tolist() == oracles.closed_meet_ref(model, rect).tolist()


def test_index_query_needs_low_side_reach(canonical_model, monkeypatch):
    """Negative control: a query whose node test is strict on the box's low
    sides loses the cubes that touch the box from the left or below."""
    meets = setmodel._node_meets

    def strict(boxes, nodes, rect, rows, closed):
        if not closed:
            return meets(boxes, nodes, rect, rows, closed)
        (bx0, bx1, by0, by1), (x0, x1, y0, y1) = boxes, rect
        return (
            (bx0[nodes] <= x1[rows])
            & (bx1[nodes] > x0[rows])
            & (by0[nodes] <= y1[rows])
            & (by1[nodes] > y0[rows])
        )

    monkeypatch.setattr(setmodel, "_node_meets", strict)
    assert _missed(canonical_model, CUBES) is not None


def test_near_cubes_measures_only_nearby_cubes(shelf_46k, shelf_46k_cover, monkeypatch):
    """On 46,655 cubes, the box query of a point +- 0.01 returns exactly the
    cubes whose dense per-axis gaps are both within 0.01, and hands the
    kernel under 1% of the cubes: at each point the scan samples, and on
    average over seeded points anywhere in the box, also near the crowded
    top shelf rows (a uniform grid gave single queries there up to 12%)."""
    kernel = CompactSetModel.overlaps
    given = []

    def recording(self, rects, reduce, cubes):
        given.append(self.xs[cubes].size)
        return kernel(self, rects, reduce, cubes)

    cover = shelf_46k_cover
    config = ScanConfig(t_grid=(0.01,), points=50, rects_per_point=1, seed=42)
    sampled = sample_points(shelf_46k, cover, config).points
    seeded = tuple(map(tuple, np.random.default_rng(3).uniform(0.0, 1.0, (300, 2)).tolist()))
    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    xs, ys, sides = shelf_46k.xs, shelf_46k.ys, shelf_46k.sides
    cells = []
    for x, y in sampled + seeded:
        given.clear()
        got = shelf_46k.meets(np.array([[x - 0.01, x + 0.01, y - 0.01, y + 0.01]]))[1]
        cells.append(sum(given))
        dense_x = np.maximum(np.maximum(xs - x, x - (xs + sides)), 0.0)
        dense_y = np.maximum(np.maximum(ys - y, y - (ys + sides)), 0.0)
        assert got.tolist() == np.flatnonzero(np.maximum(dense_x, dense_y) <= 0.01).tolist()
    one_percent = shelf_46k.trunc / 100
    assert max(cells[: len(sampled)]) < one_percent
    assert sum(cells[len(sampled) :]) < len(seeded) * one_percent


def test_kernel_cells_follow_the_perimeter(shelf_46k, monkeypatch):
    """Work bound: rectangles scaled by k = 1, 2 and 4 send the kernel cells
    that grow at most about linearly in k, like their perimeter, while the
    whole-cube pieces the tree adds without the kernel grow faster: their
    share per kernel cell at least doubles.

    On the canonical 46,655-cube shelf, over its crowded top rows, each row
    is one cube tall, so whole-cube pieces grow with the rectangles' width
    and the rows they cross, a little faster than k.  On a shelf of 46,655
    equal cubes, which fills [0, 1] x [0, 0.25] in 108 rows of 432, they
    grow about as k^2."""
    kernel = CompactSetModel.overlaps
    given = []

    def recording(self, rects, reduce, cubes):
        given.append(self.xs[cubes].size)
        return kernel(self, rects, reduce, cubes)

    equal = WeightSequence.explicit([(1 / 432) ** 2] * 46_655)
    grid = build_packing(equal, 46_655, Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(1)
    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    for model, (y_lo, y_hi), (w, h), growth in (
        (shelf_46k, (0.64707, 0.64707), (0.003, 0.0004), 4.0),
        (grid, (0.05, 0.2), (0.01, 0.01), 12.0),
    ):
        cx, cy = rng.uniform(0.1, 0.9, 50), rng.uniform(y_lo, y_hi, 50)
        x1s, y1s = model.xs + model.sides, model.ys + model.sides
        cells, whole = [], []
        for k in (1, 2, 4):
            rects = np.stack([cx - k * w / 2, cx + k * w / 2, cy - k * h / 2, cy + k * h / 2], 1)
            given.clear()
            model.total_overlaps(rects)
            cells.append(sum(given))
            inside = [
                (model.xs >= a) & (x1s <= b) & (model.ys >= c) & (y1s <= d)
                for a, b, c, d in rects
            ]
            whole.append(int(np.count_nonzero(inside)))
        assert cells[1] <= 2.5 * cells[0] and cells[2] <= 2.5 * cells[1], cells
        assert whole[2] >= growth * whole[0], whole
        # whole-cube pieces per kernel cell at least double from k = 1 to 4
        assert whole[2] * cells[0] >= 2 * whole[0] * cells[2], (whole, cells)


# -- memory: the kernel never holds a (rectangles x cubes) array ------------------------

# A block holds _BLOCK_CELLS widths; a reduction keeps a handful of block-sized
# float64 temporaries alive at once (wx, wy, the maximum each subtracts, masks).
# Eight of them, plus 1 MB for per-rectangle inputs and outputs, bounds the peak;
# one dense (4000 x 3124) float64 temporary alone is about 100 MB.
_PEAK_BOUND = 8 * 8 * setmodel._BLOCK_CELLS + (1 << 20)


@pytest.mark.parametrize("query", ["separation", "closed"])
def test_kernel_memory_is_bounded_by_block(canonical_model, query):
    rects = _seeded_rects(4000, 3)
    assert _PEAK_BOUND < rects.shape[0] * canonical_model.trunc * 8 / 10
    pts = np.ascontiguousarray(rects[:, [0, 2]])
    run = {
        "separation": lambda: _meets_prefix(canonical_model, rects, canonical_model.trunc),
        "closed": lambda: _in_cubes(canonical_model, pts),
    }[query]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"


def test_positive_totals_memory_is_bounded_by_block(shelf_46k):
    """The positivity pass over the 46,655-cube shelf's 53 large cubes keeps
    one flag per row of each kernel block: a (boxes x large cubes) float64
    array of these 40,000 boxes would alone take about 17 MB.  The tree
    descent stays within the bound too (about 1.6 MB in all)."""
    rects = _seeded_rects(40_000, 3)
    big = shelf_46k.index.big.size
    assert big == 53 and rects.shape[0] * big * 8 > 8 * _PEAK_BOUND
    tracemalloc.start()
    try:
        shelf_46k.positive_totals(rects)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"


# A ratio pass measures its rows in chunks of _TOTALS_ROWS rectangles, each
# on its own, and descends the cube tree once per chunk.  Per rectangle of a
# chunk it holds its coordinates, a few 8-byte values for each of its
# (rectangle, node) pairs alive at one level, some more for each of its
# boundary cells, and its pieces and limb values; seeded rectangles spanning
# four decades take about 330 bytes per rectangle of a chunk on the
# canonical cubes.  1 KiB per rectangle of _CHUNK_RECTS, half a KiB per
# rectangle of a chunk, bounds the peak.
_CHUNK_PEAK = 1024 * setmodel._CHUNK_RECTS


def test_ratio_memory_is_bounded_by_chunk(canonical_model):
    """Three chunks of seeded rectangles cost one chunk's memory; measuring
    them against every cube at once would take over 70 times the bound."""
    rects = _seeded_rects(3 * setmodel._TOTALS_ROWS, 3)
    assert _CHUNK_PEAK < rects.shape[0] * canonical_model.trunc * 8 / 70
    tracemalloc.start()
    try:
        oracles.plain_ratios(canonical_model, rects)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _CHUNK_PEAK, f"peak {peak / 2**20:.1f} MB"


# A scan holds one run of drawn rectangles (_TOTALS_ROWS rows of 32 bytes,
# 512 KiB) while it measures the run's families as one chunk of
# total_overlaps; a default scan of 100 points x 1,500 rectangles on the
# canonical cubes peaks at about 2.3 MiB, sampling included.  4 MiB bounds it; the
# scan's 150,000 rectangles alone, held at once, take 4.6 MiB.
_SCAN_PEAK = 4 << 20


def test_scan_memory_is_bounded_by_run(canonical_model, canonical_cover, canonical_ratefn):
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=100, rects_per_point=500, seed=42)
    assert _SCAN_PEAK < config.points * len(config.t_grid) * config.rects_per_point * 32
    tracemalloc.start()
    try:
        scan_density_bound(canonical_model, canonical_cover, canonical_ratefn, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _SCAN_PEAK, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
def test_sample_points_memory_is_bounded_by_block(
    canonical_model, canonical_cover, deposition_model, deposition_cover, monkeypatch, layout
):
    """Sampling 1,000 points draws batches of 4,000 draws and more; one
    (batch x cubes) boolean array would alone be 12.5 MB on either layout.
    On the deposition layout, where the cover holds 99.5% of the box, the
    batches double up to the cap."""
    model, cover = {
        "canonical": (canonical_model, canonical_cover),
        "deposition": (deposition_model, deposition_cover),
    }[layout]
    config = ScanConfig(t_grid=(0.01,), points=1000, rects_per_point=1, seed=42)
    dense = 4 * config.points * model.trunc  # one boolean per (draw, cube)
    assert _PEAK_BOUND < dense / 2
    sizes, scannable = [], scan._scannable_rows
    monkeypatch.setattr(
        scan, "_scannable_rows", lambda m, c, pts: sizes.append(len(pts)) or scannable(m, c, pts)
    )
    tracemalloc.start()
    try:
        sample = sample_points(model, cover, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sample.points) == config.points
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"
    if layout == "deposition":
        assert max(sizes) == scan._SAMPLE_BATCH


# -- the large cubes against family boxes: bit for bit the two-tree pass ----------------

_LAYOUT_CUBES = {
    "canonical_model": CUBES,
    "shelf_46k": SHELF_CUBES,
    "deposition_model": CUBES,
}


def _scan_families(model, seed, points=12, per=150):
    """Families the scan draws, ``per`` rectangles each at t = 0.25, 0.05
    and 0.01, through cube corners and edge midpoints (large cubes among
    them) and seeded points, with a NaN row, a row with one NaN coordinate,
    a zero-width and a zero-height row planted in some families and one
    family all NaN; all of these have NaN ratios."""
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=1, rects_per_point=per, seed=0)
    rng = np.random.default_rng(seed)
    anchors = _edge_points(model, (0, 1, 2, 3, 26))[:: 3][:points]
    anchors += [tuple(p) for p in rng.uniform(0.02, 0.98, (points, 2)).tolist()]
    rects = np.concatenate(
        [oracles._draw_rects(rng, p, config.t_grid, config, model) for p in anchors]
    )
    nan = float("nan")
    rects[per * 2 + 5] = nan
    rects[per * 4 + 1, 2] = nan
    rects[per * 5 + 3, 1] = rects[per * 5 + 3, 0]
    rects[per * 7 + 8, 3] = rects[per * 7 + 8, 2]
    rects[per * 9 : per * 10] = nan
    return rects, per


def _same_bits(got, want):
    return got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("layout", sorted(_LAYOUT_CUBES))
def test_totals_match_two_tree_pass(request, layout):
    """On the canonical, 46k shelf and deposition layouts the totals equal
    the two-tree pass (``oracles.two_tree_totals``) bit for bit, on the
    seeded, edge, ulp and node-box rectangles taken as families of one and
    of seven, and the edge and ulp ones also one call each; the scan's
    families give ``two_tree_ratios``' ratios, NaN rows included."""
    model = request.getfixturevalue(layout)
    cubes = _LAYOUT_CUBES[layout]
    sets = [_seeded_rects(300, 5), _edge_rects(model, cubes), _ulp_rects(model, cubes)]
    rects = np.concatenate(sets + [_node_rects(model)])
    want = oracles.two_tree_totals(model, rects)
    assert _same_bits(model.total_overlaps(rects), want)
    sevens = rects[: len(rects) // 7 * 7]
    assert _same_bits(model.total_overlaps(sevens, 7), want[: len(sevens)])
    # one rectangle per call: a kernel block then holds its own candidates only
    edges = np.concatenate(sets[1:])
    alone = np.array([model.total_overlaps(rect[None, :])[0] for rect in edges])
    assert _same_bits(alone, oracles.two_tree_totals(model, edges))
    drawn, per = _scan_families(model, 8)
    with np.errstate(invalid="ignore"):
        got = _ratios(model, drawn.copy(), per)
        want = oracles.two_tree_ratios(model, drawn, per)
        assert _same_bits(model.total_overlaps(drawn, per), oracles.two_tree_totals(model, drawn))
    assert _same_bits(got, want)
    assert np.isnan(got).sum() == per + 4 and (got < 1.0).sum() > 0


# The large-cube pass holds the families' boxes, one boolean per (box, large
# cube), and one kernel block at a time: a handful of float64 temporaries of
# _BLOCK_CELLS widths.  Its output is a row index and a value per positive
# piece, 16 bytes, held once per block and once joined.
_CANDIDATE_PEAK = 8 * 8 * setmodel._BLOCK_CELLS


def test_candidate_pass_memory_is_bounded_by_block(shelf_46k):
    """On the 46k shelf, the large-cube pass over one run of the scan's
    families (500 rectangles each) through points on the large cubes'
    edges peaks under eight blocks' temporaries plus twice its output,
    although its rectangles meet 2.5 large cubes each on average; one
    (rectangles x large cubes) float64 array would take over three times
    that."""
    model = shelf_46k
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=1, rects_per_point=500, seed=0)
    rng = np.random.default_rng(2)
    anchors = _edge_points(model, range(53))[::9][:21]
    rects = np.concatenate(
        [oracles._draw_rects(rng, p, config.t_grid, config, model) for p in anchors]
    )
    boxes = setmodel._family_boxes(rects, 500)
    dense = len(rects) * model.index.big.size * 8
    tracemalloc.start()
    try:
        rows, values = model._big_pieces(rects, boxes, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = _CANDIDATE_PEAK + 32 * len(rows)
    assert len(rows) > 2 * len(rects)
    assert 3 * bound < dense
    assert peak < bound, f"peak {peak / 2**20:.2f} MB, {len(rows)} pieces"


# -- chunks of whole families: each measured on its own ---------------------------------


def test_totals_across_chunks_match_two_tree_pass(canonical_model):
    """Chunks of whole families change no total: the scan's families of 500
    around 24 points, taken as families of 300 and 1,500 (neither divides
    _TOTALS_ROWS), as two families each larger than a chunk, and as 2^14 +
    1 single rows, give the two-tree totals bit for bit in every chunk."""
    model = canonical_model
    rects, _ = _scan_families(model, 4, points=16, per=500)
    want = oracles.two_tree_totals(model, rects)
    assert len(rects) == 36_000 and (want[-3 * 500 :] > 0.0).any()
    for family in (300, 1500, 18_000):
        step = family * max(1, setmodel._TOTALS_ROWS // family)
        assert step < len(rects) and setmodel._TOTALS_ROWS % family
        assert _same_bits(model.total_overlaps(rects, family), want)
    ones = rects[: setmodel._TOTALS_ROWS + 1]
    assert _same_bits(model.total_overlaps(ones), want[: len(ones)])


def test_total_overlaps_refuses_a_partial_family(canonical_model, monkeypatch):
    """A row count that is not a whole number of families is refused, with
    the family size and the row count named, before any chunk is measured."""
    measured = []
    monkeypatch.setattr(CompactSetModel, "_chunk_totals", lambda self, *a: measured.append(a))
    rects = _seeded_rects(setmodel._TOTALS_ROWS + 7, 1)
    for family in (2, 0):
        with pytest.raises(ValueError, match=rf"\b16391 rows .*family={family}\b"):
            canonical_model.total_overlaps(rects, family)
    assert not measured


def test_totals_memory_is_bounded_by_chunk(shelf_46k):
    """On the 46k shelf, families of 500 rectangles around points in the
    strip y <= 0.35 of its 53 large cubes, nearly all busy: a call of eight
    chunks peaks, beside its output, within 1.5 times a call of one.  A
    pass that held every row's large-cube pieces for the whole call would
    grow with the chunks (about five times the one-chunk peak at eight)."""
    model = shelf_46k
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=1, rects_per_point=500, seed=0)
    rng = np.random.default_rng(5)
    anchors = rng.uniform((0.01, 0.01), (0.99, 0.35), (86, 2)).tolist()
    rects = np.concatenate(
        [oracles._draw_rects(rng, p, config.t_grid, config, model) for p in anchors]
    )
    chunk = 500 * (setmodel._TOTALS_ROWS // 500)
    peaks = []
    for rows in (chunk, 8 * chunk):
        part = np.ascontiguousarray(rects[:rows])
        tracemalloc.start()
        try:
            totals = model.total_overlaps(part, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (totals > 0.0).mean() > 0.7
        peaks.append(peak - totals.nbytes)
    assert peaks[1] <= 1.5 * peaks[0], [f"{p / 2**20:.2f} MiB" for p in peaks]
