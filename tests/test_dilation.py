"""Simultaneous dilation in one and two dimensions.

Random 1D families are replayed through an exact-rational reference sweep
(tests/oracles.py) so the float implementation is checked against a second
arithmetic route, not against itself.  The growth loop is checked bit for
bit against the bisecting loop it replaced, and the 2D toggle sweeps over
flat arrays column for column against the object-based sweeps and the
label-based construction they replaced.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitometer import dilation
from densitometer.dilation import LOCATIONS, Rectangle, RectUnion, _grow, dilate_1d, dilate_2d
from densitometer.errors import InvalidGamma, OverlappingCubes, OverlappingInputs
from densitometer.interval1d import DisjointIntervalSet, Interval, Location
from densitometer.setmodel import build_cover

from oracles import (
    ColumnUnion,
    cubes,
    dilate_1d_exact,
    dilate_2d_labels,
    dilate_2d_objects,
    grow_ref,
    measure_exact,
    overlap_area_ref,
    raster_area_bracket,
)


# -- validation ----------------------------------------------------------------

def test_gamma_must_exceed_one():
    with pytest.raises(InvalidGamma):
        dilate_1d([Interval(0.0, 1.0)], 1.0)
    with pytest.raises(InvalidGamma):
        dilate_1d([Interval(0.0, 1.0)], 0.5)
    assert dilate_1d([Interval(0.0, 1.0)], 1.0, allow_gamma_one=True).gamma == 1.0


def test_inputs_must_be_disjoint():
    with pytest.raises(OverlappingInputs):
        dilate_1d([Interval(0.0, 1.0), Interval(0.5, 2.0)], 2.0)
    with pytest.raises(OverlappingCubes):
        dilate_2d([(0, 1, 0, 1), (0.5, 1.5, 0.5, 1.5)], 2.0)


def test_touching_cubes_are_disjoint():
    result = dilate_2d([(0, 1, 0, 1), (1, 2, 0, 1)], 2.0)
    assert result.measure == pytest.approx(50.0, rel=1e-12)


# -- hand instances --------------------------------------------------------------

def test_single_interval():
    result = dilate_1d([Interval(0.0, 1.0)], 2.0)
    assert result.union.pairs() == ((-2.0, 3.0),)
    assert result.union.measure == 5.0
    assert result.identity_rhs == 5.0


def test_two_intervals_factor_one():
    result = dilate_1d([Interval(0.0, 1.0), Interval(2.0, 3.0)], 1.0, allow_gamma_one=True)
    assert result.union.pairs() == ((-2.0, 4.0),)
    assert result.union.measure == 6.0


def test_single_cube():
    result = dilate_2d([(0, 1, 0, 1)], 1.0, allow_gamma_one=True)
    assert [r.bounds for r in result.rects] == [(-1.0, 2.0, -1.0, 2.0)]
    assert result.measure == 9.0


def test_stacked_cubes_shared_projection():
    # same x-projection: one column, y-sections dilated together
    result = dilate_2d([(0, 1, 0, 1), (0, 1, 2, 3)], 1.0, allow_gamma_one=True)
    assert [r.bounds for r in result.rects] == [(-1.0, 2.0, -2.0, 4.0)]
    assert result.measure == 18.0


def test_crowding_pushes_arms_outward():
    # the middle interval's arms must skip both neighbours entirely
    result = dilate_1d([Interval(0, 1), Interval(1.5, 2.5), Interval(3, 4)], 2.0)
    assert result.union.measure == pytest.approx(15.0, rel=1e-12)
    _, _, lefts, rights = _grow([0.0, 1.5, 3.0], [1.0, 2.5, 4.0], 2.0)
    assert lefts[1] < 0.0 or rights[1] > 4.0


# -- structure -------------------------------------------------------------------

def test_pieces_cover_sources():
    intervals = [Interval(0, 1), Interval(4, 4.5), Interval(10, 12)]
    result = dilate_1d(intervals, 3.0)
    _, _, lefts, rights = _grow([iv.lo for iv in intervals], [iv.hi for iv in intervals], 3.0)
    for source, left, right in zip(intervals, lefts, rights):
        assert left <= source.lo < source.hi <= right
        assert result.union.locate((source.lo + source.hi) / 2) is Location.INSIDE


def test_contains_three_verdicts():
    result = dilate_1d([Interval(0.0, 1.0)], 2.0)
    assert result.union.locate(0.5) is Location.INSIDE
    assert result.union.locate(-2.0) is Location.BOUNDARY
    assert result.union.locate(4.0) is Location.OUTSIDE
    union2 = dilate_2d([(0, 1, 0, 1)], 2.0)
    assert union2.locate((0.5, 0.5)) is Location.INSIDE
    assert union2.locate((-2.0, 0.5)) is Location.BOUNDARY
    assert union2.locate((9.0, 9.0)) is Location.OUTSIDE


def _random_rational_family(rng, n_max=12):
    pairs = []
    cursor = Fraction(rng.randrange(-2048, 0), 2048)
    for _ in range(rng.randrange(1, n_max)):
        cursor += Fraction(rng.randrange(1, 2048), 2048)
        lo = cursor
        cursor += Fraction(rng.randrange(1, 2048), 2048)
        pairs.append((lo, cursor))
    return pairs


@pytest.mark.parametrize("gamma", [Fraction(3, 2), Fraction(2), Fraction(8)])
def test_1d_union_matches_exact_oracle(gamma):
    rng = random.Random(int(gamma * 100))
    for _ in range(40):
        pairs = _random_rational_family(rng)
        result = dilate_1d([Interval(float(a), float(b)) for a, b in pairs], float(gamma))
        oracle = dilate_1d_exact(pairs, gamma)
        got = result.union.pairs()
        assert len(got) == len(oracle)
        for (glo, ghi), (olo, ohi) in zip(got, oracle):
            assert glo == pytest.approx(float(olo), abs=1e-12)
            assert ghi == pytest.approx(float(ohi), abs=1e-12)
        want = (2 * gamma + 1) * measure_exact(pairs)
        assert result.union.measure == pytest.approx(float(want), rel=1e-12)


def _rows(cubes):
    return [c.bounds for c in cubes]


def _random_cube_family(rng, count, side_hi=0.5):
    cubes = []
    while len(cubes) < count:
        w = rng.uniform(0.02, side_hi)
        x = rng.uniform(0.0, 4.0)
        y = rng.uniform(0.0, 4.0)
        cand = Rectangle.from_bounds(x, x + w, y, y + w)
        if all(overlap_area_ref(cand, c) == 0.0 for c in cubes):
            cubes.append(cand)
    return cubes


def test_2d_identity_and_raster():
    rng = random.Random(5)
    for trial in range(10):
        cubes = _random_cube_family(rng, rng.randrange(1, 8))
        gamma = (2.0, 4.0, 8.0)[trial % 3]
        result = dilate_2d(_rows(cubes), gamma)
        want = (2.0 * gamma + 1.0) ** 2 * math.fsum(c.area for c in cubes)
        assert result.measure == pytest.approx(want, rel=1e-9)
        lo, hi = raster_area_bracket([r.bounds for r in result.rects], cells=512)
        assert lo - 1e-9 <= result.measure <= hi + 1e-9


def test_2d_columns_disjoint_and_sorted():
    rng = random.Random(17)
    cubes = _random_cube_family(rng, 10)
    result = dilate_2d(_rows(cubes), 2.0)
    xs = [x_int for x_int, _ in result.columns]
    for a, b in zip(xs, xs[1:]):
        assert a.hi <= b.lo


# -- outside-point overlap bound ---------------------------------------------------

def test_witness_bound_holds_outside():
    """The per-block lemma: a rectangle holding a point strictly outside the
    gamma-dilation of disjoint cubes has |R n cubes| / |R| < 2/gamma."""
    rng = random.Random(23)
    cubes = _random_cube_family(rng, 6, side_hi=0.3)
    gamma = 8.0
    dil = dilate_2d(_rows(cubes), gamma)
    checked = 0
    while checked < 200:
        px = rng.uniform(-1.0, 5.0)
        py = rng.uniform(-1.0, 5.0)
        if dil.classify([px], [py])[0]:
            continue
        w = rng.uniform(0.05, 1.0)
        h = rng.uniform(0.05, 1.0)
        rect = Rectangle.from_bounds(px - w * 0.3, px + w * 0.7, py - h * 0.4, py + h * 0.6)
        overlap = math.fsum(overlap_area_ref(rect, c) for c in cubes)
        assert overlap / rect.area < 2.0 / gamma
        checked += 1


# -- growth loop against the bisecting loop it replaced ------------------------------

def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_grow_matches_reference(los, his, gamma):
    got = _grow(los, his, gamma)
    want = grow_ref(los, his, gamma)
    for name, a, b in zip(("union lo", "union hi", "lefts", "rights"), got, want):
        assert _bits(a) == _bits(b), name


members = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 3), st.booleans()), min_size=1, max_size=24
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    members,
    st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-30]),
    st.sampled_from([1.0, 1.5, 8.0, 16.0]),
)
def test_grow_matches_reference_bit_for_bit(drawn, scale, gamma):
    """Gaps of zero make touching members, and gaps counted in units of
    gamma make arms that end exactly on a neighbouring block's end; scales
    other than 1 make the arm arithmetic round.  gamma = 1 is the boundary
    factor that ``allow_gamma_one`` admits."""
    los, his = [], []
    cursor = -2.0 * scale
    for gap, length, in_gamma_units in drawn:
        cursor += gap * scale * (gamma if in_gamma_units else 1.0)
        los.append(cursor)
        cursor += length * scale
        his.append(cursor)
    _assert_grow_matches_reference(los, his, gamma)
    if gamma == 1.0:
        union = dilate_1d([Interval(a, b) for a, b in zip(los, his)], 1.0, allow_gamma_one=True)
        ref_lo, ref_hi, _, _ = grow_ref(los, his, 1.0)
        assert union.union.pairs() == tuple(zip(ref_lo, ref_hi))


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
def test_grow_matches_reference_on_cover_calls(
    canonical_model, deposition_model, layout, monkeypatch
):
    """Every growth call made while building blocks 3-4 of either layout."""
    model = {"canonical": canonical_model, "deposition": deposition_model}[layout]
    calls = []

    def recording(los, his, gamma):
        calls.append((list(los), list(his), gamma))
        return _grow(los, his, gamma)

    monkeypatch.setattr(dilation, "_grow", recording)
    build_cover(model, 3, 4)
    assert len(calls) > 5000
    for los, his, gamma in calls:
        _assert_grow_matches_reference(los, his, gamma)


# -- toggle sweeps against the object-based and label-based oracles ---------------

def _assert_matches_oracles(cubes, gamma, allow_gamma_one=False):
    """Equal columns, rectangle counts and measures against both oracles."""
    got = dilate_2d(_rows(cubes), gamma, allow_gamma_one=allow_gamma_one)
    for oracle in (dilate_2d_objects, dilate_2d_labels):
        want = oracle(cubes, gamma, allow_gamma_one=allow_gamma_one)
        assert got.columns == want.columns, oracle.__name__
        assert len(got) == len(want), oracle.__name__
        assert got.measure == want.measure, oracle.__name__


def _block(model, s):
    return cubes(model, s**s, (s + 1) ** (s + 1) - 1)


@pytest.mark.parametrize("s", [3, 4])
def test_canonical_blocks_match_label_oracle(canonical_model, s):
    _assert_matches_oracles(_block(canonical_model, s), 2.0**s)


def test_deposition_block4_matches_label_oracle(deposition_model):
    _assert_matches_oracles(_block(deposition_model, 4), 16.0)


def test_deposition_block3_matches_oracles(deposition_model):
    _assert_matches_oracles(_block(deposition_model, 3), 8.0)


@pytest.mark.parametrize(
    "bounds",
    [
        # touching along an edge, side by side and stacked
        [(0, 1, 0, 1), (1, 2, 0, 1)],
        [(0, 1, 0, 1), (0, 1, 1, 2)],
        # sharing only a corner
        [(0, 1, 0, 1), (1, 2, 1, 2)],
        # one cube's top equal to another's bottom, x-ranges offset
        [(0, 2, 0, 2), (1, 2, 2, 3), (3, 4, 1, 2)],
        # two sections on one y-cell sharing an x-endpoint, beside a third
        [(0, 1, 0, 1), (1, 3, -1, 1), (4, 5, 0.5, 1.5)],
    ],
)
@pytest.mark.parametrize("gamma", [1.0, 2.0, 8.0])
def test_hand_cases_match_label_oracle(bounds, gamma):
    cubes = [Rectangle.from_bounds(*b) for b in bounds]
    _assert_matches_oracles(cubes, gamma, allow_gamma_one=True)


squares = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 4)), min_size=1, max_size=14
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(squares, st.sampled_from([1.5, 2.0, 4.0, 8.0, 16.0]))
def test_random_square_families_match_label_oracle(drawn, gamma):
    """Integer corners make touching edges, corners and shared endpoints common."""
    cubes = [Rectangle.from_bounds(x, x + w, y, y + w) for x, y, w in drawn]
    try:
        dilate_2d_labels(cubes, gamma)
    except OverlappingCubes:
        with pytest.raises(OverlappingCubes):
            dilate_2d(_rows(cubes), gamma)
    disjoint = []
    for c in cubes:
        if all(overlap_area_ref(c, d) == 0.0 for d in disjoint):
            disjoint.append(c)
    _assert_matches_oracles(disjoint, gamma)


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
def test_locate_matches_column_objects(canonical_cover, deposition_model, layout):
    """classify on the flat arrays against locate on the columns' interval
    objects, at rectangle corners, edge midpoints and centers, one ulp
    outside corners, and seeded points; locate is classify of one point."""
    cover = canonical_cover if layout == "canonical" else build_cover(deposition_model, 3, 4)
    rng = np.random.default_rng(8)
    for block in cover.blocks:
        union = block.union
        reference = ColumnUnion(union.columns)
        pts = []
        for x0, x1, y0, y1 in [r.bounds for r in union.rects[::3]]:
            xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
            pts += [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (xm, y0), (xm, y1), (x0, ym)]
            pts += [(x1, ym), (xm, ym), (np.nextafter(x0, -2.0), y0), (x1, np.nextafter(y1, 2.0))]
        pts = np.concatenate([np.array(pts), rng.uniform(-0.1, 1.1, (2000, 2))])
        want = [reference.locate((float(x), float(y))) for x, y in pts]
        code = union.classify(pts[:, 0], pts[:, 1])
        assert code.dtype == np.int8
        assert [LOCATIONS[c] for c in code] == want
        assert {Location.INSIDE, Location.BOUNDARY, Location.OUTSIDE} <= set(want)
        for k in range(0, len(pts), 97):
            assert union.locate((float(pts[k, 0]), float(pts[k, 1]))) is want[k]


def test_classify_hand_cases():
    """Two touching columns, the left one taller: their shared edge is
    boundary wherever either section holds it, even above the right one."""
    union = RectUnion([0, 1], [1, 2], [0, 1], [0, 1, 2], [0, 0], [2, 1], [2, 1])
    pts = [(1, 1.5), (1, 0.5), (0.5, 1.5), (1.5, 1.5), (1.5, 1), (2, 0.5), (0, 2), (-1, 1)]
    x, y = np.array(pts, dtype=float).T
    assert union.classify(x, y).tolist() == [1, 1, 2, 0, 1, 1, 1, 0]
    assert union.classify([np.nan, 0.5], [0.5, np.nan]).tolist() == [0, 0]
    assert RectUnion.empty().classify([0.5], [0.5]).tolist() == [0]


def test_cover_builds_no_interval_objects(deposition_model, monkeypatch):
    """The cover reads the model's arrays and classifies points from flat
    arrays: building it and one batch location query construct no
    Interval, Rectangle or DisjointIntervalSet."""
    built = {"Interval": 0, "Rectangle": 0, "DisjointIntervalSet": 0}

    def counting(name, method):
        def wrapped(self, *args, **kwargs):
            built[name] += 1
            return method(self, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(Interval, "__post_init__", counting("Interval", Interval.__post_init__))
    monkeypatch.setattr(Rectangle, "__init__", counting("Rectangle", Rectangle.__init__))
    monkeypatch.setattr(
        DisjointIntervalSet,
        "__init__",
        counting("DisjointIntervalSet", DisjointIntervalSet.__init__),
    )
    Interval(0.0, 1.0)
    assert built["Interval"] == 1
    built["Interval"] = 0
    cover = build_cover(deposition_model, 3, 4)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (4000, 2))
    hit = cover.classify(pts[:, 0], pts[:, 1]) > 0
    assert 0 < hit.sum() < len(pts)
    assert built == {"Interval": 0, "Rectangle": 0, "DisjointIntervalSet": 0}


def test_overlapping_sections_raise_before_the_sweep():
    # toggling (0, 2) and (1, 3) on one y-cell would give (0, 1) u (2, 3)
    with pytest.raises(OverlappingCubes):
        dilate_2d([(0, 2, 0, 2), (1, 3, 0, 2)], 2.0)


def test_block4_dilation_memory(canonical_model):
    """The label-based construction peaks at about 107 MB on this block; the
    sweeps hold only merged unions (about 5 MB)."""
    cubes = _rows(_block(canonical_model, 4))
    tracemalloc.start()
    try:
        dilate_2d(cubes, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
