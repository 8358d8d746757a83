"""Simultaneous dilation in one and two dimensions.

Random 1D families are replayed through an exact-rational reference sweep
(tests/oracles.py) so the float implementation is checked against a second
arithmetic route, not against itself.  The batched lockstep grower is
checked bit for bit against the one-union loop it replaced and the
bisecting loop before that, and the 2D toggle sweeps over flat arrays
column for column against the object-based sweeps and the label-based
construction they replaced, and byte for byte against the sweeps over
Python lists and dicts that the array sweeps replaced.
"""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitometer import cli, dilation
from densitometer.dilation import LOCATIONS, Rectangle, RectUnion, dilate_1d, dilate_2d
from densitometer.errors import InvalidGamma, OverlappingCubes, OverlappingInputs
from densitometer.interval1d import DisjointIntervalSet, Interval, Location
from densitometer.setmodel import build_cover

from oracles import (
    ColumnUnion,
    _grow,
    cubes,
    dilate_1d_exact,
    dilate_2d_labels,
    dilate_2d_objects,
    dilate_2d_toggles,
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
    _, _, _, lefts, rights = dilation._grow_batch([3], [0.0, 1.5, 3.0], [1.0, 2.5, 4.0], 2.0)
    assert lefts[1] < 0.0 or rights[1] > 4.0


# -- structure -------------------------------------------------------------------

def test_pieces_cover_sources():
    intervals = [Interval(0, 1), Interval(4, 4.5), Interval(10, 12)]
    result = dilate_1d(intervals, 3.0)
    los, his = [iv.lo for iv in intervals], [iv.hi for iv in intervals]
    _, _, _, lefts, rights = dilation._grow_batch([len(intervals)], los, his, 3.0)
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


# -- batched grower against the growth loops it replaced -----------------------------

def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _flat(unions):
    """Member counts and flat member ends of (los, his) unions."""
    counts = [len(los) for los, _ in unions]
    los = [lo for union_los, _ in unions for lo in union_los]
    his = [hi for _, union_his in unions for hi in union_his]
    return counts, los, his


def _split(counts, values):
    ends = np.cumsum(counts).tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


def _assert_unions_match_references(unions, gamma, n_out, out_lo, out_hi, lefts=None, rights=None):
    """Each union's dilation, and its members' hull ends when given, equal
    bit for bit those of both one-union growth loops."""
    counts = [len(los) for los, _ in unions]
    got = [_split(n_out, out_lo), _split(n_out, out_hi)]
    if lefts is not None:
        got += [_split(counts, lefts), _split(counts, rights)]
    for u, (los, his) in enumerate(unions):
        for reference in (grow_ref, _grow):
            want = reference(los, his, gamma)
            for name, a, b in zip(("union lo", "union hi", "lefts", "rights"), got, want):
                assert _bits(a[u]) == _bits(b), (reference.__name__, u, name)


def _csr(unions):
    """Unions of (los, his) lists as ``_grow_sweep``'s offsets and
    interleaved boundary values."""
    counts, los, his = _flat(unions)
    bounds = np.column_stack((los, his)).ravel()
    return np.concatenate(([0], np.cumsum(2 * np.asarray(counts, dtype=np.intp)))), bounds


def _drawn_union(drawn, scale, gamma):
    """Gaps of zero make touching members, and gaps counted in units of
    gamma make arms that end exactly on a neighbouring block's end; scales
    other than 1 make the arm arithmetic round."""
    los, his = [], []
    cursor = -2.0 * scale
    for gap, length, in_gamma_units in drawn:
        cursor += gap * scale * (gamma if in_gamma_units else 1.0)
        los.append(cursor)
        cursor += length * scale
        his.append(cursor)
    return los, his


members = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 3), st.booleans()), min_size=1, max_size=24
)
union_lists = st.lists(members, min_size=1, max_size=40)
scales = st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-30])
gammas = st.sampled_from([1.0, 1.5, 8.0, 16.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(union_lists, scales, gammas)
def test_grow_matches_reference_bit_for_bit(drawn, scale, gamma):
    """One batch of 1-40 unions of 1-24 members, grown in lockstep, against
    the one-union loop and the bisecting loop, union by union.  gamma = 1
    is the boundary factor that ``allow_gamma_one`` admits."""
    unions = [_drawn_union(d, scale, gamma) for d in drawn]
    out = dilation._grow_batch(*_flat(unions), gamma)
    _assert_unions_match_references(unions, gamma, *out)
    if gamma == 1.0:
        los, his = unions[0]
        union = dilate_1d([Interval(a, b) for a, b in zip(los, his)], 1.0, allow_gamma_one=True)
        ref_lo, ref_hi, _, _ = grow_ref(los, his, 1.0)
        assert union.union.pairs() == tuple(zip(ref_lo, ref_hi))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(union_lists, scales, gammas, st.sampled_from([1, 3, 7]))
def test_grow_sweep_batches_match_reference(drawn, scale, gamma, limit):
    """Batch limits of 1, 3 and 7 members split a sweep between unions,
    and a union longer than the limit forms a batch of its own; every
    union's dilation is still the one-union loop's."""
    unions = [_drawn_union(d, scale, gamma) for d in drawn]
    counts, los, his = _flat(unions)
    batches = []
    grow_batch = dilation._grow_batch

    def recording(counts, los, his, gamma):
        batches.append(list(counts))
        return grow_batch(counts, los, his, gamma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dilation, "_BATCH_MEMBERS", limit)
        patch.setattr(dilation, "_grow_batch", recording)
        out = dilation._grow_sweep(*_csr(unions), gamma)
    _assert_unions_match_references(unions, gamma, *out)
    assert [c for batch in batches for c in batch] == counts
    for batch in batches:
        assert len(batch) == 1 or sum(batch) <= limit
    for batch, after in zip(batches, batches[1:]):
        assert sum(batch) + after[0] > limit


def test_empty_unions():
    """An empty family dilates to nothing, and an empty union in a batch
    leaves its neighbours as the one-union loop grows them."""
    result = dilate_1d([], 2.0)
    assert result.union.pairs() == () and result.input_measure == 0.0
    unions = [([0.0, 2.0], [1.0, 3.0]), ([], []), ([2.5], [4.0]), ([], [])]
    out = dilation._grow_batch(*_flat(unions), 2.0)
    assert out[0].tolist() == [1, 0, 1, 0]
    _assert_unions_match_references(unions, 2.0, *out)
    csr = np.array([0, 0, 4, 4]), np.array([0.0, 1.0, 2.0, 3.0])
    n_out, out_lo, out_hi = dilation._grow_sweep(*csr, 2.0)
    assert n_out.tolist() == [0, 1, 0] and (out_lo.tolist(), out_hi.tolist()) == ([-4.0], [6.0])
    empty = dilation._grow_sweep(np.zeros(1, dtype=np.intp), np.zeros(0), 2.0)
    assert [a.size for a in empty] == [0, 0, 0]


def test_grow_near_the_float_range():
    """Arms that stay finite grow as the one-union loop grows them; an arm
    that overflows raises ValueError, as the interval it would end does."""
    got = dilate_1d([Interval(0.0, 1e306)], 16.0).union.pairs()
    ref_lo, ref_hi, _, _ = grow_ref([0.0], [1e306], 16.0)
    assert got == tuple(zip(ref_lo, ref_hi)) and math.isfinite(ref_hi[0] * 5.0)
    with pytest.raises(ValueError, match="float range"):
        dilate_1d([Interval(0.0, 1e306), Interval(1e307, 1e308)], 16.0)
    with pytest.raises(ValueError, match="float range"):
        dilate_2d([(0.0, 1e308, 0.0, 1.0)], 16.0)


def test_section_measures_are_fsums():
    """Each section's measure is the ``fsum`` of its lengths, bit for bit:
    1 + 2**-53 + 2**-53 is 1 from left to right but 1 + 2**-52 exactly.  A
    section of one block skips ``math.fsum``; the case of every section one
    block (with -0.0, whose fsum alone is +0.0, a subnormal and an empty
    section among them) and a mix of one-block and longer sections keep
    the bits too."""
    lengths = np.array([0.1, 1.0, 2.0**-53, 1.0, 2.0**-53, 2.0**-53, 0.3, 0.7])
    sec_off = np.array([0, 1, 3, 6, 8])
    want = [math.fsum(lengths[a:b].tolist()) for a, b in zip(sec_off, sec_off[1:])]
    assert want[2] != (1.0 + 2.0**-53) + 2.0**-53
    assert _bits(dilation._section_measures(sec_off, lengths)) == _bits(want)
    for lengths, sec_off in (
        ([0.1, -0.0, 5e-324, 0.7, 1.0 / 3.0], [0, 1, 2, 3, 3, 4, 5]),
        ([0.25, 1.0, 2.0**-53, 2.0**-53, 0.3, 0.1, 0.2, 1e-300], [0, 1, 4, 5, 7, 8]),
    ):
        want = [math.fsum(lengths[a:b]) for a, b in zip(sec_off, sec_off[1:])]
        got = dilation._section_measures(np.array(sec_off), np.array(lengths))
        assert _bits(got) == _bits(want)


def _recording_batches(monkeypatch):
    """Record, per sweep, its members, its unions and the union count of each
    batch it grows."""
    sweeps = []
    grow_sweep, grow_batch = dilation._grow_sweep, dilation._grow_batch

    def sweep(off, bounds, gamma):
        sweeps.append((int(off[-1]) // 2, off.size - 1, []))
        return grow_sweep(off, bounds, gamma)

    def batch(counts, los, his, gamma):
        sweeps[-1][2].append(len(counts))
        return grow_batch(counts, los, his, gamma)

    monkeypatch.setattr(dilation, "_grow_sweep", sweep)
    monkeypatch.setattr(dilation, "_grow_batch", batch)
    return sweeps


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
def test_grow_matches_reference_on_cover_calls(
    canonical_model, deposition_model, layout, monkeypatch
):
    """Every union the batch grower receives while building blocks 3-4 of
    either layout."""
    model = {"canonical": canonical_model, "deposition": deposition_model}[layout]
    calls = []
    grow_batch = dilation._grow_batch

    def recording(counts, los, his, gamma):
        out = grow_batch(counts, los, his, gamma)
        calls.append((gamma, list(zip(_split(counts, list(los)), _split(counts, list(his))))) + out)
        return out

    monkeypatch.setattr(dilation, "_grow_batch", recording)
    build_cover(model, 3, 4)
    assert sum(len(unions) for _, unions, *_ in calls) > 5000
    for gamma, unions, *out in calls:
        _assert_unions_match_references(unions, gamma, *out)


def test_cover_grows_in_few_batches(deposition_model, monkeypatch):
    """Each sweep of blocks 3-4 grows its unions in at most
    ceil(members / limit) batch calls, not one call per union."""
    sweeps = _recording_batches(monkeypatch)
    build_cover(deposition_model, 3, 4)
    assert len(sweeps) == 4  # the x-unions and the sections of each block
    for members, unions, batches in sweeps:
        assert len(batches) <= -(-members // dilation._BATCH_MEMBERS)
        assert sum(batches) == unions
    assert sum(unions for _, unions, _ in sweeps) > 100 * sum(len(b) for *_, b in sweeps)


# Working memory of one batch: a dozen arrays of one float per member
_GROW_PEAK_BOUND = 12 * 8 * dilation._BATCH_MEMBERS + (1 << 20)


def test_grow_sweep_memory_is_bounded_by_batch():
    """A family eight times the batch limit, whose unions each dilate into
    one block, peaks under a bound set by the limit, below the four block
    arrays that growing the whole family in one batch would hold (it peaks
    at about 10 MB)."""
    members, per_union = 8 * dilation._BATCH_MEMBERS, 16
    gaps = np.random.default_rng(4).integers(0, 2, members)
    los = np.cumsum(gaps + 1.0) - 1.0
    bounds = np.column_stack((los, los + 1.0)).ravel()
    off = np.arange(0, bounds.size + 1, 2 * per_union)
    assert _GROW_PEAK_BOUND < members * 8 * 4
    tracemalloc.start()
    try:
        n_out, _, _ = dilation._grow_sweep(off, bounds, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n_out == 1).all()
    assert peak < _GROW_PEAK_BOUND, f"peak {peak / 2**20:.2f} MB"


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        kind = "<i8" if np.asarray(arr).dtype.kind in "iu" else "<f8"
        h.update(np.asarray(arr, dtype=kind).tobytes())
    return h.hexdigest()


def test_cover_bytes_are_pinned(deposition_model, tmp_path):
    """Golden digests of the cover: ``cover.json`` of ``verify-all --level 4
    --seed 42`` and the deposition layout's block-3/4 union arrays.  The
    cube sides, and the bound in ``cover.json``, go through ``math.log`` and
    ``math.exp``, so these digests are those of the libm they were recorded
    with (glibc on x86-64); ``test_dyadic_dilation_bytes_are_pinned`` pins
    the dilation's own bytes on every platform."""
    args = ["verify-all", "--seq", "power:c=0.25,p=2", "--level", "4", "--seed", "42"]
    assert cli.main(args + ["--points", "10", "--rects", "40", "--out-dir", str(tmp_path)]) == 0
    cover_json = hashlib.sha256((tmp_path / "cover.json").read_bytes()).hexdigest()
    assert cover_json == "8dfb5b0cbe93222d66f46ee493ed3d56edb2b466872e48d18cb559ef0e1e5365"
    cover = build_cover(deposition_model, 3, 4)
    arrays = [a for b in cover.blocks for a in _union_arrays(b.union)]
    assert _digest(arrays) == "029d1635b11d9975beb6df6a5ee8dcf02a63f8d8c9802d3ba7239f29f1127db0"


def test_scan_bytes_are_pinned(tmp_path):
    """Golden digests of ``scan.csv`` and ``separation.csv`` from
    ``verify-all --level 4 --seed 42`` at its default 100 points x 500
    rectangles.  The cube sides, the rate function and the sampled points go
    through ``math.log`` and ``math.exp``, so, as for the cover, these are
    the digests of the libm they were recorded with (glibc on x86-64)."""
    args = ["verify-all", "--seq", "power:c=0.25,p=2", "--level", "4", "--seed", "42"]
    assert cli.main(args + ["--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("scan.csv", "separation.csv")
    }
    assert digests == {
        "scan.csv": "4934283915bd8c1a769c12306c3d292b3f311a7f0e86616bc6d50a9e4d999356",
        "separation.csv": "c7de7125655ecfca1576a6e031dc99e0b6c9c706f8e8da7bde1254bdd3832fc4",
    }


def _union_arrays(u):
    return (u.x_lo, u.x_hi, u.col_sec, u.sec_off, u.y_lo, u.y_hi, u.sec_measure)


def _dyadic_deposition(trunc, seed):
    """Random sequential deposition, as in the deposition fixture, of
    squares whose sides are powers of two from 2**-7 down to 2**-12, so
    every coordinate comes from the generator's doubles through IEEE +, -,
    * and comparisons; returns ``dilate_2d``'s rows."""
    rng = np.random.default_rng(seed)
    ws = np.ldexp(1.0, -(7 + 6 * np.arange(trunc) // trunc))
    xs, ys = np.empty(trunc), np.empty(trunc)
    for i, w in enumerate(ws.tolist()):
        x = float(rng.uniform(0.0, 1.0 - w))
        below = (x < xs[:i] + ws[:i]) & (xs[:i] < x + w)
        ys[i] = float(np.max(ys[:i][below] + ws[:i][below])) if below.any() else 0.0
        xs[i] = x
    return np.column_stack((xs, xs + ws, ys, ys + ws))


def test_dyadic_dilation_bytes_are_pinned():
    """Golden digest of ``dilate_2d`` at gamma 8 and 16 on a layout built
    without ``log`` or ``exp``: the dilation uses only IEEE +, -, *,
    comparisons and ``fsum``, so these bytes hold on every platform."""
    rows = _dyadic_deposition(3000, 0)
    unions = [dilate_2d(rows, gamma) for gamma in (8.0, 16.0)]
    assert [len(u) for u in unions] == [824, 821]
    arrays = [a for u in unions for a in _union_arrays(u)]
    assert _digest(arrays) == "1e9bd8277dcb2ffbd9394f2607ce22b9b0d91da8a7bc0419e343ad0a11cad0bc"


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


# -- array sweeps against the list toggle sweeps they replaced -------------------

def _assert_matches_toggles(rows, gamma, allow_gamma_one=False):
    """The seven ``RectUnion`` arrays, dtype and bytes, against the toggle
    oracle."""
    got = dilate_2d(rows, gamma, allow_gamma_one=allow_gamma_one)
    want = dilate_2d_toggles(rows, gamma, allow_gamma_one=allow_gamma_one)
    for a, b in zip(_union_arrays(got), _union_arrays(want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
@pytest.mark.parametrize("s", [3, 4])
def test_sweeps_match_toggle_oracle(canonical_model, deposition_model, layout, s):
    model = {"canonical": canonical_model, "deposition": deposition_model}[layout]
    _assert_matches_toggles(_rows(_block(model, s)), 2.0**s)


_TOGGLE_CASES = [
    # two squares leave and one enters at the shared x-end 1: three toggles
    # of 1 at the cell of y = 1, so 1 is a boundary above it
    [(0, 1, 0, 1), (1, 2, 0, 1), (1, 3, 1, 2)],
    # two leave and two enter there: four toggles, 1 stays merged away
    [(0, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)],
    # stacked squares with equal x-ends: no toggle survives at y = 1
    [(0, 1, 0, 1), (0, 1, 1, 2), (3, 4, 0.5, 1.5)],
    # one row on many y-cells, left again and entered again (A B A)
    [(0, 4, 0, 4), (5, 6, 1, 2), (5, 6, 3, 3.5), (7, 8, 1.5, 2.5)],
]


@pytest.mark.parametrize("bounds", _TOGGLE_CASES)
@pytest.mark.parametrize("slab", [1, 3, dilation._SLAB_VALUES])
def test_toggle_hand_cases_match_oracle(bounds, slab, monkeypatch):
    """Hand cases, with slabs of one cell up to the default: a slab of one
    value holds one cell, so every row is checked against rows of earlier
    slabs."""
    monkeypatch.setattr(dilation, "_SLAB_VALUES", slab)
    for gamma in (1.0, 2.0, 8.0):
        _assert_matches_toggles(bounds, gamma, allow_gamma_one=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(squares, st.sampled_from([1.5, 2.0, 8.0]), st.sampled_from([1, 4, 1 << 14]))
def test_random_square_families_match_toggle_oracle(drawn, gamma, slab):
    """Integer corners make touching edges and corners, shared x-ends and
    shared y-ends common."""
    disjoint = []
    for x, y, w in drawn:
        c = Rectangle.from_bounds(x, x + w, y, y + w)
        if all(overlap_area_ref(c, d) == 0.0 for d in disjoint):
            disjoint.append(c)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dilation, "_SLAB_VALUES", slab)
        _assert_matches_toggles(_rows(disjoint), gamma)


@pytest.mark.parametrize("slab", [64, dilation._SLAB_VALUES])
def test_colliding_keys_fall_back_to_exact_numbering(deposition_model, slab, monkeypatch):
    """Negative control: with every token 0, all rows of one length share a
    key.  The value check finds rows that differ under one key in both
    sweeps, and the exact numbering still gives the oracle's arrays."""
    rows = _rows(_block(deposition_model, 3))
    exact, exact_rows = [], dilation._exact_rows

    def recording(*args):
        exact.append(1)
        return exact_rows(*args)

    monkeypatch.setattr(dilation, "_SLAB_VALUES", slab)
    monkeypatch.setattr(dilation, "_tokens", lambda v: np.zeros(v.size, dtype=np.uint64))
    monkeypatch.setattr(dilation, "_exact_rows", recording)
    _assert_matches_toggles(rows, 8.0)
    assert len(exact) == 2


def test_presence_keeps_odd_toggle_groups():
    """Three toggles of one value at one cell count as one and four as none,
    in any order; a value present over two stretches gives two ranges."""
    cells = [0, 2, 2, 2, 0, 1, 1, 1, 1, 3, 1, 2, 4, 6]
    values = [1.0] * 4 + [2.0] * 6 + [3.0] * 4
    order = np.random.default_rng(1).permutation(len(cells))
    v, on, off = dilation._presence(np.array(cells)[order], np.array(values)[order])
    assert v.tolist() == [1.0, 2.0, 3.0, 3.0]
    assert (on.tolist(), off.tolist()) == ([0, 0, 1, 4], [2, 3, 2, 6])


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
    sweeps hold only merged unions (about 2 MB)."""
    cubes = _rows(_block(canonical_model, 4))
    tracemalloc.start()
    try:
        dilate_2d(cubes, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_deposition_block4_sweep_memory(deposition_model):
    """The sweeps expand rows a slab at a time: ``dilate_2d`` of this block
    peaks at about 3.3 MB, the list toggle sweeps at about 3.4 MB, and
    expanding every cell's row at once at about 9.4 MB."""
    rows = _rows(_block(deposition_model, 4))
    tracemalloc.start()
    try:
        dilate_2d(rows, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, f"peak {peak / 2**20:.2f} MB"
