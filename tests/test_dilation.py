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
import re
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
from densitometer.auxfn import block_start
from densitometer.setmodel import build_cover, build_packing

import oracles
from conftest import UNIT_BOX
from oracles import (
    ColumnUnion,
    _grow,
    cubes,
    dilate_1d_exact,
    dilate_2d_labels,
    dilate_2d_objects,
    dilate_2d_toggles,
    grow_ref,
    keyed_classify,
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
    los, his = [iv.lo for iv in intervals], [iv.hi for iv in intervals]
    _, _, lefts, rights = _grow(los, his, 3.0)
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


def _assert_unions_match_references(unions, gamma, n_out, out_lo, out_hi):
    """Each union's dilation equals bit for bit those of both one-union
    growth loops."""
    got = [_split(n_out, out_lo), _split(n_out, out_hi)]
    for u, (los, his) in enumerate(unions):
        for reference in (grow_ref, _grow):
            want = reference(los, his, gamma)
            for name, a, b in zip(("union lo", "union hi"), got, want):
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
    the one-union loop and the bisecting loop, union by union; the first
    union also through ``dilate_1d``, the one public path that can pass
    touching members, at every gamma.  gamma = 1 is the boundary factor
    that ``allow_gamma_one`` admits."""
    unions = [_drawn_union(d, scale, gamma) for d in drawn]
    out = dilation._grow_batch(*_flat(unions), gamma)
    _assert_unions_match_references(unions, gamma, *out)
    los, his = unions[0]
    union = dilate_1d([Interval(a, b) for a, b in zip(los, his)], gamma, allow_gamma_one=True)
    ref_lo, ref_hi, _, _ = grow_ref(los, his, gamma)
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


def test_row_sums_are_fsums():
    """Each row's sum is the ``fsum`` of its values, bit for bit, whatever
    the order of the (row, value) pairs: 1 + 2**-53 + 2**-53 is 1 from left
    to right but 1 + 2**-52 exactly.  Rows of 0, 1, 2, 3 and many values
    and -0.0 values (whose fsum alone, or with another -0.0, is +0.0) keep
    the bits, with the pairs in row order, reversed and shuffled."""
    many = [1.0, 2.0**-53] + [2.0**-53, 0.1, 1e-300, 1e16] * 5
    groups = [
        [],
        [0.1],
        [-0.0],
        [-0.0, -0.0],
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-53],
        [5e-324, -0.0, 0.3],
        [],
        many,
        [1.0 / 3.0],
    ]
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    values = np.array([v for g in groups for v in g])
    want = [math.fsum(g) for g in groups]
    assert want[5] != (1.0 + 2.0**-53) + 2.0**-53
    assert _bits(want[2:4]) == _bits([0.0, 0.0])
    rng = np.random.default_rng(3)
    for order in (np.arange(len(rows)), np.arange(len(rows))[::-1], rng.permutation(len(rows))):
        got = dilation._row_sums(rows[order], values[order], len(groups))
        assert _bits(got) == _bits(want)
    assert dilation._row_sums(np.zeros(0, dtype=np.intp), np.zeros(0), 3).tolist() == [0.0] * 3


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


@pytest.mark.parametrize("layout", ["canonical_model", "shelf_46k", "deposition_model"])
def test_cover_unions_have_no_touching_members(layout, request, monkeypatch):
    """No member of a union the grower receives while building blocks 3-4
    starts where the previous member ends: a sweep row lists each present
    value once, so the members are separated and ``_grow_batch`` takes
    them as its waiting blocks with no merge across touching ends."""
    model = request.getfixturevalue(layout)
    batches = []
    grow_batch = dilation._grow_batch

    def recording(counts, los, his, gamma):
        batches.append((np.asarray(counts), np.array(los), np.array(his)))
        return grow_batch(counts, los, his, gamma)

    monkeypatch.setattr(dilation, "_grow_batch", recording)
    build_cover(model, 3, 4)
    for counts, los, his in batches:
        union = np.repeat(np.arange(counts.size), counts)
        same = union[1:] == union[:-1]
        assert not (los[1:] == his[:-1])[same].any()
    assert sum(los.size for _, los, _ in batches) > 10_000


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
    assert _digest(arrays) == "d4ca42ae321461ac09c49fde70ea79621c987a6817fbd20fc2536028ee33bfc3"


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
    """Column x-ends, the interval count of each column's section, the
    sections' y-ends in column order and each column's section measure."""
    return (u.x_lo, u.x_hi, np.diff(u.sec_off), u.y_lo, u.y_hi, u.sec_measure)


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
    assert _digest(arrays) == "e681b4bef6666eb459e40a043a71023e8c11c33ccf7e7932a9fba2c132593b7e"


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
    """The six ``RectUnion`` arrays, dtype and bytes, against the toggle
    oracle."""
    got = dilate_2d(rows, gamma, allow_gamma_one=allow_gamma_one)
    want = dilate_2d_toggles(rows, gamma, allow_gamma_one=allow_gamma_one)
    for name in ("x_lo", "x_hi", "sec_off", "y_lo", "y_hi", "sec_measure"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
    value holds one cell, so every row is expanded in a slab of its own."""
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


def test_presence_keeps_odd_toggle_groups():
    """Three toggles of one value at one cell count as one and four as none,
    in any order; a value present over two stretches gives two ranges."""
    cells = [0, 2, 2, 2, 0, 1, 1, 1, 1, 3, 1, 2, 4, 6]
    values = [0] * 4 + [1] * 6 + [2] * 4
    keys = np.array(values) * 7 + np.array(cells)
    v, on, off = dilation._presence(np.random.default_rng(1).permutation(keys), 7)
    assert v.tolist() == [0, 1, 2, 2]
    assert (on.tolist(), off.tolist()) == ([0, 0, 1, 4], [2, 3, 2, 6])


def _captured_sweeps(rows, gamma, monkeypatch):
    """Both sweeps of ``dilate_2d(rows, gamma)``, as tuples (keys, span,
    table, cuts, out): the toggle keys as ``_presence`` got them, the rank
    span, the table of values, the end cell of every slab and what
    ``_sweep_rows`` returned."""
    keys, cuts, sweeps = [], [], []
    presence, slabs, sweep = dilation._presence, dilation._slabs, dilation._sweep_rows

    def spy_presence(k, span):
        keys.append((k.copy(), span))
        return presence(k, span)

    def spy_slabs(*args):
        cuts.append([])
        for c1, ranks in slabs(*args):
            cuts[-1].append(c1)
            yield c1, ranks

    def spy_sweep(v, on, off, table, n_cells):
        out = sweep(v, on, off, table, n_cells)
        sweeps.append((table, out))
        return out

    monkeypatch.setattr(dilation, "_presence", spy_presence)
    monkeypatch.setattr(dilation, "_slabs", spy_slabs)
    monkeypatch.setattr(dilation, "_sweep_rows", spy_sweep)
    dilate_2d(rows, gamma)
    assert len(keys) == len(cuts) == len(sweeps) == 2
    return [(k, span, table, c, out) for (k, span), c, (table, out) in zip(keys, cuts, sweeps)]


def _assert_sweep_matches_float_oracle(keys, span, table, out):
    """The rank sweep's live cells, offsets and rows (mapped through its
    table) equal the float sweep's bit for bit, and each cell's width is
    the sum of the rank differences over its row's pairs."""
    rank, cell = np.divmod(keys, span)
    live, row_off, rows = oracles.float_sweep_rows(cell, table[rank], span - 1)
    got_live, got_off, got_rows, width = out
    assert got_live.tolist() == live.tolist() and got_off.tolist() == row_off.tolist()
    assert got_rows.dtype == rows.dtype and got_rows.tobytes() == rows.tobytes()
    ranks = np.searchsorted(table, rows)
    want = np.zeros(span - 1, dtype=np.int64)
    np.add.at(want, np.repeat(live, np.diff(row_off) // 2), ranks[1::2] - ranks[0::2])
    assert width.tolist() == want.tolist()


@pytest.mark.parametrize(
    "layout, s",
    [("canonical", 3), ("canonical", 4), ("shelf_46k", 5), ("deposition", 3), ("deposition", 4)],
)
def test_rank_sweeps_match_float_oracle(request, layout, s, monkeypatch):
    """Both sweeps of shelf and deposition blocks, ranks against floats."""
    model = request.getfixturevalue(f"{layout}_model" if layout != "shelf_46k" else layout)
    rows = _model_rows(model, s**s, (s + 1) ** (s + 1) - 1)
    for keys, span, table, _, out in _captured_sweeps(rows, 2.0**s, monkeypatch):
        _assert_sweep_matches_float_oracle(keys, span, table, out)


def test_rank_sweep_cuts_slabs_at_the_cell_cap(shelf_46k, monkeypatch):
    """With the value limit lifted, only the 2**16-cell cap cuts block 5's
    column sweep (87,061 columns), and the rows still match the floats."""
    monkeypatch.setattr(dilation, "_SLAB_VALUES", 1 << 40)
    rows = _model_rows(shelf_46k, 5**5, 6**6 - 1)
    (_, _, _, y_cuts, _), (keys, span, table, cuts, out) = _captured_sweeps(rows, 32.0, monkeypatch)
    assert y_cuts == [43_532]
    assert cuts == [dilation._SLAB_CELLS, span - 1] and span - 1 == 87_061
    _assert_sweep_matches_float_oracle(keys, span, table, out)


@pytest.mark.parametrize("layout", ["canonical", "deposition"])
def test_locate_matches_column_objects(canonical_cover, deposition_cover, layout):
    """classify on the flat arrays against locate on the columns' interval
    objects, at rectangle corners, edge midpoints and centers, one ulp
    outside corners, and seeded points; locate is classify of one point."""
    cover = canonical_cover if layout == "canonical" else deposition_cover
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
    union = RectUnion([0, 1], [1, 2], [0, 1, 2], [0, 0], [2, 1], [2, 1])
    pts = [(1, 1.5), (1, 0.5), (0.5, 1.5), (1.5, 1.5), (1.5, 1), (2, 0.5), (0, 2), (-1, 1)]
    x, y = np.array(pts, dtype=float).T
    assert union.classify(x, y).tolist() == [1, 1, 2, 0, 1, 1, 1, 0]
    assert union.classify([np.nan, 0.5], [0.5, np.nan]).tolist() == [0, 0]
    assert RectUnion.empty().classify([0.5], [0.5]).tolist() == [0]


def _multi_interval_union():
    """Five columns over sections of 100, 33, 2, 1 and 100 intervals; the
    second column starts at the first one's end and the fifth holds its own
    copy of the first one's section.  The one-interval section starts at 0.0
    and the two-interval one ends its first interval there."""
    rng = np.random.default_rng(21)
    sections = [np.sort(rng.uniform(-2.0, 2.0, 2 * k)) for k in (100, 33)]
    sections += [np.array([-1.0, 0.0, 0.5, 1.0]), np.array([0.0, 1.0])]
    sections.append(sections[0].copy())
    assert all((np.diff(ends) > 0).all() for ends in sections)
    ends = np.concatenate(sections)
    y_lo, y_hi = ends[0::2], ends[1::2]
    sec_off = np.cumsum([0] + [e.size // 2 for e in sections])
    measure = [math.fsum((e[1::2] - e[0::2]).tolist()) for e in sections]
    x_lo, x_hi = [0.0, 1.0, 2.5, 3.0, 4.0], [1.0, 2.0, 3.0, 3.25, 5.0]
    return RectUnion(x_lo, x_hi, sec_off, y_lo, y_hi, measure)


def _ulps(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


def test_section_bisection_matches_keyed_search_and_column_objects():
    """Every column x-end and section end, one ulp either side, NaN and -0.0,
    in every combination: the bisection's codes equal the keyed search's
    and the column objects'.  The 100-interval section takes 7 steps, and
    x = 1.0 is the edge shared by the first two columns."""
    union = _multi_interval_union()
    assert (int(np.diff(union.sec_off).max()) - 1).bit_length() == 7
    extra = [np.nan, -0.0, 0.0]
    xs = np.concatenate((_ulps(np.concatenate((union.x_lo, union.x_hi))), [0.5, 4.5], extra))
    ys = np.concatenate((_ulps(np.concatenate((union.y_lo, union.y_hi))), extra))
    x, y = (a.ravel() for a in np.meshgrid(np.unique(xs), ys))
    code = union.classify(x, y)
    assert code.tolist() == keyed_classify(union, x, y).tolist()
    reference = ColumnUnion(union.columns)
    want = [LOCATIONS.index(reference.locate(p)) for p in zip(x.tolist(), y.tolist())]
    assert code.tolist() == want
    assert set(want) == {0, 1, 2}
    # the shared edge is boundary also where only the first column's section holds it
    second = ColumnUnion(union.columns[1:2])
    edge = [p for p, c in zip(zip(x.tolist(), y.tolist()), code.tolist()) if p[0] == 1.0 and c]
    assert any(second.locate(p) is Location.OUTSIDE for p in edge)


def test_rect_union_rejects_empty_sections():
    with pytest.raises(ValueError, match="every section must hold"):
        RectUnion([0.0, 2.0], [1.0, 3.0], [0, 0, 1], [0.0], [1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="one section"):
        RectUnion([0.0], [1.0], [0, 1, 2], [0.0, 2.0], [1.0, 3.0], [1.0, 1.0])


@pytest.mark.parametrize("layout", ["canonical", "shelf-46655", "deposition"])
def test_classify_matches_keyed_search_on_covers(
    canonical_cover, shelf_46k_cover, deposition_cover, layout
):
    """On every block of the three covers, at corners and edge midpoints of
    rectangles, one ulp either side, and seeded points, the bisection's
    codes equal the keyed search's and the column objects'."""
    cover = {
        "canonical": canonical_cover,
        "shelf-46655": shelf_46k_cover,
        "deposition": deposition_cover,
    }[layout]
    rng = np.random.default_rng(13)
    for block in cover.blocks:
        union = block.union
        step = max(1, len(union) // 300)
        bounds = np.array([r.bounds for r in union.rects[::step]])
        x0, x1, y0, y1 = bounds.T
        xs = _ulps(np.concatenate((x0, x1, (x0 + x1) / 2)))
        ys = _ulps(np.concatenate((y0, y1, (y0 + y1) / 2)))
        pick = rng.integers(0, xs.size, (2, 20_000))
        seeded = rng.uniform(-0.1, 1.1, (2, 5000))
        x = np.concatenate((xs[pick[0]], np.tile(xs, 3), seeded[0]))
        y = np.concatenate((ys[pick[1]], rng.permutation(np.tile(ys, 3)), seeded[1]))
        code = union.classify(x, y)
        assert code.tolist() == keyed_classify(union, x, y).tolist()
        reference = oracles.column_union(union)
        want = [LOCATIONS.index(reference.locate(p)) for p in zip(x.tolist(), y.tolist())]
        assert code.tolist() == want
        assert set(want) == {0, 1, 2}


COVERS = ["canonical", "shelf-46655", "deposition"]


def _cover(request, layout):
    name = {"canonical": "canonical_cover", "shelf-46655": "shelf_46k_cover"}
    return request.getfixturevalue(name.get(layout, "deposition_cover"))


@pytest.mark.parametrize("layout", COVERS)
def test_cover_classify_matches_unsorted_path(request, layout):
    """The cover's codes, found over points sorted by x, equal those of the
    blocks classifying the points in input order: shuffled rectangle
    corners one ulp either side, repeated points, seeded points, NaN,
    +-inf and +-0.0 in either coordinate."""
    cover = _cover(request, layout)
    rng = np.random.default_rng(29)
    corners = []
    for block in cover.blocks:
        union = block.union
        pick = rng.integers(0, union.x_lo.size, 200)
        first = union.sec_off[pick]
        corners.append(np.column_stack((union.x_lo[pick], union.y_lo[first])))
    corners = np.concatenate(corners)
    xs, ys = _ulps(corners[:, 0]), _ulps(corners[:, 1])
    extra = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5]
    ex, ey = (a.ravel() for a in np.meshgrid(extra, extra))
    seeded = rng.uniform(-0.1, 1.1, (2, 4000))
    x = np.concatenate((xs, ex, ex[:3], seeded[0], seeded[0][:100]))
    y = np.concatenate((ys, ey, ey[:3], seeded[1], seeded[1][:100]))
    order = rng.permutation(x.size)
    x, y = x[order], y[order]
    code = cover.classify(x, y)
    assert code.dtype == np.int8
    assert code.tolist() == oracles.cover_classify_unsorted(cover, x, y).tolist()
    assert set(code.tolist()) == {0, 1, 2}
    n = x.size // 2 * 2
    grid = cover.classify(x[:n].reshape(2, -1), y[:n].reshape(2, -1))
    assert grid.tolist() == code[:n].reshape(2, -1).tolist()
    assert cover.classify([], []).shape == (0,)


@pytest.mark.parametrize("layout", COVERS)
def test_section_measures_match_fsum_on_covers(request, layout):
    """Every block's section measures equal a per-section ``math.fsum`` bit
    for bit; the deposition cover holds sections of one, two and more
    blocks."""
    cover = _cover(request, layout)
    sizes = set()
    for block in cover.blocks:
        union = block.union
        lengths = union.y_hi - union.y_lo
        off = union.sec_off.tolist()
        want = [math.fsum(lengths[a:b].tolist()) for a, b in zip(off, off[1:])]
        assert _bits(union.sec_measure) == _bits(want)
        sizes |= set(np.diff(union.sec_off).tolist())
    if layout == "deposition":
        assert {1, 2, 3} <= sizes


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


def _refuse(*args, **kwargs):
    raise AssertionError("not to be called")


def test_overlapping_sections_raise_after_the_y_sweep_before_any_growth(monkeypatch):
    # toggling (0, 2) and (1, 3) on one y-cell would give (0, 1) u (2, 3)
    sweeps = []
    sweep = dilation._sweep_rows
    monkeypatch.setattr(dilation, "_sweep_rows", lambda *a: sweeps.append(a) or sweep(*a))
    monkeypatch.setattr(dilation, "_grow_sweep", _refuse)
    with pytest.raises(OverlappingCubes, match="^cubes 0 and 1 overlap$"):
        dilate_2d([(0, 2, 0, 2), (1, 3, 0, 2)], 2.0)
    assert len(sweeps) == 1


def _meet(a, b):
    """Whether the open rectangles a and b, rows [x0, x1, y0, y1], meet,
    by comparing their open intervals."""
    return max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3])


def _check_named_pair(rows, hit):
    """``hit`` names a pair exactly when the endpoint-sweep oracle finds
    one, and a pair i < j whose rectangles meet."""
    assert (hit is None) == (oracles.sweep_overlap_ref(rows) is None)
    if hit is not None:
        i, j = hit
        assert 0 <= i < j < len(rows)
        assert _meet(rows[i], rows[j])


def _raised_pair(rows):
    """The 0-based pair that ``dilate_2d`` names, or None when it dilates."""
    try:
        dilate_2d(rows, 2.0)
    except OverlappingCubes as exc:
        i, j = re.fullmatch(r"cubes (\d+) and (\d+) overlap", str(exc)).groups()
        return int(i), int(j)
    return None


# Overlapping hand families, each refused by the y-sweep's check, with the
# pair it names on the lowest y-cell where two squares meet.
OVERLAPPING = {
    # toggles of equal x-ends cancel: the cell's row is empty
    "identical": ([(0, 1, 0, 1), (0, 1, 0, 1)], (0, 1)),
    "nested": ([(0, 4, 0, 4), (1, 2, 1, 2)], (0, 1)),
    # the squares share only the y-cell (1.5, 2), and meet on it
    "one-shared-cell": ([(5, 6, 0, 1), (0, 2, 0, 2), (1, 3, 1.5, 3.5)], (1, 2)),
    # the last y-cell (1.5, 2) is the only one where two squares meet
    "last-cell": ([(0, 1, 0, 1), (5, 6, 0, 2), (5.5, 6.5, 1.5, 2)], (1, 2)),
    # three squares on one cell, the outer two touching the middle one
    # while the third overlaps the first
    "among-touching": ([(0, 1, 0, 1), (1, 2, 0, 1), (0.5, 0.75, 0.25, 0.5)], (0, 2)),
    # the later square in index order starts further left: the pair is
    # still reported smaller index first
    "reversed": ([(2, 4, 0, 2), (1, 3, 1, 3)], (0, 1)),
    # squares 1 and 2 meet on the lowest y-cell (0, 1), and squares 1 and
    # 3 on the higher cell (2, 3)
    "lowest-cell": ([(9, 10, 0, 1), (0, 4, 0, 4), (1, 2, 0, 1), (3, 5, 2, 3)], (1, 2)),
}


@pytest.mark.parametrize("name", list(OVERLAPPING))
def test_folded_check_names_the_overlapping_pair(name, monkeypatch):
    rows, pair = OVERLAPPING[name]
    _check_named_pair(rows, pair)
    assert dilation.find_overlap(rows) == pair
    monkeypatch.setattr(dilation, "_grow_sweep", _refuse)
    with pytest.raises(OverlappingCubes, match=f"^cubes {pair[0]} and {pair[1]} overlap$"):
        dilate_2d(rows, 2.0)


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 1, 0, 1), (1, 2, 0, 1)],  # edges touch, side by side
        [(0, 1, 0, 1), (0, 1, 1, 2)],  # edges touch, stacked
        [(0, 1, 0, 1), (1, 2, 1, 2)],  # corners touch
        [(0, 1, 0, 1), (1, 2, 1, 2), (1, 2, 0, 1), (0, 1, 1, 2)],  # four round one corner
    ],
)
def test_touching_squares_pass_without_find_overlap(rows, monkeypatch):
    monkeypatch.setattr(dilation, "find_overlap", _refuse)
    assert dilate_2d(rows, 2.0).measure == pytest.approx(25.0 * len(rows), rel=1e-12)


def test_successful_dilation_calls_no_find_overlap(deposition_model, monkeypatch):
    """The deposition block 4 fails the shelf certificate; ``dilate_2d``
    checks it in its own y-sweep and never calls ``find_overlap``."""
    monkeypatch.setattr(dilation, "find_overlap", _refuse)
    assert len(dilate_2d(_model_rows(deposition_model, 4**4, 5**5 - 1), 16.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(squares)
def test_folded_check_raises_exactly_on_overlap(drawn):
    """Integer corners, overlapping or not: ``dilate_2d`` raises exactly
    when the endpoint-sweep oracle finds a pair, naming a pair that meets,
    the one ``find_overlap`` names."""
    rows = [(x, x + w, y, y + w) for x, y, w in drawn]
    hit = _raised_pair(rows)
    _check_named_pair(rows, hit)
    assert dilation.find_overlap(rows) == hit


def _shelf_rows(shelves):
    """Integer squares packed in shelves, left to right and bottom up."""
    rows, y = [], 0
    for sides in shelves:
        x = 0
        for w in sides:
            rows.append((x, x + w, y, y + w))
            x += w
        y += max(sides)
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=5), min_size=1, max_size=4),
    st.one_of(st.none(), st.tuples(st.integers(0, 19), st.integers(0, 19))),
    st.randoms(use_true_random=False),
)
def test_shuffled_integer_shelves_match_sweep_oracle(shelves, plant, rnd):
    """Integer shelves shuffled out of index order, so the certificate
    rarely applies and the y-sweep decides, some with one square moved onto
    another's lower-left corner: ``find_overlap`` and ``dilate_2d`` name
    the same pair, a pair that meets, exactly when the oracle finds one."""
    rows = _shelf_rows(shelves)
    if plant is not None:
        moved, onto = (k % len(rows) for k in plant)
        x0, x1, y0, y1 = rows[moved]
        cx, cy = rows[onto][0], rows[onto][2]
        rows[moved] = (cx, cx + x1 - x0, cy, cy + y1 - y0)
    rnd.shuffle(rows)
    hit = dilation.find_overlap(rows)
    _check_named_pair(rows, hit)
    assert _raised_pair(rows) == hit


# -- the overlap check: shelf certificate, then the y-sweep ----------------------

def _model_rows(model, lo=1, hi=None):
    """Rows [x0, x1, y0, y1] of cubes lo..hi, as ``build_cover`` forms them."""
    sl = slice(lo - 1, model.trunc if hi is None else hi)
    x, y, w = model.xs[sl], model.ys[sl], model.sides[sl]
    return np.column_stack((x, x + w, y, y + w))


# Planted overlaps, each refused by the certificate, with the one pair that
# meets.
PLANTED = {
    # one shelf of unit squares, the third pushed into the second
    "inside-run": ([(0, 1, 0, 1), (1, 2, 0, 1), (1.5, 2.5, 0, 1), (3, 4, 0, 1)], (1, 2)),
    # the first shelf's tall first cube reaches above the next shelf's floor
    "run-top": (
        [(0, 2, 0, 2), (2, 3, 0, 1), (3, 4, 0, 1), (0.5, 1.5, 1, 2), (2, 3, 1, 2)],
        (0, 3),
    ),
    # the third shelf starts below the second's top
    "restart-lower": (
        [(0, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2), (1.5, 2.5, 1.5, 2.5)],
        (3, 4),
    ),
    # rows 0 and 2 overlap, and a row without interior lies between them:
    # it is skipped, as it meets nothing
    "negative-width": ([(0, 2, 0, 1), (2, 1, 0, 1), (1, 3, 0, 1)], (0, 2)),
    "reversed-width": ([(0, 2, 0, 1), (3, 0.5, 0, 1), (1, 3, 0, 1)], (0, 2)),
    "nan-row": ([(0, 2, 0, 1), (np.nan, 2, 0, 1), (1, 3, 0, 1)], (0, 2)),
}

# Disjoint families that the certificate proves: edges and corners touch,
# shelves of mixed heights, one row, no row.
CERTIFIED = {
    "touching": [(0, 1, 0, 1), (1, 2, 0, 1), (2, 3, 0, 0.5), (0, 2, 1, 3), (2, 3, 1, 2)],
    "one-row": [(0.25, 0.5, 0.0, 0.25)],
    "gaps": [(0, 1, 0, 1), (2, 3, 0, 0.5), (0, 5, 4, 5), (-1, 0, 6, 7), (0, 1, 6, 6.5)],
    "empty": np.zeros((0, 4)),
}


@pytest.mark.parametrize("name", list(PLANTED))
@pytest.mark.parametrize("step", [1, 2, 3, 1 << 16])
def test_certificate_refuses_planted_overlaps(name, step, monkeypatch):
    """Every planted overlap fails the certificate, at every step size (so
    each run boundary also falls at a step's edge), and ``find_overlap``
    names the one pair that meets, as the oracle does."""
    monkeypatch.setattr(dilation, "_SHELF_ROWS", step)
    rows, pair = PLANTED[name]
    assert not dilation._shelf_disjoint(np.array(rows, dtype=np.float64))
    hit = dilation.find_overlap(rows)
    _check_named_pair(rows, hit)
    assert hit == oracles.sweep_overlap_ref(rows) == pair


@pytest.mark.parametrize("name", list(CERTIFIED))
@pytest.mark.parametrize("step", [1, 2, 3, 1 << 16])
def test_certificate_proves_touching_shelves(name, step, monkeypatch):
    monkeypatch.setattr(dilation, "_SHELF_ROWS", step)
    rows = np.array(CERTIFIED[name], dtype=np.float64).reshape(-1, 4)
    assert dilation._shelf_disjoint(rows)
    assert dilation.find_overlap(rows) is None
    assert oracles.sweep_overlap_ref(rows) is None


def test_certificate_refuses_rows_without_interior(monkeypatch):
    """Zero or negative extent in either axis, and NaN, fail the certificate
    although the rows would chain as shelves; the row is then skipped
    before the y-sweep, which finds the others disjoint."""
    sweeps = []
    y_sweep = dilation._y_sweep
    monkeypatch.setattr(dilation, "_y_sweep", lambda rows: sweeps.append(rows) or y_sweep(rows))
    for bad in ((1, 1, 0, 1), (2, 1, 0, 1), (1, 2, 0, 0), (1, 2, 0, -1), (np.nan, 2, 0, 1)):
        rows = np.array([(0, 1, 0, 1), bad, (2, 3, 0, 1)], dtype=np.float64)
        assert not dilation._shelf_disjoint(rows)
        assert dilation.find_overlap(rows) is None
        assert sweeps.pop().tolist() == [[0, 1, 0, 1], [2, 3, 0, 1]]


@pytest.mark.parametrize("step", [1 << 16, 1000])
def test_certificate_matches_sweep_on_packings(canonical_model, shelf_46k, step, monkeypatch):
    """Both shelf packings and each of their cover blocks pass the
    certificate, and the oracle finds them disjoint too; a step of 1,000
    rows cuts shelves across steps."""
    monkeypatch.setattr(dilation, "_SHELF_ROWS", step)
    families = [_model_rows(canonical_model), _model_rows(shelf_46k)]
    families += [_model_rows(canonical_model, s**s, (s + 1) ** (s + 1) - 1) for s in (3, 4)]
    families += [_model_rows(shelf_46k, s**s, (s + 1) ** (s + 1) - 1) for s in (3, 4, 5)]
    for rows in families:
        assert dilation._shelf_disjoint(rows)
        assert oracles.sweep_overlap_ref(rows) is None
        assert dilation.find_overlap(rows) is None


@pytest.mark.parametrize(
    "moved, onto, pair",
    [(2, 1, (0, 1)), (100, 99, (98, 99)), (3000, 2000, (1999, 2999)), (30_000, 3, (2, 29999))],
)
def test_certificate_refuses_planted_overlap_in_packing(shelf_46k, moved, onto, pair):
    """A cube moved onto another's corner, inside its shelf or onto the
    first shelf (a later run restarting lower), in shelf order and with the
    rows shuffled out of it: ``find_overlap`` names the one pair that
    meets, as the oracle does."""
    rows = _model_rows(shelf_46k).copy()
    x0, x1, y0, y1 = rows[moved - 1]
    cx, cy = rows[onto - 1, 0], rows[onto - 1, 2]
    rows[moved - 1] = cx, cx + (x1 - x0), cy, cy + (y1 - y0)
    order = np.random.default_rng(5).permutation(len(rows))
    place = np.argsort(order)
    for family, named in ((rows, pair), (rows[order], tuple(sorted(place[list(pair)].tolist())))):
        assert not dilation._shelf_disjoint(family)
        hit = dilation.find_overlap(family)
        _check_named_pair(family, hit)
        assert hit == named


def test_deposition_layout_sweeps(deposition_model):
    """The deposition layout is not shelf-ordered: the certificate does not
    apply and the y-sweep proves it disjoint, as the oracle does."""
    rows = _model_rows(deposition_model)
    assert not dilation._shelf_disjoint(rows)
    assert dilation.find_overlap(rows) is None
    assert oracles.sweep_overlap_ref(rows) is None
    for s in (3, 4):
        block = _model_rows(deposition_model, s**s, (s + 1) ** (s + 1) - 1)
        assert dilation.find_overlap(block) is None


shelf_rows = st.lists(
    st.tuples(
        st.integers(0, 3),  # shelf: rows in index order climb or repeat a shelf
        st.integers(-1, 6),  # x0
        st.integers(-1, 3),  # width, 0 and -1 included
        st.integers(0, 2),  # y0 above the shelf floor
        st.integers(-1, 3),  # height, 0 and -1 included
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shelf_rows, st.sampled_from([1, 2, 3, 5, 1 << 16]))
def test_certificate_is_sound_on_drawn_shelves(drawn, step):
    """On drawn near-shelf families, a certificate implies that no two open
    rows meet (checked pair by pair), and ``find_overlap``, whatever the
    step, names a pair that meets exactly when the oracle finds one."""
    rows = [(x, x + w, 2 * f + y, 2 * f + y + h) for f, x, w, y, h in drawn]
    arr = np.array(rows, dtype=np.float64).reshape(-1, 4)
    old = dilation._SHELF_ROWS
    dilation._SHELF_ROWS = step
    try:
        certified = dilation._shelf_disjoint(arr)
        hit = dilation.find_overlap(arr)
    finally:
        dilation._SHELF_ROWS = old
    if certified:
        for i, a in enumerate(rows):
            assert a[0] < a[1] and a[2] < a[3]
            for b in rows[i + 1 :]:
                assert not _meet(a, b)
    _check_named_pair(rows, hit)


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


# tracemalloc peak of ``build_cover`` per block cube on the shelf packing:
# 328 B at block 5 (14.3 MB) and 291 B at block 6 (226 MB) with numpy 2.4 on
# x86-64; the bounds keep the 16 and 19.5 B of headroom they had over the
# float sweeps' 394 and 381 B, about 5% and 7%.
_COVER_PEAK_PER_CUBE = {5: 344, 6: 311}
# Bytes the union's arrays hold per rectangle: 40 per column (its x-ends,
# section offset and measure) and 16 per interval, so 48 on these blocks,
# whose columns hold one interval each; the bound leaves about 4%.
_UNION_BYTES_PER_RECT = 50


@pytest.mark.parametrize("s", [5, 6])
def test_cover_memory_per_cube(canonical_seq, s):
    """The cover of one shelf block, level 5's (43,531 cubes) or level 6's
    (776,887), stays within a fixed working memory per cube, and its union
    within a fixed number of bytes per rectangle."""
    model = build_packing(canonical_seq, block_start(s + 1) - 1, UNIT_BOX)
    cubes = block_start(s + 1) - block_start(s)
    tracemalloc.start()
    try:
        union = build_cover(model, s, s).blocks[0].union
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _COVER_PEAK_PER_CUBE[s] * cubes, f"{peak / cubes:.1f} B per cube"
    arrays = [getattr(union, name) for name in union.__slots__]
    held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert held < _UNION_BYTES_PER_RECT * len(union), f"{held / len(union):.2f} B per rectangle"
