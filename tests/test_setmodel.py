"""Shelf packing, density arithmetic, cover construction and point triage."""

import io
import json
import math
import re
from itertools import accumulate

import numpy as np
import pytest

from densitometer import dilation
from densitometer.dilation import Rectangle
from densitometer.errors import (
    EmptyRect,
    OutOfRange,
    OverlappingCubes,
    PackingInfeasible,
    TruncationTooSmall,
)
from densitometer.interval1d import Location
from densitometer.scan import _prefix_d2
from densitometer.setmodel import (
    CompactSetModel,
    build_cover,
    build_packing,
    cover_measure_bound,
    density_ratio,
)
from densitometer import weights
from densitometer.weights import WeightSequence

import oracles

UNIT = Rectangle.from_bounds(0, 1, 0, 1)


# -- packing -----------------------------------------------------------------------

def test_packing_four_cubes(canonical_seq):
    model = build_packing(canonical_seq, 4, UNIT)
    # first three cubes fill the first row (widths 1/2 + 1/4 + 1/6 < 1),
    # the fourth starts the second row at x = 0
    assert oracles.cube(model, 1).bounds == (0.0, 0.5, 0.0, 0.5)
    assert oracles.cube(model, 2).x.lo == 0.5
    assert oracles.cube(model, 4).x.lo == 0.0
    assert oracles.cube(model, 4).y.lo == 0.5
    removed = 0.25 * (1 + 1 / 4 + 1 / 9 + 1 / 16)
    assert model.measure_remaining == pytest.approx(1.0 - removed, rel=1e-12)


def test_packing_invariants_random():
    seq = WeightSequence.power(0.25, 2.0)
    model = build_packing(seq, 200, UNIT)
    cubes = oracles.cubes(model)
    for c in cubes:
        assert 0.0 <= c.x.lo <= c.x.hi <= 1.0
        assert 0.0 <= c.y.lo <= c.y.hi <= 1.0
    for i, a in enumerate(cubes):
        for b in cubes[i + 1 :]:
            assert oracles.overlap_area_ref(a, b) == 0.0
    sides = [c.x.length for c in cubes]
    assert all(b <= a + 1e-15 for a, b in zip(sides, sides[1:]))


def test_packing_rejects_oversized_load():
    with pytest.raises(PackingInfeasible):
        build_packing(WeightSequence.explicit([0.3, 0.3]), 2, UNIT)
    with pytest.raises(PackingInfeasible):
        # first width exceeds the box side
        build_packing(WeightSequence.explicit([0.25]), 1, Rectangle.from_bounds(0, 0.4, 0, 9))


def test_packing_respects_trunc_bounds(canonical_seq):
    model = build_packing(canonical_seq, 10, UNIT)
    assert model.trunc == 10
    with pytest.raises(OutOfRange):
        oracles.cube(model, 11)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# Truncations on both sides of row breaks: power p = 2 opens rows at cubes
# 4, 26, 188, 1,385 and 10,230, p = 1.2 (c = 0.05) at 11, 39, ..., 2,310,
# p = 4 keeps one row, and the geometric sequence opens rows at 5 and 12
# (its sides vanish against their corners from cube 326 on).
_PACKINGS = [
    (WeightSequence.power(0.25, 2.0), (1, 3, 4, 5, 25, 26, 27, 187, 188, 1385, 10230, 46_655)),
    (WeightSequence.power(0.05, 1.2), (10, 11, 12, 38, 39, 40, 2310, 46_655)),
    (WeightSequence.power(0.25, 4.0), (1, 2, 46_655)),
    (WeightSequence.geometric(0.1, 0.8), (4, 5, 6, 11, 12, 13, 300)),
]


@pytest.mark.parametrize("seq, truncs", _PACKINGS, ids=["p2", "p1.2", "p4", "geometric"])
def test_packing_matches_scalar_loop_bit_for_bit(seq, truncs):
    for trunc in truncs:
        model = build_packing(seq, trunc, UNIT)
        xs, ys, sides, w2, total = oracles.build_packing_ref(seq, trunc, UNIT)
        for got, want in ((model.xs, xs), (model.ys, ys), (model.sides, sides), (model.w2, w2)):
            assert np.array_equal(_bits(got), _bits(want)), trunc
        assert _bits(model.removed_area) == _bits(total), trunc


@pytest.mark.parametrize("nudge, rows", [(0, 1), (-1, 2)], ids=["on-edge", "one-ulp-over"])
def test_packing_cursor_on_the_box_edge(nudge, rows):
    """A cursor that lands exactly on x.hi keeps the row; one that lands one
    ulp past it (x.hi one ulp lower) opens the next row."""
    seq = WeightSequence.explicit([0.04, 0.02, 0.01, 0.01])
    edge = ((0.1 + seq.w(1)) + seq.w(2)) + seq.w(3)  # the loop's cursor after cube 3
    x_hi = np.nextafter(edge, -np.inf) if nudge else edge
    outer = Rectangle.from_bounds(0.1, float(x_hi), 0.0, 1.0)
    model = build_packing(seq, 4, outer)
    xs, ys, _, _, _ = oracles.build_packing_ref(seq, 4, outer)
    assert np.array_equal(_bits(model.xs), _bits(xs))
    assert np.array_equal(_bits(model.ys), _bits(ys))
    assert len(set(ys[:3].tolist())) == rows


@pytest.mark.parametrize(
    "seq, trunc, outer, named",
    [
        (
            # half the area of a 10 x 1 box, but two rows of 0.6 and 0.45
            WeightSequence.explicit([0.36] + [0.2025] * 21),
            22,
            Rectangle.from_bounds(0, 10, 0, 1),
            "rows overflow the box at cube 22",
        ),
        (WeightSequence.explicit([0.3, 0.3]), 2, UNIT, "total area 0.6"),
        (WeightSequence.explicit([0.25]), 1, Rectangle.from_bounds(0, 0.4, 0, 9), "first side 0.5"),
    ],
    ids=["row-overflow", "area", "first-side"],
)
def test_packing_errors_match_scalar_loop(seq, trunc, outer, named):
    with pytest.raises(PackingInfeasible) as got:
        build_packing(seq, trunc, outer)
    with pytest.raises(PackingInfeasible) as want:
        oracles.build_packing_ref(seq, trunc, outer)
    assert str(got.value) == str(want.value)
    assert named in str(got.value)


@pytest.mark.parametrize("cube, factor", [(1, 0.8), (37, np.nan), (200, 1.0 + 2e-12)])
def test_sides_check_matches_scalar_loop(canonical_seq, cube, factor):
    model = build_packing(canonical_seq, 200, UNIT)
    sides = model.sides.copy()
    sides[cube - 1] *= factor
    with pytest.raises(ValueError) as got:
        CompactSetModel(UNIT, canonical_seq, 200, model.xs, model.ys, sides)
    with pytest.raises(ValueError) as want:
        oracles.sides_check_ref(canonical_seq, sides)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"cube {cube} side ")


def test_set_up_makes_one_sequence_pass(canonical_seq, monkeypatch):
    """build_packing and the model it builds share one array pass over the
    sequence: one ``math.log`` map over the indexes, one ``areas`` call."""
    logs, areas = [], []
    log_map, areas_pass = weights._logs, WeightSequence.areas
    monkeypatch.setattr(weights, "_logs", lambda values, count: logs.append(count) or log_map(values, count))
    monkeypatch.setattr(
        WeightSequence, "areas", lambda seq, trunc: areas.append(trunc) or areas_pass(seq, trunc)
    )
    model = build_packing(canonical_seq, 46_655, UNIT)
    assert logs == [46_655] and areas == [46_655]
    logs.clear(), areas.clear()
    CompactSetModel.from_json(model.to_json())
    assert logs == [46_655] and areas == [46_655]


def test_set_up_sums_the_areas_once(canonical_seq, monkeypatch):
    """build_packing's feasibility total is the model's removed_area: one
    ``math.fsum`` of the area array per set-up, from either path."""
    sums, fsum = [], math.fsum

    def recording(values):
        if isinstance(values, np.ndarray):
            sums.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", recording)
    model = build_packing(canonical_seq, 46_655, UNIT)
    assert sums == [46_655]
    sums.clear()
    again = CompactSetModel.from_json(model.to_json())
    assert sums == [46_655]
    assert _bits(again.removed_area) == _bits(model.removed_area) == _bits(fsum(model.w2))


def test_degenerate_cubes_are_rejected():
    """From cube 108 on, sides 2^-(n+2)/2 vanish against their float64
    corners: x + w == x or y + w == y.  build_packing and set.json both
    stop there, with the global cube number."""
    seq = WeightSequence.geometric(0.25, 0.5)
    model = build_packing(seq, 107, UNIT)
    with pytest.raises(ValueError, match="cube 108 is degenerate in float64"):
        build_packing(seq, 3124, UNIT)
    payload = model.to_json()
    xs, ys, sides, _, _ = oracles.build_packing_ref(seq, 3124, UNIT)
    payload["cubes"] = np.column_stack((xs, ys, sides)).tolist()
    payload["trunc"] = 3124
    with pytest.raises(ValueError, match="cube 108 is degenerate in float64"):
        CompactSetModel.from_json(payload)
    assert np.count_nonzero((xs + sides == xs) | (ys + sides == ys)) == 3017
    assert np.count_nonzero(sides == 0.0) == 976


@pytest.mark.parametrize(
    "seq, trunc, outer",
    [
        (WeightSequence.power(0.25, 2.0), 1, UNIT),
        (WeightSequence.power(0.25, 2.0), 50, UNIT),
        (WeightSequence.power(0.25, 2.0), 3124, UNIT),
        (WeightSequence.explicit([0.01, 0.004, 1e-3, 3e-7]), 4, Rectangle.from_bounds(-2, 0.5, 1, 3)),
        (WeightSequence.power(0.25, 2.0), 46_655, UNIT),
    ],
    ids=["1", "50", "3124", "explicit-box", "46655"],
)
def test_write_json_matches_json_dumps(seq, trunc, outer):
    model = build_packing(seq, trunc, outer)
    out = io.StringIO()
    model.write_json(out)
    assert out.getvalue() == json.dumps(model.to_json(), indent=2, sort_keys=True) + "\n"


def _signed_zero_model():
    """Cubes resting on y = -0.0 and on y = 0.0, which compare equal but
    format differently, in one slice of the writer."""
    seq = WeightSequence.explicit([0.0625, 0.0625, 0.0625])
    cubes = [[0.0, -0.0, 0.25], [0.25, 0.0, 0.25], [-0.0, 0.25, 0.25]]
    return CompactSetModel.from_json(
        {"outer": [-0.0, 1.0, -0.0, 1.0], "trunc": 3, "seq": seq.to_json(), "cubes": cubes}
    )


@pytest.mark.parametrize("layout", ["deposition", "signed-zero"])
def test_write_json_matches_json_dumps_beyond_the_packing(request, layout):
    """Each slice formats its distinct y values once: the bytes stay those
    of ``json.dumps`` on the deposition layout (a y per cube) and with -0.0
    beside 0.0."""
    if layout == "signed-zero":
        model = _signed_zero_model()
        assert np.signbit(model.ys).tolist() == [True, False, False]
    else:
        model = request.getfixturevalue("deposition_model")
    out = io.StringIO()
    model.write_json(out)
    text = out.getvalue()
    assert text == json.dumps(model.to_json(), indent=2, sort_keys=True) + "\n"
    assert CompactSetModel.from_json(json.loads(text)) == model


def test_model_json_round_trip(canonical_seq):
    model = build_packing(canonical_seq, 50, UNIT)
    payload = model.to_json()
    assert set(payload) == {"outer", "cubes", "trunc", "seq"}
    assert payload["trunc"] == 50
    assert len(payload["cubes"]) == 50
    clone = CompactSetModel.from_json(json.loads(json.dumps(payload)))
    assert clone == model


def _open_rows(payload):
    """Rows [x0, x1, y0, y1] of a set.json object's cubes."""
    return np.array([(x, x + w, y, y + w) for x, y, w in payload["cubes"]])


def _raised_pair(payload):
    """The 1-based pair that ``from_json`` names; it must meet, by
    comparing the two cubes' open intervals."""
    with pytest.raises(OverlappingCubes) as info:
        CompactSetModel.from_json(payload)
    i, j = map(int, re.fullmatch(r"cubes (\d+) and (\d+) overlap", str(info.value)).groups())
    assert 1 <= i < j <= len(payload["cubes"])
    a, b = _open_rows(payload)[[i - 1, j - 1]]
    assert max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3])
    return i, j


def _mirrored(payload):
    """The set.json object with every cube reflected in the box's middle
    line y = 1/2: its shelves descend in index order, so the certificate
    refuses it and the y-sweep decides."""
    payload["cubes"] = [[x, 1.0 - y - w, w] for x, y, w in payload["cubes"]]
    return payload


@pytest.mark.parametrize(
    "moved, onto, mirrored",
    [(2, 1, False), (50, 3, False), (50, 3, True)],
    ids=["2-1", "50-3", "mirrored-50-3"],
)
def test_model_json_rejects_overlapping_cubes(canonical_seq, moved, onto, mirrored):
    payload = build_packing(canonical_seq, 50, UNIT).to_json()
    if mirrored:
        CompactSetModel.from_json(_mirrored(payload))
        assert not dilation._shelf_disjoint(_open_rows(payload))
    payload["cubes"][moved - 1][:2] = payload["cubes"][onto - 1][:2]
    assert not dilation._shelf_disjoint(_open_rows(payload))
    with pytest.raises(OverlappingCubes, match=f"cubes {min(moved, onto)} and {max(moved, onto)}"):
        CompactSetModel.from_json(payload)


@pytest.mark.parametrize("moved, onto", [(3124, 1), (2000, 1500), (5, 2000)])
def test_deposition_json_rejects_planted_overlap(deposition_model, moved, onto):
    """A cube of the deposition layout moved onto another's lower-left
    corner: a smaller cube lies inside the one it is moved onto, a larger
    one may meet several, and the pair named always meets."""
    payload = deposition_model.to_json()
    rows = _open_rows(payload)
    assert oracles.sweep_overlap_ref(rows) is None
    payload["cubes"][moved - 1][:2] = payload["cubes"][onto - 1][:2]
    pair = _raised_pair(payload)
    assert moved in pair
    if moved > onto:
        assert pair == (onto, moved)


def test_shuffled_shelf_packing_loads_as_equal_model(canonical_seq):
    """The 3,124-cube shelf packing with its shelves stacked in a shuffled
    order, so that index order climbs and falls between shelves: the
    certificate refuses it, and the y-sweep loads it as an equal model."""
    model = build_packing(canonical_seq, 3124, UNIT)
    shelf = np.cumsum(np.r_[True, model.ys[1:] != model.ys[:-1]]) - 1
    heights = model.sides[np.flatnonzero(np.r_[True, shelf[1:] != shelf[:-1]])]
    order = np.random.default_rng(11).permutation(heights.size)
    floors = np.empty(heights.size)
    floors[order] = np.r_[0.0, np.cumsum(heights[order])[:-1]]
    shuffled = CompactSetModel(
        UNIT, canonical_seq, 3124, model.xs, floors[shelf], model.sides
    )
    payload = json.loads(json.dumps(shuffled.to_json()))
    rows = _open_rows(payload)
    assert not dilation._shelf_disjoint(rows)
    assert oracles.sweep_overlap_ref(rows) is None
    assert CompactSetModel.from_json(payload) == shuffled


def test_locate_in_cubes(canonical_model):
    """Hand-placed points against the cube oracle that is_exceptional_ref
    classifies with."""
    c3 = oracles.cube(canonical_model, 3)
    cx = (c3.x.lo + c3.x.hi) / 2
    cy = (c3.y.lo + c3.y.hi) / 2
    assert oracles.locate_in_cubes_ref(canonical_model, (cx, cy)) == ("inside", 3)
    loc, idx = oracles.locate_in_cubes_ref(canonical_model, (c3.x.lo, cy))
    assert loc == "boundary"
    assert idx is not None
    assert oracles.locate_in_cubes_ref(canonical_model, (0.99, 0.99)) == ("outside", None)


def _distance_to_cubes(model, point, upto):
    """Distance from the point to cubes 1..upto as the scan plan reads it
    from its regime pass; it must equal the per-point cube pass's and the
    oracle's."""
    d = float(np.sqrt(_prefix_d2(model, np.array([point]), (upto,))[0, 0]))
    assert d == float(np.sqrt(oracles._point_gaps(model, point, upto)[1].min()))
    assert d == oracles.distance_to_cubes_ref(model, point, upto)
    return d


def test_distance_to_cubes(canonical_model):
    c1 = oracles.cube(canonical_model, 1)  # (0, 0.5)^2
    assert _distance_to_cubes(canonical_model, (0.75, 0.25), 1) == pytest.approx(0.25)
    assert _distance_to_cubes(canonical_model, (0.25, 0.25), 1) == 0.0
    # diagonal corner distance
    d = _distance_to_cubes(canonical_model, (c1.x.hi + 0.3, c1.y.hi + 0.4), 1)
    assert d == pytest.approx(0.5, rel=1e-12)


# -- density -----------------------------------------------------------------------

def test_density_ratio_whole_box(canonical_model):
    res = density_ratio(canonical_model, UNIT)
    assert res.ratio_n == pytest.approx(canonical_model.measure_remaining, rel=1e-12)
    assert not res.clipped
    assert res.lower_bound_true <= res.ratio_n
    # true-set bracket width is the residual tail over the rect area
    tail = canonical_model.residual_tail.linear_hi
    assert res.ratio_n - res.lower_bound_true == pytest.approx(tail, rel=1e-9)


def test_density_ratio_inside_cube_is_zero(canonical_model):
    c1 = oracles.cube(canonical_model, 1)
    rect = Rectangle.from_bounds(0.1, 0.4, 0.1, 0.4)
    assert oracles.overlap_area_ref(c1, rect) == rect.area
    assert density_ratio(canonical_model, rect).ratio_n == 0.0


def test_density_ratio_clips_to_outer(canonical_model):
    res = density_ratio(canonical_model, Rectangle.from_bounds(-1.0, 0.5, -1.0, 0.5))
    assert res.clipped
    assert res.rect.bounds == (0.0, 0.5, 0.0, 0.5)
    assert res.ratio_n == pytest.approx(0.0, abs=1e-12)  # exactly cube 1


def test_density_ratio_empty_rect(canonical_model):
    with pytest.raises(EmptyRect):
        density_ratio(canonical_model, Rectangle.from_bounds(2.0, 3.0, 2.0, 3.0))


def test_density_hand_rectangle(canonical_seq):
    # two cubes, handmade rectangle covering exactly half of cube 2
    model = build_packing(canonical_seq, 2, UNIT)
    c2 = oracles.cube(model, 2)
    rect = Rectangle.from_bounds(c2.x.lo, c2.x.hi, c2.y.lo, (c2.y.lo + c2.y.hi) / 2)
    res = density_ratio(model, rect)
    assert res.ratio_n == pytest.approx(0.0, abs=1e-12)
    wide = Rectangle.from_bounds(0.0, 1.0, 0.0, 0.25)
    res_wide = density_ratio(model, wide)
    removed = 0.5 * 0.25 + 0.25 * 0.25  # cube-1 and cube-2 strips
    assert res_wide.ratio_n == pytest.approx(1.0 - removed / 0.25, rel=1e-12)


# -- cover -------------------------------------------------------------------------

def test_cover_blocks_and_identity(canonical_cover):
    assert [b.s for b in canonical_cover.blocks] == [3, 4]
    assert [b.gamma for b in canonical_cover.blocks] == [8.0, 16.0]
    assert (canonical_cover.blocks[0].n_lo, canonical_cover.blocks[0].n_hi) == (27, 255)
    assert (canonical_cover.blocks[1].n_lo, canonical_cover.blocks[1].n_hi) == (256, 3124)
    for b in canonical_cover.blocks:
        assert b.exact_measure == pytest.approx(b.identity_rhs, rel=1e-12)


def test_cover_bound_values(canonical_seq):
    # hand-summed (2 * 2^s + 1)^2 * r_(s^s) values
    want = {1: 20.27, 2: 9.99, 3: 4.2436, 4: 1.5212}
    for m, ref in want.items():
        got = cover_measure_bound(canonical_seq, m).linear_hi
        assert got == pytest.approx(ref, rel=5e-3)
    bounds = [cover_measure_bound(canonical_seq, m).linear_hi for m in range(1, 7)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert bounds[5] < 0.15


def test_cover_requires_enough_cubes(canonical_seq):
    small = build_packing(canonical_seq, 100, UNIT)
    with pytest.raises(TruncationTooSmall):
        build_cover(small, 3, 4)


def test_cover_locate_and_prefix(canonical_model, canonical_cover):
    c300 = oracles.cube(canonical_model, 300)
    center = ((c300.x.lo + c300.x.hi) / 2, (c300.y.lo + c300.y.hi) / 2)
    assert canonical_cover.locate(center) is Location.INSIDE
    prefix = list(accumulate(b.exact_measure for b in canonical_cover.blocks))
    assert prefix[-1] == pytest.approx(
        math.fsum(b.exact_measure for b in canonical_cover.blocks), rel=1e-12
    )
    assert all(b >= a for a, b in zip(prefix, prefix[1:]))
    # the analytic bound dominates what was actually built
    assert canonical_cover.measure_bound >= prefix[-1] - 1e-12


# -- point triage (the per-point oracle) ---------------------------------------------

def test_is_exceptional_requires_interior_point(canonical_model, canonical_cover):
    with pytest.raises(OutOfRange):
        oracles.is_exceptional_ref(canonical_model, canonical_cover, (1.5, 0.5))


def test_is_exceptional_classes(canonical_model, canonical_cover):
    # center of a big (uncovered) cube: removed from the set but not covered
    c1 = oracles.cube(canonical_model, 1)
    v1 = oracles.is_exceptional_ref(canonical_model, canonical_cover, (0.25, 0.25))
    assert v1.overall == "in-cube"
    assert v1.cube_index == 1
    assert not v1.is_scannable
    # cube boundary wins over everything
    vb = oracles.is_exceptional_ref(canonical_model, canonical_cover, (c1.x.hi, 0.25))
    assert vb.overall == "on-cube-boundary"
    # center of a covered-block cube sits inside the cover
    c300 = oracles.cube(canonical_model, 300)
    vc = oracles.is_exceptional_ref(
        canonical_model,
        canonical_cover,
        ((c300.x.lo + c300.x.hi) / 2, (c300.y.lo + c300.y.hi) / 2),
    )
    assert vc.overall == "in-cover"
    assert not vc.is_scannable


def test_is_exceptional_scannable_point(canonical_model, canonical_cover):
    # the packing leaves the top band cube-free; high points clear the cover too
    v = oracles.is_exceptional_ref(canonical_model, canonical_cover, (0.5, 0.95))
    assert v.is_scannable
    assert v.cube_location is Location.OUTSIDE
