"""Shelf packing, density arithmetic, cover construction and point triage."""

import json
import math
from itertools import accumulate

import numpy as np
import pytest

from densitometer.dilation import Rectangle
from densitometer.errors import (
    EmptyRect,
    OutOfRange,
    OverlappingCubes,
    PackingInfeasible,
    TruncationTooSmall,
)
from densitometer.interval1d import Location
from densitometer.scan import _point_gaps
from densitometer.setmodel import (
    CompactSetModel,
    build_cover,
    build_packing,
    cover_measure_bound,
    density_ratio,
)
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


def test_model_json_round_trip(canonical_seq):
    model = build_packing(canonical_seq, 50, UNIT)
    payload = model.to_json()
    assert set(payload) == {"outer", "cubes", "trunc", "seq"}
    assert payload["trunc"] == 50
    assert len(payload["cubes"]) == 50
    clone = CompactSetModel.from_json(json.loads(json.dumps(payload)))
    assert clone == model


@pytest.mark.parametrize("moved, onto", [(2, 1), (50, 3)])
def test_model_json_rejects_overlapping_cubes(canonical_seq, moved, onto):
    payload = build_packing(canonical_seq, 50, UNIT).to_json()
    payload["cubes"][moved - 1][:2] = payload["cubes"][onto - 1][:2]
    with pytest.raises(OverlappingCubes, match=f"cubes {min(moved, onto)} and {max(moved, onto)}"):
        CompactSetModel.from_json(payload)


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
    """Distance from the point to cubes 1..upto as the scan reads it from
    its cube pass; it must equal the oracle's."""
    d = float(np.sqrt(_point_gaps(model, point, upto)[1].min()))
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
