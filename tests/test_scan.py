"""Seeded density scans: determinism, regime bookkeeping, nested refinement."""

import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitometer import RateFunction, scan, setmodel
from densitometer.dilation import Rectangle, RectUnion
from densitometer.errors import AcceptanceTooLow, OutOfRange
from densitometer.interval1d import Location
from densitometer.scan import (
    ScanConfig,
    SeparationRow,
    sample_points,
    scan_deficit_envelope,
    scan_density_bound,
    separation_check,
)
from densitometer.setmodel import (
    CompactSetModel,
    ExceptionalCover,
    build_cover,
    build_packing,
    density_ratio,
)
from densitometer.weights import WeightSequence

import oracles


def small_config(**overrides):
    base = dict(
        t_grid=(0.25, 0.05, 0.01),
        points=20,
        rects_per_point=60,
        seed=42,
        aspect_range=(0.2, 5.0),
        m=3,
        s_hi=4,
    )
    base.update(overrides)
    return ScanConfig(**base)


# -- config -----------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"t_grid": ()},
        {"t_grid": (0.1, 0.1)},
        {"t_grid": (0.1, -0.2)},
        {"points": 0},
        {"rects_per_point": 0},
        {"aspect_range": (0.01, 5.0)},
        {"aspect_range": (0.2, 30.0)},
        {"m": 5},
        {"seed": -1},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


# -- sampling ---------------------------------------------------------------------

def test_sample_points_deterministic(canonical_model, canonical_cover):
    config = small_config()
    a = sample_points(canonical_model, canonical_cover, config)
    b = sample_points(canonical_model, canonical_cover, config)
    assert a.points == b.points
    assert a.draws == b.draws
    assert len(a.points) == config.points


def test_sample_points_all_scannable(canonical_model, canonical_cover):
    sample = sample_points(canonical_model, canonical_cover, small_config(points=40))
    for p in sample.points:
        assert oracles.is_exceptional_ref(canonical_model, canonical_cover, p).is_scannable


def test_sample_points_seed_changes_stream(canonical_model, canonical_cover):
    a = sample_points(canonical_model, canonical_cover, small_config(seed=1))
    b = sample_points(canonical_model, canonical_cover, small_config(seed=2))
    assert a.points != b.points


@pytest.mark.parametrize(
    "layout, seed", [("shelf", 1), ("shelf", 2)] + [("deposition", k) for k in range(1, 6)]
)
def test_sample_points_match_per_point_sampler(
    canonical_model, canonical_cover, deposition_model, deposition_cover, layout, seed
):
    """The batch cover test, over doubling batches, accepts the same points
    after the same draws as one lookup per drawn point in the blocks'
    ColumnUnion oracles over fixed batches."""
    model, cover = {
        "shelf": (canonical_model, canonical_cover),
        "deposition": (deposition_model, deposition_cover),
    }[layout]
    config = small_config(points=100, seed=seed)
    assert sample_points(model, cover, config) == oracles.sample_points_ref(model, cover, config)


def _recording_batches(monkeypatch, accept):
    """Record the size of every batch that sample_points tests, and accept
    the rows ``accept`` gives for it."""
    sizes = []

    def recording(model, cover, pts):
        sizes.append(len(pts))
        return accept(model, cover, pts)

    monkeypatch.setattr(scan, "_scannable_rows", recording)
    return sizes


def test_sample_points_batches_double_up_to_the_cap(
    deposition_model, deposition_cover, monkeypatch
):
    """On the deposition layout, where the cover holds 99.5% of the box,
    each batch that does not finish the sample doubles the next, up to
    _SAMPLE_BATCH draws."""
    sizes = _recording_batches(monkeypatch, scan._scannable_rows)
    config = small_config(points=100, seed=3)
    sample = sample_points(deposition_model, deposition_cover, config)
    cap = scan._SAMPLE_BATCH
    assert sizes[:5] == [1024, 2048, 4096, 8192, 8192] and set(sizes[3:]) == {cap}
    assert sum(sizes[:-1]) < sample.draws <= sum(sizes)


@pytest.mark.parametrize("points, draws", [(100, 1_000_448), (300, 1_000_800)])
def test_acceptance_check_sees_the_fixed_batch_draw_counts(
    canonical_model, canonical_cover, monkeypatch, points, draws
):
    """With nothing accepted, AcceptanceTooLow names the draw count at which
    fixed batches of max(1024, 4 * points) first pass a million draws: the
    batches land on it exactly, also where the unit (1,200 draws for 300
    points) does not divide the cap."""
    sizes = _recording_batches(monkeypatch, lambda model, cover, pts: np.zeros(0, dtype=np.intp))
    with pytest.raises(AcceptanceTooLow, match=f"^0 of {draws} draws accepted"):
        sample_points(canonical_model, canonical_cover, small_config(points=points))
    unit = max(1024, 4 * points)
    assert draws == -(-(10**6) // unit) * unit == sum(sizes)
    assert max(sizes) <= max(unit, scan._SAMPLE_BATCH)


def _cover_probes(cover, every=4):
    """Corners, edge midpoints and centers of the cover's rectangles, corners
    nudged one ulp outwards, and seeded points."""
    pts = []
    for block in cover.blocks:
        for rect in block.union.rects[::every]:
            x0, x1, y0, y1 = rect.bounds
            xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
            pts += [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (xm, y0), (xm, y1), (x0, ym)]
            pts += [(x1, ym), (xm, ym), (np.nextafter(x0, -2.0), y0), (x1, np.nextafter(y1, 2.0))]
            pts += [(np.nextafter(x1, 2.0), np.nextafter(y0, -2.0))]
    rng = np.random.default_rng(4)
    return np.concatenate([np.array(pts), rng.uniform(0.0, 1.0, (2000, 2))])


@pytest.mark.parametrize("layout", ["shelf", "deposition"])
def test_cover_meets_matches_locate(canonical_cover, deposition_cover, layout):
    """Where the closed cover meets a point, and how, matches locate: the
    cover's code is the largest of the blocks' verdicts, each taken from the
    object-based ColumnUnion oracle."""
    cover = {"shelf": canonical_cover, "deposition": deposition_cover}[layout]
    pts = _cover_probes(cover)
    rank = {Location.OUTSIDE: 0, Location.BOUNDARY: 1, Location.INSIDE: 2}
    refs = [oracles.column_union(b.union) for b in cover.blocks]
    want = [max(rank[ref.locate((float(x), float(y)))] for ref in refs) for x, y in pts]
    got = cover.classify(pts[:, 0], pts[:, 1])
    assert got.tolist() == want
    assert set(want) == {0, 1, 2}
    assert not ExceptionalCover.empty().classify(pts[:, 0], pts[:, 1]).any()


def test_cover_classifies_later_blocks_only_where_not_inside(deposition_cover, monkeypatch):
    """Each block after the first classifies only the points that no earlier
    block holds inside, and the codes are still the largest of every
    block's."""
    pts = _cover_probes(deposition_cover)
    codes = [b.union.classify(pts[:, 0], pts[:, 1]) for b in deposition_cover.blocks]
    sizes, classify = [], RectUnion.classify
    monkeypatch.setattr(
        RectUnion, "classify", lambda self, x, y: sizes.append(len(x)) or classify(self, x, y)
    )
    got = deposition_cover.classify(pts[:, 0], pts[:, 1])
    assert got.tolist() == np.max(codes, axis=0).tolist()
    assert sizes == [len(pts), int(np.count_nonzero(codes[0] < 2))]
    assert 0 < sizes[1] < sizes[0]


# -- density scan -------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(canonical_model, canonical_cover, canonical_ratefn):
    return scan_density_bound(
        canonical_model, canonical_cover, canonical_ratefn, small_config()
    )


def test_scan_deterministic(canonical_model, canonical_cover, canonical_ratefn, small_report):
    again = scan_density_bound(
        canonical_model, canonical_cover, canonical_ratefn, small_config()
    )
    assert again.rows == small_report.rows
    assert again.summaries == small_report.summaries


def test_scan_floors_match_ratefn(small_report, canonical_ratefn):
    for summary in small_report.summaries:
        assert summary.floor == canonical_ratefn.floor_at(summary.t)


def test_scan_zero_applicable_violations(small_report):
    assert small_report.passed
    for summary in small_report.summaries:
        assert summary.violations_applicable == 0
        assert summary.applicable + summary.deferred + summary.exceptional == 20


def test_scan_rows_cover_grid(small_report):
    ts = sorted({r.t for r in small_report.rows})
    assert ts == [0.01, 0.05, 0.25]
    point_ids = {r.point_id for r in small_report.rows}
    assert point_ids == set(range(20))


def test_scan_min_ratio_monotone_in_t(small_report):
    """Nested rectangle families: the reported minimum can only fall as t grows."""
    by_point = {}
    for row in sorted(small_report.rows, key=lambda r: r.t):
        by_point.setdefault(row.point_id, []).append(row.min_ratio)
    for ratios in by_point.values():
        assert all(b <= a + 1e-15 for a, b in zip(ratios, ratios[1:]))


def test_scan_margin_definition(small_report):
    for row in small_report.rows:
        assert row.margin == pytest.approx(row.min_ratio - row.floor, abs=1e-15)
        if row.regime == "applicable":
            assert (row.violations > 0) == (row.min_ratio < row.floor)


def test_scan_explicit_adversarial_point(canonical_model, canonical_cover, canonical_ratefn):
    c300 = oracles.cube(canonical_model, 300)
    center = ((c300.x.lo + c300.x.hi) / 2, (c300.y.lo + c300.y.hi) / 2)
    report = scan_density_bound(
        canonical_model,
        canonical_cover,
        canonical_ratefn,
        small_config(points=1, rects_per_point=200),
        points=[center],
    )
    rows = [r for r in report.rows if r.regime == "exceptional"]
    assert rows, "adversarial point must be flagged, not silently scanned"
    # the flagged point produces sub-floor ratios at small t, none applicable
    small_t = [r for r in rows if r.t == 0.01]
    assert small_t[0].violations > 0
    assert report.passed
    assert report.summaries[0].violations_exceptional > 0
    verdict = oracles.is_exceptional_ref(canonical_model, canonical_cover, center)
    assert verdict.overall == "in-cover"


def _cube_probes(model, cubes):
    """Corners, edge midpoints and centers of the chosen cubes, and points
    one ulp outside each edge and each corner."""
    pts = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        xm, ym = x0 + w / 2, y0 + w / 2
        xa, xb = np.nextafter(x0, -2.0), np.nextafter(x1, 2.0)
        ya, yb = np.nextafter(y0, -2.0), np.nextafter(y1, 2.0)
        pts += [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (x0, ym), (x1, ym), (xm, y0), (xm, y1)]
        pts += [(xm, ym), (xa, ym), (xb, ym), (xm, ya), (xm, yb), (xa, ya), (xb, yb)]
    return np.array(pts)


@pytest.mark.parametrize("m", [3, 4])
def test_explicit_points_match_per_point_classifier(
    canonical_model, canonical_cover, canonical_ratefn, m
):
    """Explicit points go through the sampler's batch test; a point is
    flagged exceptional exactly where the per-point classifier it replaced
    calls it not scannable, on cube corners, edges and one-ulp offsets,
    cover column corners and seeded points."""
    cover = canonical_cover if m == 3 else build_cover(canonical_model, m, 4)
    cubes = sorted(set(range(40)) | set(range(0, canonical_model.trunc, 29)))
    pts = np.concatenate([_cube_probes(canonical_model, cubes), _cover_probes(cover, every=64)])
    pts = [(float(x), float(y)) for x, y in pts if 0.0 < x < 1.0 and 0.0 < y < 1.0]
    config = small_config(t_grid=(0.01,), points=1, rects_per_point=1, m=m)
    report = scan_density_bound(canonical_model, cover, canonical_ratefn, config, points=pts)
    got = [r.regime == "exceptional" for r in report.rows]
    verdicts = [oracles.is_exceptional_ref(canonical_model, cover, p) for p in pts]
    assert got == [not v.is_scannable for v in verdicts]
    assert {v.overall for v in verdicts} == {
        "on-cube-boundary",
        "in-cover",
        "in-cube",
        "outside-cover-up-to-horizon",
    }


@pytest.mark.parametrize("point", [(1.5, 0.5), (math.nan, 0.5), (0.0, 0.5)])
def test_explicit_point_outside_box_raises(
    canonical_model, canonical_cover, canonical_ratefn, point
):
    """A point not strictly inside the box (NaN and box-edge points
    included) is rejected, wherever it stands in the list."""
    config = small_config(points=1)
    with pytest.raises(OutOfRange, match=r"point \(.*\) is not strictly inside the outer box"):
        scan_density_bound(
            canonical_model, canonical_cover, canonical_ratefn, config, points=[(0.5, 0.95), point]
        )


@pytest.mark.parametrize("check", [scan_density_bound, separation_check])
def test_empty_point_list_raises(canonical_model, canonical_cover, canonical_ratefn, check):
    """Both entry points reject an empty explicit point list in the plan,
    with the same message."""
    with pytest.raises(ValueError, match="no points to scan"):
        check(canonical_model, canonical_cover, canonical_ratefn, small_config(), points=[])


def test_ratio_kernel_work_bound(canonical_model, canonical_cover, canonical_ratefn, monkeypatch):
    """On a level-4 scan of 100 points the ratio kernel evaluates at most a
    tenth of the cells (rectangles x cubes) of the dense product of each
    rectangle with every cube whose closure meets the box point +- t: it
    gets only the cubes of the boundary leaves of each rectangle's cube-tree
    descent and its family's large-cube candidates, one cell per
    (rectangle, cube), besides the family boxes' own cells."""
    config = small_config(points=100, rects_per_point=100)
    kernel = CompactSetModel.overlaps
    cells = []

    def recording(self, rects, reduce, cubes):
        if sys._getframe(1).f_code.co_name in ("_tree_pieces", "_big_pieces"):
            size = self.xs[cubes].size
            cells.append(size if np.ndim(cubes) == 2 else len(rects) * size)
        return kernel(self, rects, reduce, cubes)

    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    report = scan_density_bound(canonical_model, canonical_cover, canonical_ratefn, config)
    dense = sum(
        config.rects_per_point * oracles.candidate_cubes_ref(canonical_model, (r.x, r.y), r.t).size
        for r in report.rows
    )
    assert cells
    assert sum(cells) <= dense / 10, (sum(cells), dense)


# -- negative controls: the pruned kernel must still see the cube that decides ---------

_TINY = WeightSequence.power(1e-4, 2.0)  # sides 0.01 and 0.005
_POINT = (0.3, 0.3)


class _FlatFloor:
    """Stand-in rate function: one floor at every t, no separation prefix,
    so every scanned pair is applicable."""

    def __init__(self, floor):
        self.floor = floor

    def branch_at(self, t):
        return SimpleNamespace(floor=self.floor, is_top=False, s_next=None)


def _planted_model(config):
    """Two cubes: cube 1 far from the point, cube 2 planted beyond the point
    at a gap of 0.999 times the largest extent any scanned rectangle has from
    it, on that rectangle's side.  The widest rectangle then meets cube 2, and
    cube 2 is the last cube of its near prefix.  Returns the model and the
    scanned rectangles."""
    outer = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    w1, w2 = _TINY.w(1), _TINY.w(2)
    probe = CompactSetModel(outer, _TINY, 2, [0.9, 0.5], [0.9, 0.5], [w1, w2])
    rng = np.random.Generator(np.random.PCG64(scan._substreams(config, 1, 1)[0]))
    rects = oracles._draw_rects(rng, _POINT, sorted(config.t_grid), config, probe)
    extent = np.abs(rects - np.repeat(_POINT, 2))
    row, side = np.unravel_index(np.argmax(extent), extent.shape)
    gap = 0.999 * extent[row, side]
    px, py = _POINT
    x, y = {
        0: (px - gap - w2, py - w2 / 2),
        1: (px + gap, py - w2 / 2),
        2: (px - w2 / 2, py - gap - w2),
        3: (px - w2 / 2, py + gap),
    }[int(side)]
    return CompactSetModel(outer, _TINY, 2, [0.9, x], [0.9, y], [w1, w2]), rects


def test_planted_cube_inside_reach_lowers_min_ratio():
    config = small_config(t_grid=(0.05, 0.01), points=1, rects_per_point=50)
    model, rects = _planted_model(config)
    want = min(density_ratio(model, Rectangle.from_bounds(*r)).ratio_n for r in rects)
    assert want < 1.0
    report = scan_density_bound(
        model, ExceptionalCover.empty(), _FlatFloor(0.0), config, points=[_POINT]
    )
    assert [r.regime for r in report.rows] == ["applicable", "applicable"]
    assert report.rows[-1].min_ratio == want


def test_floor_above_observed_ratio_counts_violations():
    config = small_config(t_grid=(0.05, 0.01), points=1, rects_per_point=50)
    model, rects = _planted_model(config)
    ratios = [density_ratio(model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
    floor = (min(ratios) + 1.0) / 2
    report = scan_density_bound(
        model, ExceptionalCover.empty(), _FlatFloor(floor), config, points=[_POINT]
    )
    assert not report.passed
    assert report.rows[-1].violations == sum(r < floor for r in ratios) > 0


def test_scan_csv_shape(small_report):
    lines = small_report.to_csv().strip().split("\n")
    assert lines[0] == "t,point_id,x,y,min_ratio,floor,margin,violations,regime"
    assert len(lines) == 1 + 3 * 20
    first = lines[1].split(",")
    assert float(first[0]) in (0.01, 0.05, 0.25)
    assert first[8] in ("applicable", "deferred", "exceptional")


# -- family boxes and undrawn separation pairs, against the passes they replaced --

@pytest.fixture(scope="module")
def layouts(
    canonical_model, canonical_cover, shelf_46k, shelf_46k_cover, deposition_model, deposition_cover
):
    return {
        "shelf-3124": (canonical_model, canonical_cover),
        "shelf-46655": (shelf_46k, shelf_46k_cover),
        "deposition": (deposition_model, deposition_cover),
    }


@pytest.mark.parametrize("layout", ["shelf-3124", "shelf-46655", "deposition"])
def test_scan_matches_run_pass_before_family_boxes(layouts, layout, canonical_ratefn, monkeypatch):
    """At three seeds per layout, the scan's report is the one that the
    pass it replaced (every rectangle to the tree, one distance pass per
    point) gives on the same sample, byte for byte.  24 points of 1,500
    rectangles make one full run and one short one, and both kinds of
    family (box meets a cube or not) occur."""
    model, cover = layouts[layout]
    minima = set()
    for seed in (1, 2, 3):
        config = small_config(points=24, rects_per_point=500, seed=seed)
        report = scan_density_bound(model, cover, canonical_ratefn, config)
        with monkeypatch.context() as patch:
            patch.setattr(scan, "_scan_points", oracles.scan_points_ref)
            want = scan_density_bound(model, cover, canonical_ratefn, config, points=report.sample.points)
        assert report.to_csv() == want.to_csv()
        minima |= {r.min_ratio == 1.0 for r in report.rows}
    assert minima == {True, False}


@pytest.mark.parametrize("layout", ["shelf-3124", "shelf-46655", "deposition"])
def test_separation_matches_check_drawing_every_pair(layouts, layout, canonical_ratefn):
    """At three seeds per layout, the separation check's tallies are those of
    drawing and testing every applicable pair's rectangles, although it
    draws almost none of them."""
    model, cover = layouts[layout]
    for seed in (1, 2, 3):
        config = small_config(points=24, rects_per_point=500, seed=seed)
        plan = scan._scan_plan(model, cover, canonical_ratefn, config, None)
        report = separation_check(model, cover, canonical_ratefn, config, points=plan.sample.points)
        want = oracles.separation_tallies_ref(model, config, plan)
        assert want
        for k, tally in want.items():
            row = report.rows[k]
            got = [row.checked_points, row.checked_rects, row.violations, row.deferred_points]
            assert got == tally, (seed, row.t)


class _SeparatedFloor:
    """Stand-in rate function: floor 0.5 at every t, separation index 2, so
    at m = 1 rectangles must miss cubes 1..3."""

    def branch_at(self, t):
        return SimpleNamespace(floor=0.5, is_top=False, s_next=2)


def _three_cube_model():
    """Cubes 1, 2 and 3 of _TINY at (0.5, 0.5), (0.1, 0.1) and (0.9, 0.9)."""
    outer = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    sides = [_TINY.w(n) for n in (1, 2, 3)]
    return CompactSetModel(outer, _TINY, 3, [0.5, 0.1, 0.9], [0.5, 0.1, 0.9], sides)


def _recorded(name, at, monkeypatch, fn):
    """Run fn() with scan.<name> patched to record a copy of its argument
    ``at``, the rectangles, on every call; returns fn's result and the
    copies."""
    calls, original = [], getattr(scan, name)
    with monkeypatch.context() as patch:
        patch.setattr(scan, name, lambda *a: calls.append(a[at].copy()) or original(*a))
        return fn(), calls


def _separation_draws(model, config, point, monkeypatch):
    """The separation check of one explicit point under _SeparatedFloor: its
    rows' tallies, the reference's, the t of every pair it drew, read from
    the rectangles _pair_hits received (None for rectangles that are no
    cumulative family of the scan's draw), and those rectangles."""
    args = (model, ExceptionalCover.empty(), _SeparatedFloor(), config)
    report, tested = _recorded("_pair_hits", 2, monkeypatch, lambda: separation_check(*args, points=[point]))
    got = {r.t: [r.checked_points, r.checked_rects, r.violations, r.deferred_points] for r in report.rows}
    plan = scan._scan_plan(*args, [point])
    want = {plan.t_sorted[k]: v for k, v in oracles.separation_tallies_ref(model, config, plan).items()}
    _, measured = _recorded("_ratios", 1, monkeypatch, lambda: scan_density_bound(*args, points=[point]))
    rng = np.random.Generator(np.random.PCG64(scan._substreams(config, 1, 1)[0]))
    lane = oracles._draw_rects(rng, point, plan.t_sorted, config, model)
    # the scan builds a suffix of the point's lane-1 families, bit for bit
    assert all(m.tobytes() == lane[len(lane) - len(m) :].tobytes() for m in measured)
    n = config.rects_per_point
    by_bytes = {lane[: (k + 1) * n].tobytes(): t for k, t in enumerate(plan.t_sorted)}
    return got, want, [by_bytes.get(rects.tobytes()) for rects in tested], tested


def test_separation_draws_only_pairs_whose_box_reaches_a_cube(monkeypatch):
    """Cube 1 lies at Chebyshev gap 0.02 and distance 0.0283 from the point:
    t = 0.05 is deferred, t = 0.025 applicable with cube 1 inside the box's
    reach, so its rectangles are drawn and tested, and t = 0.01 applicable
    with no cube in reach, so its rectangles are counted undrawn.  Each
    checked pair counts the scan's cumulative family at its t, 200 rectangles
    per smaller or equal t.  The tallies are those of drawing every
    applicable pair."""
    config = small_config(t_grid=(0.05, 0.025, 0.01), points=1, rects_per_point=200, m=1, s_hi=1)
    got, want, draws, _ = _separation_draws(_three_cube_model(), config, (0.53, 0.53), monkeypatch)
    assert draws == [0.025]
    assert got == {0.01: [1, 200, 0, 0], 0.025: [1, 400, 0, 0], 0.05: [0, 0, 0, 1]}
    assert got == want


def test_separation_tests_the_scans_own_rectangles(monkeypatch):
    """The one pair that draws at (0.53, 0.53), at t = 0.025, tests the
    rectangles the scan's minimum there is taken over, bit for bit: rows
    0..(k+1) n of the point's lane-1 draw over the ascending t grid, k = 1,
    the families at t = 0.01 and t = 0.025."""
    config = small_config(t_grid=(0.05, 0.025, 0.01), points=1, rects_per_point=200, m=1, s_hi=1)
    model, point = _three_cube_model(), (0.53, 0.53)
    _, _, draws, tested = _separation_draws(model, config, point, monkeypatch)
    rng = np.random.Generator(np.random.PCG64(scan._substreams(config, 1, 1)[0]))
    lane = oracles._draw_rects(rng, point, (0.01, 0.025, 0.05), config, model)
    assert draws == [0.025]
    assert tested[0].tobytes() == lane[:400].tobytes()


_T = 2.0**-6  # exact in every sum and difference below


@pytest.mark.parametrize(
    "offset, drawn",
    [
        ((_T, 0.005), False),  # the box's left edge lies on the cube's right edge
        ((_T, _T), False),  # the box's lower-left corner is the cube's upper-right one
        ((_T, -_T), False),  # the box's upper-left corner is the cube's lower-right one
        ((_T - 2.0**-53, 0.005), None),  # one ulp nearer: the pair is deferred
        ((_T - 2.0**-53, _T / 2), True),  # the box reaches one ulp into the cube in x
        ((_T - 2.0**-53, _T - 2.0**-53), True),  # one ulp in x and y, across the corner
    ],
)
def test_separation_box_touching_or_one_ulp_inside_a_cube(offset, drawn, monkeypatch):
    """Cube 1 is [0.5, x1]^2 with x1 = fl(0.5 + 0.01); the point stands at
    (x1, y) + offset, with y = x1 for offsets off the upper corner and 0.5
    for the others, so fl(p - t) is exactly the box's edge.  A box that only
    touches the cube along an edge or at a corner draws nothing, a box one
    ulp inside draws the pair, and the tallies are those of drawing every
    applicable pair."""
    model = _three_cube_model()
    x1 = 0.5 + model.sides[0]
    dx, dy = offset
    point = (x1 + dx, (x1 if dy >= _T / 2 else 0.5) + dy)
    assert point[0] - _T == x1 - (_T - dx)
    config = small_config(t_grid=(_T,), points=1, rects_per_point=200, m=1, s_hi=1)
    got, want, draws, _ = _separation_draws(model, config, point, monkeypatch)
    assert got == want
    assert draws == ([_T] if drawn else [])
    assert got[_T] == ([0, 0, 0, 1] if drawn is None else [1, 200, 0, 0])


# A kernel block holds one row of the 46,655-cube prefix: a handful of
# 46,655-wide float64 temporaries alive at once (see _PEAK_BOUND in
# test_overlap_kernel.py), eight of which plus 1 MiB bound the peak.  The
# separation check below peaks at about 2.9 MiB; one (boxes x prefix) array
# of its 100 boxes would alone take 37 MB as float64 and 4.7 MB as booleans.
_SEPARATION_PEAK = 8 * 8 * 46_655 + (1 << 20)


def test_separation_passes_on_46k_shelf(shelf_46k, shelf_46k_cover, canonical_ratefn, monkeypatch):
    """On the 46,655-cube shelf, with prefixes up to the whole model, the
    separation check classifies the sample's points once (_scannable_rows),
    and beyond that makes one regime pass (_prefix_d2), one box pass per
    checkable t and one pass per drawn pair (_pair_hits: the prefix cubes
    its box meets, then its rectangles against them), and holds no (points x
    prefix) array."""
    model, cover = shelf_46k, shelf_46k_cover
    config = small_config(t_grid=(0.25, 0.05, 0.01, 0.002, 1e-4), points=100, rects_per_point=500)
    sample = sample_points(model, cover, config)
    calls = {name: 0 for name in ("_prefix_d2", "_meets_prefix", "_pair_hits", "_point_draw")}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(scan, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(scan, name, counting)
    kernel = CompactSetModel.overlaps
    kernel_calls = []
    monkeypatch.setattr(
        CompactSetModel, "overlaps", lambda *a: kernel_calls.append(1) or kernel(*a)
    )
    classify, classify_calls = scan._scannable_rows, []

    def classifying(*args):
        before = len(kernel_calls)
        rows = classify(*args)
        classify_calls.append(len(kernel_calls) - before)
        return rows

    monkeypatch.setattr(scan, "_scannable_rows", classifying)
    tracemalloc.start()
    try:
        report = separation_check(model, cover, canonical_ratefn, config, points=sample.points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.prefix for r in report.rows] == [46_655, 3124, 255, 26, 0]
    checkable = [r for r in report.rows if r.prefix]
    assert all(r.checked_points for r in checkable)
    assert calls["_prefix_d2"] == 1
    assert calls["_meets_prefix"] == len(checkable)
    assert calls["_pair_hits"] == calls["_point_draw"] >= 1
    assert len(classify_calls) == 1
    assert len(kernel_calls) == classify_calls[0] + 1 + len(checkable) + 2 * calls["_pair_hits"]
    assert peak < _SEPARATION_PEAK, f"peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("layout", ["shelf-3124", "shelf-46655", "deposition"])
def test_plan_regimes_match_per_point_passes(layouts, layout, canonical_ratefn):
    """At three seeds per layout, the plan's one regime pass gives every
    point the regimes of its own _point_gaps pass, which the scan and the
    separation check each made before (on the deposition layout every
    sampled pair is applicable)."""
    model, cover = layouts[layout]
    for seed in (1, 2, 3):
        config = small_config(points=24, seed=seed)
        plan = scan._scan_plan(model, cover, canonical_ratefn, config, None)
        assert plan.regimes == oracles.regimes_ref(model, plan)


# Points at distance exactly t from a prefix cube of the canonical model:
# right of cube 1's edge x = 0.5 at t = 3/64, and off cube 2's top-right
# corner (0.75, 0.25) by (3, 4) * 2^-7 at t = 5/128.  Every difference,
# square and square root on the way is exact (a 3-4-5 triangle for the
# corner); the pair is applicable there and deferred one ulp nearer.
_EDGE_TIE, _CORNER_TIE = (0.546875, 0.4), (0.7734375, 0.28125)
_TIE_GRID = (0.25, 0.046875, 0.0390625, 0.01)


def test_plan_regimes_match_per_point_passes_on_cube_probes(canonical_model, canonical_ratefn):
    """Explicit points on cube edges and corners, one ulp off them, and at
    distance exactly t from a prefix cube with their neighbours one ulp
    nearer and farther get the regimes of their own _point_gaps passes; all
    three regimes and both sides of each tie occur."""
    cubes = sorted(set(range(30)) | set(range(0, canonical_model.trunc, 97)))
    probes = _cube_probes(canonical_model, cubes).tolist()
    pts = [(x, y) for x, y in probes if 0.0 < x < 1.0 and 0.0 < y < 1.0]
    # each tie point with its neighbours one ulp nearer and one ulp farther
    ties = [[(float(np.nextafter(x, d)), y) for d in (0.0, x, 1.0)] for x, y in (_EDGE_TIE, _CORNER_TIE)]
    pts += sum(ties, [])
    config = small_config(t_grid=_TIE_GRID, points=len(pts))
    plan = scan._scan_plan(canonical_model, ExceptionalCover.empty(), canonical_ratefn, config, pts)
    assert plan.regimes == oracles.regimes_ref(canonical_model, plan)
    assert {r for row in plan.regimes for r in row} == {"applicable", "deferred", "exceptional"}
    for (nearer, tie, farther), t in zip(ties, _TIE_GRID[1:3]):
        assert oracles.distance_to_cubes_ref(canonical_model, tie, 26) == t
        k = plan.t_sorted.index(t)
        got = [plan.regimes[pts.index(q)][k] for q in (nearer, tie, farther)]
        assert got == ["deferred", "applicable", "applicable"]


@pytest.mark.parametrize(
    "outer, point, t_grid, aspect_range",
    [
        ((0.0, 1.0, 0.0, 1.0), (0.3, 0.7), (0.25, 0.05, 0.01), (0.2, 5.0)),
        ((0.0, 1.0, 0.0, 1.0), (0.5, 0.5), (0.3, 1e-9), (0.05, 20.0)),
        ((1e6, 1e6 + 1.0, -3.0, -2.0), (1e6 + 0.5, -2.5), (1e-10, 3e-11, 1e-3), (0.05, 20.0)),
        ((0.0, 1.0, 0.0, 1.0), (1e-3, 1.0 - 1e-3), (0.5,), (1.0, 1.0)),
    ],
)
def test_drawn_rectangles_lie_in_the_box_point_plus_minus_t(outer, point, t_grid, aspect_range):
    """Every drawn rectangle lies in [fl(p - t), fl(p + t)] on each axis, so
    its reach from the point is at most that box's; this holds also where t
    is a few ulps of the coordinates and at the extreme aspects."""
    config = small_config(
        t_grid=t_grid, points=1, rects_per_point=2000, aspect_range=aspect_range
    )
    model = SimpleNamespace(outer=Rectangle.from_bounds(*outer))
    rng = np.random.Generator(np.random.PCG64(7))
    rects = oracles._draw_rects(rng, point, t_grid, config, model).reshape(len(t_grid), -1, 4)
    px, py = point
    for t, family in zip(t_grid, rects):
        box = np.array([[px - t, px + t, py - t, py + t]])
        assert (family[:, :2] >= box[0, 0]).all() and (family[:, :2] <= box[0, 1]).all()
        assert (family[:, 2:] >= box[0, 2]).all() and (family[:, 2:] <= box[0, 3]).all()
        assert oracles._reach(point, family) <= oracles._reach(point, box)


def test_explicit_points_match_run_pass_before_family_boxes(
    canonical_model, canonical_ratefn, monkeypatch
):
    """Applicable, deferred and exceptional explicit points (see
    test_scan_and_separation_agree_on_explicit_points) get the rows of the
    replaced pass."""
    cover = build_cover(canonical_model, 4, 4)
    points = [(0.9, 0.9), (0.77, 0.601), (0.5, 0.25)]
    args = (canonical_model, cover, canonical_ratefn, small_config(points=3, m=4))
    report = scan_density_bound(*args, points=points)
    monkeypatch.setattr(scan, "_scan_points", oracles.scan_points_ref)
    assert report.rows == scan_density_bound(*args, points=points).rows
    assert {r.regime for r in report.rows} == {"applicable", "deferred", "exceptional"}


_CUBE = 0.5  # the one cube of _one_cube_model is [0.5, 0.51]^2


def _one_cube_model():
    outer = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    return CompactSetModel(outer, _TINY, 1, [_CUBE], [_CUBE], [_TINY.w(1)])


def _family_ratios(model, rects, family, monkeypatch):
    """scan._ratios of the families, and the row count of each descent of
    the cube tree: first the families' boxes, then the rows measured."""
    passes = []
    walk = setmodel._PackedTree.walk

    def recording(self, rect, closed, settled=None):
        passes.append(len(rect[0]))
        return walk(self, rect, closed, settled)

    monkeypatch.setattr(setmodel._PackedTree, "walk", recording)
    return scan._ratios(model, np.array(rects), family), passes


@pytest.mark.parametrize(
    "rects",
    [
        [[0.4, 0.5, 0.45, 0.5], [0.45, 0.5, 0.5, 0.55]],  # box on the cube's left edge
        [[0.4, 0.45, 0.51, 0.6], [0.45, 0.5, 0.55, 0.6]],  # box on its top-left corner
    ],
)
def test_family_box_touching_a_cube_is_skipped(rects, monkeypatch):
    ratios, passes = _family_ratios(_one_cube_model(), rects, 2, monkeypatch)
    assert passes == [1]
    assert ratios.tolist() == [1.0, 1.0]


def test_family_box_meeting_a_cube_is_kept(monkeypatch):
    """The box [0.4, 0.6]^2 holds the cube; neither rectangle meets it."""
    rects = [[0.4, 0.49, 0.4, 0.6], [0.4, 0.6, 0.52, 0.6]]
    ratios, passes = _family_ratios(_one_cube_model(), rects, 2, monkeypatch)
    assert passes == [1, 2]
    assert ratios.tolist() == [1.0, 1.0]


def test_one_ulp_sliver_is_kept(monkeypatch):
    """A rectangle whose top-right corner lies one ulp inside the cube's
    lower-left corner, an overlap of 2^-106, is kept with its family, whose
    box overlaps the cube by that sliver alone, and both ratios are
    density_ratio's; a second family far from the cube is skipped."""
    model = _one_cube_model()
    edge = math.nextafter(_CUBE, 1.0)
    sliver = [0.4, edge, 0.4, edge]
    rects = [sliver, [0.3, 0.4, 0.4, 0.45], [0.1, 0.2, 0.1, 0.2], [0.1, 0.3, 0.1, 0.3]]
    ratios, passes = _family_ratios(model, rects, 2, monkeypatch)
    assert passes == [2, 2]
    want = [density_ratio(model, Rectangle.from_bounds(*r)).ratio_n for r in rects]
    assert ratios.tolist() == want
    box = [0.3, edge, 0.4, edge]
    assert model.total_overlaps(np.array([sliver, box])).tolist() == [2.0**-106] * 2


def test_family_boxes_keep_nan_and_degenerate_rows():
    """Rows with NaN coordinates or no width keep the bits of the pass
    without family boxes, NaN ratios included, and a NaN row does not hide
    its family's overlap."""
    model = _one_cube_model()
    nan = float("nan")
    rects = np.array(
        [
            [0.45, 0.55, 0.45, 0.55],
            [nan, 0.6, 0.4, 0.6],
            [0.5, 0.5, 0.4, 0.6],
            [0.45, 0.45, 0.4, 0.6],
            [nan, nan, nan, nan],
            [nan, nan, nan, nan],
        ]
    )
    with np.errstate(invalid="ignore"):
        got = scan._ratios(model, rects, 2)
        want = oracles.plain_ratios(model, rects)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got[0] < 1.0 and np.isnan(got[[1, 2, 3, 4]]).all()


# -- skipped families: the busy test and the area guard -----------------------------

# One positive floor, 0.75 below t = 1, and the top branch.  At t = 1e-14 the
# rectangles' sides are a few ulps of the coordinates, and about half of the
# sampled points have a rectangle of zero area, whose ratio is NaN.
_NAN_RATEFN = RateFunction.from_rows([(-800.0, 0.0, 0.75, 0.25), (0.0, math.inf, -1.0, 2.0)])
_NAN_CONFIG = dict(t_grid=(1e-14,), points=60, rects_per_point=50, seed=3)


def _skip_cases(canonical_model, canonical_cover, canonical_ratefn):
    """(model, cover, rate function, config, points) of the three cases."""
    far = [(0.2, 0.2), (0.3, 0.8), (0.9, 0.1), (0.05, 0.95)]
    return {
        "nan": (canonical_model, canonical_cover, _NAN_RATEFN, small_config(**_NAN_CONFIG), None),
        "all-busy": (
            canonical_model,
            canonical_cover,
            canonical_ratefn,
            small_config(t_grid=(1.0, 0.75, 0.6), points=24, rects_per_point=200, seed=5),
            None,
        ),
        "none-busy": (
            _one_cube_model(),
            ExceptionalCover.empty(),
            _FlatFloor(0.5),
            small_config(t_grid=(0.05, 0.01, 0.002), points=len(far), rects_per_point=300),
            far,
        ),
        "floor-above-one": (
            _one_cube_model(),
            ExceptionalCover.empty(),
            _FlatFloor(1.5),
            small_config(t_grid=(0.05, 0.01, 0.002), points=len(far), rects_per_point=300),
            far,
        ),
    }


@pytest.mark.parametrize("case", ["nan", "all-busy", "none-busy", "floor-above-one"])
def test_skipped_families_match_drawing_every_rectangle(
    canonical_model, canonical_cover, canonical_ratefn, case, monkeypatch
):
    """The scan's rows are those of the pass that draws and measures every
    rectangle (oracles.scan_points_ref), byte for byte: where the guard
    builds every family because some of them read NaN, where every box
    meets a cube, where none does and nothing is measured, and where none
    does but a floor above 1.0 counts every ratio 1.0 as a violation."""
    model, cover, ratefn, config, points = _skip_cases(
        canonical_model, canonical_cover, canonical_ratefn
    )[case]
    plan = scan._scan_plan(model, cover, ratefn, config, points)
    least_u = scan._skip_bounds(model, config, plan)

    def scanned():
        return scan_density_bound(model, cover, ratefn, config, points=points)

    with np.errstate(invalid="ignore"):
        report, measured = _recorded("_ratios", 1, monkeypatch, scanned)
        monkeypatch.setattr(scan, "_scan_points", oracles.scan_points_ref)
        want = scan_density_bound(model, cover, ratefn, config, points=plan.points)
    assert report.to_csv() == want.to_csv()
    built = sum(map(len, measured))
    everything = len(plan.points) * len(plan.t_sorted) * config.rects_per_point
    if case == "nan":
        # no box meets a cube, but no u in [0, 1) clears the guard
        assert (least_u >= 1.0).all() and np.isfinite(least_u).all() and built == everything
        assert sum(math.isnan(r.min_ratio) for r in report.rows) == 31
    elif case == "all-busy":
        assert np.isinf(least_u).all() and built == everything
        assert all(r.min_ratio < 1.0 for r in report.rows)
    elif case == "none-busy":
        assert np.isfinite(least_u).all() and built == 0
        assert {r.min_ratio for r in report.rows} == {1.0}
    else:
        assert np.isinf(least_u).all() and built == everything
        assert [r.violations for r in report.rows[-len(plan.points) :]] == [900] * len(plan.points)


def test_nan_minimum_decides_the_summaries_in_either_order(canonical_model, canonical_cover):
    """A NaN min_ratio among the applicable rows makes the least margin and
    the worst deficit NaN and fails the envelope row, whether the first
    applicable row is a number (the sample's order) or NaN (the sample
    rotated by one); without the NaN rows the envelope passes."""
    config = small_config(**_NAN_CONFIG)
    sample = sample_points(canonical_model, canonical_cover, config).points
    args = (canonical_model, canonical_cover, _NAN_RATEFN, config)
    firsts = []
    with np.errstate(invalid="ignore"):
        for points in (sample, sample[1:] + sample[:1]):
            report = scan_density_bound(*args, points=points)
            firsts.append(math.isnan(report.rows[0].min_ratio))
            (summary,) = report.summaries
            assert summary.applicable == 60 and math.isnan(summary.min_margin_applicable)
            (row,) = scan_deficit_envelope(report, _NAN_RATEFN).rows
            assert math.isnan(row.worst_deficit) and row.passed is False
            flipped = scan_deficit_envelope(
                scan.ScanReport(config, report.rows[::-1], report.summaries, None), _NAN_RATEFN
            )
            assert flipped.rows[0].passed is False
    assert firsts == [False, True]
    finite = tuple(r for r in report.rows if not math.isnan(r.min_ratio))
    clean = scan.ScanReport(config, finite, report.summaries, None)
    clean = scan_deficit_envelope(clean, _NAN_RATEFN)
    assert clean.rows[0].worst_deficit == 0.0 and clean.passed


_UNIT = st.one_of(
    st.sampled_from([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
)


@st.composite
def _guard_cases(draw):
    """An outer square, a point inside it (anywhere, or one or two ulps from
    an edge on either axis), a diameter from 2^-64 to twice the largest
    magnitude L of the coordinates, an aspect range with both of its ends,
    and one family of uniform draws."""
    lo, side = draw(st.sampled_from([(0.0, 1.0), (-3.0, 1.0), (1e6, 1.0), (-0.5, 1e-3)]))
    hi = lo + side

    def coord():
        ulps = draw(st.sampled_from([0, 1, 2]))
        if not ulps:
            return lo + side * draw(st.floats(0.01, 0.99))
        edge, toward = draw(st.sampled_from([(lo, hi), (hi, lo)]))
        for _ in range(ulps):
            edge = math.nextafter(edge, toward)
        return edge

    point = (coord(), coord())
    # half of the diameters lie where a side is a few ulps of the coordinates
    scale = st.one_of(st.floats(-64.0, -40.0), st.floats(-40.0, 1.0))
    t = max(abs(lo), abs(hi)) * 2.0 ** draw(scale)
    ends = [(0.05, 0.05), (0.05, 20.0), (20.0, 20.0), (0.2, 5.0), (1.0, 1.0)]
    aspect = draw(st.sampled_from(ends))
    rows = draw(st.lists(st.tuples(_UNIT, _UNIT, _UNIT, _UNIT), min_size=1, max_size=16))
    return (lo, hi, lo, hi), point, t, aspect, np.array(rows).T[None]


# One ulp above the edge x = -0.5, a rectangle reaching left by all but the
# last ulp of its width, fl(w (1 - 2^-53)), ends on the edge after rounding:
# its clipped width is 0.0 although its side is about 0.01.
_EDGE_CASE = (
    (-0.5, -0.499, -0.5, -0.499),
    (math.nextafter(-0.5, 0.0), -0.4995),
    0.1,
    (0.2, 5.0),
    np.array([[[0.16056634810796433], [0.4941822712537657], [1.0 - 2.0**-53], [0.5]]]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@example(_EDGE_CASE)
@given(_guard_cases())
def test_guard_clears_only_families_of_positive_area(case):
    """Whenever the guard clears a family, every rectangle _shape_rects
    makes from its draw (as the scan does from a random one) has x1 >
    x0, y1 > y0 and a positive area as _ratios forms it.  _EDGE_CASE is a
    family of zero width that only the point's distance to the edges
    keeps out."""
    bounds, point, t, aspect, family = case
    outer = Rectangle.from_bounds(*bounds)
    least = scan._guard_bounds(outer, aspect, np.array([point]), np.array([t]))[0, 0]
    if family[0, 0].min() < least:
        return
    config = small_config(rects_per_point=family.shape[2], aspect_range=aspect)
    rects = scan._shape_rects(family, point, np.array([t]), config, SimpleNamespace(outer=outer))
    x0, x1, y0, y1 = rects.T
    assert (x1 > x0).all() and (y1 > y0).all()
    area = x1 - x0
    area *= y1 - y0
    assert (area > 0.0).all()


def test_guard_needs_the_point_off_the_edges():
    """A point one ulp inside an edge never clears the guard, however large
    its rectangles; the same point a tenth of the box inside clears it."""
    outer = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    low, high = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)
    points = np.array([[low, 0.5], [0.5, high], [0.1, 0.9]])
    least = scan._guard_bounds(outer, (0.2, 5.0), points, np.array([0.01, 0.25]))
    assert np.isinf(least[:2]).all() and (least[2] < 1e-10).all()


# -- separation ---------------------------------------------------------------------

def test_separation_zero_violations(canonical_model, canonical_cover, canonical_ratefn):
    report = separation_check(
        canonical_model, canonical_cover, canonical_ratefn, small_config()
    )
    assert report.passed
    for row in report.rows:
        assert row.violations == 0
        assert row.checked_points + row.deferred_points + row.exceptional_points <= 20


def test_separation_deterministic(canonical_model, canonical_cover, canonical_ratefn):
    a = separation_check(canonical_model, canonical_cover, canonical_ratefn, small_config())
    b = separation_check(canonical_model, canonical_cover, canonical_ratefn, small_config())
    assert a.rows == b.rows


def test_separation_kernel_work_bound(
    canonical_model, canonical_cover, canonical_ratefn, monkeypatch
):
    """On the canonical level-4 check (100 points x 500 rectangles) the kernel
    evaluates at most 1/20 of the cells (rectangles x cubes) of testing each
    checked rectangle against its whole prefix, counting every kernel call the
    check makes."""
    config = small_config(points=100, rects_per_point=500)
    kernel = CompactSetModel.overlaps
    cells = []

    def recording(self, rects, reduce, cubes=slice(None)):
        cells.append(len(rects) * self.xs[cubes].size)
        return kernel(self, rects, reduce, cubes)

    monkeypatch.setattr(CompactSetModel, "overlaps", recording)
    report = separation_check(canonical_model, canonical_cover, canonical_ratefn, config)
    dense = sum(r.checked_rects * r.prefix for r in report.rows)
    assert sum(r.checked_rects for r in report.rows) > 0
    assert sum(cells) <= dense / 20, (sum(cells), dense)


def test_prefix_beyond_truncation_defers_every_point(canonical_seq, canonical_ratefn):
    """At t = 0.01 the branch needs rectangles to miss cubes 1..255; a model
    of 100 cubes cannot check that, so the row names the prefix, checks no
    point and defers every one, and the scan defers every pair at that t.
    At t = 0.05 the 26-cube prefix is still checked."""
    model = build_packing(canonical_seq, 100, Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0))
    points = [(0.9, 0.9), (0.95, 0.95), (0.5, 0.99), (0.7, 0.97)]
    config = small_config(points=len(points))
    args = (model, ExceptionalCover.empty(), canonical_ratefn, config)
    separation = separation_check(*args, points=points)
    assert separation.rows[0] == SeparationRow(
        t=0.01,
        s_next=4,
        prefix=255,
        checked_points=0,
        checked_rects=0,
        violations=0,
        deferred_points=4,
        exceptional_points=0,
    )
    assert separation.to_csv().split("\n")[1] == "0.01,4,255,0,0,0,4,0"
    assert (separation.rows[1].prefix, separation.rows[1].checked_points) == (26, 4)
    report = scan_density_bound(*args, points=points)
    assert {r.regime for r in report.rows if r.t == 0.01} == {"deferred"}


def test_rows_without_prefix_defer_only_scannable_points(canonical_seq, canonical_ratefn):
    """(0.99, 0.5) lies on a cube edge, so it is exceptional; a row whose t
    has no checkable prefix (t = 0.25: vacuous floor; t = 0.01: prefix 255
    beyond 100 cubes) defers only the scannable point, so deferred plus
    exceptional never exceeds the number of points."""
    model = build_packing(canonical_seq, 100, Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0))
    points = [(0.9, 0.9), (0.99, 0.5)]
    report = separation_check(
        model, ExceptionalCover.empty(), canonical_ratefn, small_config(points=2), points=points
    )
    assert [r.t for r in report.rows] == [0.01, 0.05, 0.25]
    for row in report.rows:
        assert row.exceptional_points == 1
        assert row.checked_points + row.deferred_points == 1
    assert [r.deferred_points for r in report.rows if r.t != 0.05] == [1, 1]


def test_point_near_uncovered_block_is_deferred(canonical_model, canonical_ratefn):
    """Negative control for the regime rule.  With the cover starting at
    block m = 4, the t = 0.05 branch (s_next = 3) needs rectangles to miss
    cubes 1..255, not only 1..26: the point lies outside the cubes and
    outside D_4, more than 0.05 from cubes 1..26 but within 0.05 of a
    block-3 cube, which no cover block accounts for.  The pair must be
    deferred; the rule max(s_next^s_next, m^m) - 1 does that, where
    s_next^s_next - 1 alone made it applicable."""
    cover = build_cover(canonical_model, 4, 4)
    point = (0.77, 0.601)
    assert oracles.locate_in_cubes_ref(canonical_model, point)[0] == "outside"
    assert cover.locate(point) is Location.OUTSIDE
    assert oracles.distance_to_cubes_ref(canonical_model, point, 26) > 0.05
    assert oracles.distance_to_cubes_ref(canonical_model, point, 255) < 0.05
    config = small_config(points=1, m=4)
    args = (canonical_model, cover, canonical_ratefn, config)
    report = scan_density_bound(*args, points=[point])
    regimes = {r.t: r.regime for r in report.rows}
    assert regimes[0.05] == "deferred"
    assert canonical_ratefn.branch_at(0.05).s_next == 3
    separation = separation_check(*args, points=[point])
    row = [r for r in separation.rows if r.t == 0.05][0]
    assert (row.prefix, row.checked_points, row.deferred_points) == (255, 0, 1)


@pytest.mark.parametrize("check", [scan_density_bound, separation_check])
def test_explicit_points_refuse_a_cover_above_config_m(canonical_model, canonical_ratefn, check):
    """The point of test_point_near_uncovered_block_is_deferred with its
    cover starting at block 4 but a config at m = 3: the regime rule would
    read block 3 as covered and the t = 0.05 pair as applicable against
    prefix 26, so explicit points refuse the pair, naming both m."""
    cover = build_cover(canonical_model, 4, 4)
    config = small_config(points=1, m=3)
    with pytest.raises(ValueError, match="m = 4, above the config's m = 3"):
        check(canonical_model, cover, canonical_ratefn, config, points=[(0.77, 0.601)])


def test_sampled_points_refuse_a_cover_above_config_m(canonical_model, canonical_ratefn):
    """Sampling keeps its own check, which refuses any other (m, s_hi)."""
    cover = build_cover(canonical_model, 4, 4)
    with pytest.raises(ValueError, match=r"built for \(m, s_hi\) = \(4, 4\), config says \(3, 4\)"):
        scan_density_bound(canonical_model, cover, canonical_ratefn, small_config(points=1, m=3))


# The t = 0.05 findings of verify-all --level 5 --m 5 before the prefix rule
# max(s_next^s_next, m^m) - 1: (seed, point id) -> point, from each run's scan.csv.
_OLD_LEVEL5_FINDINGS = {
    (42, 56): (0.641279102285076, 0.6221375451147881),
    (7, 35): (0.3516065144627787, 0.6362687369749939),
    (123, 90): (0.40590609565064106, 0.634661326991168),
    (123, 36): (0.17480410983012884, 0.6561195743307139),
}


def test_old_level5_findings_are_deferred(canonical_model, canonical_ratefn):
    """Each old level-5 finding lies more than 0.05 from cubes 1..26, the
    prefix the t = 0.05 branch (s_next = 3) alone asks for, but within 0.05
    of a block-3 or block-4 cube, which a cover starting at m = 5 leaves
    out.  On the 3,124-cube model with no cover, the rule asks for cubes
    1..3124 missed, so every one of these pairs is deferred and their
    sub-floor ratios stay out of the applicable tally."""
    points = list(_OLD_LEVEL5_FINDINGS.values())
    for point in points:
        assert oracles.distance_to_cubes_ref(canonical_model, point, 26) > 0.05
        assert oracles.distance_to_cubes_ref(canonical_model, point, 3124) < 0.05
    config = small_config(points=len(points), m=5, s_hi=5)
    report = scan_density_bound(
        canonical_model, ExceptionalCover.empty(), canonical_ratefn, config, points=points
    )
    assert [r.regime for r in report.rows if r.t == 0.05] == ["deferred"] * len(points)
    summary = [s for s in report.summaries if s.t == 0.05][0]
    assert summary.violations_deferred > 0
    assert report.passed


def _assert_reports_agree(model, report, separation):
    """At every t with a checkable prefix, the separation check tallies the
    scan's applicable pairs as checked and its deferred pairs as deferred."""
    checkable = [
        (s, r) for s, r in zip(report.summaries, separation.rows) if 0 < r.prefix <= model.trunc
    ]
    assert checkable
    for summary, row in checkable:
        assert summary.t == row.t
        assert (row.checked_points, row.deferred_points, row.exceptional_points) == (
            summary.applicable,
            summary.deferred,
            summary.exceptional,
        )


def test_scan_and_separation_agree_on_sample(canonical_model, canonical_cover, canonical_ratefn):
    """The canonical level-4 scan (100 points x 500 rectangles, seed 42) and
    the separation check given its sampled points agree on every pair's
    regime, and the points stand for resampling: every one classifies as
    scannable, so scanning them again gives the same rows (and no sample),
    and checking without them the same separation report."""
    config = small_config(points=100, rects_per_point=500)
    args = (canonical_model, canonical_cover, canonical_ratefn, config)
    report = scan_density_bound(*args)
    assert report.sample == sample_points(canonical_model, canonical_cover, config)
    assert (report.acceptance_rate, report.draws) == (
        report.sample.acceptance_rate,
        report.sample.draws,
    )
    separation = separation_check(*args, points=report.sample.points)
    _assert_reports_agree(canonical_model, report, separation)
    assert sum(s.deferred for s in report.summaries if s.floor > 0.0) > 0
    assert separation.rows == separation_check(*args).rows
    again = scan_density_bound(*args, points=report.sample.points)
    assert (again.rows, again.sample) == (report.rows, None)


def test_scan_and_separation_agree_on_explicit_points(canonical_model, canonical_ratefn):
    """With the cover starting at m = 4: (0.9, 0.9) is applicable,
    (0.77, 0.601) is deferred at t = 0.05 and (0.5, 0.25), on cube 1's edge,
    is exceptional."""
    cover = build_cover(canonical_model, 4, 4)
    points = [(0.9, 0.9), (0.77, 0.601), (0.5, 0.25)]
    args = (canonical_model, cover, canonical_ratefn, small_config(points=3, m=4))
    report = scan_density_bound(*args, points=points)
    assert report.sample is None and report.draws is None
    separation = separation_check(*args, points=points)
    _assert_reports_agree(canonical_model, report, separation)
    summary = [s for s in report.summaries if s.t == 0.05][0]
    assert (summary.applicable, summary.deferred, summary.exceptional) == (1, 1, 1)


# -- envelope -----------------------------------------------------------------------

def test_envelope_rows(small_report, canonical_ratefn):
    env = scan_deficit_envelope(small_report, canonical_ratefn)
    assert env.passed
    for row in env.rows:
        summary = [s for s in small_report.summaries if s.t == row.t][0]
        assert row.envelope == pytest.approx(1.0 - summary.floor)
        if row.worst_deficit is not None:
            assert row.worst_deficit <= row.envelope + 1e-12
            assert row.deficit_product == pytest.approx(
                row.worst_deficit * abs(math.log(row.t))
            )


def test_envelope_csv_header(small_report, canonical_ratefn):
    env = scan_deficit_envelope(small_report, canonical_ratefn)
    header = env.to_csv().split("\n", 1)[0]
    assert header == "t,worst_deficit,envelope,passed,deficit_product,envelope_product"
