"""Acceptance gate: one test per criterion, tolerances as stated.

Criterion 6's literal horizon is marked as a strict expected failure; the
companion content test pins the attainable part plus the true stop blocks.
The blocking analysis is in the docstring of the expected failure.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from densitometer import (
    Interval,
    Rectangle,
    ScanConfig,
    Schedule,
    WeightSequence,
    build_rate_function,
    choose_subsequence,
    dilate_1d,
    dilate_2d,
    little_o_check,
    scan_density_bound,
    series_diagnostics,
)
from densitometer import cli
from densitometer.setmodel import cover_measure_bound
from densitometer.weights import index_a, index_e_bm, index_e_bt

from oracles import cube, is_exceptional_ref, overlap_area_ref, raster_area_bracket


def _random_interval_family(rng, n_max):
    pairs = []
    cursor = rng.uniform(-10.0, 0.0)
    for _ in range(rng.randrange(1, n_max + 1)):
        cursor += rng.uniform(0.001, 2.0)
        lo = cursor
        cursor += rng.uniform(0.001, 3.0)
        pairs.append(Interval(lo, cursor))
    return pairs


def _random_cube_family(rng, n_max):
    cubes = []
    count = rng.randrange(1, n_max + 1)
    attempts = 0
    while len(cubes) < count and attempts < 10000:
        attempts += 1
        w = rng.uniform(0.02, 0.6)
        x = rng.uniform(0.0, 5.0)
        y = rng.uniform(0.0, 5.0)
        cand = Rectangle.from_bounds(x, x + w, y, y + w)
        if all(overlap_area_ref(cand, c) == 0.0 for c in cubes):
            cubes.append(cand)
    return cubes


def test_criterion_01_dilation_identity_1d():
    rng = random.Random(2024)
    start = time.perf_counter()
    gammas = (1.5, 2.0, 4.0, 8.0, 64.0)
    for trial in range(1000):
        family = _random_interval_family(rng, 50)
        gamma = gammas[trial % 5]
        result = dilate_1d(family, gamma)
        want = (2.0 * gamma + 1.0) * result.input_measure
        assert abs(result.union.measure - want) <= 1e-9 * want
    assert time.perf_counter() - start < 5.0


def test_criterion_02_dilation_identity_2d_with_raster():
    rng = random.Random(77)
    start = time.perf_counter()
    gammas = (2.0, 4.0, 8.0)
    for trial in range(200):
        cubes = _random_cube_family(rng, 40)
        gamma = gammas[trial % 3]
        result = dilate_2d([c.bounds for c in cubes], gamma)
        want = (2.0 * gamma + 1.0) ** 2 * math.fsum(c.area for c in cubes)
        assert abs(result.measure - want) <= 1e-9 * want
        lo, hi = raster_area_bracket([r.bounds for r in result.rects], cells=2048)
        assert lo - 1e-9 <= result.measure <= hi + 1e-9
    assert time.perf_counter() - start < 60.0


def test_criterion_03_hand_instances_exact():
    one = dilate_1d([Interval(0.0, 1.0)], 2.0)
    assert one.union.pairs() == ((-2.0, 3.0),)
    two = dilate_1d([Interval(0.0, 1.0), Interval(2.0, 3.0)], 1.0, allow_gamma_one=True)
    assert two.union.measure == 6.0
    cube = dilate_2d([(0, 1, 0, 1)], 1.0, allow_gamma_one=True)
    assert [r.bounds for r in cube.rects] == [(-1.0, 2.0, -1.0, 2.0)]
    assert cube.measure == 9.0
    stacked = dilate_2d([(0, 1, 0, 1), (0, 1, 2, 3)], 1.0, allow_gamma_one=True)
    assert stacked.measure == 18.0


def test_criterion_04_index_estimators():
    start = time.perf_counter()
    for p in (1.5, 2.0, 3.0, 4.0):
        seq = WeightSequence.power(1.0, p)
        assert abs(index_e_bt(seq).estimate - 1.0 / p) <= 0.02
        assert abs(index_e_bm(seq).estimate - 1.0 / p) <= 0.02
        assert abs(index_a(seq).estimate - 1.0 / p) <= 0.05
    geo = WeightSequence.geometric(1.0, 0.5)
    assert index_e_bt(geo).estimate <= 0.01
    assert index_a(geo).estimate <= 0.01
    assert time.perf_counter() - start < 10.0


def test_criterion_05_subsequence_and_floor(canonical_selection, canonical_ratefn):
    assert canonical_selection.members[:6] == (1, 2, 3, 4, 5, 6)
    refs = (1.0 / 3.0, 0.0769, 0.0157, 0.00256, 3.43e-4)
    for log_scale, ref in zip(canonical_selection.log_scales, refs):
        assert abs(math.exp(log_scale) - ref) <= 1e-3 * ref
    assert canonical_ratefn.floor_at(0.01) == 0.75
    assert canonical_ratefn.branches[-1].floor == -1.0


@pytest.mark.xfail(
    strict=True,
    reason="the three block series do not reach term < 1e-12 until s = 14/28/18; "
    "the stated horizon s <= 8 is unattainable for this sequence (see the test docstring)",
)
def test_criterion_06_series_horizon_literal(canonical_seq):
    """The literal criterion: all three block series below 1e-12 by s = 8.

    For w_n^2 = 0.25 / n^2 the tail is r(N) = 0.25 * sum_{n >= N} n^-2,
    about 0.25 / N, and block s starts at N = s^s.  The three series terms
    are then about 0.25 * 2^s / s^s, 0.5 * 2^s / s^(s/2) and
    0.25 * 4^s / s^s.  At s = 8 their certified brackets sit near 3.8e-6,
    3.1e-2 and 9.8e-4, six to ten orders of magnitude above 1e-12; the
    terms first fall below it at s = 14, 28 and 18.  The slowest one,
    about 0.5 * (2 / sqrt(s))^s, needs s * log(sqrt(s) / 2) > log(5e11),
    about 27, which first holds at s = 28.  These are values of the
    sequence, not of an estimator, so the horizon s <= 8 cannot be met;
    the content test below pins the true stop blocks instead.
    """
    reports = series_diagnostics(canonical_seq, Schedule(8), tol=1e-12)
    assert all(rep.stop_s is not None and rep.stop_s <= 8 for rep in reports)


def test_criterion_06_series_content(canonical_seq, geometric_seq):
    doubling, root, quadrupling = series_diagnostics(canonical_seq, Schedule(40), tol=1e-12)
    assert (doubling.stop_s, root.stop_s, quadrupling.stop_s) == (14, 28, 18)
    for rep in (doubling, root, quadrupling):
        assert rep.terms[-1].certainly_lt(math.log(1e-12))
        mids = [t.mid for t in rep.terms]
        assert all(b < a for a, b in zip(mids[2:], mids[3:]))  # eventual strict decay
    geo = series_diagnostics(geometric_seq, Schedule(20), tol=1e-12)[0]
    assert geo.partial_sum.linear == pytest.approx(2.5000001, abs=1e-6)
    exact = Fraction(2) + Fraction(1, 2) + Fraction(1, 2**23) + Fraction(1, 2**251)
    assert geo.partial_sum.linear == pytest.approx(float(exact), rel=1e-12)


def test_criterion_07_little_o_decay(canonical_selection, geometric_seq):
    report = little_o_check(canonical_selection)
    tail = report.products[2:8]  # ell = 3..8
    refs = (1.49, 0.997, 0.635, 0.390, 0.233, 0.137)
    for got, ref in zip(tail, refs):
        assert abs(got - ref) <= 0.02 * ref
    assert all(b < a for a, b in zip(tail, tail[1:]))
    geo_sel = choose_subsequence(geometric_seq, Schedule(10), 6)
    assert little_o_check(geo_sel).verdict == "diverging"


def test_criterion_08_density_scan(canonical_model, canonical_cover, canonical_ratefn):
    start = time.perf_counter()
    config = ScanConfig(
        t_grid=(0.25, 0.05, 0.01),
        points=100,
        rects_per_point=500,
        seed=42,
        aspect_range=(0.2, 5.0),
        m=3,
        s_hi=4,
    )
    report = scan_density_bound(canonical_model, canonical_cover, canonical_ratefn, config)
    assert report.passed
    for summary in report.summaries:
        assert summary.violations_applicable == 0
    # adversarial: the center of a covered-block cube must be flagged, and it
    # produces genuine sub-floor ratios that stay out of the applicable tally
    c300 = cube(canonical_model, 300)
    center = ((c300.x.lo + c300.x.hi) / 2, (c300.y.lo + c300.y.hi) / 2)
    verdict = is_exceptional_ref(canonical_model, canonical_cover, center)
    assert verdict.overall == "in-cover"
    adv = scan_density_bound(
        canonical_model,
        canonical_cover,
        canonical_ratefn,
        ScanConfig(
            t_grid=(0.25, 0.05, 0.01),
            points=1,
            rects_per_point=500,
            seed=42,
            aspect_range=(0.2, 5.0),
            m=3,
            s_hi=4,
        ),
        points=[center],
    )
    assert all(r.regime == "exceptional" for r in adv.rows)
    assert sum(s.violations_exceptional for s in adv.summaries) > 0
    assert adv.passed
    assert time.perf_counter() - start < 300.0


def test_criterion_09_cover_measure_bound(canonical_seq):
    bounds = [cover_measure_bound(canonical_seq, m).linear_hi for m in range(1, 7)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert abs(bounds[2] - 4.3) <= 0.05 * 4.3
    assert bounds[5] < 0.15


def test_criterion_10_deterministic_verify_all(tmp_path):
    args = ["verify-all", "--seq", "power:c=0.25,p=2", "--level", "4", "--seed", "42"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "first")]) == 0
    assert cli.main(args + ["--out-dir", str(tmp_path / "second")]) == 0
    first = sorted(p.name for p in (tmp_path / "first").iterdir())
    second = sorted(p.name for p in (tmp_path / "second").iterdir())
    assert first == second and first
    for name in first:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"artifact {name} differs between identically seeded runs"
