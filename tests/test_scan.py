"""Seeded density scans: determinism, regime bookkeeping, nested refinement."""

import math

import pytest

from densitometer import scan
from densitometer.scan import (
    ScanConfig,
    sample_points,
    scan_deficit_envelope,
    scan_density_bound,
    separation_check,
    thread_count,
)
from densitometer.setmodel import is_exceptional


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


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("DENSITOMETER_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("DENSITOMETER_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("DENSITOMETER_THREADS", "garbage")
    assert thread_count() == 1


def test_thread_count_capped_by_points_and_cpus(
    canonical_model, canonical_cover, canonical_ratefn, small_report, monkeypatch
):
    """The scan asks for at most min(DENSITOMETER_THREADS, points, cpu count)
    workers; a recording stand-in for the pool starts no thread."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scan, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("DENSITOMETER_THREADS", "100000")

    def run(**overrides):
        return scan_density_bound(
            canonical_model, canonical_cover, canonical_ratefn, small_config(**overrides)
        )

    monkeypatch.setattr(scan.os, "cpu_count", lambda: 3)
    assert run().rows == small_report.rows
    assert requested == [3]
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 64)
    run(points=2)
    assert requested == [3, 2]
    monkeypatch.setattr(scan.os, "cpu_count", lambda: None)
    run(points=2)
    assert requested == [3, 2]


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
        assert is_exceptional(canonical_model, canonical_cover, p).is_scannable


def test_sample_points_seed_changes_stream(canonical_model, canonical_cover):
    a = sample_points(canonical_model, canonical_cover, small_config(seed=1))
    b = sample_points(canonical_model, canonical_cover, small_config(seed=2))
    assert a.points != b.points


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
    c300 = canonical_model.cube(300)
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
    verdict = is_exceptional(canonical_model, canonical_cover, center)
    assert verdict.overall == "in-cover"


def test_scan_threaded_matches_sequential(
    canonical_model, canonical_cover, canonical_ratefn, small_report, monkeypatch
):
    monkeypatch.setenv("DENSITOMETER_THREADS", "3")
    threaded = scan_density_bound(
        canonical_model, canonical_cover, canonical_ratefn, small_config()
    )
    assert threaded.rows == small_report.rows


def test_scan_csv_shape(small_report):
    lines = small_report.to_csv().strip().split("\n")
    assert lines[0] == "t,point_id,x,y,min_ratio,floor,margin,violations,regime"
    assert len(lines) == 1 + 3 * 20
    first = lines[1].split(",")
    assert float(first[0]) in (0.01, 0.05, 0.25)
    assert first[8] in ("applicable", "deferred", "exceptional")


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
