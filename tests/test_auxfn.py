"""Block schedule, subsequence selection, rate function and series diagnostics."""

import math
from fractions import Fraction

import pytest

from densitometer.auxfn import (
    RateFunction,
    Schedule,
    build_rate_function,
    choose_subsequence,
    little_o_check,
    log_block_scale,
    series_diagnostics,
)
from densitometer.errors import BelowHorizon, Divergent, HorizonExhausted
from densitometer.weights import WeightSequence


# -- schedule ---------------------------------------------------------------------

def test_schedule_rejects_small_horizon():
    with pytest.raises(ValueError):
        Schedule(0)


# -- block scales and selection -----------------------------------------------------

# 2^s * w at index (s+1)^(s+1): exact rationals for w_n = 0.5 / n
CANONICAL_B = [
    Fraction(2**s, 1) * Fraction(1, 2) / ((s + 1) ** (s + 1) - 1) for s in range(1, 9)
]


def test_block_scales_canonical(canonical_seq):
    for s, want in enumerate(CANONICAL_B, start=1):
        got = math.exp(log_block_scale(canonical_seq, s))
        assert got == pytest.approx(float(want), rel=1e-12)


def test_selection_canonical_keeps_every_index(canonical_selection):
    assert canonical_selection.members == tuple(range(1, 10))
    scales = canonical_selection.log_scales
    assert all(b <= a for a, b in zip(scales, scales[1:]))


def test_selection_geometric_keeps_every_index(geometric_seq):
    sel = choose_subsequence(geometric_seq, Schedule(8), 5)
    assert sel.members == (1, 2, 3, 4, 5)


def test_selection_explicit_data_end():
    seq = WeightSequence.explicit([0.2] * 30)
    # block scales need w at (s+1)^(s+1) - 1; s = 2 needs index 26, s = 3 needs 255
    with pytest.raises(HorizonExhausted):
        choose_subsequence(seq, Schedule(10), 4)


def test_selection_horizon_exhausted():
    seq = WeightSequence.power(0.25, 2.0)
    with pytest.raises(HorizonExhausted):
        choose_subsequence(seq, Schedule(3), 9)


def test_selection_skips_rising_scales():
    # areas chosen so the block-2 scale rises above the block-1 scale:
    # w_3 tiny (pulls b_1 down), w_26 comparatively large
    values = [0.25, 0.25, 1e-8] + [1e-8] * 23 + [1e-10] * 230
    seq = WeightSequence.explicit(values)
    sel = choose_subsequence(seq, Schedule(3), 2)
    assert sel.members == (1, 3)


# -- rate function -------------------------------------------------------------------

def test_rate_function_branch_layout(canonical_ratefn):
    rf = canonical_ratefn
    top = rf.branches[-1]
    assert top.is_top
    assert top.floor == -1.0
    assert top.deficit == 2.0
    floors = [b.floor for b in rf.branches[:-1]]
    assert floors == sorted(floors, reverse=True)  # larger t, lower floor
    for lower, upper in zip(rf.branches[:-1], rf.branches[1:]):
        assert lower.t_hi_log == upper.t_lo_log


def test_rate_function_exact_dyadic_floors(canonical_ratefn):
    # branch with next kept index s has floor 1 - 4/2^s, an exact dyadic
    assert canonical_ratefn.floor_at(0.01) == 0.75
    assert canonical_ratefn.floor_at(0.1) == 0.0
    assert canonical_ratefn.floor_at(0.04) == 0.5
    assert canonical_ratefn.floor_at(0.5) == -1.0


def test_rate_function_floor_plus_deficit_is_one(canonical_ratefn):
    rf = canonical_ratefn
    lo = rf.horizon_log
    hi = rf.branches[-1].t_lo_log + 2.0
    for k in range(1000):
        log_t = lo + (hi - lo) * (k + 0.5) / 1000.0
        branch = rf.branch_at_log(log_t)
        assert branch.floor + branch.deficit == 1.0


def test_rate_function_below_horizon(canonical_ratefn):
    with pytest.raises(BelowHorizon):
        canonical_ratefn.floor_at(1e-12)


def test_rate_function_row_round_trip(canonical_ratefn):
    rows = canonical_ratefn.to_rows()
    assert RateFunction.from_rows(rows) == canonical_ratefn
    # rows are ordered by descending t
    assert all(a[0] > b[0] for a, b in zip(rows, rows[1:]))


def test_rate_function_branch_lookup_consistency(canonical_ratefn):
    rf = canonical_ratefn
    for t in (0.005, 0.01, 0.02, 0.07, 0.2, 0.5, 5.0):
        b = rf.branch_at(t)
        assert b.t_lo_log <= math.log(t) < b.t_hi_log


def test_build_rate_function_single_member_degenerate(canonical_seq):
    # one kept index leaves only the top branch: everything below is horizonless
    sel = choose_subsequence(canonical_seq, Schedule(40), 1)
    rf = build_rate_function(sel)
    assert len(rf.branches) == 1
    assert rf.branches[0].is_top
    with pytest.raises(BelowHorizon):
        rf.floor_at(0.01)


# -- series diagnostics ----------------------------------------------------------------

def test_series_canonical_stops(canonical_seq):
    doubling, root, quadrupling = series_diagnostics(canonical_seq, Schedule(40))
    assert doubling.label == "doubling_tail"
    assert (doubling.stop_s, root.stop_s, quadrupling.stop_s) == (14, 28, 18)
    for rep in (doubling, root, quadrupling):
        assert rep.converged_within_horizon
        # stop means: last recorded term certainly under tol
        assert rep.terms[-1].certainly_lt(math.log(rep.tol))


def test_series_geometric_exact_sums(geometric_seq):
    doubling, root, quadrupling = series_diagnostics(geometric_seq, Schedule(20))
    # r_n = 2^(1-n) exactly, so every term is a power of two
    exact_doubling = Fraction(2) + Fraction(1, 2) + Fraction(1, 2**23) + Fraction(1, 2**251)
    assert doubling.stop_s == 4
    assert doubling.partial_sum.linear == pytest.approx(float(exact_doubling), rel=1e-12)
    exact_quadrupling = (
        Fraction(4) + Fraction(2) + Fraction(1, 2**20) + Fraction(1, 2**247)
    )
    assert quadrupling.stop_s == 4
    assert quadrupling.partial_sum.linear == pytest.approx(float(exact_quadrupling), rel=1e-12)
    assert root.stop_s == 4
    want_root = 2.0 + math.sqrt(2.0) + 2.0**-10 + 2.0**-123.5
    assert root.partial_sum.linear == pytest.approx(want_root, rel=1e-12)


def test_series_horizon_not_reached(canonical_seq):
    doubling, root, quadrupling = series_diagnostics(canonical_seq, Schedule(8))
    assert root.stop_s is None
    assert not root.converged_within_horizon
    assert len(root.terms) == 8


def test_series_divergence_detected():
    # p barely above 1: 4^s outruns the tail decay for many blocks
    with pytest.raises(Divergent):
        series_diagnostics(WeightSequence.power(1.0, 1.05), Schedule(12))


# -- little-o trace ----------------------------------------------------------------------

def test_little_o_canonical_trace(canonical_selection):
    report = little_o_check(canonical_selection)
    assert report.is_decaying
    want = (2.5649, 2.0775, 1.4919, 0.9972, 0.6347, 0.3899, 0.2332, 0.1366)
    assert len(report.products) == len(want)
    for got, ref in zip(report.products, want):
        assert got == pytest.approx(ref, rel=2e-3)


def test_little_o_geometric_diverges(geometric_seq):
    sel = choose_subsequence(geometric_seq, Schedule(10), 6)
    report = little_o_check(sel)
    # deficit 4/2^s against |log b_s| ~ s^s log 2: the products blow up
    assert report.verdict == "diverging"
    assert report.products[-1] > report.products[0]


def test_little_o_withheld_under_two_products(canonical_seq):
    sel = choose_subsequence(canonical_seq, Schedule(40), 2)
    assert little_o_check(sel).verdict == "withheld"
