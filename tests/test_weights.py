"""Weight sequences, certified tails and convergence-index estimators.

Tail brackets for the power form are checked against mpmath's Hurwitz zeta,
which is an independent route to r_n = c * zeta(p, n), and the shared tail
table against the per-index bracket it replaced (``oracles``), bit for bit.
"""

import math

import mpmath
import pytest
from conftest import UNIT_BOX
from oracles import power_tail_bracket_ref

from densitometer import weights
from densitometer.auxfn import Schedule, block_start, series_diagnostics
from densitometer.errors import (
    DegenerateIndex,
    DensitometerError,
    GridTooCoarse,
    NotClosedForm,
    OutOfRange,
)
from densitometer.logdomain import LogBracket
from densitometer.setmodel import build_cover, build_packing
from densitometer.weights import (
    WeightSequence,
    analyze,
    default_probes,
    index_a,
    index_e_bm,
    index_e_bt,
    log_comparability,
    tail_sum,
    verify_finally_inequalities,
)


# -- construction ------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        lambda: WeightSequence.power(0.0, 2.0),
        lambda: WeightSequence.power(1.0, 1.0),
        lambda: WeightSequence.power(1.0, 0.5),
        lambda: WeightSequence.geometric(1.0, 0.0),
        lambda: WeightSequence.geometric(1.0, 1.0),
        lambda: WeightSequence.geometric(-1.0, 0.5),
        lambda: WeightSequence.explicit([]),
        lambda: WeightSequence.explicit([0.1, 0.2]),
        lambda: WeightSequence.explicit([0.1, -0.1]),
    ],
)
def test_inadmissible_parameters(bad):
    with pytest.raises(ValueError):
        bad()


def test_values_match_formulas():
    seq = WeightSequence.power(0.25, 2.0)
    assert seq.w2(1) == 0.25
    assert seq.w(4) == pytest.approx(0.5 / 4.0, rel=1e-15)
    assert seq.log_w2(10) == pytest.approx(math.log(0.25) - 2.0 * math.log(10.0), rel=1e-15)
    geo = WeightSequence.geometric(1.0, 0.5)
    assert geo.w2(3) == pytest.approx(0.125, rel=1e-15)


def test_explicit_indexing():
    seq = WeightSequence.explicit([0.3, 0.2, 0.1])
    assert seq.n_max == 3
    assert seq.w2(3) == pytest.approx(0.1)
    with pytest.raises(OutOfRange):
        seq.w2(4)
    with pytest.raises(OutOfRange):
        seq.w2(0)


def test_json_round_trip():
    for seq in (
        WeightSequence.power(0.25, 2.0),
        WeightSequence.geometric(2.0, 0.25),
        WeightSequence.explicit([0.5, 0.25]),
    ):
        assert WeightSequence.from_json(seq.to_json()) == seq


# -- tails --------------------------------------------------------------------

@pytest.mark.parametrize("c,p,n", [(0.25, 2.0, 1), (0.25, 2.0, 27), (1.0, 1.5, 100), (3.0, 4.0, 2), (0.25, 2.0, 16777216)])
def test_power_tail_bracket_contains_hurwitz_zeta(c, p, n):
    oracle = float(c * mpmath.zeta(p, n))
    bracket = tail_sum(WeightSequence.power(c, p), n)
    log_oracle = math.log(oracle)
    assert bracket.lo - 1e-12 <= log_oracle <= bracket.hi + 1e-12
    assert bracket.hi - bracket.lo < 1e-6


def test_power_tail_first_value():
    # r_1 = 0.25 * pi^2 / 6
    bracket = tail_sum(WeightSequence.power(0.25, 2.0), 1)
    assert bracket.linear == pytest.approx(0.25 * math.pi**2 / 6.0, rel=1e-9)


def test_geometric_tail_closed_form():
    seq = WeightSequence.geometric(1.0, 0.5)
    # r_n = sum_{m>=n} (1/2)^m = 2^(1-n)
    for n in (1, 2, 10, 100, 2000):
        assert tail_sum(seq, n).linear == pytest.approx(2.0 ** (1 - n), rel=1e-12)


def test_explicit_tail_fsum_and_zero_past_end():
    seq = WeightSequence.explicit([0.4, 0.2, 0.1])
    assert tail_sum(seq, 1).linear == pytest.approx(0.7, rel=1e-15)
    assert tail_sum(seq, 3).linear == pytest.approx(0.1, rel=1e-15)
    assert tail_sum(seq, 4).is_zero
    # the block schedule jumps far past short lists; the tail stays zero
    assert tail_sum(seq, 10**6).is_zero


# -- the shared tail table ---------------------------------------------------------

SHARED_CASES = [(0.25, 2.0), (1.0, 1.5), (3.0, 4.0), (1.0, 1.01), (0.05, 1.75)]


@pytest.mark.parametrize("c,p", SHARED_CASES)
def test_tail_table_matches_reference_bit_for_bit(c, p):
    # whatever the order or split of the requests, every memoised bracket
    # equals the one computed for its index alone
    m_cut = math.ceil(1500.0 * p)
    ns = sorted(set(default_probes()) | {1, m_cut - 1, m_cut, m_cut + 1, 4 * m_cut, 20**20})
    ref = {n: power_tail_bracket_ref(c, p, n) for n in ns}
    half = len(ns) // 2
    requests = {
        "all at once": [ns],
        "ascending one by one": [[n] for n in ns],
        "descending one by one": [[n] for n in reversed(ns)],
        "overlapping batches": [ns[: half + 5], ns[half - 5 :], ns[::3], ns],
    }
    for label, batches in requests.items():
        seq = WeightSequence.power(c, p)
        for batch in batches:
            table = weights._tail_table(seq, batch)
            assert list(table) == batch, label
            for n in batch:
                assert (table[n].lo, table[n].hi) == (ref[n].lo, ref[n].hi), (label, n)
        assert sorted(seq._tails) == ns, label
        for n in ns:
            assert tail_sum(seq, n) == ref[n], (label, n)


def _estimator_outcomes(seq, theta):
    calls = {
        "index_a": lambda: index_a(seq),
        "index_e_bm": lambda: index_e_bm(seq),
        "onsets": lambda: verify_finally_inequalities(seq, theta, theta),
        "mu": lambda: weights.tail_lower_exponent(seq),
        "analyze": lambda: analyze(seq, theta, theta).to_json(),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = repr(call())  # repr round-trips floats, so equal means bit-equal
        except DensitometerError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


@pytest.mark.parametrize("c,p", SHARED_CASES)
def test_estimators_match_per_index_reference(c, p, monkeypatch):
    theta = 0.5 * (1.0 / p + 1.0)  # inside the admissible window (1/p, 1)
    shared = _estimator_outcomes(WeightSequence.power(c, p), theta)
    served = []

    def reference(c, p, ns):
        served.extend(ns)
        return {n: power_tail_bracket_ref(c, p, n) for n in ns}

    monkeypatch.setattr(weights, "_power_tail_brackets", reference)
    # a new object: its memo is empty, so every bracket comes from the reference
    seq = WeightSequence.power(c, p)
    assert _estimator_outcomes(seq, theta) == shared
    assert sorted(served) == sorted(seq._tails)
    assert set(served) >= {n for n in default_probes() if n >= 2}


def test_memo_matches_direct_formulas_for_geometric_and_explicit():
    c, rho = 2.0, 0.25
    w2 = [0.4, 0.2, 0.1, 0.1, 0.05]
    for order in ([1, 2, 3, 10, 100, 2000], [2000, 100, 10, 3, 2, 1], [3, 1, 3, 2000, 1]):
        geo = WeightSequence.geometric(c, rho)
        for n in order:
            direct = LogBracket.exact(math.log(c) - math.log1p(-rho) + n * math.log(rho))
            assert tail_sum(geo, n) == direct, n
        explicit = WeightSequence.explicit(w2)
        for n in order:
            direct = LogBracket.from_linear(math.fsum(w2[n - 1 :]))
            assert tail_sum(explicit, n) == direct, n
        assert sorted(geo._tails) == sorted(explicit._tails) == sorted(set(order))


def test_filled_memo_keeps_value_semantics():
    for make in (
        lambda: WeightSequence.power(0.25, 2.0),
        lambda: WeightSequence.geometric(2.0, 0.25),
        lambda: WeightSequence.explicit([0.5, 0.25]),
    ):
        fresh, used = make(), make()
        weights._tail_table(used, [1, 2, 3, 10**6])
        assert used._tails and not fresh._tails
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used.to_json() == fresh.to_json()
        back = WeightSequence.from_json(used.to_json())
        assert back == used and hash(back) == hash(used) and not back._tails
        assert {used: "x"}[fresh] == "x"
        assert len({used, fresh, back}) == 1


def test_first_cutoff_meets_the_tolerance():
    # The table uses one cutoff M = ceil(1500 p): the remainder bound is
    # below 5e-16 of the integral term, a lower bound of the estimate.
    for p in [1.0 + 10.0**k for k in range(-9, 7)] + [2.0 + 0.01 * i for i in range(100)]:
        log_m = math.log(math.ceil(1500.0 * p))
        log_integral = (1.0 - p) * log_m - math.log(p - 1.0)
        log_rem = math.log(p * (p + 1.0) * (p + 2.0) / 720.0) - (p + 3.0) * log_m
        assert log_rem <= log_integral + math.log(5e-16), p


def _record(monkeypatch, name, into):
    core = getattr(weights, name)

    def recording(*args):
        into.append(args)
        return core(*args)

    monkeypatch.setattr(weights, name, recording)


def test_analysis_computes_each_index_once(monkeypatch):
    # fresh objects throughout: the session fixtures' memos are filled by other tests
    calls, term_lists = [], []
    _record(monkeypatch, "_log_mid", calls)
    _record(monkeypatch, "_power_terms", term_lists)
    seq = WeightSequence.power(0.25, 2.0)

    # verify-all's order: every caller after analyze finds its shared indexes
    # in the memo, and no index is bracketed twice
    analyze(seq)
    series_diagnostics(seq, Schedule(40))
    build_cover(build_packing(seq, 3124, UNIT_BOX), 3, 4)
    indexes = [args[0] for args in calls]
    assert len(indexes) == len(set(indexes)) == len(seq._tails)
    probes = {n for n in default_probes() if n >= 2}
    series_starts = {block_start(s) for s in range(1, 29)}  # the last series stops at s = 28
    assert set(indexes) == probes | series_starts
    assert block_start(5) in series_starts  # the packing's residual tail r_3125

    # nothing is memoised at module level: an equal object recomputes everything
    calls.clear()
    twin = WeightSequence.power(0.25, 2.0)
    assert twin == seq
    analyze(twin)
    assert sorted(args[0] for args in calls) == sorted(probes)
    calls.clear()
    analyze(seq)
    assert calls == []

    # past the cutoff a bracket is the closure terms alone
    calls.clear()
    term_lists.clear()
    fresh = WeightSequence.power(0.25, 2.0)
    tail_sum(fresh, 10**6)
    assert [args[0] for args in calls] == [10**6] and term_lists == []
    tail_sum(fresh, 27)
    assert [args[1:] for args in term_lists] == [(27, 3000)]


# -- indexes -------------------------------------------------------------------

def test_indexes_power_unit_coefficient():
    seq = WeightSequence.power(1.0, 2.0)
    assert index_e_bt(seq).estimate == pytest.approx(0.5, abs=1e-12)
    assert index_a(seq).estimate == pytest.approx(0.5, abs=1e-3)
    assert index_e_bm(seq).estimate == pytest.approx(0.5, abs=0.02)


def test_indexes_geometric_vanish():
    seq = WeightSequence.geometric(1.0, 0.5)
    assert index_e_bt(seq).estimate <= 0.01
    assert index_a(seq).estimate <= 0.01


def test_index_a_uses_tail_minimum():
    est = index_a(WeightSequence.power(1.0, 1.5))
    # a_n decreases toward 2/3 from above; the proxy must sit above the limit
    assert est.estimate >= 2.0 / 3.0
    assert est.estimate == pytest.approx(2.0 / 3.0, abs=0.05)


def test_index_e_bm_upset_and_grid():
    scan = index_e_bm(WeightSequence.power(1.0, 3.0))
    assert scan.passing[0] == scan.estimate
    assert list(scan.passing) == sorted(scan.passing)
    with pytest.raises(GridTooCoarse):
        index_e_bm(WeightSequence.power(1.0, 3.0), a_grid=[0.5, 0.4])
    with pytest.raises(GridTooCoarse):
        index_e_bm(WeightSequence.power(1.0, 3.0), a_grid=[1.5])


def test_index_a_degenerate_on_huge_tail():
    # r_n must stay below n at every probe or the root leaves (0, 1]
    with pytest.raises(DegenerateIndex):
        index_a(WeightSequence.power(10.0, 2.0), probes=[2, 3, 4, 5, 6])


def test_indexes_need_closed_form():
    with pytest.raises(NotClosedForm):
        index_a(WeightSequence.explicit([0.4, 0.2]))


def test_default_probes_shape():
    probes = default_probes(10**6)
    assert probes[-1] == 10**6
    assert list(probes) == sorted(set(probes))


def test_eventual_inequalities_canonical():
    seq = WeightSequence.power(0.25, 2.0)
    report = verify_finally_inequalities(seq, 0.6, 0.7)
    assert report.epsilon > 0
    for onset in (report.onset_area_bound, report.onset_tail_vs_area, report.onset_tail_power):
        assert 1 <= onset <= report.horizon
    # spot-check the first inequality at a probe past its onset
    n = max(report.onset_area_bound, 10)
    assert seq.w2(n) < (1.0 / n) ** (1.0 / 0.6)


def test_log_comparability_proxies():
    # log n / |log w_n| -> 2/p for the power form
    rep = log_comparability(WeightSequence.power(1.0, 2.0))
    assert rep.liminf_proxy == pytest.approx(1.0, abs=1e-12)
    assert rep.limsup_proxy == pytest.approx(1.0, abs=1e-12)
    assert rep.comparable
    rep3 = log_comparability(WeightSequence.power(1.0, 3.0))
    assert rep3.limsup_proxy == pytest.approx(2.0 / 3.0, abs=1e-12)
    # geometric ratios collapse like log n / n and fail the lower bound
    assert not log_comparability(WeightSequence.geometric(0.5, 0.5)).comparable


def test_analyze_bundles_everything():
    report = analyze(WeightSequence.power(0.25, 2.0), theta=0.6, delta=0.7)
    assert report.onsets is not None
    assert report.epsilon == report.onsets.epsilon
    payload = report.to_json()
    assert payload["a_est"] == report.a_est
    assert "onsets" in payload
