import math
import random

import pytest

from densitometer.logdomain import LOG_ZERO, LogBracket, log_add, log_sub, log_sum


def test_log_add_matches_linear():
    rng = random.Random(7)
    for _ in range(500):
        x = rng.uniform(1e-8, 1e8)
        y = rng.uniform(1e-8, 1e8)
        assert log_add(math.log(x), math.log(y)) == pytest.approx(math.log(x + y), rel=1e-14)


def test_log_add_extreme_range():
    # 1e-400 + 1e-401 underflows linearly but not in log domain
    a = -400 * math.log(10.0)
    b = -401 * math.log(10.0)
    assert log_add(a, b) == pytest.approx(a + math.log(1.1), rel=1e-12)


def test_log_add_zero_identity():
    assert log_add(LOG_ZERO, 2.5) == 2.5
    assert log_add(2.5, LOG_ZERO) == 2.5
    assert log_sum([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_log_sub_matches_linear():
    assert log_sub(math.log(5.0), math.log(3.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log_sub(1.0, 1.0) == LOG_ZERO


def test_log_sub_rejects_negative_result():
    with pytest.raises(ValueError):
        log_sub(1.0, 2.0)


def test_log_sum_matches_fsum():
    rng = random.Random(11)
    xs = [rng.uniform(0.1, 10.0) for _ in range(200)]
    assert log_sum(math.log(x) for x in xs) == pytest.approx(math.log(math.fsum(xs)), rel=1e-13)


def test_bracket_orders_endpoints():
    with pytest.raises(ValueError):
        LogBracket(1.0, 0.5)


def test_bracket_exact_and_linear():
    b = LogBracket.from_linear(0.25)
    assert b.lo == b.hi == math.log(0.25)
    assert b.linear == 0.25
    assert b.linear_lo == 0.25
    assert b.linear_hi == 0.25


def test_bracket_zero():
    z = LogBracket.from_linear(0.0)
    assert z.is_zero
    assert z.linear == 0.0
    assert z.certainly_lt(math.log(1e-300))


def test_bracket_comparisons():
    b = LogBracket(math.log(2.0), math.log(3.0))
    assert b.certainly_lt(math.log(3.5))
    assert not b.certainly_lt(math.log(2.5))
    assert b.certainly_ge(math.log(2.0))
    assert not b.certainly_ge(math.log(2.5))


def test_bracket_scaled_and_sqrt():
    b = LogBracket(math.log(4.0), math.log(9.0))
    s = b.scaled(math.log(2.0))
    assert s.linear_lo == pytest.approx(8.0, rel=1e-15)
    r = b.sqrt()
    assert r.linear_lo == pytest.approx(2.0, rel=1e-15)
    assert r.linear_hi == pytest.approx(3.0, rel=1e-15)
