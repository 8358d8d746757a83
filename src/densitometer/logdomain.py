"""Log-domain magnitudes with certified brackets.

Tail sums and breakpoints of steep sequences underflow IEEE doubles long
before the schedule horizon (a geometric side at n = 46655 is far below
1e-308), so every magnitude here is carried as its natural logarithm.  A
:class:`LogBracket` keeps a certified enclosure [lo, hi] so that downstream
inequality checks can distinguish "certainly holds" from "inside the noise".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

LOG_ZERO = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b) computed without leaving the log domain."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sub(a: float, b: float) -> float:
    """log(e^a - e^b); requires a >= b."""
    if b == LOG_ZERO:
        return a
    if b > a:
        raise ValueError(f"log_sub needs a >= b, got a={a}, b={b}")
    if a == b:
        return LOG_ZERO
    return a + math.log1p(-math.exp(b - a))


def log_sum(items: Iterable[float]) -> float:
    """log of the sum of magnitudes given by their logs (stable logsumexp)."""
    xs = [x for x in items if x != LOG_ZERO]
    if not xs:
        return LOG_ZERO
    m = max(xs)
    if m == float("inf"):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


@dataclass(frozen=True)
class LogBracket:
    """Certified enclosure of a nonnegative magnitude, endpoints in natural log.

    ``lo == hi`` means the value is exact to float rounding; ``-inf`` encodes
    an exact zero.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("bracket endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"inverted bracket: lo={self.lo} > hi={self.hi}")

    @classmethod
    def exact(cls, log_value: float) -> "LogBracket":
        return cls(log_value, log_value)

    @classmethod
    def from_linear(cls, value: float) -> "LogBracket":
        if value < 0:
            raise ValueError("bracket values are nonnegative magnitudes")
        return cls.exact(LOG_ZERO if value == 0.0 else math.log(value))

    @property
    def is_zero(self) -> bool:
        return self.hi == LOG_ZERO

    @property
    def mid(self) -> float:
        """Log-domain midpoint (geometric mean of the linear endpoints)."""
        if self.is_zero:
            return LOG_ZERO
        if self.lo == LOG_ZERO:
            return self.hi  # degenerate half-open enclosure; be conservative
        return 0.5 * (self.lo + self.hi)

    @property
    def linear(self) -> float:
        return math.exp(self.mid)

    @property
    def linear_lo(self) -> float:
        return math.exp(self.lo)

    @property
    def linear_hi(self) -> float:
        return math.exp(self.hi)

    def certainly_lt(self, log_x: float) -> bool:
        return self.hi < log_x

    def certainly_ge(self, log_x: float) -> bool:
        return self.lo >= log_x

    def scaled(self, log_factor: float) -> "LogBracket":
        """Multiply by a positive constant given in log form."""
        if self.is_zero:
            return self
        return LogBracket(self.lo + log_factor, self.hi + log_factor)

    def sqrt(self) -> "LogBracket":
        if self.is_zero:
            return self
        return LogBracket(0.5 * self.lo, 0.5 * self.hi)
