"""Square-side weight sequences and their convergence indexes.

A weight sequence fixes the sides w_n of a family of removed squares, via
the areas w_n^2.  Three shapes are supported:

* ``power``      w_n^2 = c * n**(-p)  with c > 0, p > 1,
* ``geometric``  w_n^2 = c * rho**n   with c > 0, 0 < rho < 1,
* ``explicit``   a finite non-increasing list of positive areas.

Everything downstream needs tail sums r_n = sum_{m >= n} w_m^2 and three
asymptotic indexes of the area sequence:

* the solution a_n of n * (r_n / n)**a_n = 1 and its liminf,
* the convergence exponent  limsup_n  log n / |log w_n^2|,
* the box-dimension style exponent  inf { a : (w_n^2)**(a-1) * r_n -> 0 }.

For a power sequence all three equal 1/p; for a geometric sequence all are 0.
Magnitudes are carried in natural-log form (see :mod:`densitometer.logdomain`)
so that probes such as n = 20**20 stay representable.  liminf/limsup are
estimated as tail minima/maxima over the probe grid of default_probes;
estimates carry a convergence diagnostic instead of pretending to be exact
limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateIndex,
    GridTooCoarse,
    InadmissibleParameter,
    NeverHolds,
    NotClosedForm,
    OutOfRange,
)
from .logdomain import LogBracket, log_add, log_sub

__all__ = [
    "WeightSequence",
    "IndexEstimate",
    "ExponentScan",
    "OnsetReport",
    "ComparabilityReport",
    "IndexReport",
    "default_probes",
    "tail_sum",
    "index_a",
    "index_e_bt",
    "index_e_bm",
    "verify_finally_inequalities",
    "log_comparability",
    "tail_lower_exponent",
    "analyze",
]

# tail_lower_exponent tries mu = p - 1 + _MU_MARGIN for a power sequence.
_MU_MARGIN = 0.1


def _logs(values: Iterable[float], count: int) -> np.ndarray:
    """``math.log`` of each of ``count`` values, as an array.

    Sequence arrays must equal the scalar path bit for bit, so numpy's own
    log is not used: it differs from ``math.log`` on some integers (on 2 of
    1..46,655).  ``map`` streams the values, so no Python list is built.
    """
    return np.fromiter(map(math.log, values), np.float64, count)


def _exps(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element of ``x``, as an array.

    numpy's own exp is not used: it differs from ``math.exp`` on thousands
    of the log-areas of 1..46,655.  The elements go through Python floats
    2^12 at a time, so the temporary lists and floats stay one small size
    however long ``x`` is.
    """
    out = np.empty(len(x))
    step = 1 << 12
    for i in range(0, len(x), step):
        chunk = x[i : i + step]
        out[i : i + step] = np.fromiter(map(math.exp, chunk.tolist()), np.float64, len(chunk))
    return out


def default_probes(limit: int = 10**6) -> tuple[int, ...]:
    """Dense low range plus a geometric grid 2^k, capped at ``limit``."""
    if limit < 2:
        raise OutOfRange(f"probe limit must be >= 2, got {limit}")
    probes = set(range(1, min(32, limit) + 1))
    k = 5
    while 2**k < limit:
        probes.add(2**k)
        k += 1
    probes.add(limit)
    return tuple(sorted(probes))


@dataclass(frozen=True)
class WeightSequence:
    """Immutable descriptor of an area sequence w_n^2, n >= 1."""

    kind: str
    c: float = 1.0
    p: float = 0.0
    rho: float = 0.0
    w2_values: tuple[float, ...] = ()
    # Certified brackets r_n already computed for this object, by index; only
    # _tail_table reads or fills it.  It takes no part in equality, hashing,
    # repr or to_json, so a sequence keeps its value semantics.
    _tails: dict[int, LogBracket] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.kind == "power":
            if not (math.isfinite(self.c) and self.c > 0):
                raise ValueError(f"power form needs c > 0, got {self.c}")
            if not (math.isfinite(self.p) and self.p > 1):
                raise ValueError(
                    f"power form needs p > 1 for a summable area sequence, got {self.p}"
                )
        elif self.kind == "geometric":
            if not (math.isfinite(self.c) and self.c > 0):
                raise ValueError(f"geometric form needs c > 0, got {self.c}")
            if not (0 < self.rho < 1):
                raise ValueError(f"geometric form needs 0 < rho < 1, got {self.rho}")
        elif self.kind == "explicit":
            vals = self.w2_values
            if not vals:
                raise ValueError("explicit form needs at least one area")
            if any(not math.isfinite(v) or v <= 0 for v in vals):
                raise ValueError("explicit areas must be finite and positive")
            if any(b > a for a, b in zip(vals, vals[1:])):
                raise ValueError("explicit areas must be non-increasing")
        else:
            raise ValueError(f"unknown sequence kind: {self.kind!r}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def power(cls, c: float, p: float) -> "WeightSequence":
        return cls(kind="power", c=float(c), p=float(p))

    @classmethod
    def geometric(cls, c: float, rho: float) -> "WeightSequence":
        return cls(kind="geometric", c=float(c), rho=float(rho))

    @classmethod
    def explicit(cls, w2_values: Sequence[float]) -> "WeightSequence":
        return cls(kind="explicit", w2_values=tuple(float(v) for v in w2_values))

    # -- basic queries --------------------------------------------------------

    @property
    def is_closed_form(self) -> bool:
        return self.kind in ("power", "geometric")

    @property
    def n_max(self) -> int | None:
        """Largest index with a defined area; None for closed forms."""
        return len(self.w2_values) if self.kind == "explicit" else None

    def _check_index(self, n: int) -> None:
        if n < 1:
            raise OutOfRange(f"sequence indexes start at 1, got {n}")
        if self.kind == "explicit" and n > len(self.w2_values):
            raise OutOfRange(
                f"explicit sequence has {len(self.w2_values)} areas, index {n} undefined"
            )

    def log_w2(self, n: int) -> float:
        """Natural log of w_n^2."""
        self._check_index(n)
        if self.kind == "power":
            return math.log(self.c) - self.p * math.log(n)
        if self.kind == "geometric":
            try:
                return math.log(self.c) + n * math.log(self.rho)
            except OverflowError as exc:
                raise OutOfRange(f"index {n} exceeds the float log-domain horizon") from exc
        return math.log(self.w2_values[n - 1])

    def log_w(self, n: int) -> float:
        return 0.5 * self.log_w2(n)

    def w2(self, n: int) -> float:
        """Linear-domain area; underflows to 0.0 beyond the float horizon."""
        try:
            return math.exp(self.log_w2(n))
        except OverflowError:  # pragma: no cover - areas are < 1 in practice
            return math.inf

    def w(self, n: int) -> float:
        return math.exp(self.log_w(n))

    def areas(self, trunc: int) -> tuple[np.ndarray, np.ndarray]:
        """The areas w_n^2 and sides w_n of n = 1..trunc, as two arrays.

        One pass over the sequence: the log-areas are formed once as an
        array, by the scalar path's own arithmetic in numpy and
        ``math.log``/``math.exp`` for the transcendental steps, so element
        n - 1 equals ``w2(n)`` and ``w(n)`` bit for bit.
        """
        self._check_index(trunc)
        # in place, one array: each step is the scalar operation with its
        # operands commuted, which IEEE arithmetic rounds the same
        if self.kind == "power":
            log_w2 = _logs(range(1, trunc + 1), trunc)
            log_w2 *= self.p
            np.subtract(math.log(self.c), log_w2, out=log_w2)
        elif self.kind == "geometric":
            # n * log(rho) with n an exact float, as for a Python int n
            log_w2 = np.arange(1, trunc + 1, dtype=np.float64)
            log_w2 *= math.log(self.rho)
            log_w2 += math.log(self.c)
        else:
            log_w2 = _logs(self.w2_values[:trunc], trunc)
        w2 = _exps(log_w2)
        log_w2 *= 0.5
        return w2, _exps(log_w2)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "c": self.c, "p": self.p}
        if self.kind == "geometric":
            return {"kind": "geometric", "c": self.c, "rho": self.rho}
        return {"kind": "explicit", "w2": list(self.w2_values)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "WeightSequence":
        """Sequence from a descriptor object; ValueError when it is malformed."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"sequence descriptor must be an object, got {obj!r}")
        kind = obj.get("kind")
        try:
            if kind == "power":
                return cls.power(obj["c"], obj["p"])
            if kind == "geometric":
                return cls.geometric(obj["c"], obj["rho"])
            if kind == "explicit":
                return cls.explicit(obj["w2"])
        except TypeError as exc:
            raise ValueError(f"malformed {kind} sequence descriptor: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"{kind} sequence descriptor lacks field {exc.args[0]!r}") from exc
        raise ValueError(f"unknown sequence descriptor kind: {kind!r}")


# -- tail sums -----------------------------------------------------------------

def _power_terms(p: float, start: int, stop: int) -> np.ndarray:
    """The log terms -p * log m of the partial sum, for start <= m < stop."""
    return -p * _logs(range(start, stop), stop - start)


def _log_mid(n: int, start: int, peak: float, weights: list[float]) -> float:
    """log of the partial sum from n plus the closure, at one cutoff.

    ``weights`` holds exp(x - peak) for the log terms of indexes start,
    start + 1, ... below the cutoff, followed by the three closure terms, and
    ``peak`` is the largest log term from n on.
    """
    return peak + math.log(math.fsum(weights[n - start :]))


def _power_tail_brackets(c: float, p: float, ns: Iterable[int]) -> dict[int, LogBracket]:
    """Certified brackets for r_n = sum_{m >= n} c * m**(-p), for every n in ``ns``.

    Each bracket is an explicit partial sum up to a cutoff M = max(n, 1500 p),
    then an Euler-Maclaurin closure at M whose remainder after the B_2 term
    is bounded in modulus by the first omitted term p(p+1)(p+2)/720 * M**(-p-3);
    the bracket is the midpoint estimate plus/minus that certified remainder.
    The estimate exceeds its integral term M**(1-p) / (p-1), so the relative
    remainder is at most (p-1)p(p+1)(p+2) / (720 M^4).  For M >= 1500 p that
    is below 1.52 / (720 * 1500^4) < 4.2e-16 at every p > 1, because
    (p-1)(p+1)(p+2) <= 1.52 p^3, so one cutoff always meets the 5e-16
    tolerance.

    The indexes are served together.  The log terms -p log m are computed
    once per cutoff, from the smallest index below it, and the weights
    exp(x - peak) once per (cutoff, peak), where the peak is the largest
    log term of a sum; each index is then one ``math.fsum`` over a slice.
    Sharing is exact: the same float gives the same log and exp, and fsum is
    correctly rounded whatever the order of its terms, so each bracket equals
    the one computed for its index alone, bit for bit.  Both are formed
    in numpy around ``math.log`` and ``math.exp`` mapped over the values,
    never numpy's own log and exp, so each is the scalar float.
    """
    log_c = math.log(c)
    base = math.ceil(1500.0 * p)
    groups: dict[int, list[int]] = {}
    for n in sorted(set(ns)):
        groups.setdefault(max(n, base), []).append(n)
    out: dict[int, LogBracket] = {}
    for m_cut, group in groups.items():
        log_m = math.log(m_cut)
        closure = [
            (1.0 - p) * log_m - math.log(p - 1.0),   # integral from M
            -p * log_m - math.log(2.0),              # half the term at M
            math.log(p / 12.0) - (p + 1.0) * log_m,  # B_2 correction
        ]
        log_rem = math.log(p * (p + 1.0) * (p + 2.0) / 720.0) - (p + 3.0) * log_m
        lo = group[0]
        if lo == m_cut:
            # past the cutoff the sum is the closure alone: the same float
            # operations as below, on three Python floats instead of arrays
            peak = max(closure)
            log_mid = _log_mid(lo, lo, peak, [math.exp(x - peak) for x in closure])
            out[lo] = LogBracket(log_sub(log_mid, log_rem) + log_c, log_add(log_mid, log_rem) + log_c)
            continue
        terms = _power_terms(p, lo, m_cut)
        # peaks[i]: the largest log term of group[i]'s sum, from the maxima
        # of the stretches between consecutive indexes.
        bounds = [n - lo for n in group] + [len(terms)]
        peaks = []
        peak = max(closure)
        for i in range(len(group) - 1, -1, -1):
            stretch = terms[bounds[i] : bounds[i + 1]]
            if stretch.size:
                peak = max(peak, float(stretch.max()))
            peaks.append(peak)
        peaks.reverse()
        for i, n in enumerate(group):
            if i == 0 or peaks[i] != peaks[i - 1]:
                start = n
                shifted = np.concatenate((terms[n - lo :], closure)) - peaks[i]
                weights = list(map(math.exp, shifted.tolist()))
            log_mid = _log_mid(n, start, peaks[i], weights)
            out[n] = LogBracket(log_sub(log_mid, log_rem) + log_c, log_add(log_mid, log_rem) + log_c)
    return out


def _tail_table(seq: WeightSequence, ns: Iterable[int]) -> dict[int, LogBracket]:
    """Certified brackets r_n = sum_{m >= n} w_m^2 for every n in ``ns``.

    This is the only place a bracket is computed.  Each one is kept in the
    sequence object's own memo, so an index is bracketed once per object,
    whichever caller asks first; an equal but distinct object starts empty.
    The missing indexes of a power sequence are served together, in one
    :func:`_power_tail_brackets` batch, whose brackets equal the per-index
    ones bit for bit.  Closed forms are served at any index inside the float
    log-domain horizon; an explicit list has r_n = 0 exactly for every n past
    its end.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise OutOfRange(f"tail sums start at n = 1, got {min(ns)}")
    memo = seq._tails
    missing = {n for n in ns if n not in memo}
    if seq.kind == "power":
        if missing:
            memo.update(_power_tail_brackets(seq.c, seq.p, missing))
    elif seq.kind == "geometric":
        log_head = math.log(seq.c) - math.log1p(-seq.rho)
        for n in sorted(missing):
            try:
                memo[n] = LogBracket.exact(log_head + n * math.log(seq.rho))
            except OverflowError as exc:
                raise OutOfRange(f"index {n} exceeds the float log-domain horizon") from exc
    else:
        for n in missing:
            memo[n] = LogBracket.from_linear(math.fsum(seq.w2_values[n - 1 :]))
    return {n: memo[n] for n in ns}


def tail_sum(seq: WeightSequence, n: int) -> LogBracket:
    """Certified log-domain bracket for r_n = sum_{m >= n} w_m^2.

    A lookup through the sequence's tail table (:func:`_tail_table`), which
    computes r_n on the first request and serves it from memory after.
    """
    return _tail_table(seq, (n,))[n]


# -- index estimators ----------------------------------------------------------

def _tail_slice(values: Sequence, minimum: int = 4) -> Sequence:
    """Last quartile of a probe trace, with a small floor."""
    count = max(min(len(values), minimum), len(values) // 4)
    return values[len(values) - count :]


def _closed_form_probes(
    seq: WeightSequence, probes: Sequence[int] | None = None, *, start: int = 2
) -> list[int]:
    if not seq.is_closed_form:
        raise NotClosedForm(f"operation needs a closed-form sequence, got {seq.kind!r}")
    grid = list(probes) if probes is not None else list(default_probes())
    grid = [n for n in grid if n >= start]
    if not grid:
        raise OutOfRange(f"probe grid has no entries >= {start}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise OutOfRange("probe grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class IndexEstimate:
    """A liminf/limsup proxy over a probe grid plus its convergence diagnostic."""

    name: str
    estimate: float
    values: tuple[tuple[int, float], ...]
    tail_spread: float
    converged: bool


def index_a(seq: WeightSequence, probes: Sequence[int] | None = None) -> IndexEstimate:
    """liminf proxy for the solutions a_n of n * (r_n / n)**a_n = 1.

    Solving the defining equation in logs gives
    a_n = log n / (log n - log r_n); the estimate is the minimum over the
    tail of the probe grid.
    """
    grid = _closed_form_probes(seq, probes)
    tails = _tail_table(seq, grid)
    values = []
    for n in grid:
        log_n = math.log(n)
        log_r = tails[n].mid
        if log_r >= log_n:
            raise DegenerateIndex(f"r_{n} >= n; the defining equation has no root in (0, 1]")
        values.append((n, log_n / (log_n - log_r)))
    tail = _tail_slice(values)
    spread = max(v for _, v in tail) - min(v for _, v in tail)
    return IndexEstimate(
        name="a",
        estimate=min(v for _, v in tail),
        values=tuple(values),
        tail_spread=spread,
        converged=spread < 0.01,
    )


def index_e_bt(seq: WeightSequence) -> IndexEstimate:
    """limsup proxy for log n / |log w_n^2| (convergence exponent of the areas)."""
    grid = _closed_form_probes(seq)
    values = []
    for n in grid:
        log_w2 = seq.log_w2(n)
        if log_w2 >= 0:
            raise DegenerateIndex(f"w_{n}^2 >= 1; |log w_n^2| vanishes or flips sign")
        values.append((n, math.log(n) / abs(log_w2)))
    tail = _tail_slice(values)
    spread = max(v for _, v in tail) - min(v for _, v in tail)
    return IndexEstimate(
        name="e_bt",
        estimate=max(v for _, v in tail),
        values=tuple(values),
        tail_spread=spread,
        converged=spread < 0.01,
    )


@dataclass(frozen=True)
class ExponentScan:
    """Result of the grid scan for inf { a : (w_n^2)**(a-1) * r_n -> 0 }."""

    estimate: float
    grid_step: float
    passing: tuple[float, ...]
    # Supplementary decay diagnostic: log-domain drop g(last) - g(first) per
    # passing exponent; a strongly negative drop certifies "-> 0" visibly.
    decay_drop: Mapping[float, float]


def index_e_bm(seq: WeightSequence, a_grid: Sequence[float] | None = None) -> ExponentScan:
    """Smallest grid exponent a with (w_n^2)**(a-1) * r_n decreasing over the probe tail.

    Membership is monotone decrease of g_n = (a-1) log w_n^2 + log r_n along
    the probes; the scan reports the decay drop per exponent as a diagnostic
    rather than folding a fixed decay quota into membership.  For a power
    tail w_n^2 = c n^-p, g_n changes like (1 - a p) log n, so just above the
    true index a = 1/p the drop over the probes is arbitrarily small, and a
    quota of the kind "final < 1e-3 * initial" would place the transition
    above 1/p.
    """
    grid = _closed_form_probes(seq)
    tails = _tail_table(seq, grid)
    if a_grid is None:
        a_grid = [round(0.01 * k, 10) for k in range(1, 100)]
    a_values = list(a_grid)
    if not a_values or any(b <= a for a, b in zip(a_values, a_values[1:])):
        raise GridTooCoarse("exponent grid must be nonempty and strictly increasing")
    if any(not 0 < a < 1 for a in a_values):
        raise GridTooCoarse("exponents must lie strictly inside (0, 1)")
    log_w2 = [seq.log_w2(n) for n in grid]
    log_r = [tails[n].mid for n in grid]
    passing: list[float] = []
    decay: dict[float, float] = {}
    for a in a_values:
        g = [(a - 1.0) * lw + lr for lw, lr in zip(log_w2, log_r)]
        tail = list(_tail_slice(g, minimum=6))
        if all(y < x for x, y in zip(tail, tail[1:])):
            passing.append(a)
            decay[a] = g[-1] - g[0]
    if not passing:
        raise GridTooCoarse("no grid exponent exhibits decrease; cannot bracket the infimum")
    # Membership must be an up-set of the grid, otherwise the grid is too
    # coarse relative to probe noise.
    first = a_values.index(passing[0])
    if passing != a_values[first:]:
        raise GridTooCoarse("passing exponents are not an up-set of the grid")
    step = a_values[1] - a_values[0] if len(a_values) > 1 else 0.0
    return ExponentScan(
        estimate=passing[0],
        grid_step=step,
        passing=tuple(passing),
        decay_drop=decay,
    )


# -- eventual inequalities -----------------------------------------------------

@dataclass(frozen=True)
class OnsetReport:
    """Onset indexes of the three eventual inequalities at (theta, delta)."""

    theta: float
    delta: float
    epsilon: float
    horizon: int
    onset_area_bound: int       # w_n^2 <  (1/n)**(1/theta)
    onset_tail_vs_area: int     # r_n   <  (w_n^2)**(1-delta)
    onset_tail_power: int       # r_n   <  (1/n)**epsilon


def verify_finally_inequalities(seq: WeightSequence, theta: float, delta: float) -> OnsetReport:
    """Find probe onsets past which the three tail inequalities hold.

    Admissibility requires e_bt < theta < 1 and e_bt < delta < 1, where e_bt
    is the estimated convergence exponent; epsilon = (1/theta) * (1 - delta).
    The onset is the smallest probe from which an inequality holds at every
    later probe up to the horizon.  Comparisons against tail sums use the
    certified upper end of the bracket, so "holds" is bracketing-robust.
    """
    grid = _closed_form_probes(seq, start=1)
    e_bt = index_e_bt(seq).estimate
    for name, value in (("theta", theta), ("delta", delta)):
        if not e_bt < value < 1:
            raise InadmissibleParameter(
                f"{name} = {value} outside the admissible window ({e_bt:.6g}, 1)"
            )
    epsilon = (1.0 / theta) * (1.0 - delta)
    tails = _tail_table(seq, grid)

    def onset(pred) -> int:
        flags = [pred(n) for n in grid]
        idx = None
        for i in range(len(flags) - 1, -1, -1):
            if not flags[i]:
                break
            idx = i
        if idx is None:
            raise NeverHolds(f"inequality fails at the horizon n = {grid[-1]}")
        return grid[idx]

    onset_area = onset(lambda n: seq.log_w2(n) < -(1.0 / theta) * math.log(n))
    onset_tail_area = onset(
        lambda n: tails[n].certainly_lt((1.0 - delta) * seq.log_w2(n))
    )
    onset_tail_power = onset(
        lambda n: tails[n].certainly_lt(-epsilon * math.log(n))
    )
    return OnsetReport(
        theta=theta,
        delta=delta,
        epsilon=epsilon,
        horizon=grid[-1],
        onset_area_bound=onset_area,
        onset_tail_vs_area=onset_tail_area,
        onset_tail_power=onset_tail_power,
    )


# -- comparability of log n and |log w_n| ---------------------------------------

@dataclass(frozen=True)
class ComparabilityReport:
    """Two-sided tail bounds for the ratio log n / |log w_n|."""

    liminf_proxy: float
    limsup_proxy: float
    comparable: bool
    values: tuple[tuple[int, float], ...]


def log_comparability(seq: WeightSequence) -> ComparabilityReport:
    """Check whether log n and |log w_n| agree up to bounded constants.

    The verdict is "comparable" when the tail minimum of the ratio exceeds
    0.01 and the tail maximum stays below 100.  Geometric sequences fail the
    lower bound: the ratio collapses like log n / n.
    """
    grid = _closed_form_probes(seq)
    values = []
    for n in grid:
        log_w = seq.log_w(n)
        if log_w >= 0:
            raise DegenerateIndex(f"w_{n} >= 1; |log w_n| vanishes or flips sign")
        values.append((n, math.log(n) / abs(log_w)))
    tail = [v for _, v in _tail_slice(values)]
    lo, hi = min(tail), max(tail)
    return ComparabilityReport(
        liminf_proxy=lo,
        limsup_proxy=hi,
        comparable=(lo > 0.01 and hi < 100.0),
        values=tuple(values),
    )


def tail_lower_exponent(seq: WeightSequence) -> float | None:
    """Exponent mu with r_n >= n**(-mu) at every probe >= 2, if one exists.

    For a power sequence mu = p - 1 + _MU_MARGIN is returned once verified
    against the certified lower bracket end; None when verification fails
    (geometric tails sink below every power).
    """
    grid = _closed_form_probes(seq)
    tails = _tail_table(seq, grid)
    if seq.kind == "power":
        mu = seq.p - 1.0 + _MU_MARGIN
    else:
        # No power lower envelope is expected; still try the margin itself.
        mu = _MU_MARGIN
    ok = all(tails[n].certainly_ge(-mu * math.log(n)) for n in grid)
    return mu if ok else None


# -- combined report -----------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    """Bundle of index estimates, admissible parameters and onsets."""

    seq: WeightSequence
    a_est: float
    e_bt_est: float
    e_bm_est: float
    a_converged: bool
    e_bt_converged: bool
    theta: float | None = None
    delta: float | None = None
    epsilon: float | None = None
    mu: float | None = None
    onsets: OnsetReport | None = None
    comparability: ComparabilityReport | None = None

    def to_json(self) -> dict:
        out = {
            "seq": self.seq.to_json(),
            "a_est": self.a_est,
            "e_bt_est": self.e_bt_est,
            "e_bm_est": self.e_bm_est,
            "a_converged": self.a_converged,
            "e_bt_converged": self.e_bt_converged,
            "theta": self.theta,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "mu": self.mu,
        }
        if self.onsets is not None:
            out["onsets"] = {
                "area_bound": self.onsets.onset_area_bound,
                "tail_vs_area": self.onsets.onset_tail_vs_area,
                "tail_power": self.onsets.onset_tail_power,
                "horizon": self.onsets.horizon,
            }
        if self.comparability is not None:
            out["log_ratio"] = {
                "liminf_proxy": self.comparability.liminf_proxy,
                "limsup_proxy": self.comparability.limsup_proxy,
                "comparable": self.comparability.comparable,
            }
        return out


def analyze(
    seq: WeightSequence,
    theta: float | None = None,
    delta: float | None = None,
) -> IndexReport:
    """Estimate all indexes; include onsets when (theta, delta) are supplied.

    Every estimator reads the tail sums r_n through the sequence's tail
    table (:func:`_tail_table`), so each probe is bracketed once for the life
    of ``seq`` and later callers (the block series, the cover bound, the
    packing's residual tail) find the shared indexes already there.
    """
    with_onsets = theta is not None and delta is not None
    a = index_a(seq)
    e_bt = index_e_bt(seq)
    e_bm = index_e_bm(seq)
    onsets = None
    epsilon = None
    if with_onsets:
        onsets = verify_finally_inequalities(seq, theta, delta)
        epsilon = onsets.epsilon
    return IndexReport(
        seq=seq,
        a_est=a.estimate,
        e_bt_est=e_bt.estimate,
        e_bm_est=e_bm.estimate,
        a_converged=a.converged,
        e_bt_converged=e_bt.converged,
        theta=theta,
        delta=delta,
        epsilon=epsilon,
        mu=tail_lower_exponent(seq),
        onsets=onsets,
        comparability=log_comparability(seq),
    )
