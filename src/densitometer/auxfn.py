"""Step-rate machinery on the super-exponential block schedule.

The schedule n(s) = s^s splits cube indices into blocks; block s carries the
scale 2^s * w(last index of block s).  A greedy pass keeps the schedule
indices at which that scale has not increased since the previous kept index,
and the kept scales become the breakpoints of a piecewise-constant density
floor: between consecutive kept scales the floor is 1 - 4/2^(next kept s),
above the first kept scale it is -1 exactly, and the deficit is 1 minus the
floor everywhere.  Series and decay diagnostics over the same schedule
report finite-horizon convergence evidence with certified term brackets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import BelowHorizon, Divergent, HorizonExhausted, OutOfRange
from .logdomain import LogBracket, log_sum
from .weights import WeightSequence, tail_sum

__all__ = [
    "Schedule",
    "block_start",
    "SubsequenceSelection",
    "Branch",
    "RateFunction",
    "SeriesReport",
    "LittleOReport",
    "log_block_scale",
    "choose_subsequence",
    "build_rate_function",
    "series_diagnostics",
    "little_o_check",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Schedule:
    """Block schedule n(s) = s^s for s = 1..s_max."""

    s_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.s_max, int) or self.s_max < 1:
            raise ValueError(f"schedule horizon must be an integer >= 1, got {self.s_max}")

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self.s_max + 1))


def block_start(s: int) -> int:
    """n(s) = s^s, the first cube of block s; block s holds cubes
    n(s)..n(s+1) - 1."""
    return s**s


def log_block_scale(seq: WeightSequence, s: int) -> float:
    """Natural log of the block scale 2^s * w(n(s+1) - 1)."""
    if s < 1:
        raise OutOfRange(f"schedule index must be >= 1, got {s}")
    n_hi = block_start(s + 1) - 1
    return s * _LOG2 + 0.5 * seq.log_w2(n_hi)


@dataclass(frozen=True)
class SubsequenceSelection:
    """Kept schedule indices with their (non-increasing) log block scales."""

    members: tuple[int, ...]
    log_scales: tuple[float, ...]
    s_scanned: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("selection must keep at least one index")
        if len(self.members) != len(self.log_scales):
            raise ValueError("members and log_scales must align")
        if any(b <= a for a, b in zip(self.members, self.members[1:])):
            raise ValueError("kept indices must be strictly increasing")
        if any(b > a for a, b in zip(self.log_scales, self.log_scales[1:])):
            raise ValueError("kept log scales must be non-increasing")

    def __len__(self) -> int:
        return len(self.members)


def choose_subsequence(
    seq: WeightSequence,
    schedule: Schedule,
    ell_max: int,
) -> SubsequenceSelection:
    """Greedily keep schedule indices at which the block scale stops rising.

    The first kept index is 1; after a kept index, the next kept one is the
    first s whose scale is less than or equal to the last kept scale (exact
    ties are kept).  Raises HorizonExhausted when the schedule horizon, or
    the data of an explicit sequence, runs out before ``ell_max`` indices
    are kept; the message carries the offending scales.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    try:
        members = [1]
        scales = [log_block_scale(seq, 1)]
    except OutOfRange as exc:
        raise HorizonExhausted(f"cannot evaluate the first block scale: {exc}") from exc
    s = 1
    data_ended = False
    while len(members) < ell_max and s < schedule.s_max:
        s += 1
        try:
            lb = log_block_scale(seq, s)
        except OutOfRange:
            data_ended = True
            s -= 1
            break
        if lb <= scales[-1]:
            members.append(s)
            scales.append(lb)
    if len(members) < ell_max:
        reason = "sequence data ends" if data_ended else "no admissible scale in the schedule"
        raise HorizonExhausted(
            f"kept {len(members)} of {ell_max} indices scanning up to s = {s}: {reason}; "
            f"last kept index {members[-1]} with log scale {scales[-1]:.6g}"
        )
    return SubsequenceSelection(tuple(members), tuple(scales), s)


def _branch_values(s_next: int) -> tuple[float, float]:
    # deficit 4/2^s is an exact dyadic; the floor 1 - deficit is exact for s <= 54
    deficit = math.ldexp(1.0, 2 - s_next)
    return 1.0 - deficit, deficit


@dataclass(frozen=True)
class Branch:
    """One constant piece: floor/deficit on log-t range [t_lo_log, t_hi_log)."""

    t_lo_log: float
    t_hi_log: float
    floor: float
    deficit: float
    s_next: int | None

    @property
    def is_top(self) -> bool:
        return self.s_next is None


@dataclass(frozen=True)
class RateFunction:
    """Piecewise-constant density floor with its deficit (1 - floor).

    Branches are stored with ascending log-t ranges that tile
    [horizon_log, inf); the last branch is the open-ended top piece with
    floor -1.  Queries below horizon_log raise BelowHorizon.
    """

    branches: tuple[Branch, ...]
    _lows: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("a rate function needs at least the top branch")
        bs = self.branches
        for a, b in zip(bs, bs[1:]):
            if a.t_hi_log != b.t_lo_log:
                raise ValueError("branches must tile contiguously")
            if not a.floor > b.floor:
                raise ValueError("floors must decrease strictly toward larger t")
        for b in bs:
            if not b.t_lo_log < b.t_hi_log:
                raise ValueError("branches must cover nonempty log-t ranges")
            if b.floor != 1.0 - b.deficit:
                raise ValueError("floor and deficit must sum to one")
        top = bs[-1]
        if not (top.is_top and top.t_hi_log == math.inf and top.floor == -1.0):
            raise ValueError("last branch must be the open-ended top piece with floor -1")
        object.__setattr__(self, "_lows", tuple(b.t_lo_log for b in bs))

    @property
    def horizon_log(self) -> float:
        """Smallest covered log t; queries below raise BelowHorizon."""
        return self.branches[0].t_lo_log

    def branch_at_log(self, log_t: float) -> Branch:
        if math.isnan(log_t):
            raise OutOfRange("log t must not be NaN")
        i = bisect_right(self._lows, log_t) - 1
        if i < 0:
            raise BelowHorizon(
                f"log t = {log_t:.6g} is below the constructed horizon "
                f"{self.horizon_log:.6g}; extend the selection"
            )
        return self.branches[i]

    def branch_at(self, t: float) -> Branch:
        if not (math.isfinite(t) and t > 0.0):
            raise OutOfRange(f"t must be positive and finite, got {t}")
        return self.branch_at_log(math.log(t))

    def floor_at(self, t: float) -> float:
        return self.branch_at(t).floor

    def to_rows(self) -> tuple[tuple[float, float, float, float], ...]:
        """Rows (t_lo_log, t_hi_log, floor, deficit), top branch first."""
        return tuple((b.t_lo_log, b.t_hi_log, b.floor, b.deficit) for b in reversed(self.branches))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "RateFunction":
        branches = []
        for t_lo, t_hi, floor, deficit in rows:
            if not (math.isfinite(floor) and math.isfinite(deficit)):
                raise ValueError(f"floor and deficit must be finite, got {floor}, {deficit}")
            if math.isinf(t_hi):
                s_next = None
                if (floor, deficit) != (-1.0, 2.0):
                    raise ValueError("top row must carry floor -1 and deficit 2")
            else:
                # log2 takes positive deficits only; any other is no 2^(2 - s)
                s_next = round(2.0 - math.log2(deficit)) if deficit > 0.0 else None
                if (
                    s_next is None
                    or math.ldexp(1.0, 2 - s_next) != deficit
                    or 1.0 - deficit != floor
                ):
                    raise ValueError(f"row values are not an exact dyadic pair: {floor}, {deficit}")
            branches.append(Branch(float(t_lo), float(t_hi), float(floor), float(deficit), s_next))
        branches.sort(key=lambda b: b.t_lo_log)
        return cls(tuple(branches))


def build_rate_function(selection: SubsequenceSelection) -> RateFunction:
    """Rate function of a selection: branch ell covers the log-t range
    [scale(ell+1), scale(ell)) with floor 1 - 4/2^member(ell+1); exact-tie
    (empty) ranges fold into the following branch."""
    members, scales = selection.members, selection.log_scales
    branches = [Branch(scales[0], math.inf, -1.0, 2.0, None)]
    for ell in range(1, len(members)):
        lo, hi = scales[ell], scales[ell - 1]
        if lo == hi:
            continue
        floor, deficit = _branch_values(members[ell])
        branches.append(Branch(lo, hi, floor, deficit, members[ell]))
    branches.sort(key=lambda b: b.t_lo_log)
    return RateFunction(tuple(branches))


@dataclass(frozen=True)
class SeriesReport:
    """Finite-horizon trace of one block series."""

    label: str
    terms: tuple[LogBracket, ...]
    partial_sum: LogBracket
    stop_s: int | None
    ratio_trace: tuple[float, ...]
    tol: float

    @property
    def converged_within_horizon(self) -> bool:
        return self.stop_s is not None


def _term_ratio(prev: LogBracket, cur: LogBracket) -> float:
    if cur.is_zero:
        return 0.0
    if prev.is_zero:
        return math.inf
    return math.exp(cur.mid - prev.mid)


def series_diagnostics(
    seq: WeightSequence,
    schedule: Schedule,
    tol: float = 1e-12,
) -> tuple[SeriesReport, SeriesReport, SeriesReport]:
    """Convergence evidence for the three block series over the schedule.

    The series terms at block s are 2^s * tail(n(s)), 2^s * sqrt(tail(n(s)))
    and 4^s * tail(n(s)), each a certified bracket.  Every series accumulates
    until its term is certainly below ``tol`` (the stop block is recorded and
    included in the partial sum) or the schedule horizon is reached, in which
    case stop_s is None and the trace is all the evidence there is.  Raises
    Divergent if a series' terms fail to decrease over five consecutive
    blocks.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    log_tol = math.log(tol)
    specs = (
        ("doubling_tail", 1, False),
        ("doubling_root_tail", 1, True),
        ("quadrupling_tail", 2, False),
    )
    terms: tuple[list[LogBracket], ...] = ([], [], [])
    stops: list[int | None] = [None, None, None]
    rises = [0, 0, 0]
    for s in schedule:
        if all(stop is not None for stop in stops):
            break
        tail = tail_sum(seq, block_start(s))
        root = tail.sqrt()
        for k, (label, scale, use_root) in enumerate(specs):
            if stops[k] is not None:
                continue
            term = (root if use_root else tail).scaled(scale * s * _LOG2)
            prev = terms[k][-1] if terms[k] else None
            terms[k].append(term)
            if term.certainly_lt(log_tol):
                stops[k] = s
                continue
            if prev is not None and term.mid >= prev.mid:
                rises[k] += 1
                if rises[k] >= 5:
                    raise Divergent(
                        f"{label}: terms non-decreasing over five consecutive blocks ending at s = {s}"
                    )
            else:
                rises[k] = 0
    reports = []
    for k, (label, _, _) in enumerate(specs):
        tk = terms[k]
        partial = LogBracket(log_sum(t.lo for t in tk), log_sum(t.hi for t in tk))
        ratios = tuple(_term_ratio(a, b) for a, b in zip(tk, tk[1:]))
        reports.append(SeriesReport(label, tuple(tk), partial, stops[k], ratios, tol))
    return tuple(reports)  # type: ignore[return-value]


@dataclass(frozen=True)
class LittleOReport:
    """Deficit times |log t| at the kept breakpoints, with a tail verdict."""

    products: tuple[float, ...]
    verdict: str

    @property
    def is_decaying(self) -> bool:
        return self.verdict == "decaying"


def little_o_check(selection: SubsequenceSelection) -> LittleOReport:
    """Trace of deficit * |log t| at the left endpoint of each branch.

    Product ell (1-based) evaluates the branch that begins at the
    (ell+1)-th kept index: its exact dyadic deficit times the magnitude of
    the kept log scale there.  Verdict "decaying" when the later half of
    the trace is strictly decreasing, "diverging" otherwise, "withheld"
    with fewer than two products.
    """
    members, scales = selection.members, selection.log_scales
    products = tuple(
        math.ldexp(1.0, 2 - members[ell]) * abs(scales[ell]) for ell in range(1, len(members))
    )
    if len(products) < 2:
        return LittleOReport(products, "withheld")
    need = max(2, (len(products) + 1) // 2)
    tail = products[-need:]
    decaying = all(b < a for a, b in zip(tail, tail[1:]))
    return LittleOReport(products, "decaying" if decaying else "diverging")
