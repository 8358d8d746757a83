"""Empirical density-bound verification harness.

The harness realizes the quantifiers of the density claim numerically: it
samples points of the remaining set that are outside the exceptional cover
at its horizon, samples axis-aligned rectangles through each point with
diameter below each grid value t, and certifies the observed density ratio
against the piecewise-constant floor.

Applicability per (point, t) pair realizes the "sufficiently small t"
quantifier: when the floor at t is positive, the underlying argument needs
every tested rectangle to miss the cubes below the branch's separation
index, which is guaranteed exactly when t does not exceed the point's
distance to those cubes.  Pairs where t is still too large for the point
are labeled "deferred" and their observations are reported but not counted
as violations of the claim; pairs at flagged (exceptional) points are
labeled and tallied separately, since violations there demonstrate the
necessity of the exclusion rather than contradict the bound.

Everything is deterministic given the seed: the points and each point's
one rectangle stream derive from disjoint substreams of one root seed, and
reports use shortest-round-trip float formatting so artifact bytes are
reproducible.  Both checks build the same plan, whose regimes come from one
kernel pass over all scannable points, and both read the same rectangles:
each point's one draw of its stream (_point_draw), shaped by _shape_rects.
Both measure boxes before rectangles.  The scan sends the
box point +- t of every (point, t) pair through one positivity pass and
builds only the families whose box meets a cube or whose areas the guard
of _guard_bounds cannot vouch for: every other family reads the ratio 1.0
(about 69% of the bench's shelf families).  It then sends the bounding
box of each built family through one descent of the model's cube tree and
one kernel pass over the large cubes kept out of it, and a family's
rectangles descend the tree only when its box meets a tree cube, and meet
only the large cubes its box meets.  The separation check sends the box
point +- t of each applicable pair through one pass over the prefix
cubes, and draws and shapes families 0..k of only the pairs whose box
meets one, k the index of t in the ascending grid.  Each ratio is
exactly rounded, so it does not depend on the run it was measured in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .auxfn import RateFunction, block_start
from .dilation import Rectangle
from .errors import AcceptanceTooLow, OutOfRange
from .setmodel import CompactSetModel, ExceptionalCover, _interior

__all__ = [
    "ScanConfig",
    "PointSample",
    "ScanRow",
    "TSummary",
    "ScanReport",
    "SeparationRow",
    "SeparationReport",
    "EnvelopeRow",
    "EnvelopeReport",
    "sample_points",
    "scan_density_bound",
    "separation_check",
    "scan_deficit_envelope",
]

_ASPECT_FLOOR = 0.05
_ASPECT_CEIL = 20.0
# Rectangles per run of points: a run is drawn into one buffer of this many
# rows (or one point's, when a point alone has more).  A run holds only the
# families the scan builds, nearly all of them busy, and the ratio pass's
# temporaries grow with the busy rows it measures at once.
_RUN_RECTS = 1 << 14


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    """CSV text with "\n" line ends and no quoting: None as an empty cell and
    every other value by str, which for a Python float is repr, the
    shortest string that reads back as the same float."""

    def cell(value) -> str:
        return "" if value is None else str(value)

    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _rows_csv(cls: type, rows: Iterable) -> str:
    """CSV of rows of the dataclass ``cls``: the header lists its field
    names, and each line a row's values in that order."""
    names = [f.name for f in fields(cls)]
    return _csv(",".join(names), map(attrgetter(*names), rows))


def _least(values: Sequence[float]) -> float:
    """The least of the floats, NaN when any of them is NaN: Python's min
    returns the NaN or passes over it depending on where it stands."""
    return math.nan if any(map(math.isnan, values)) else min(values)


@dataclass(frozen=True)
class ScanConfig:
    """Sampling plan: diameter grid, counts, seed, aspect range, cover indexes."""

    t_grid: tuple[float, ...]
    points: int
    rects_per_point: int
    seed: int
    aspect_range: tuple[float, float] = (0.2, 5.0)
    m: int = 3
    s_hi: int = 4

    def __post_init__(self) -> None:
        if not self.t_grid:
            raise ValueError("t grid must be nonempty")
        if any(not (math.isfinite(t) and t > 0.0) for t in self.t_grid):
            raise ValueError(f"t values must be positive and finite, got {self.t_grid}")
        if len(set(self.t_grid)) != len(self.t_grid):
            raise ValueError("t grid must not repeat values")
        if self.points < 1 or self.rects_per_point < 1:
            raise ValueError("point and rectangle counts must be >= 1")
        lo, hi = self.aspect_range
        if not (_ASPECT_FLOOR <= lo <= hi <= _ASPECT_CEIL):
            raise ValueError(
                f"aspect range must sit inside [{_ASPECT_FLOOR}, {_ASPECT_CEIL}], got {self.aspect_range}"
            )
        if not 1 <= self.m <= self.s_hi:
            raise ValueError(f"need 1 <= m <= s_hi, got m = {self.m}, s_hi = {self.s_hi}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class PointSample:
    points: tuple[tuple[float, float], ...]
    acceptance_rate: float
    draws: int


def _substreams(config: ScanConfig, lane: int, count: int) -> list[np.random.SeedSequence]:
    # lane 0: point sampling; lane 1: each point's rectangles
    lanes = np.random.SeedSequence(config.seed).spawn(2)
    return lanes[lane].spawn(count)


def _strictly_inside(model: CompactSetModel, pts: np.ndarray) -> np.ndarray:
    """Which of the (n, 2) points lie strictly inside the outer box (NaN
    coordinates do not)."""
    outer = model.outer
    px, py = pts[:, 0], pts[:, 1]
    return (outer.x.lo < px) & (px < outer.x.hi) & (outer.y.lo < py) & (py < outer.y.hi)


def _scannable_rows(
    model: CompactSetModel, cover: ExceptionalCover, pts: np.ndarray
) -> np.ndarray:
    """Ascending indexes of the (n, 2) points that are scannable at the
    horizon: strictly inside the box, outside the closed cover and outside
    every closed cube.  The batch cover test runs first and the cube test
    only on the points it keeps: both are pure predicates, so the order
    changes the work, not the answer."""
    rows = np.flatnonzero(_strictly_inside(model, pts))
    rows = rows[cover.classify(pts[rows, 0], pts[rows, 1]) == 0]
    return rows[~_in_cubes(model, pts[rows])]


# Largest batch of sample_points, in draws, unless its first batch is larger.
# The working arrays grow with the batch: sampling 1,000 points on the
# deposition layout, where the cover rejects 99.5% of the draws, peaked at
# 904 KiB (tracemalloc) at 8,192 draws, 1,750 KiB at 16,384 and 13 MiB at
# 128,000, against the 2 MiB that the sampler's memory test allows.
_SAMPLE_BATCH = 8192


def sample_points(
    model: CompactSetModel, cover: ExceptionalCover, config: ScanConfig
) -> PointSample:
    """Uniform points of the outer box that are scannable at the horizon
    (see _scannable_rows); reports the acceptance rate.  Raises
    AcceptanceTooLow when the rate sits under 1% after a million draws.

    The points come in batches of (batch, 2) draws.  The first holds
    ``unit`` = max(1024, 4 * points) draws, and each batch that does not
    finish the sample doubles the next, up to ``_SAMPLE_BATCH`` draws or
    ``unit``, whichever is larger, so the low-acceptance deposition layout
    takes a few large steps in place of many small ones.  A batch never
    steps past ``check``, the first multiple of ``unit`` at or past 10**6
    draws, and from there on every batch holds ``unit`` draws.  A (b, 2)
    draw gives the same doubles as consecutive draws of any smaller sizes
    summing to b, and ``draws`` counts from the first draw, so the points,
    the draw count and the rate are those of fixed ``unit`` batches; the
    acceptance test runs at the same draw counts as with them, at ``check``
    and every ``unit`` after.
    """
    if cover.m != config.m or cover.s_hi != config.s_hi:
        raise ValueError(
            f"cover was built for (m, s_hi) = ({cover.m}, {cover.s_hi}), "
            f"config says ({config.m}, {config.s_hi})"
        )
    rng = np.random.Generator(np.random.PCG64(_substreams(config, 0, 1)[0]))
    outer = model.outer
    accepted: list[tuple[float, float]] = []
    draws = 0
    unit = batch = max(1024, 4 * config.points)
    check = -(-(10**6) // unit) * unit
    while len(accepted) < config.points:
        pts = rng.uniform(
            (outer.x.lo, outer.y.lo), (outer.x.hi, outer.y.hi), size=(batch, 2)
        )
        fresh = _scannable_rows(model, cover, pts)[: config.points - len(accepted)]
        accepted += map(tuple, pts[fresh].tolist())
        if len(accepted) == config.points:
            draws_here = draws + int(fresh[-1]) + 1
            return PointSample(tuple(accepted), len(accepted) / draws_here, draws_here)
        draws += batch
        if draws < check:
            batch = min(2 * batch, max(unit, _SAMPLE_BATCH), check - draws)
            continue
        if len(accepted) / draws < 0.01:
            raise AcceptanceTooLow(
                f"{len(accepted)} of {draws} draws accepted; lower m or enlarge the box"
            )
        batch = unit
    raise AssertionError("unreachable")  # pragma: no cover


def _point_draw(seeds: Sequence[np.random.SeedSequence], i: int, k: int, n: int) -> np.ndarray:
    """Point i's (k, 4, n) draw of uniform doubles in [0, 1) from its lane-1
    stream: its first k families in the ascending t grid, n rectangles
    each.  The draw fills the array in order, so a smaller k gives a prefix
    of the same doubles."""
    return np.random.Generator(np.random.PCG64(seeds[i])).random((k, 4, n))


def _shape_rects(
    draw: np.ndarray,
    point: tuple[float, float],
    t: np.ndarray,
    config: ScanConfig,
    model: CompactSetModel,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(k n, 4) array of [x0, x1, y0, y1]: for each of the k values of ``t``
    in turn, n rectangles strictly containing the point with Euclidean
    diagonal < t, log-uniform aspect, clipped to the box, shaped from a
    (k, 4, n) draw of uniform doubles in [0, 1) (_point_draw).  Family j
    takes rows u, aspect, vx and vy of draw[j] and the diameter t[j].  It
    is written into ``out``, a C-contiguous array of that shape, when
    given.  Every step is elementwise, so the families of a slice
    draw[j0:] with t[j0:] are bit for bit those rows of the whole: the
    scan shapes the suffix of families it builds, the separation check
    families 0..k.

    Every coordinate lies in [fl(p - t), fl(p + t)] of its axis: d = fl(t u)
    <= t, height and width are at most d (an aspect of at most 20 keeps the
    width below 0.999 d), the offsets are at most the sides, and float
    addition and subtraction are monotone in each operand.  So every
    rectangle lies in the box point +- t, by which separation_check tests
    the box in place of the rectangles it has not drawn, and _scan_points
    skips the families whose box meets no cube."""
    n = draw.shape[2]
    px, py = point
    t = t[:, None]
    # uniform(lo, hi) is lo + (hi - lo) * d, so one draw serves all four rows
    u, aspect, vx, vy = draw.swapaxes(0, 1)
    u = np.where(u > 0.0, u, 0.5)
    d = t * u
    lo, hi = map(math.log, config.aspect_range)
    aspect = np.exp(lo + (hi - lo) * aspect)
    height = d / np.sqrt(1.0 + aspect * aspect)
    width = aspect * height
    vx = np.where(vx > 0.0, vx, 0.5)
    vy = np.where(vy > 0.0, vy, 0.5)
    x0 = px - width * vx
    y0 = py - height * vy
    outer = model.outer
    rects = np.empty((len(t), n, 4)) if out is None else out.reshape(len(t), n, 4)
    np.maximum(x0, outer.x.lo, out=rects[..., 0])
    np.minimum(x0 + width, outer.x.hi, out=rects[..., 1])
    np.maximum(y0, outer.y.lo, out=rects[..., 2])
    np.minimum(y0 + height, outer.y.hi, out=rects[..., 3])
    return rects.reshape(-1, 4)


def _in_cubes(model: CompactSetModel, pts: np.ndarray) -> np.ndarray:
    """Which of the (n, 2) points lie in or on a cube, from the closed
    meets of the cube tree."""
    hit = np.zeros(len(pts), dtype=bool)
    hit[model.meets(pts[:, [0, 0, 1, 1]])[0]] = True
    return hit


def _ratios(model: CompactSetModel, rects: np.ndarray, family: int) -> np.ndarray:
    """Truncated-set density of each rectangle, from its exactly rounded
    overlap total; the rows form consecutive families of ``family``
    rectangles, measured box first by ``total_overlaps``.  A NaN row's
    total is 0.0 and its ratio NaN.  The ratio formula runs on every row,
    in place in the totals."""
    totals = model.total_overlaps(rects, family)
    x0, x1, y0, y1 = rects.T
    area = x1 - x0
    area *= y1 - y0
    totals /= area
    np.subtract(1.0, totals, out=totals)
    return np.clip(totals, 0.0, 1.0, out=totals)


def _prefix_d2(model: CompactSetModel, points: np.ndarray, cuts: Sequence[int]) -> np.ndarray:
    """Squared Euclidean distance from each of the (n, 2) points to the
    union of cubes 1..p, for each p of the ascending, distinct ``cuts``, as
    an (n, len(cuts)) array, from one kernel pass over cubes 1..cuts[-1].
    A cube's squared distance is dx^2 + dy^2, with dx = max(-wx, 0) of the
    point as a rectangle and dy likewise; each kernel block reduces them to
    its rows' minima over the cuts' segments and then over the prefixes, so
    no (points, cubes) array outlives a block."""
    starts = [0, *cuts[:-1]]

    def mins(wx, wy):
        dx, dy = np.maximum(-wx, 0.0), np.maximum(-wy, 0.0)
        segments = np.minimum.reduceat(dx * dx + dy * dy, starts, axis=1)
        return np.minimum.accumulate(segments, axis=1)

    return model.overlaps(points[:, [0, 0, 1, 1]], mins, slice(cuts[-1]))


def _meets_any(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Which rectangles meet the interior of one of the cubes."""
    return _interior(wx, wy).any(axis=1)


def _meets_prefix(model: CompactSetModel, rects: np.ndarray, prefix: int) -> np.ndarray:
    """Which of the (n, 4) rectangles meet the interior of one of cubes
    1..prefix, from one kernel pass reduced block by block."""
    return model.overlaps(rects, _meets_any, slice(prefix))


def _pair_hits(model: CompactSetModel, box: np.ndarray, rects: np.ndarray, prefix: int) -> int:
    """How many of the rectangles, all lying in ``box``, meet the interior
    of one of cubes 1..prefix: they are tested against only the prefix
    cubes whose interior the box meets, since every other cube misses them
    too (see separation_check)."""
    near = np.flatnonzero(model.overlaps(box[None, :], _interior, slice(prefix))[0])
    return int(np.count_nonzero(model.overlaps(rects, _meets_any, near)))


def _separation_prefix(branch, m: int) -> int | None:
    """Cube prefix a positive-floor branch needs rectangles to miss, for a
    cover that starts at block m; None when the floor is vacuous (<= 0).

    The floor 1 - 4/2^s_next sums the per-block lemma (checked on seeded
    rectangles by ``test_witness_bound_holds_outside`` in
    tests/test_dilation.py): a rectangle R through a point outside
    D_s, the 2^s-dilation of block s, has |R n block s| / |R| < 2/2^s, and
    the sum over s >= s_next is 4/2^s_next.  Block s holds cubes s^s ..
    (s+1)^(s+1) - 1.  Rectangles must miss blocks below s_next, cubes
    1..s_next^s_next - 1, for the sum to start at s_next.  A scanned point
    lies outside D_s only for the cover's blocks s >= m, so when s_next < m
    the lemma says nothing about blocks s_next..m-1, and rectangles must
    miss those too: cubes 1..m^m - 1.  The prefix is therefore
    max(s_next^s_next, m^m) - 1.  A prefix beyond the model's truncation
    cannot be checked, so its pairs can only be deferred."""
    if branch.is_top or branch.floor <= 0.0 or branch.s_next is None:
        return None
    return max(block_start(branch.s_next), block_start(m)) - 1


def _regimes(
    t_sorted: tuple[float, ...],
    prefixes: tuple[int | None, ...],
    trunc: int,
    scannable: bool,
    dist2: dict[int, float] | None,
) -> tuple[str, ...]:
    """A point's regime at each t: exceptional unless it is scannable,
    applicable when the floor needs no prefix missed, deferred when the
    prefix lies beyond the truncation, and otherwise applicable exactly when
    t <= sqrt(dist2[prefix]), its distance to the prefix (``dist2`` maps each
    checkable prefix to the point's squared distance to cubes 1..prefix)."""
    out = []
    for t, prefix in zip(t_sorted, prefixes):
        if not scannable:
            out.append("exceptional")
        elif prefix is None:
            out.append("applicable")
        elif prefix > trunc:
            out.append("deferred")
        else:
            out.append("applicable" if t <= math.sqrt(dist2[prefix]) else "deferred")
    return tuple(out)


@dataclass(frozen=True)
class _ScanPlan:
    """Set-up shared by the scan and the separation check: the ascending t
    grid with its branches and prefixes, which of them are checkable and
    their distinct prefixes in ascending order, the points, their flags,
    each point's regime at each t, and their sample."""

    t_sorted: tuple[float, ...]
    branches: tuple
    prefixes: tuple[int | None, ...]
    checkable: tuple[int, ...]
    cuts: tuple[int, ...]
    points: tuple[tuple[float, float], ...]
    scannable: tuple[bool, ...]
    regimes: tuple[tuple[str, ...], ...]
    sample: PointSample | None


def _scan_plan(
    model: CompactSetModel,
    cover: ExceptionalCover,
    ratefn: RateFunction,
    config: ScanConfig,
    points: Sequence[tuple[float, float]] | None,
) -> _ScanPlan:
    """The plan for ``points`` in either form scan_density_bound takes.
    The regimes of all scannable points come from one kernel pass over the
    largest checkable prefix (_prefix_d2)."""
    t_sorted = tuple(sorted(config.t_grid))
    branches = tuple(ratefn.branch_at(t) for t in t_sorted)
    prefixes = tuple(_separation_prefix(b, config.m) for b in branches)
    checkable = tuple(k for k, p in enumerate(prefixes) if p is not None and p <= model.trunc)
    cuts = tuple(sorted({prefixes[k] for k in checkable}))
    sample = sample_points(model, cover, config) if points is None else None
    pts = sample.points if sample is not None else tuple((float(x), float(y)) for x, y in points)
    if not pts:
        raise ValueError("no points to scan: the point list is empty")
    arr = np.array(pts, dtype=np.float64)
    if sample is not None:
        scannable = (True,) * len(pts)
    else:
        # sample_points refuses any other cover; the regime rule reads blocks
        # config.m..cover.m - 1 as covered, which no block of this one does
        if cover.blocks and cover.m > config.m:
            raise ValueError(
                f"cover starts at block m = {cover.m}, above the config's m = {config.m}"
            )
        outside = np.flatnonzero(~_strictly_inside(model, arr))
        if outside.size:
            raise OutOfRange(f"point {pts[outside[0]]} is not strictly inside the outer box")
        keep = np.zeros(len(pts), dtype=bool)
        keep[_scannable_rows(model, cover, arr)] = True
        scannable = tuple(keep.tolist())
    rows = [i for i, s in enumerate(scannable) if s]
    dist2 = {}
    if cuts and rows:
        mins = _prefix_d2(model, arr[rows], cuts).tolist()
        dist2 = {i: dict(zip(cuts, row)) for i, row in zip(rows, mins)}
    regimes = tuple(
        _regimes(t_sorted, prefixes, model.trunc, s, dist2.get(i)) for i, s in enumerate(scannable)
    )
    return _ScanPlan(t_sorted, branches, prefixes, checkable, cuts, pts, scannable, regimes, sample)


@dataclass(frozen=True)
class ScanRow:
    """Observed minimum over the cumulative rectangle family at one (t, point)."""

    t: float
    point_id: int
    x: float
    y: float
    min_ratio: float
    floor: float
    margin: float
    violations: int
    regime: str


@dataclass(frozen=True)
class TSummary:
    t: float
    floor: float
    applicable: int
    deferred: int
    exceptional: int
    min_margin_applicable: float | None
    violations_applicable: int
    violations_deferred: int
    violations_exceptional: int


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    rows: tuple[ScanRow, ...]
    summaries: tuple[TSummary, ...]
    sample: PointSample | None

    @property
    def acceptance_rate(self) -> float | None:
        return None if self.sample is None else self.sample.acceptance_rate

    @property
    def draws(self) -> int | None:
        return None if self.sample is None else self.sample.draws

    @property
    def violations_applicable(self) -> int:
        return sum(s.violations_applicable for s in self.summaries)

    @property
    def passed(self) -> bool:
        """No violations among applicable pairs at scannable points."""
        return self.violations_applicable == 0

    def to_csv(self) -> str:
        return _rows_csv(ScanRow, self.rows)


# The guard's slack E = _GUARD_REL (L + 2 t) + _GUARD_ABS (see _guard_bounds).
_GUARD_REL = 2.0**-51
_GUARD_ABS = 2.0**-500


def _guard_bounds(
    outer: Rectangle, aspect_range: tuple[float, float], pts: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """(points, K) array: the least u that every rectangle of a family at
    the point pts[i] and diameter t[k] must draw for its areas to be sure
    to be positive, +inf where the point's distance to the box edges does
    not suffice.  The points lie strictly inside the outer box.

    Let L be the largest magnitude of the outer box's coordinates, E =
    2^-51 (L + 2t) + 2^-500, delta the point's least distance to the box's
    four edges, lo and hi the aspect range and c = min(lo, 1) / (2 (1 +
    hi)).  The guard holds when delta >= 4E and c t u >= 4E for the least u
    of the family (a u of 0, which _shape_rects replaces by 0.5, fails it).
    The guard's own float arithmetic moves each of these quantities by a
    relative 2^-50 at most, so they hold exactly with 3.9E in place of 4E.
    Then every rectangle _shape_rects makes for the family has a positive
    area:

    - Sides.  The aspect a lies in [lo, hi] up to the few ulps of log and
      exp, and the height fl(d / fl(sqrt(1 + a^2))) and width fl(a height)
      are at least min(a, 1) d / (1 + a) >= 2 c d up to a relative 2^-45,
      with d = fl(t u) >= t u (1 - 2^-53): t u >= 3.9E / c is a normal
      float.  So both sides are at least 2 c t u (1 - 2^-44) > 7E.
    - x (y likewise).  With w the width and a' = fl(w vx) in [0, w], x0' =
      fl(px - a') and x1' = fl(x0' + w) round values of magnitude at most
      (L + 2t)(1 + 2^-53), so each adds an error of at most E / 2.  Hence
      x1' - x0' >= w - E / 2, x1' - X_lo >= (px - X_lo) + (w - a') - E >=
      delta - E, X_hi - x0' >= X_hi - px >= delta (a' >= 0) and X_hi -
      X_lo >= 2 delta, so the clipped width min(x1', X_hi) - max(x0', X_lo)
      is at least 2.9E, and its float difference at least 2.8E.  Clipping
      zeroes a width only through the last two terms, near an edge, which
      is why delta enters: a large side does not suffice there.
    - Area.  The product of two such widths is at least 7.8E^2 > 2^-998,
      so it does not round to 0.0; an area that overflows reads +inf.

    Where L + 2t or 4E / (c t) overflows, the bound is +inf."""
    lo, hi = aspect_range
    c = min(lo, 1.0) / (2.0 * (1.0 + hi))
    edges = (outer.x.lo, outer.x.hi, outer.y.lo, outer.y.hi)
    px, py = pts.T
    delta = np.minimum.reduce([px - outer.x.lo, outer.x.hi - px, py - outer.y.lo, outer.y.hi - py])
    with np.errstate(over="ignore", divide="ignore"):
        slack = 4.0 * (_GUARD_REL * (max(map(abs, edges)) + 2.0 * t) + _GUARD_ABS)
        least = slack / (c * t)
    return np.where(delta[:, None] < slack, np.inf, least)


def _skip_bounds(model: CompactSetModel, config: ScanConfig, plan: _ScanPlan) -> np.ndarray:
    """(points, K) array: the least u that every rectangle of the point's
    family at t_sorted[k] must draw for the family to be skipped, +inf
    where it must be built.  A family is skipped only when its box
    [fl(p - t), fl(p + t)] has no positive overlap with a cube (one pass of
    every pair's box through ``positive_totals``) and its areas pass the
    guard (_guard_bounds).  Every rectangle lies in the box (_shape_rects),
    so each of its pieces is at most the box's and its total is 0.0, and
    with a positive area its ratio clip(1 - 0 / area) is exactly 1.0; with
    a zero area it would be NaN.  Every pair is built when a floor exceeds
    1.0, since the ratio 1.0 would then count as a violation.

    The boxes nest as t grows and float min, max and subtraction are
    monotone, so the busy families of a point are a suffix of the ascending
    grid."""
    pts = np.array(plan.points)
    t = np.array(plan.t_sorted)
    boxes = pts[:, None, [0, 0, 1, 1]] + np.stack([-t, t, -t, t], axis=1)
    busy = model.positive_totals(boxes.reshape(-1, 4)).reshape(len(pts), len(t))
    built = busy | (max(b.floor for b in plan.branches) > 1.0)
    return np.where(built, np.inf, _guard_bounds(model.outer, config.aspect_range, pts, t))


def _scan_points(
    model: CompactSetModel, config: ScanConfig, plan: _ScanPlan
) -> list[list[tuple[float, int, str]]]:
    """(min_ratio, violations, regime) of each point for each t, cumulatively.

    A point's rectangles of every t come from one (K, 4, n) draw of its own
    stream (_point_draw), but only the families that can read below 1.0 are
    built and measured: _skip_bounds skips a family whose box point +- t
    has no positive overlap with a cube and whose least u clears the guard
    that keeps every area positive, and each of its rectangles reads
    exactly 1.0.  A point builds the suffix of its ascending grid from its
    first family that is not skipped (its busy families are such a suffix),
    shaped from that draw (_shape_rects), so every built rectangle has the
    bits it has among all the grid's families.  With the bench's grid about
    3%, 18% and 71% of the families at t = 0.01, 0.05 and 0.25 are busy on
    the shelves of 3,124 and 46,655 cubes, and 0%, 0% and 60% on the
    deposition layout, so about 69% of the shelf families are never built.  A scan-46k scan
    took 34.5 ms in place of 42.9 ms when every family was built (medians
    of 20 scans in one process), and the bench's scan-46k verdict_s read
    0.0355 s in place of 0.0415 s.

    Built families fill a buffer of _RUN_RECTS rows (or one point's, when a
    point alone has more), which is measured box first (see _ratios and
    ``CompactSetModel.total_overlaps``) when the next point's families do
    not fit.  Each family's least ratio and its count below the floor are
    taken per run, the counts by one comparison of the run per floor: the
    row at t_sorted[k] counts the ratios of families 0..k below the floor
    at t_sorted[k].  A skipped family keeps the least ratio 1.0 and counts
    no violation.  The cumulative minima are np.minimum.accumulate over the
    grid, NaN propagating as the minimum over each cumulative family did.
    The regimes are the plan's."""
    n, grid, count = config.rects_per_point, len(plan.t_sorted), len(plan.points)
    seeds = _substreams(config, 1, count)
    least_u = _skip_bounds(model, config, plan)
    t = np.array(plan.t_sorted)
    floors = np.array([b.floor for b in plan.branches])
    minima = np.ones((count, grid))
    below = np.zeros((count, grid), dtype=np.int64)
    buffer = np.empty((max(_RUN_RECTS, grid * n), 4))
    used, families = 0, []

    def measure() -> None:
        ratios = _ratios(model, buffer[:used], n).reshape(-1, n)
        i, j = np.array(families).T
        minima[i, j] = ratios.min(axis=1)
        counts = np.stack([np.count_nonzero(ratios < f, axis=1) for f in floors], axis=1)
        # family j joins the cumulative family at t_sorted[k] for k >= j
        counts[j[:, None] > np.arange(grid)] = 0
        np.add.at(below, i, counts)
        families.clear()

    for i, point in enumerate(plan.points):
        draw = _point_draw(seeds, i, grid, n)
        built = np.flatnonzero(draw[:, 0].min(axis=1) < least_u[i])
        if not built.size:
            continue
        k0 = int(built[0])
        rows = (grid - k0) * n
        if used + rows > len(buffer):
            measure()
            used = 0
        _shape_rects(draw[k0:], point, t[k0:], config, model, buffer[used : used + rows])
        families += [(i, k) for k in range(k0, grid)]
        used += rows
    if used:
        measure()
    minima = np.minimum.accumulate(minima, axis=1).tolist()
    return [list(zip(*row)) for row in zip(minima, below.tolist(), plan.regimes)]


def scan_density_bound(
    model: CompactSetModel,
    cover: ExceptionalCover,
    ratefn: RateFunction,
    config: ScanConfig,
    *,
    points: Sequence[tuple[float, float]] | None = None,
) -> ScanReport:
    """Certify sampled density ratios against the floor at every grid t.

    ``points`` is None (sample them, so every point is scannable) or a
    sequence of explicit (x, y) points, which are classified, exceptional
    ones flagged rather than rejected.
    Per point, rectangle families are nested across the ascending t grid,
    so the reported minima are non-increasing in t.  A rectangle of zero
    area reads the ratio NaN (see _ratios), and so does its row's min_ratio;
    a NaN among the applicable rows at a t makes that t's
    ``min_margin_applicable`` NaN, whatever the order of the points.
    """
    plan = _scan_plan(model, cover, ratefn, config, points)
    per_point = _scan_points(model, config, plan)

    rows: list[ScanRow] = []
    summaries: list[TSummary] = []
    for k, t in enumerate(plan.t_sorted):
        floor = plan.branches[k].floor
        tallies = {"applicable": [0, 0], "deferred": [0, 0], "exceptional": [0, 0]}
        margins: list[float] = []
        for i, point in enumerate(plan.points):
            min_ratio, violations, regime = per_point[i][k]
            margin = min_ratio - floor
            tallies[regime][0] += 1
            tallies[regime][1] += violations
            if regime == "applicable":
                margins.append(margin)
            rows.append(
                ScanRow(
                    t=t,
                    point_id=i,
                    x=point[0],
                    y=point[1],
                    min_ratio=min_ratio,
                    floor=floor,
                    margin=margin,
                    violations=violations,
                    regime=regime,
                )
            )
        summaries.append(
            TSummary(
                t=t,
                floor=floor,
                applicable=tallies["applicable"][0],
                deferred=tallies["deferred"][0],
                exceptional=tallies["exceptional"][0],
                min_margin_applicable=_least(margins) if margins else None,
                violations_applicable=tallies["applicable"][1],
                violations_deferred=tallies["deferred"][1],
                violations_exceptional=tallies["exceptional"][1],
            )
        )
    return ScanReport(
        config=config, rows=tuple(rows), summaries=tuple(summaries), sample=plan.sample
    )


@dataclass(frozen=True)
class SeparationRow:
    t: float
    s_next: int | None
    prefix: int
    checked_points: int
    checked_rects: int
    violations: int
    deferred_points: int
    exceptional_points: int


@dataclass(frozen=True)
class SeparationReport:
    """Check of the inferred separation hypothesis (labeled as such).

    For applicable (point, t) pairs every drawn rectangle must miss all
    cubes below the branch's separation index; the hypothesis is an
    inference from the diameter bracketing, not a quoted statement, so
    violations here are findings against that inference."""

    config: ScanConfig
    rows: tuple[SeparationRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.violations == 0 for r in self.rows)

    def to_csv(self) -> str:
        return _rows_csv(SeparationRow, self.rows)


def separation_check(
    model: CompactSetModel,
    cover: ExceptionalCover,
    ratefn: RateFunction,
    config: ScanConfig,
    *,
    points: Sequence[tuple[float, float]] | None = None,
) -> SeparationReport:
    """Count rectangle overlaps against the cubes a branch requires missed.

    ``points`` is read as in :func:`scan_density_bound`, and the regimes are
    the scan's, from the same plan.  One pass over the ascending t grid
    reads the plan's regime column at each t.  At the k-th smallest t, when
    its prefix is checkable, an applicable pair's rectangles are the scan's
    cumulative family there, families 0..k of the point's draw, so
    ``checked_rects`` is checked_points (k + 1) rects_per_point.  The box
    [fl(p - t), fl(p + t)] on each axis of every applicable point goes
    through one kernel pass over the prefix cubes (_meets_prefix).  Every
    rectangle of the family lies in that box (see _shape_rects; a family at
    a smaller t lies in its own box, inside this one), and float min, max
    and subtraction are monotone, so a cube whose interior a rectangle meets
    is met by the box too.  A pair whose box meets no prefix cube therefore
    counts its rectangles as checked without drawing them; the others draw
    and shape families 0..k only (_point_draw, _shape_rects), the same bits
    as the scan's, and test them against only the prefix cubes their box
    meets (_pair_hits).  At a t with no checkable prefix every scannable
    point counts as deferred.

    By construction an applicable pair's rectangles cannot reach the
    prefix: a pair is applicable only when t is at most the point's
    distance to cubes 1..prefix, and each rectangle holds the point with a
    diagonal below t, so every point of it lies closer to the point than
    any prefix cube does.  A violation can therefore be counted only
    through float rounding, and the separation row fails only then."""
    plan = _scan_plan(model, cover, ratefn, config, points)
    seeds = _substreams(config, 1, len(plan.points))
    n = config.rects_per_point
    pts = np.array(plan.points)
    t_sorted = np.array(plan.t_sorted)
    rows = []
    for k, (t, branch, prefix) in enumerate(zip(plan.t_sorted, plan.branches, plan.prefixes)):
        checked, violations, deferred = 0, 0, plan.scannable.count(True)
        if k in plan.checkable:
            regimes = [r[k] for r in plan.regimes]
            applicable = [i for i, regime in enumerate(regimes) if regime == "applicable"]
            checked, deferred = len(applicable), regimes.count("deferred")
            if applicable:
                boxes = pts[applicable][:, [0, 0, 1, 1]] + np.array([-t, t, -t, t])
                for j in np.flatnonzero(_meets_prefix(model, boxes, prefix)).tolist():
                    i = applicable[j]
                    draw = _point_draw(seeds, i, k + 1, n)
                    rects = _shape_rects(draw, plan.points[i], t_sorted[: k + 1], config, model)
                    violations += _pair_hits(model, boxes[j], rects, prefix)
        rows.append(
            SeparationRow(
                t=t,
                s_next=branch.s_next,
                prefix=0 if prefix is None else prefix,
                checked_points=checked,
                checked_rects=checked * (k + 1) * n,
                violations=violations,
                deferred_points=deferred,
                exceptional_points=plan.scannable.count(False),
            )
        )
    return SeparationReport(config=config, rows=tuple(rows))


@dataclass(frozen=True)
class EnvelopeRow:
    t: float
    worst_deficit: float | None
    envelope: float
    passed: bool | None
    deficit_product: float | None
    envelope_product: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Worst observed deficits against the deficit envelope, with the
    |log t|-weighted decay trace."""

    rows: tuple[EnvelopeRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_csv(self) -> str:
        return _rows_csv(EnvelopeRow, self.rows)


def scan_deficit_envelope(report: ScanReport, ratefn: RateFunction) -> EnvelopeReport:
    """Per t: worst deficit 1 - min_ratio over applicable rows vs the envelope.

    The deficit bound is the complement of the floor bound, so passing here
    is implied by a passing density scan whose applicable minima are
    numbers; the added value is the decay trace deficit * |log t| against
    envelope * |log t| for plotting.  A NaN min_ratio among the applicable
    rows at a t (a zero-area rectangle) makes its worst deficit NaN and its
    row fail, whatever the order of the rows.
    """
    rows = []
    for summary in report.summaries:
        t = summary.t
        envelope = 1.0 - summary.floor
        applicable = [
            r.min_ratio
            for r in report.rows
            if r.t == t and r.regime == "applicable"
        ]
        if applicable:
            worst = 1.0 - _least(applicable)
            passed = worst <= envelope
            dp = worst * abs(math.log(t))
        else:
            worst, passed, dp = None, None, None
        rows.append(
            EnvelopeRow(
                t=t,
                worst_deficit=worst,
                envelope=envelope,
                passed=passed,
                deficit_product=dp,
                envelope_product=envelope * abs(math.log(t)),
            )
        )
    return EnvelopeReport(rows=tuple(rows))
