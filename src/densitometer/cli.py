"""Command-line front end.

Commands: indices, dilate1d, dilate2d, auxfn, diag, build-set, cover, scan,
verify-all.  Artifacts are JSON or CSV with fixed column order; log-domain
columns carry the suffix ``_log`` (natural log).  Exit codes: 0 success or
zero findings, 1 findings present, 2 malformed input, usage, or out of
memory (one ``error: out of memory`` line).  With a fixed seed every
artifact is byte-reproducible; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

from .auxfn import (
    RateFunction,
    Schedule,
    block_start,
    build_rate_function,
    choose_subsequence,
    little_o_check,
    series_diagnostics,
)
from .dilation import Rectangle, cube_rows, dilate_1d, dilate_2d
from .errors import DensitometerError, Divergent, NeverHolds
from .interval1d import Interval
from .scan import (
    ScanConfig,
    _csv,
    scan_deficit_envelope,
    scan_density_bound,
    separation_check,
)
from .setmodel import CompactSetModel, build_cover, build_packing
from .weights import WeightSequence, analyze

__all__ = ["main"]


# -- input parsing ---------------------------------------------------------------

def parse_seq(text: str) -> WeightSequence:
    """Sequence descriptor: inline JSON, @file, or compact form
    like ``power:c=0.25,p=2`` / ``geometric:c=1,rho=0.5``."""
    text = text.strip()
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
        text = text.strip()
    if text.startswith("{"):
        return WeightSequence.from_json(json.loads(text))
    kind, _, rest = text.partition(":")
    params: dict[str, str] = {}
    for part in rest.split(","):
        if part:
            key, _, value = part.partition("=")
            params[key.strip()] = value.strip()
    try:
        if kind == "power":
            return WeightSequence.power(float(params["c"]), float(params["p"]))
        if kind == "geometric":
            return WeightSequence.geometric(float(params["c"]), float(params["rho"]))
    except KeyError as exc:
        raise ValueError(f"compact sequence form {text!r} lacks parameter {exc.args[0]!r}") from exc
    raise ValueError(
        f"unknown compact sequence form {text!r}; use power:c=..,p=.. or geometric:c=..,rho=.. "
        "or a JSON descriptor"
    )


def _parse_floats(text: str, count: int | None = None) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.split(","))
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _parse_points(text: str) -> list[tuple[float, float]]:
    points = []
    for chunk in text.split(";"):
        x, y = _parse_floats(chunk, 2)
        points.append((x, y))
    return points


def _out_path(args, name: str) -> Path:
    """``name`` under --out-dir unless it is absolute; its directory is made."""
    path = Path(name)
    if not path.is_absolute():
        path = Path(getattr(args, "out_dir", ".")) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write(args, name: str | None, text: str, note: str = "") -> None:
    """Write ``text`` to the artifact path ``name`` (see _out_path) and print
    ``wrote <path>`` and ``note``; nothing when ``name`` is None."""
    if name is not None:
        path = _out_path(args, name)
        path.write_text(text)
        print(f"wrote {path}{note}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- rate-function CSV -----------------------------------------------------------

RATE_HEADER = "t_lo_log,t_hi_log,floor,deficit"


def rate_to_csv(ratefn: RateFunction) -> str:
    return _csv(RATE_HEADER, ratefn.to_rows())


def rate_from_csv(text: str) -> RateFunction:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if header != RATE_HEADER.split(","):
        raise ValueError(f"unexpected rate CSV header: {header}")
    rows = [tuple(float(v) for v in row) for row in reader if row]
    return RateFunction.from_rows(rows)


def _series_csv(reports) -> str:
    return _csv(
        "series,s,term_lo_log,term_hi_log,ratio_to_prev",
        (
            (rep.label, i + 1, term.lo, term.hi, None if i == 0 else rep.ratio_trace[i - 1])
            for rep in reports
            for i, term in enumerate(rep.terms)
        ),
    )


def _littleo_csv(selection, report) -> str:
    return _csv(
        "ell,s_next,breakpoint_log,product",
        (
            (ell, selection.members[ell], selection.log_scales[ell], product)
            for ell, product in enumerate(report.products, start=1)
        ),
    )


# -- commands --------------------------------------------------------------------

def cmd_indices(args) -> int:
    seq = parse_seq(args.seq)
    report = analyze(seq, theta=args.theta, delta=args.delta)
    print(
        f"a = {report.a_est:.6g} (converged: {report.a_converged}), "
        f"e_bt = {report.e_bt_est:.6g} (converged: {report.e_bt_converged}), "
        f"e_bm = {report.e_bm_est:.6g}"
    )
    if report.onsets is not None:
        print(
            f"onsets: area_bound at n = {report.onsets.onset_area_bound}, "
            f"tail_vs_area at n = {report.onsets.onset_tail_vs_area}, "
            f"tail_power at n = {report.onsets.onset_tail_power} "
            f"(epsilon = {report.epsilon:.6g})"
        )
    _write(args, args.out, _json_text(report.to_json()))
    return 0


def cmd_dilate1d(args) -> int:
    try:
        intervals = [Interval(float(a), float(b)) for a, b in json.loads(args.intervals)]
    except TypeError as exc:
        raise ValueError(f"--in must be a JSON list of [lo, hi] pairs: {exc}") from exc
    result = dilate_1d(intervals, args.gamma, allow_gamma_one=args.allow_gamma_one)
    union = [[iv.lo, iv.hi] for iv in result.union]
    print(f"union: {union}")
    print(f"measure: {result.union.measure!r} (identity rhs {result.identity_rhs!r})")
    payload = {
        "gamma": result.gamma,
        "input": [[iv.lo, iv.hi] for iv in intervals],
        "union": union,
        "input_measure": result.input_measure,
        "union_measure": result.union.measure,
        "identity_rhs": result.identity_rhs,
    }
    _write(args, args.out, _json_text(payload))
    return 0


def cmd_dilate2d(args) -> int:
    rows = cube_rows(json.loads(args.cubes))
    result = dilate_2d(rows, args.gamma, allow_gamma_one=args.allow_gamma_one)
    areas = (rows[:, 1] - rows[:, 0]) * (rows[:, 3] - rows[:, 2])
    identity = (2.0 * args.gamma + 1.0) ** 2 * math.fsum(areas.tolist())
    print(f"rectangles: {len(result)} in {len(result.columns)} columns")
    print(f"measure: {result.measure!r} (identity rhs {identity!r})")
    payload = {
        "gamma": float(args.gamma),
        "input": rows.tolist(),
        "rects": [list(r.bounds) for r in result.rects],
        "measure": result.measure,
        "identity_rhs": identity,
    }
    _write(args, args.out, _json_text(payload))
    return 0


def _build_ratefn(seq: WeightSequence, ell_max: int, s_max: int) -> RateFunction:
    selection = choose_subsequence(seq, Schedule(s_max), ell_max)
    return build_rate_function(selection)


def cmd_auxfn(args) -> int:
    seq = parse_seq(args.seq)
    ratefn = _build_ratefn(seq, args.ell_max, args.s_max)
    text = rate_to_csv(ratefn)
    if args.out is not None:
        _write(args, args.out, text, f" ({len(ratefn.branches)} branches)")
    else:
        print(text, end="")
    return 0


def cmd_diag(args) -> int:
    seq = parse_seq(args.seq)
    if args.which == "series":
        reports = series_diagnostics(seq, Schedule(args.s_max), tol=args.tol)
        text = _series_csv(reports)
        for rep in reports:
            stop = rep.stop_s if rep.stop_s is not None else "not reached"
            print(
                f"{rep.label}: stop_s = {stop}, partial sum in "
                f"[{rep.partial_sum.linear_lo!r}, {rep.partial_sum.linear_hi!r}]"
            )
    else:
        selection = choose_subsequence(seq, Schedule(args.s_max), args.ell_max)
        report = little_o_check(selection)
        text = _littleo_csv(selection, report)
        print(f"verdict: {report.verdict}")
    if args.out is not None:
        _write(args, args.out, text)
    else:
        print(text, end="")
    return 0


def cmd_build_set(args) -> int:
    seq = parse_seq(args.seq)
    outer = Rectangle.from_bounds(*_parse_floats(args.outer, 4))
    model = build_packing(seq, args.n, outer)
    print(
        f"packed {model.trunc} cubes; removed area {model.removed_area!r}; "
        f"remaining measure {model.measure_remaining!r}"
    )
    if args.out is not None:
        # streamed: the level-7 set.json is 1.5 GB
        out = _out_path(args, args.out)
        with out.open("w") as fh:
            model.write_json(fh)
        print(f"wrote {out}")
    return 0


def _cover_payload(cover) -> dict:
    return {
        "m": cover.m,
        "s_hi": cover.s_hi,
        "measure_bound": cover.measure_bound,
        "measure_bound_lo_log": cover.measure_bound_bracket.lo,
        "measure_bound_hi_log": cover.measure_bound_bracket.hi,
        "blocks": [
            {
                "s": b.s,
                "gamma": b.gamma,
                "n_lo": b.n_lo,
                "n_hi": b.n_hi,
                "rect_count": len(b.union),
                "exact_measure": b.exact_measure,
                "identity_rhs": b.identity_rhs,
            }
            for b in cover.blocks
        ],
    }


def cmd_cover(args) -> int:
    model = CompactSetModel.from_json(json.loads(Path(args.set).read_text()))
    cover = build_cover(model, args.m, args.s_hi)
    print(f"cover m = {cover.m}, s_hi = {cover.s_hi}: measure bound {cover.measure_bound!r}")
    for b in cover.blocks:
        print(
            f"  block s = {b.s}: cubes {b.n_lo}..{b.n_hi}, {len(b.union)} rectangles, "
            f"measure {b.exact_measure!r}"
        )
    _write(args, args.out, _json_text(_cover_payload(cover)))
    return 0


def _scan_summary_payload(report, separation, envelope) -> dict:
    return {
        **dataclasses.asdict(report.config),
        "acceptance_rate": report.acceptance_rate,
        "draws": report.draws,
        "passed": report.passed and separation.passed and envelope.passed,
        "per_t": [dataclasses.asdict(s) for s in report.summaries],
        "separation_passed": separation.passed,
        "envelope_passed": envelope.passed,
    }


def _scan_config(args, s_hi: int, points=None) -> ScanConfig:
    """The scan plan of the command line; ``points`` counts explicit points,
    which replace the sampled ``--points``."""
    return ScanConfig(
        t_grid=_parse_floats(args.t),
        points=args.points if points is None else len(points),
        rects_per_point=args.rects,
        seed=args.seed,
        aspect_range=_parse_floats(args.aspect, 2),
        m=args.m,
        s_hi=s_hi,
    )


def _run_scan(model, cover, ratefn, config, points=None):
    """Scan, separation check and envelope on one set of points, timed on stderr."""
    start = time.perf_counter()
    report = scan_density_bound(model, cover, ratefn, config, points=points)
    scanned = report.sample.points if points is None else points
    separation = separation_check(model, cover, ratefn, config, points=scanned)
    envelope = scan_deficit_envelope(report, ratefn)
    print(f"scan runtime {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return report, separation, envelope


def cmd_scan(args) -> int:
    model = CompactSetModel.from_json(json.loads(Path(args.set).read_text()))
    cover = build_cover(model, args.m, args.s_hi)
    if args.auxfn:
        ratefn = rate_from_csv(Path(args.auxfn).read_text())
    else:
        ratefn = _build_ratefn(model.seq, args.ell_max, args.s_max)
    points = _parse_points(args.points_at) if args.points_at else None
    config = _scan_config(args, args.s_hi, points)
    report, separation, envelope = _run_scan(model, cover, ratefn, config, points)

    for s in report.summaries:
        print(
            f"t = {s.t}: floor {s.floor}, applicable {s.applicable} "
            f"(violations {s.violations_applicable}), deferred {s.deferred}, "
            f"exceptional {s.exceptional} (violations {s.violations_exceptional})"
        )
    passed = report.passed and separation.passed and envelope.passed
    print(f"separation violations: {sum(r.violations for r in separation.rows)}")
    print("result: " + ("pass" if passed else "FINDINGS"))

    _write(args, args.out, report.to_csv())
    _write(args, args.separation_out, separation.to_csv())
    _write(args, args.envelope_out, envelope.to_csv())
    _write(args, args.summary_out, _json_text(_scan_summary_payload(report, separation, envelope)))
    return 0 if passed else 1


def cmd_verify_all(args) -> int:
    seq = parse_seq(args.seq)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps: list[tuple[str, bool, str]] = []

    report = analyze(seq)
    (out_dir / "indices.json").write_text(_json_text(report.to_json()))
    steps.append(
        (
            "indices",
            True,
            f"a={report.a_est:.6g} e_bt={report.e_bt_est:.6g} e_bm={report.e_bm_est:.6g}",
        )
    )

    selection = choose_subsequence(seq, Schedule(args.s_max), args.ell_max)
    ratefn = build_rate_function(selection)
    (out_dir / "rate.csv").write_text(rate_to_csv(ratefn))
    steps.append(("auxfn", True, f"{len(ratefn.branches)} branches"))

    series = series_diagnostics(seq, Schedule(args.s_max))
    (out_dir / "series.csv").write_text(_series_csv(series))
    series_ok = all(rep.converged_within_horizon for rep in series)
    steps.append(
        (
            "diag-series",
            series_ok,
            " ".join(f"{rep.label}:stop_s={rep.stop_s}" for rep in series),
        )
    )

    littleo = little_o_check(selection)
    (out_dir / "littleo.csv").write_text(_littleo_csv(selection, littleo))
    steps.append(("diag-littleo", littleo.is_decaying, f"verdict={littleo.verdict}"))

    trunc = block_start(args.level + 1) - 1
    outer = Rectangle.from_bounds(*_parse_floats(args.outer, 4))
    model = build_packing(seq, trunc, outer)
    with (out_dir / "set.json").open("w") as fh:
        model.write_json(fh)
    steps.append(("build-set", True, f"trunc={trunc} remaining={model.measure_remaining!r}"))

    cover = build_cover(model, args.m, args.level)
    (out_dir / "cover.json").write_text(_json_text(_cover_payload(cover)))
    steps.append(("cover", True, f"bound={cover.measure_bound!r}"))

    config = _scan_config(args, args.level)
    scan_report, separation, envelope = _run_scan(model, cover, ratefn, config)
    (out_dir / "scan.csv").write_text(scan_report.to_csv())
    (out_dir / "separation.csv").write_text(separation.to_csv())
    (out_dir / "envelope.csv").write_text(envelope.to_csv())
    summary = _scan_summary_payload(scan_report, separation, envelope)
    (out_dir / "scan_summary.json").write_text(_json_text(summary))
    steps.append(
        (
            "scan",
            scan_report.passed,
            f"violations_applicable={scan_report.violations_applicable}",
        )
    )
    steps.append(
        ("separation", separation.passed, f"violations={sum(r.violations for r in separation.rows)}")
    )
    steps.append(("envelope", envelope.passed, f"within_envelope={envelope.passed}"))

    (out_dir / "summary.csv").write_text(
        _csv(
            "step,status,detail",
            ((name, "pass" if ok else "fail", detail) for name, ok, detail in steps),
        )
    )

    all_ok = all(ok for _, ok, _ in steps)
    for name, ok, detail in steps:
        print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
    print("result: " + ("pass" if all_ok else "FINDINGS"))
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------------

def _add_seq(parser) -> None:
    parser.add_argument("--seq", required=True, help="sequence descriptor (JSON, @file, or compact)")


def _add_outs(parser, *flags: str) -> None:
    """Artifact path flags, each off by default, and --out-dir."""
    for flag in flags:
        parser.add_argument(flag, default=None)
    # SUPPRESS keeps the top-level --out-dir value when the subcommand flag is absent
    parser.add_argument("--out-dir", dest="out_dir", default=argparse.SUPPRESS)


def _add_rate_args(parser) -> None:
    """The subsequence and schedule horizons of the rate function."""
    parser.add_argument("--ell-max", type=int, default=9)
    parser.add_argument("--s-max", type=int, default=40)


def _add_scan_args(parser) -> None:
    """The sampling and rate-function flags that scan and verify-all share."""
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--t", default="0.25,0.05,0.01")
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--rects", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--aspect", default="0.2,5")
    _add_rate_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densitometer",
        description="Dilation, convergence-index and density-bound toolkit",
    )
    parser.add_argument("--out-dir", default=".", help="directory for artifact paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="convergence indexes of a weight sequence")
    _add_seq(p)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("dilate1d", help="simultaneous interval dilation")
    p.add_argument("--in", dest="intervals", required=True, help='JSON [[lo,hi],...]')
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--allow-gamma-one", action="store_true")
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_dilate1d)

    p = sub.add_parser("dilate2d", help="simultaneous square dilation")
    p.add_argument("--in", dest="cubes", required=True, help='JSON [[x0,x1,y0,y1],...]')
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--allow-gamma-one", action="store_true")
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_dilate2d)

    p = sub.add_parser("auxfn", help="build the density floor / deficit table")
    _add_seq(p)
    _add_rate_args(p)
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_auxfn)

    p = sub.add_parser("diag", help="series and decay diagnostics")
    p.add_argument("which", choices=["series", "littleo"])
    _add_seq(p)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_rate_args(p)
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("build-set", help="shelf-pack a truncated set model")
    _add_seq(p)
    p.add_argument("--n", type=int, required=True, help="number of cubes to materialize")
    p.add_argument("--outer", default="0,1,0,1", help="outer box x0,x1,y0,y1")
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_build_set)

    p = sub.add_parser("cover", help="build the exceptional cover of a set model")
    p.add_argument("--set", required=True, help="set JSON path")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--s-hi", type=int, default=4)
    _add_outs(p, "--out")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("scan", help="density-bound scan of a set model")
    p.add_argument("--set", required=True)
    p.add_argument("--auxfn", default=None, help="rate CSV path (rebuilt from seq when absent)")
    _add_scan_args(p)
    p.add_argument("--s-hi", type=int, default=4)
    p.add_argument("--points-at", default=None, help='explicit points "x,y;x,y" (flagged, not sampled)')
    _add_outs(p, "--out", "--separation-out", "--envelope-out", "--summary-out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-all", help="chained end-to-end verification")
    _add_seq(p)
    p.add_argument("--level", type=int, default=4, help="cover horizon; trunc = (level+1)^(level+1)-1")
    _add_scan_args(p)
    p.add_argument("--outer", default="0,1,0,1")
    _add_outs(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (Divergent, NeverHolds) as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except (DensitometerError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the line keeps the exception's name, by which bench/run.py labels the run oom
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"error: out of memory ({detail})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
