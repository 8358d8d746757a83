"""Benchmark worker: the process whose operations run.py times.

It caps its own address space, imports densitometer from the checkout's
``src``, reports that it is ready, and then serves one JSON command per line
on stdin: ``setup``, ``op`` and ``finish``.  Replies go out one JSON object
per line on the original stdout; the library's own prints go to stderr or to
per-operation files, so they cannot corrupt the replies.  Each command runs
under ``signal.alarm``: past the timeout SIGALRM ends the process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import numpy as np
import workloads as wl


_kernel_warm = False


def _kernel(seconds: float) -> list[float]:
    """Times of reference kernel runs (calibration.py) for at least ``seconds``."""
    global _kernel_warm
    if seconds > 0 and not _kernel_warm:
        calibration.sample()  # first run in the process, not kept
        _kernel_warm = True
    taken: list[float] = []
    while seconds > 0 and (len(taken) < 2 or sum(taken) < seconds):
        taken.append(calibration.sample())
    return taken


def _cpu_since(before: os.times_result) -> dict:
    """User and system CPU seconds of this process since ``before``."""
    now = os.times()
    return {"user": now.user - before.user, "system": now.system - before.system}


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (VmHWM), in MB.

    ru_maxrss would also count the parent's resident set at fork, which a
    child's high-water mark inherits and keeps through exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reply(channel, obj) -> None:
    channel.write(json.dumps(obj) + "\n")
    channel.flush()


def _outside_cubes_and_cover(model, cover, points) -> bool:
    from densitometer.interval1d import Location

    px, py = points[:, :1], points[:, 1:]
    in_cube = (
        (model.xs <= px) & (px <= model.xs + model.sides)
        & (model.ys <= py) & (py <= model.ys + model.sides)
    ).any(axis=1)
    if in_cube.any():
        return False
    return all(cover.locate((float(x), float(y))) is Location.OUTSIDE for x, y in points)


def _cover_ok(cover) -> bool:
    return all(
        abs(b.exact_measure - b.identity_rhs) / b.identity_rhs <= wl.RESIDUAL_MAX
        for b in cover.blocks
    )


class ScanWorkload:
    """scan-46k and scatter-l4: cover (in set-up or per operation), then the scan."""

    def __init__(self, work: wl.Workload, run_dir: Path) -> None:
        self.work = work
        self.run_dir = run_dir

    def setup(self) -> None:
        import densitometer as D
        from densitometer.cli import parse_seq

        if self.work.layout == "shelf":
            seq = parse_seq(wl.SEQ)
            model = D.build_packing(seq, self.work.trunc, D.Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0))
        else:
            text = (self.run_dir / "layout.json").read_text()
            model = D.CompactSetModel.from_json(json.loads(text))
        selection = D.choose_subsequence(model.seq, D.Schedule(wl.S_MAX), wl.ELL_MAX)
        self.ratefn = D.build_rate_function(selection)
        self.cover = None if self.work.cover_per_op else D.build_cover(model, self.work.m, self.work.s_hi)
        self.model = model

    def op(self, seed: int, op_dir: Path) -> dict:
        import densitometer as D

        config = D.ScanConfig(
            t_grid=wl.T_GRID,
            points=wl.POINTS,
            rects_per_point=wl.RECTS,
            seed=seed,
            m=self.work.m,
            s_hi=self.work.s_hi,
        )
        model, ratefn = self.model, self.ratefn
        cpu, start = os.times(), perf_counter()
        cover = D.build_cover(model, self.work.m, self.work.s_hi) if self.cover is None else self.cover
        report = D.scan_density_bound(model, cover, ratefn, config)
        separation = D.separation_check(model, cover, ratefn, config)
        envelope = D.scan_deficit_envelope(report, ratefn)
        texts = (report.to_csv(), separation.to_csv(), envelope.to_csv())
        elapsed, cpu_s = perf_counter() - start, _cpu_since(cpu)

        points = np.array(sorted({(r.x, r.y) for r in report.rows}))
        problems = []
        if not _cover_ok(cover):
            problems.append("cover identity residual above 1e-9")
        if not _outside_cubes_and_cover(model, cover, points):
            problems.append("a scanned point lies in a cube or in the cover")
        return {
            "elapsed": elapsed,
            "cpu_s": cpu_s,
            "work": wl.scan_work(model.xs, model.ys, model.sides, points),
            "passed": report.passed and separation.passed and envelope.passed,
            "digest": hashlib.sha256((texts[0] + texts[1]).encode()).hexdigest(),
            "problems": problems,
            "artifact_bytes": sum(len(t.encode()) for t in texts),
        }


class VerifyWorkload:
    """verify-l4 and verify-l5: one verify-all through cli.main per operation."""

    def __init__(self, work: wl.Workload, run_dir: Path) -> None:
        self.work = work

    def setup(self) -> None:
        pass

    def op(self, seed: int, op_dir: Path) -> dict:
        from densitometer import cli

        argv = [
            "verify-all", "--seq", wl.SEQ,
            "--level", str(self.work.level), "--m", str(self.work.m),
            "--t", ",".join(map(str, wl.T_GRID)),
            "--points", str(wl.POINTS), "--rects", str(wl.RECTS),
            "--seed", str(seed), "--out-dir", str(op_dir / "artifacts"),
        ]
        op_dir.mkdir(parents=True)
        with open(op_dir / "stdout.txt", "w") as out, open(op_dir / "stderr.txt", "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cpu, start = os.times(), perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:
                    # an uncaught error would end a real CLI process here
                    traceback.print_exc()
                    code = None
                elapsed, cpu_s = perf_counter() - start, _cpu_since(cpu)
        return {"elapsed": elapsed, "cpu_s": cpu_s, "exit": code}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--cap-bytes", type=int, required=True)
    parser.add_argument("--timeout", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--name", required=True, help="worker name for its span file")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (args.cap_bytes, args.cap_bytes))
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    sys.path.insert(0, str(args.root / "src"))
    import densitometer

    src = (args.root / "src").resolve()
    if src not in Path(densitometer.__file__).resolve().parents:
        _reply(channel, {"error": f"densitometer imported from {densitometer.__file__}, not {src}"})
        return 3
    _reply(
        channel,
        {"ready": True, "python": sys.version.split()[0], "numpy": np.__version__},
    )

    work = wl.WORKLOADS[args.workload]
    kind = VerifyWorkload if work.kind == "verify" else ScanWorkload
    state = kind(work, args.run_dir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "finish":
            break
        signal.alarm(args.timeout)
        if tracer and cmd["traced"]:
            tracer.begin(cmd.get("id", "setup"))
        try:
            # the host-speed kernel runs just before and just after the step
            kernel = _kernel(cmd["kernel_s"])
            if cmd["cmd"] == "setup":
                start = perf_counter()
                state.setup()
                reply = {"elapsed": perf_counter() - start}
            else:
                reply = state.op(cmd["seed"], Path(cmd["dir"]))
            reply["kernel"] = kernel + _kernel(cmd["kernel_s"])
        except Exception:
            reply = {"error": traceback.format_exc()}
        finally:
            if tracer:
                tracer.end()
            signal.alarm(0)
        reply["peak_rss_mb"] = _peak_rss_mb()
        _reply(channel, reply)

    if tracer:
        with open(args.run_dir / f"spans-{args.name}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _reply(channel, {"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
