#!/usr/bin/env python3
"""densitometer benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One closed loop: a single caller keeps one operation in flight in a worker
process (bench/worker.py) and starts the next when it returns, until
``--seconds`` have passed.  DENSITOMETER_THREADS is removed from the worker's
environment, so the scan runs on one thread.  The last line of stdout is one
JSON object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of bench/tracing.py.  ``--workload all``
runs every workload untraced, one child run each, and prints a table.

Every operation is classified as ok, findings, oom, timeout, error or
mismatch (a verdict that fails this benchmark's checks), from the worker's
artifacts and stderr, never from an exit code: an uncaught MemoryError
exits with 1, the same code as "findings present".  Only ok counts towards
ok_share; any other outcome counts at the timeout in verdict_s.

Run records, spans and worker logs go to bench/out/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import calibration  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CAP_BYTES = 3 * 1024**3
TIMEOUT_S = 60
SETUP_REPEATS = 5
# Seconds of reference kernel (calibration.py) that the worker runs before and
# after each untraced step: CALIBRATE_SETUP_S around every set-up, and on
# host_speed workloads CALIBRATE_SHARE of the previous operation's time around
# each operation, CALIBRATE_FIRST_S around the first.
CALIBRATE_SHARE = 0.08
CALIBRATE_FIRST_S = 0.6
CALIBRATE_SETUP_S = 0.3
NOTE = (
    "Single-operation times on a shared 2-CPU virtual machine varied by up to 25% "
    "(build_cover took 1.04-1.59 s over 7 runs); verdict_s is a median over "
    "every operation of a run, each scaled to reference host speed or to the "
    "reference input work as bench/README.md describes under Scaling."
)

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "fraction"),
)


class Worker:
    """One worker process; spawn-to-ready time is interpreter start plus import."""

    def __init__(self, work, run_dir: Path, trace: bool, name: str) -> None:
        env = {k: v for k, v in os.environ.items() if k != "DENSITOMETER_THREADS"}
        self.stderr_path = run_dir / f"worker-{name}.stderr"
        self._stderr = open(self.stderr_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(BENCH / "worker.py"),
                "--root", str(ROOT), "--workload", work.name,
                "--run-dir", str(run_dir), "--cap-bytes", str(CAP_BYTES),
                "--timeout", str(TIMEOUT_S), "--trace", str(int(trace)), "--name", name,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=ROOT,
        )
        self._buf = b""
        ready = self._read(TIMEOUT_S)
        self.ready_s = time.perf_counter() - start
        if not ready or not ready.get("ready"):
            self.kill()
            raise RuntimeError(f"worker did not start: {ready or self.stderr_text()[-2000:]}")
        self.versions = {"python": ready["python"], "numpy": ready["numpy"]}

    def _read(self, timeout: float) -> dict | None:
        """Next reply line, or None on end of file or timeout."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                if remaining <= 0:
                    return None
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, cmd: dict) -> tuple[dict | None, str]:
        """Send a command; returns (reply, fate) with fate replied, timeout or died.

        The worker ends itself by SIGALRM at the timeout; the parent kills it
        ten seconds later if it has not.
        """
        try:
            self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        reply = self._read(TIMEOUT_S + 10)
        if reply is not None:
            return reply, "replied"
        if self.proc.poll() is None:
            self.kill()
            return None, "timeout"
        self.proc.wait()
        return None, "timeout" if self.proc.returncode == -signal.SIGALRM else "died"

    def stderr_text(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")

    def finish(self) -> None:
        reply, fate = self.request({"cmd": "finish"})
        if fate != "replied":
            self.kill()
            return
        self.proc.wait(timeout=TIMEOUT_S)
        self._stderr.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


def classify(fate: str, stderr: str, verdict: bool | None, killed: bool) -> str:
    """ok, findings, oom, timeout or error, from what the operation left behind."""
    if fate == "timeout":
        return "timeout"
    if "MemoryError" in stderr or killed:
        return "oom"
    if verdict is True:
        return "ok"
    if verdict is False:
        return "findings"
    return "error"


def artifact_digest(directory: Path) -> tuple[str, int]:
    """sha256 over the sorted names and bytes of every file, and the total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def verify_verdict(artifacts: Path) -> bool | None:
    """True when summary.csv passes every step, False when one fails."""
    summary = artifacts / "summary.csv"
    if not summary.is_file():
        return None
    rows = summary.read_text().splitlines()[1:]
    return bool(rows) and all(row.split(",")[1] == "pass" for row in rows)


def verify_problems(artifacts: Path) -> list[str]:
    cover = json.loads((artifacts / "cover.json").read_text())
    if any(
        abs(b["exact_measure"] - b["identity_rhs"]) / b["identity_rhs"] > wl.RESIDUAL_MAX
        for b in cover["blocks"]
    ):
        return ["cover identity residual above 1e-9"]
    return []


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def input_seed(seed: int, k: int) -> int:
    """Input seed of operation k of a run: distinct per operation and per run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def judge(work, worker: Worker, op_dir: Path, reply: dict | None, fate: str) -> dict:
    """Outcome, output digest and failed checks of one operation."""
    reply = reply or {}
    killed = fate == "died" and worker.proc.returncode == -signal.SIGKILL
    stderr = reply.get("error", "")
    if fate != "replied":
        stderr += worker.stderr_text()
    out = {"elapsed": reply.get("elapsed"), "cpu_s": reply.get("cpu_s"), "work": reply.get("work"),
           "digest": reply.get("digest"), "problems": []}
    if work.kind == "verify":
        artifacts = op_dir / "artifacts"
        if (op_dir / "stderr.txt").is_file():
            stderr += (op_dir / "stderr.txt").read_text(errors="replace")
        out["outcome"] = classify(fate, stderr, verify_verdict(artifacts), killed)
        if out["outcome"] == "ok":
            out["digest"], out["artifact_bytes"] = artifact_digest(artifacts)
            out["problems"] = verify_problems(artifacts)
        shutil.rmtree(op_dir, ignore_errors=True)
    else:
        out["outcome"] = classify(fate, stderr, reply.get("passed"), killed)
        out["problems"] = reply.get("problems", [])
        if "artifact_bytes" in reply:
            out["artifact_bytes"] = reply["artifact_bytes"]
    if out["outcome"] != "ok" and stderr:
        out["stderr_tail"] = stderr[-1500:]
    return out


def run_workload(work, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = OUT / f"{work.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {
        "workload": work.name,
        "why": work.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "cap_bytes": CAP_BYTES,
        "timeout_s": TIMEOUT_S,
        "note": NOTE,
    }
    if work.layout == "deposition":
        text, digest = wl.deposition_layout(wl.LAYOUT_SEED, work.trunc)
        (run_dir / "layout.json").write_text(text)
        record["layout_seed"] = wl.LAYOUT_SEED
        record["layout_sha256"] = digest

    workers: list[Worker] = []

    def new_worker() -> Worker:
        worker = Worker(work, run_dir, trace, str(len(workers)))
        workers.append(worker)
        return worker

    def setup(worker: Worker, traced: bool) -> dict:
        kernel_s = 0.0 if trace else CALIBRATE_SETUP_S
        reply, fate = worker.request({"cmd": "setup", "traced": traced, "kernel_s": kernel_s})
        if fate != "replied" or "error" in reply:
            raise RuntimeError(f"set-up failed ({fate}): {reply or worker.stderr_text()[-2000:]}")
        peaks_mb.append(reply["peak_rss_mb"])
        return reply

    ops: list[dict] = []
    worker: Worker | None = None
    peaks_mb: list[float] = []  # each worker's VmHWM, from its replies
    calibrated = work.host_speed and not trace

    def run_op(k: int, traced: bool, repeat_of: int | None = None) -> dict:
        nonlocal worker
        if worker is None:  # the previous one failed an operation
            worker = new_worker()
            setup(worker, False)
        op_seed = input_seed(seed, k if repeat_of is None else repeat_of)
        op_dir = run_dir / f"op{k}"
        kernel_s = 0.0
        if calibrated:
            kernel_s = CALIBRATE_SHARE * (ops[-1]["elapsed"] or 0.0) if ops else CALIBRATE_FIRST_S
        cmd = {"cmd": "op", "id": k, "seed": op_seed, "traced": traced, "dir": str(op_dir),
               "kernel_s": kernel_s}
        reply, fate = worker.request(cmd)
        if reply is not None:
            peaks_mb.append(reply["peak_rss_mb"])
        op = {"id": k, "seed": op_seed, "traced": traced, "repeat_of": repeat_of, "fate": fate,
              "kernel": (reply or {}).get("kernel", [])}
        op.update(judge(work, worker, op_dir, reply, fate))
        first = ops[repeat_of] if repeat_of is not None else None
        if first and op["outcome"] == first["outcome"] == "ok" and op["digest"] != first["digest"]:
            op["problems"].append(f"output differs from operation {repeat_of} on the same input")
        if op["outcome"] == "ok" and op["problems"]:
            op["outcome"] = "mismatch"
        if op["outcome"] not in ("ok", "mismatch"):
            worker.kill()
            worker = None
        elapsed = "" if op["elapsed"] is None else f" {op['elapsed']:.3f} s"
        print(f"{work.name} op {k}{' traced' if traced else ''}: {op['outcome']}{elapsed}", file=sys.stderr)
        return op

    try:
        # set-up: interpreter start plus import, then the workload's own set-up,
        # each in a fresh worker (set-ups repeated in one process slow down);
        # the last worker runs the operations.  The traced run sets up once, traced.
        ready_s, setups = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            if worker is not None:
                worker.finish()
            worker = new_worker()
            ready_s.append(worker.ready_s)
            setups.append(setup(worker, trace))
        record["versions"] = worker.versions
        setup_s = [reply["elapsed"] for reply in setups]
        record["setup"] = {
            "ready_s": ready_s,
            "workload_s": setup_s,
            "kernel_s": [reply["kernel"] for reply in setups],
        }

        start = time.monotonic()
        while len(ops) < (2 if trace else 1) or time.monotonic() - start < seconds:
            k = len(ops)
            if trace and k % 2 == 1:
                # traced twin of the untraced operation before it: same input, same bytes
                ops.append(run_op(k, traced=True, repeat_of=k - 1))
            else:
                ops.append(run_op(k, traced=False))
        # determinism: the first operation's input once more, same bytes out
        repeat = run_op(len(ops), traced=False, repeat_of=0)
        if worker is not None:
            worker.finish()
    finally:
        for w in workers:
            w.kill()

    record["ops"] = ops + [repeat]
    attempted = record["ops"]
    ok = [op for op in attempted if op["outcome"] == "ok"]
    measured = [op["elapsed"] if op["outcome"] == "ok" else TIMEOUT_S for op in attempted]
    if trace:
        spans = []
        for path in sorted(run_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
        metrics = tracing.layer_metrics(spans)
        traced_ops = [op for op in ops if op["traced"]]
        sizes = [op["artifact_bytes"] for op in traced_ops if "artifact_bytes" in op]
        if sizes:
            metrics["cli.artifact_bytes"] = statistics.median(sizes)
        metrics["trace.overhead_s"] = statistics.median(
            measured[op["id"]] - measured[op["repeat_of"]] for op in traced_ops
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        # Scale each operation's time: to reference host speed by the kernel
        # runs just before and after it in the same worker (calibration.py),
        # and to the reference input work on scan-46k (workloads.WORK_REF).
        # A failed operation stays at the timeout.
        def speed(kernel: list[float]) -> float:
            return calibration.REFERENCE_S / statistics.median(kernel)

        counted = []
        for op in attempted:
            if op["outcome"] == "ok":
                op["scale"] = speed(op["kernel"]) if calibrated else 1.0
                if work.work_ref:
                    op["scale"] *= work.work_ref / op["work"]
                counted.append(op["elapsed"] * op["scale"])
            else:
                counted.append(TIMEOUT_S)
        record["scaling"] = {
            "host_speed": calibrated,
            "reference_kernel_s": calibration.REFERENCE_S,
            "work_ref": work.work_ref,
            "measured_verdict_s": statistics.median(measured),
            "measured_setup_s": statistics.median(ready_s) + statistics.median(setup_s),
        }
        metrics = {
            "verdict_s": float(statistics.median(counted)),
            # process start and imports as measured (they do not follow the
            # kernel); the library's own set-up at reference host speed
            "setup_s": statistics.median(ready_s) + statistics.median(
                reply["elapsed"] * speed(reply["kernel"]) for reply in setups
            ),
            "peak_rss_mb": max(peaks_mb),
            "ok_share": len(ok) / len(attempted),
        }
        units = dict(END_TO_END)
    result = {
        "correct": len(ok) == len(attempted),
        "attempted": len(attempted),
        "failed": len(attempted) - len(ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["outcomes"] = dict(Counter(op["outcome"] for op in attempted))
    record["result"] = result
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced in its own child run; one table, one JSON line."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"{name}-seed{seed}-trace0" / "record.json").read_text())
        metrics = results[name]["metrics"]
        cells = "  ".join(
            f"{metric} {metrics[metric]['value']:.4g} {metrics[metric]['unit']}"
            for metric, _ in END_TO_END
        )
        print(f"{name:<11} {cells}  outcomes {record['outcomes']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "densitometer" / "__init__.py").is_file():
        print(f"error: no densitometer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
