"""Host-speed calibration for the densitometer benchmark.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.5x, in phases from seconds to minutes.  A median over the operations of a
run cannot average out a phase that is longer than the run.  So the worker
also times this fixed reference kernel just before and just after every
untraced set-up, and every untraced operation of the workloads whose time is
CPU-bound Python and numpy (``Workload.host_speed``).  run.py reports that
step's time at reference speed:

    reported = measured * REFERENCE_S / median(kernel times around the step)

The kernel does not touch densitometer, so a change to the library moves the
reported times exactly as it moves the measured ones; only the host's speed
cancels.  Its two parts mirror the library's compute: rectangle-by-cube
overlaps in numpy, as in the scan, and Python tuples, sorting and dicts, as
in interval atoms and dilation.  Both the measured times and the kernel
times go into each run's record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the reference host (2-vCPU Intel Xeon virtual
# machine at 2.0 GHz, Python 3.11, numpy 2.4), so reported times read close to
# measured ones there.
REFERENCE_S = 0.07

_rng = np.random.default_rng(0)
_RECTS = _rng.uniform(0.0, 1.0, (500, 4))
_CUBES = _rng.uniform(0.0, 1.0, (3, 1200))
_KEYS = [float(v) for v in _rng.uniform(0.0, 1.0, 3000)]


def _numpy_part() -> float:
    """Rectangle-by-cube overlaps, as in the scan, in blocks of 16 cubes.

    Blocks keep every temporary under glibc's smallest mmap threshold
    (128 KiB), so the kernel hardly faults fresh pages in and its time does
    not depend on the allocator's state, which the library's own large
    arrays change from one operation to the next.
    """
    x0, x1 = _RECTS[:, :1], _RECTS[:, :1] + _RECTS[:, 1:2] * 0.1
    y0, y1 = _RECTS[:, 2:3], _RECTS[:, 2:3] + _RECTS[:, 3:] * 0.1
    total = 0.0
    for lo in list(range(0, _CUBES.shape[1], 16)) * 4:
        cx, cy, cw = _CUBES[:, lo : lo + 16]
        cw = cw * 0.05
        wx = np.minimum(x1, cx + cw) - np.maximum(x0, cx)
        wy = np.minimum(y1, cy + cw) - np.maximum(y0, cy)
        total += float((np.maximum(wx, 0.0) * np.maximum(wy, 0.0)).sum())
    return total


def _python_part() -> float:
    """Sorting, merging and ranking tuples of floats, as in interval atoms."""
    total = 0.0
    for _ in range(10):
        pairs = sorted((k, 1.0 - k) for k in _KEYS)
        merged: list[tuple[float, float]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        rank = {key: r for r, key in enumerate(_KEYS)}
        total += sum(rank[k] for k, _ in pairs[::7]) + len(merged)
    return total


def sample() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    start = perf_counter()
    _numpy_part()
    _python_part()
    return perf_counter() - start
