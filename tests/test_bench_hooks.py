"""The benchmark reads the library by name; each name it uses must still work.

``Tracer.begin`` installs every wrapper before a traced operation starts and
outside the worker's error handling, so one renamed or deleted target would
fail every traced run rather than one metric.  The worker checks every
operation's scanned points against the cubes and ``cover.locate``, and its
cover against the identity residual; a check that no longer runs, or no
longer rejects a covered point, would pass or fail every operation.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from densitometer.scan import ScanConfig, sample_points

import oracles

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def worker():
    """bench/worker.py, which imports its siblings from bench/."""
    sys.path.insert(0, str(BENCH))
    try:
        return _load("worker")
    finally:
        sys.path.remove(str(BENCH))


def test_every_patch_target_resolves(tracing):
    missing = [
        f"{owner_path}.{attr}"
        for owner_path, attr, *_ in tracing.PATCHES
        if attr not in vars(tracing._owner(owner_path))
    ]
    assert tracing.PATCHES and not missing


def test_worker_point_check(worker, canonical_model, canonical_cover):
    """Sampled points pass; a point on a cube edge fails, and so does the
    centre of a cover rectangle that lies outside every cube, which only the
    cover lookup can reject."""
    config = ScanConfig(t_grid=(0.25, 0.05, 0.01), points=50, rects_per_point=1, seed=3)
    sample = np.array(sample_points(canonical_model, canonical_cover, config).points)
    assert worker._outside_cubes_and_cover(canonical_model, canonical_cover, sample)

    c1 = oracles.cube(canonical_model, 1)
    edge = np.array([[c1.x.hi, (c1.y.lo + c1.y.hi) / 2]])
    assert not worker._outside_cubes_and_cover(canonical_model, canonical_cover, edge)

    rects = np.array([r.bounds for b in canonical_cover.blocks for r in b.union.rects])
    centres = np.column_stack(((rects[:, 0] + rects[:, 1]) / 2, (rects[:, 2] + rects[:, 3]) / 2))
    free = centres[~oracles.in_cubes_ref(canonical_model, centres)][:1]
    assert len(free) == 1
    assert not worker._outside_cubes_and_cover(canonical_model, canonical_cover, free)
    mixed = np.concatenate([sample, free])
    assert not worker._outside_cubes_and_cover(canonical_model, canonical_cover, mixed)


def test_worker_cover_check(worker, canonical_cover):
    assert worker._cover_ok(canonical_cover)
