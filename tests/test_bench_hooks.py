"""The benchmark's tracer patches library attributes by name; each must exist.

``Tracer.begin`` installs every wrapper before a traced operation starts and
outside the worker's error handling, so one renamed or deleted target would
fail every traced run rather than one metric.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves(tracing):
    missing = [
        f"{owner_path}.{attr}"
        for owner_path, attr, *_ in tracing.PATCHES
        if attr not in vars(tracing._owner(owner_path))
    ]
    assert tracing.PATCHES and not missing
