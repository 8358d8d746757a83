import re

import numpy as np
import pytest

from densitometer import (
    CompactSetModel,
    Rectangle,
    Schedule,
    WeightSequence,
    build_cover,
    build_packing,
    build_rate_function,
    choose_subsequence,
)

UNIT_BOX = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def canonical_seq():
    """w_n^2 = 0.25 / n^2, the worked running example."""
    return WeightSequence.power(0.25, 2.0)


@pytest.fixture(scope="session")
def geometric_seq():
    return WeightSequence.geometric(1.0, 0.5)


@pytest.fixture(scope="session")
def canonical_selection(canonical_seq):
    return choose_subsequence(canonical_seq, Schedule(40), 9)


@pytest.fixture(scope="session")
def canonical_ratefn(canonical_selection):
    return build_rate_function(canonical_selection)


@pytest.fixture(scope="session")
def canonical_model(canonical_seq):
    # blocks through s = 4: trunc = 5^5 - 1
    return build_packing(canonical_seq, 3124, UNIT_BOX)


@pytest.fixture(scope="session")
def canonical_cover(canonical_model):
    return build_cover(canonical_model, 3, 4)


@pytest.fixture(scope="session")
def shelf_46k(canonical_seq):
    """Blocks through s = 5 on the shelf: trunc = 6^6 - 1."""
    return build_packing(canonical_seq, 46_655, UNIT_BOX)


@pytest.fixture(scope="session")
def deposition_model(canonical_seq):
    """Random sequential deposition of cubes 1..3124 (seed 0): in index order
    each cube gets a uniform x and falls until it rests on the floor or on a
    cube below it."""
    trunc = 3124
    rng = np.random.default_rng(0)
    xs, ys, ws = np.empty(trunc), np.empty(trunc), np.empty(trunc)
    for i in range(trunc):
        w = canonical_seq.w(i + 1)
        for _ in range(10_000):
            x = float(rng.uniform(0.0, 1.0 - w))
            below = (x < xs[:i] + ws[:i]) & (xs[:i] < x + w)
            y = float(np.max(ys[:i][below] + ws[:i][below])) if below.any() else 0.0
            if y + w <= 1.0:
                break
        else:
            raise RuntimeError(f"cube {i + 1} found no resting place")
        xs[i], ys[i], ws[i] = x, y, w
    return CompactSetModel(UNIT_BOX, canonical_seq, trunc, xs, ys, ws)


@pytest.fixture(scope="session")
def shelf_46k_cover(shelf_46k):
    return build_cover(shelf_46k, 3, 4)


@pytest.fixture(scope="session")
def deposition_cover(deposition_model):
    return build_cover(deposition_model, 3, 4)


# One outcome line per acceptance criterion at the end of the run.

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for category, verdict in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "ERROR"),
        ("xfailed", "XFAIL (expected failure, see the test docstring)"),
        ("xpassed", "XPASS (unexpected pass)"),
        ("skipped", "SKIPPED"),
    ):
        for report in terminalreporter.stats.get(category, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                outcomes[(match.group(1), match.group(2))] = verdict
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for (number, label), verdict in sorted(outcomes.items()):
        pretty = label.replace("_", " ")
        terminalreporter.write_line(f"criterion {number}: {verdict} - {pretty}")
