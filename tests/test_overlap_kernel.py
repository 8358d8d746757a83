"""The set model's blocked overlap kernel against the arithmetic it replaced.

Every cube query (density ratio, separation hit, closed hit, candidate cubes,
point location, distance) is a reduction of one kernel; each must equal the
unblocked per-query oracle exactly, on seeded rectangles and on rectangles
and points placed on cube edges and corners.
"""

import tracemalloc

import numpy as np
import pytest

from densitometer import setmodel
from densitometer.dilation import Rectangle
from densitometer.scan import _candidate_cubes, _in_cubes, _rect_ratios, _separation_hits
from densitometer.setmodel import density_ratio

import oracles


def _seeded_rects(n, seed):
    """(n, 4) rectangles in the box with sides spread over four decades."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    w, h = 10.0 ** rng.uniform(-4.0, 0.0, (2, n))
    return np.stack(
        [
            np.maximum(cx - w / 2, 0.0),
            np.minimum(cx + w / 2, 1.0),
            np.maximum(cy - h / 2, 0.0),
            np.minimum(cy + h / 2, 1.0),
        ],
        axis=1,
    )


def _edge_rects(model, cubes):
    """Rectangles touching each chosen cube from outside along an edge, sharing
    an edge from inside, meeting it at a corner, and equal to it; clipped to
    the box, degenerate ones dropped."""
    out = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        d = w / 2
        out += [
            [x1, x1 + d, y0, y1],  # touches the right edge from outside
            [x0 - d, x0, y0 + d / 2, y1],  # touches the left edge from outside
            [x0, x1, y1, y1 + d],  # touches the top edge from outside
            [x0, x0 + d, y0, y0 + d],  # shares the lower-left corner from inside
            [x1, x1 + d, y1, y1 + d],  # meets only at the upper-right corner
            [x0, x1, y0, y1],  # the cube itself
            [x0 + d / 2, x1 + d, y0 - d, y0 + d / 2],  # straddles a corner
        ]
    rects = np.clip(np.array(out), 0.0, 1.0)
    return rects[(rects[:, 0] < rects[:, 1]) & (rects[:, 2] < rects[:, 3])]


def _edge_points(model, cubes):
    """Corners, edge midpoints and centers of the chosen cubes."""
    out = []
    for i in cubes:
        x0, y0, w = model.xs[i], model.ys[i], model.sides[i]
        x1, y1 = x0 + w, y0 + w
        xm, ym = x0 + w / 2, y0 + w / 2
        out += [(x0, y0), (x1, y1), (x0, y1), (x1, y0), (x0, ym), (xm, y1), (xm, ym)]
    return [(float(x), float(y)) for x, y in out if 0.0 < x < 1.0 and 0.0 < y < 1.0]


CUBES = (0, 1, 2, 3, 26, 255, 700, 3123)


@pytest.fixture(scope="module")
def rect_sets(canonical_model):
    return {
        "seeded": _seeded_rects(300, 5),
        "edges": _edge_rects(canonical_model, CUBES),
    }


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_ratio_matches_oracle(canonical_model, rect_sets, kind):
    rects = rect_sets[kind]
    every = np.arange(canonical_model.trunc)
    some = np.array([0, 2, 26, 255, 3123])
    for candidates in (every, some, np.array([], dtype=np.int64)):
        got = _rect_ratios(canonical_model, rects, candidates)
        want = oracles.rect_ratios_ref(canonical_model, rects, candidates)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_density_ratio_matches_oracle(canonical_model, rect_sets, kind):
    for x0, x1, y0, y1 in rect_sets[kind]:
        got = density_ratio(canonical_model, Rectangle.from_bounds(x0, x1, y0, y1))
        assert got.overlap_total == oracles.density_overlap_ref(canonical_model, x0, x1, y0, y1)


@pytest.mark.parametrize("kind", ["seeded", "edges"])
def test_separation_hits_match_oracle(canonical_model, rect_sets, kind):
    rects = rect_sets[kind]
    for prefix in (1, 26, 255, canonical_model.trunc):
        got = _separation_hits(canonical_model, rects, prefix)
        assert np.array_equal(got, oracles.separation_hits_ref(canonical_model, rects, prefix))


def test_closed_hits_match_oracle(canonical_model):
    pts = np.array(_edge_points(canonical_model, CUBES))
    rng = np.random.default_rng(11)
    pts = np.concatenate([pts, rng.uniform(0.0, 1.0, (500, 2))])
    got = _in_cubes(canonical_model, pts)
    want = oracles.in_cubes_ref(canonical_model, pts)
    assert np.array_equal(got, want)
    assert got[: len(_edge_points(canonical_model, CUBES))].all()


def test_candidates_match_oracle(canonical_model):
    pts = _edge_points(canonical_model, CUBES) + [(0.5, 0.95), (0.123, 0.987)]
    for point in pts:
        for t in (0.25, 0.05, 0.01, 1e-9):
            got = _candidate_cubes(canonical_model, point, t)
            assert np.array_equal(got, oracles.candidate_cubes_ref(canonical_model, point, t))


def test_locate_matches_oracle(canonical_model):
    for point in _edge_points(canonical_model, CUBES) + [(0.5, 0.95), (0.999, 0.999)]:
        loc, idx = canonical_model.locate_in_cubes(point)
        assert (loc.name.lower(), idx) == oracles.locate_in_cubes_ref(canonical_model, point)


def test_distance_matches_oracle(canonical_model):
    for point in _edge_points(canonical_model, CUBES) + [(0.5, 0.95), (0.999, 0.001)]:
        for upto in (1, 3, 26, 3124):
            got = canonical_model.distance_to_cubes(point, upto)
            assert got == oracles.distance_to_cubes_ref(canonical_model, point, upto)


# -- memory: the kernel never holds a (rectangles x cubes) array ------------------------

# A block holds _BLOCK_CELLS widths; a reduction keeps a handful of block-sized
# float64 temporaries alive at once (wx, wy, their clipped copies, the product).
# Eight of them, plus 1 MB for per-rectangle inputs and outputs, bounds the peak;
# one dense (4000 x 3124) float64 temporary alone is about 100 MB.
_PEAK_BOUND = 8 * 8 * setmodel._BLOCK_CELLS + (1 << 20)


@pytest.mark.parametrize("query", ["ratio", "separation", "closed"])
def test_kernel_memory_is_bounded_by_block(canonical_model, query):
    rects = _seeded_rects(4000, 3)
    every = np.arange(canonical_model.trunc)
    assert _PEAK_BOUND < rects.shape[0] * every.size * 8 / 10
    pts = np.ascontiguousarray(rects[:, [0, 2]])
    run = {
        "ratio": lambda: _rect_ratios(canonical_model, rects, every),
        "separation": lambda: _separation_hits(canonical_model, rects, canonical_model.trunc),
        "closed": lambda: _in_cubes(canonical_model, pts),
    }[query]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"
