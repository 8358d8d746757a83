import random

import pytest

from densitometer.interval1d import DisjointIntervalSet, Interval, Location, atoms

import oracles


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_locate():
    iv = Interval(0.0, 1.0)
    assert iv.locate(0.5) is Location.INSIDE
    assert iv.locate(0.0) is Location.BOUNDARY
    assert iv.locate(1.0) is Location.BOUNDARY
    assert iv.locate(-0.1) is Location.OUTSIDE


def test_disjoint_set_rejects_overlap():
    with pytest.raises(ValueError):
        DisjointIntervalSet([Interval(0.0, 1.0), Interval(0.5, 2.0)])


def test_disjoint_set_allows_touching():
    s = DisjointIntervalSet([Interval(0.0, 1.0), Interval(1.0, 2.0)])
    assert len(s) == 2
    assert s.measure == 2.0
    assert s.locate(1.0) is Location.BOUNDARY


def test_atoms_partition_and_labels():
    ivs = [Interval(0.0, 2.0), Interval(1.0, 3.0)]
    dec = atoms(ivs)
    assert dec.measure == pytest.approx(3.0)
    assert [(c.cell.as_pair(), c.label) for c in dec.cells] == [
        ((0.0, 1.0), frozenset({0})),
        ((1.0, 2.0), frozenset({0, 1})),
        ((2.0, 3.0), frozenset({1})),
    ]


def test_atoms_measure_is_input_union():
    rng = random.Random(9)
    for _ in range(30):
        ivs = []
        for _ in range(rng.randrange(1, 10)):
            lo = rng.uniform(0.0, 4.0)
            ivs.append(Interval(lo, lo + rng.uniform(0.05, 2.0)))
        want = sum(hi - lo for lo, hi in oracles._merge(iv.as_pair() for iv in ivs))
        assert atoms(ivs).measure == pytest.approx(want, rel=1e-12)
