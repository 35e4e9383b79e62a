import numpy as np
import pytest

from prtrack.solvers import Assignment, DegenerateInput, hungarian, kmeans2

from oracles import brute_assignment


def test_hungarian_matches_enumeration(rng):
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        costs = rng.normal(size=(m, n))
        got = hungarian(costs)
        best, best_sets = brute_assignment(costs)
        assert got.total_cost == pytest.approx(best, abs=1e-9)
        assert frozenset(got.pairs) in best_sets
        assert got.pairs == sorted(got.pairs)   # in row order


def test_hungarian_tie_break_prefers_low_indices():
    costs = np.zeros((2, 2))
    got = hungarian(costs)
    assert got.pairs == [(0, 0), (1, 1)]


def test_hungarian_forbid_threshold():
    costs = np.array([[0.1, 0.9], [0.9, 0.1]])
    got = hungarian(costs, forbid_threshold=0.5)
    assert got.pairs == [(0, 0), (1, 1)]
    got = hungarian(costs, forbid_threshold=0.05)
    assert got.pairs == []


def test_hungarian_inf_entries():
    costs = np.array([[np.inf, 1.0], [2.0, np.inf]])
    got = hungarian(costs)
    assert sorted(got.pairs) == [(0, 1), (1, 0)]
    assert got.total_cost == pytest.approx(3.0)
    all_inf = np.full((3, 3), np.inf)
    assert hungarian(all_inf) == Assignment([], 0.0)


def test_hungarian_empty_and_nan():
    assert hungarian(np.zeros((0, 3))) == Assignment([], 0.0)
    with pytest.raises(ValueError):
        hungarian(np.array([[np.nan]]))


def test_hungarian_rectangular_partial():
    costs = np.array([[1.0, 5.0, 2.0]])
    got = hungarian(costs)
    assert got.pairs == [(0, 0)]


def test_kmeans2_separable(rng):
    a = rng.normal(size=(20, 3)) + np.array([10.0, 0, 0])
    b = rng.normal(size=(20, 3)) - np.array([10.0, 0, 0])
    pts = np.vstack([a, b])
    labels, centers = kmeans2(pts, seed=0)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]
    assert centers.shape == (2, 3)


def test_kmeans2_deterministic(rng):
    pts = rng.normal(size=(30, 4))
    l1, c1 = kmeans2(pts, seed=7)
    l2, c2 = kmeans2(pts, seed=7)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(c1, c2)


def test_kmeans2_degenerate():
    with pytest.raises(DegenerateInput):
        kmeans2(np.ones((5, 2)), seed=0)
    with pytest.raises(ValueError):
        kmeans2(np.ones((1, 2)), seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans2_rejects_non_finite_points(rng, bad):
    pts = rng.normal(size=(10, 3))
    pts[4, 1] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        kmeans2(pts, seed=0)
