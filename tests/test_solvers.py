import numpy as np
import pytest

from prtrack import solvers
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


def test_hungarian_rejects_negative_infinity():
    with pytest.raises(ValueError, match="cost matrix contains -inf"):
        hungarian(np.array([[-np.inf, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("costs", [[1.0, 2.0], [], 3.0, np.zeros((2, 2, 2))])
def test_hungarian_rejects_non_2d(costs):
    with pytest.raises(ValueError, match="cost matrix must be 2-D"):
        hungarian(costs)


def test_hungarian_rejects_nan_threshold():
    with pytest.raises(ValueError, match="forbid_threshold is NaN"):
        hungarian(np.eye(2), forbid_threshold=np.nan)


def test_hungarian_falls_back_to_scipy_optimize(monkeypatch, rng):
    """Where scipy has no ``_lsap`` extension file, ``hungarian`` takes the
    solver from ``scipy.optimize``, with the same pairs."""
    matrices = [rng.normal(size=(n, m)) for n, m in ((1, 1), (3, 5), (6, 2))]
    matrices += [np.where(rng.random((5, 5)) < 0.4, np.inf, c)
                 for c in rng.normal(size=(20, 5, 5))]
    matrices += [np.zeros((3, 3)), np.round(rng.normal(size=(6, 6)))]
    want = [hungarian(c) for c in matrices]
    searched = []

    class NoExtension:
        def __init__(self, path, *loader_details):
            searched.append(path)

        def find_spec(self, fullname, target=None):
            return None

    monkeypatch.setattr(solvers, "FileFinder", NoExtension)
    monkeypatch.setattr(solvers, "_linear_sum_assignment", None)
    assert [hungarian(c) for c in matrices] == want
    assert searched
    import scipy.optimize
    assert solvers._linear_sum_assignment is \
        scipy.optimize.linear_sum_assignment


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
