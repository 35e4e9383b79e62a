import numpy as np
import pytest

from prtrack import solvers
from prtrack.solvers import DegenerateInput, hungarian, kmeans2

from oracles import brute_assignment


def test_hungarian_matches_enumeration(rng):
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        costs = rng.normal(size=(m, n))
        got = hungarian(costs)
        best, best_sets = brute_assignment(costs)
        assert got.total_cost == pytest.approx(best, abs=1e-9)
        pairs = [tuple(p) for p in got.pairs.tolist()]
        assert frozenset(pairs) in best_sets
        assert pairs == sorted(pairs)   # in row order
        assert got.pairs.dtype == np.intp and got.pairs.shape[1:] == (2,)


def test_hungarian_tie_break_prefers_low_indices():
    costs = np.zeros((2, 2))
    got = hungarian(costs)
    assert got.pairs.tolist() == [[0, 0], [1, 1]]


def no_pairs(got):
    """An empty assignment: a ``(0, 2)`` intp pairs array, total 0."""
    return (got.pairs.shape == (0, 2) and got.pairs.dtype == np.intp
            and got.total_cost == 0.0)


def test_hungarian_forbid_threshold():
    costs = np.array([[0.1, 0.9], [0.9, 0.1]])
    got = hungarian(costs, forbid_threshold=0.5)
    assert got.pairs.tolist() == [[0, 0], [1, 1]]
    got = hungarian(costs, forbid_threshold=0.05)
    assert no_pairs(got)


def test_hungarian_inf_entries():
    costs = np.array([[np.inf, 1.0], [2.0, np.inf]])
    got = hungarian(costs)
    assert got.pairs.tolist() == [[0, 1], [1, 0]]
    assert got.total_cost == pytest.approx(3.0)
    all_inf = np.full((3, 3), np.inf)
    assert no_pairs(hungarian(all_inf))


def test_hungarian_empty_and_nan():
    assert no_pairs(hungarian(np.zeros((0, 3))))
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
    def solve(costs):
        got = hungarian(costs)
        return got.pairs.tolist(), got.total_cost

    want = [solve(c) for c in matrices]
    searched = []

    class NoExtension:
        def __init__(self, path, *loader_details):
            searched.append(path)

        def find_spec(self, fullname, target=None):
            return None

    monkeypatch.setattr(solvers, "FileFinder", NoExtension)
    monkeypatch.setattr(solvers, "_linear_sum_assignment", None)
    assert [solve(c) for c in matrices] == want
    assert searched
    import scipy.optimize
    assert solvers._linear_sum_assignment is \
        scipy.optimize.linear_sum_assignment


def test_hungarian_rectangular_partial():
    costs = np.array([[1.0, 5.0, 2.0]])
    got = hungarian(costs)
    assert got.pairs.tolist() == [[0, 0]]


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
