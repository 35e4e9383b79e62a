"""Generic numerical subroutines: linear assignment and 2-means clustering.

``scipy.optimize`` is imported inside :func:`hungarian`, on its first call,
not with this module. Importing it loads scipy's linalg, fft and linprog
trees, about 0.6 s and 49 MB on a 2-core Intel Xeon: most of a fresh
``prtrack`` process's start-up. So only the commands that assign load it:
``track``, ``merge``, ``eval-track`` and ``pipeline``. ``generate``,
``train``, ``embed``, ``cluster``, ``eval-reid`` and ``report`` never do.
After the first call the import is a ``sys.modules`` lookup, about 1 us
against about 50 us for ``hungarian`` on a small matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError

__all__ = ["Assignment", "DegenerateInput", "hungarian", "kmeans2"]

# Deterministic tie-break: a vanishing bias that prefers low (row, col)
# pairs among cost-equal assignments without disturbing genuine optima.
_TIE_EPS = 1e-13


class DegenerateInput(DataError):
    """All clustering inputs coincide."""


@dataclass(frozen=True)
class Assignment:
    pairs: list[tuple[int, int]]
    total_cost: float


def hungarian(costs: np.ndarray, forbid_threshold: float = np.inf) -> Assignment:
    """Minimum-cost assignment; pairs at or above ``forbid_threshold`` are dropped.

    +inf entries are always forbidden.  Rectangular matrices yield a maximal
    partial assignment.  Ties between cost-equal optima break toward the
    lowest (row, col) pairs.  Pairs come in increasing row order.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0:
        return Assignment([], 0.0)
    if np.isnan(costs).any():
        raise ValueError("cost matrix contains NaN")
    finite = np.isfinite(costs)
    if not finite.any():
        return Assignment([], 0.0)
    scale = float(np.abs(costs[finite]).max())
    sentinel = max(1.0, scale) * 1e6
    work = np.where(finite, costs, sentinel)
    n, m = costs.shape
    tie = np.arange(n * m, dtype=float).reshape(n, m)
    tie *= _TIE_EPS * max(1.0, scale)
    work += tie
    from scipy.optimize import linear_sum_assignment
    ri, ci = linear_sum_assignment(work)
    picked = costs[ri, ci]
    keep = np.isfinite(picked) & ~(picked >= forbid_threshold)
    # Plain additions in pair order: np.sum adds pairwise, and sum()
    # compensates from Python 3.12 on, so either could change the total.
    total = 0.0
    for cost in picked[keep].tolist():
        total += cost
    return Assignment(list(zip(ri[keep].tolist(), ci[keep].tolist())), total)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(points[rng.choice(n, p=probs)])
    return np.stack(centers)


def _lloyd(points: np.ndarray, centers: np.ndarray,
           max_iter: int = 100, tol: float = 1e-8):
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(centers.shape[0]):
            mask = labels == j
            if mask.any():
                new_centers[j] = points[mask].mean(axis=0)
        shift = np.linalg.norm(new_centers - centers)
        centers = new_centers
        if shift < tol:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, centers, inertia


def kmeans2(points: np.ndarray, seed: int = 0, restarts: int = 10):
    """Two-cluster k-means with k-means++ seeding and best-of-restarts.

    Returns ``(labels, centroids)``.  Raises :class:`DegenerateInput` when
    all points coincide.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least two points")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    if np.allclose(points, points[0]):
        raise DegenerateInput("all points identical")
    master = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(master.integers(2**63))
        centers0 = _kmeanspp_init(points, 2, rng)
        labels, centers, inertia = _lloyd(points, centers0)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, _ = best
    return labels.astype(int), centers
