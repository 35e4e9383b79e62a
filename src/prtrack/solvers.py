"""Generic numerical subroutines: linear assignment and 2-means clustering.

:func:`hungarian` solves with scipy's ``linear_sum_assignment``, Crouse's
shortest augmenting path algorithm (IEEE TAES 2016) in compiled code.  The
function lives in the extension module ``scipy/optimize/_lsap``, which
needs numpy and nothing else of scipy.  ``from scipy.optimize import
linear_sum_assignment`` also loads scipy's linalg, fft and linprog trees:
0.41-0.64 s and 48 MB more peak resident memory in a process that has
imported this module (2-core Intel Xeon, scipy 1.17).  So the first call
of :func:`hungarian` finds scipy's package directory with
``importlib.util.find_spec``, which does not run ``scipy/__init__.py``,
and loads the extension from its file: 0.5 ms, and no change in peak
memory that ``getrusage`` shows.  It is the function ``scipy.optimize``
exports.  Only a scipy without that file makes :func:`hungarian` import
``scipy.optimize``.  So ``track``, ``merge``, ``eval-track`` and
``pipeline`` load the extension at their first matching, and the other
commands load nothing of scipy.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .core import DataError

__all__ = ["Assignment", "DegenerateInput", "hungarian", "kmeans2"]

# Deterministic tie-break: a vanishing bias that prefers low (row, col)
# pairs among cost-equal assignments without disturbing genuine optima.
_TIE_EPS = 1e-13

_NO_PAIRS = np.zeros((0, 2), dtype=np.intp)


# scipy.optimize._lsap's linear_sum_assignment, once the first call of
# hungarian has loaded it.
_linear_sum_assignment = None


def _load_linear_sum_assignment():
    """scipy's ``linear_sum_assignment`` from its extension module."""
    global _linear_sum_assignment
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        finder = FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "optimize"),
            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.optimize._lsap")
    if spec is None:
        from scipy.optimize import linear_sum_assignment
    else:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        linear_sum_assignment = module.linear_sum_assignment
    _linear_sum_assignment = linear_sum_assignment
    return linear_sum_assignment


class DegenerateInput(DataError):
    """All clustering inputs coincide."""


@dataclass(frozen=True)
class Assignment:
    pairs: np.ndarray  # (M, 2) intp (row, col) pairs, in row order
    total_cost: float


def hungarian(costs: np.ndarray, forbid_threshold: float = np.inf) -> Assignment:
    """Minimum-cost assignment; pairs at or above ``forbid_threshold`` are dropped.

    +inf entries are always forbidden.  Rectangular matrices yield a maximal
    partial assignment.  Ties between cost-equal optima break toward the
    lowest (row, col) pairs.  The pairs are an ``(M, 2)`` intp array in
    increasing row order.  A cost
    matrix that is not 2-D or holds NaN or -inf, and a NaN
    ``forbid_threshold``, raise :class:`ValueError`.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if np.isnan(forbid_threshold):
        raise ValueError("forbid_threshold is NaN")
    if costs.size == 0:
        return Assignment(_NO_PAIRS, 0.0)
    if np.isnan(costs).any():
        raise ValueError("cost matrix contains NaN")
    if np.isneginf(costs).any():
        raise ValueError("cost matrix contains -inf")
    finite = np.isfinite(costs)
    if not finite.any():
        return Assignment(_NO_PAIRS, 0.0)
    scale = float(np.abs(costs[finite]).max())
    sentinel = max(1.0, scale) * 1e6
    work = np.where(finite, costs, sentinel)
    n, m = costs.shape
    tie = np.arange(n * m, dtype=float).reshape(n, m)
    tie *= _TIE_EPS * max(1.0, scale)
    work += tie
    ri, ci = (_linear_sum_assignment or _load_linear_sum_assignment())(work)
    picked = costs[ri, ci]
    keep = np.isfinite(picked) & ~(picked >= forbid_threshold)
    # Plain additions in pair order: np.sum adds pairwise, and sum()
    # compensates from Python 3.12 on, so either could change the total.
    total = 0.0
    for cost in picked[keep].tolist():
        total += cost
    return Assignment(np.array((ri[keep], ci[keep])).T, total)


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
