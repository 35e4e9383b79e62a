"""Offline post-processing over finished tracklets: appearance-based
tracklet merging, two-cluster team assignment, and role voting, each over
the columns of the :class:`~prtrack.tracker.TrackletTable` that
``OnlineTracker.finish()`` returns.  Roles, teams and the merge's
surviving ids come back as ``(T,)`` arrays aligned with the table's
rows."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import DataError, Role, _part_distances
from .solvers import hungarian, kmeans2
from .tracker import TrackletTable

__all__ = [
    "TooFewPlayers",
    "MergeConfig",
    "tracklet_cost_matrix",
    "merge_tracklets",
    "assign_teams",
    "assign_roles",
]


class TooFewPlayers(DataError):
    pass


@dataclass(frozen=True)
class MergeConfig:
    merge_threshold: float = 0.3
    max_rounds: int = 10
    foreground_only: bool = False  # ablation: ignore per-part features

    def __post_init__(self):
        if not self.merge_threshold > 0:
            raise ValueError("merge_threshold must be > 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


def tracklet_cost_matrix(tracklets: TrackletTable,
                         cfg: MergeConfig = MergeConfig()) -> np.ndarray:
    """Pairwise appearance distances between tracklet EMA features.

    The diagonal is +inf, and so is every pair whose frame spans
    ``[first, last]`` overlap: a merge of such a pair could put one id
    twice in a frame.  With ``foreground_only``, the part indices count as
    hidden, so the distance reduces to the foreground embedding alone.
    """
    vis = tracklets.vis
    if cfg.foreground_only:
        vis = vis * (np.arange(vis.shape[1]) == 0)
    costs = _part_distances(tracklets.ema, vis, tracklets.ema, vis)
    np.fill_diagonal(costs, np.inf)
    first, last = tracklets.spans()
    costs[(first[:, None] <= last) & (first <= last[:, None])] = np.inf
    return costs


def merge_tracklets(tracklets: TrackletTable,
                    cfg: MergeConfig = MergeConfig()):
    """Iteratively merge appearance-close tracklets.

    Each round solves a linear assignment on the tracklet cost matrix and
    unions accepted pairs (cost below the merge threshold).  Of a pair,
    the tracklet that starts first (the lower row on a tie) keeps its id;
    its row takes the detection-count-weighted mean of the two EMAs, the
    OR of their visibility, the sum of their role logits and the other's
    member rows.  Returns the merged tracklets, in id order once a round
    merged, and the ``(T,)`` surviving id of each input row.  An empty
    input of another type (say ``[]``) comes back as it is, with no ids.
    """
    if not isinstance(tracklets, TrackletTable) and not list(tracklets):
        return tracklets, np.zeros(0, dtype=int)
    current = tracklets
    target = np.arange(len(tracklets))  # each input row's row in current
    for _ in range(cfg.max_rounds):
        if len(current) < 2:
            break
        costs = tracklet_cost_matrix(current, cfg)
        assignment = hungarian(costs, forbid_threshold=cfg.merge_threshold)
        # Unique (low, high) pairs in (cost, pair) order.
        candidates = np.unique(np.sort(assignment.pairs, axis=1), axis=0)
        candidates = candidates[np.argsort(
            costs[candidates[:, 0], candidates[:, 1]], kind="stable")]
        used, accepted = set(), []
        for n, pair in enumerate(candidates.tolist()):
            if used.isdisjoint(pair):
                used.update(pair)
                accepted.append(n)
        if not accepted:
            break
        a, b = candidates[accepted].T
        first, _ = current.spans()
        a_first = first[a] <= first[b]
        keep, drop = np.where(a_first, a, b), np.where(a_first, b, a)
        na, nb = current.count[keep], current.count[drop]
        wa = (na / (na + nb))[:, None, None]
        ema, vis, logits = (current.ema.copy(), current.vis.copy(),
                            current.role_logit_sum.copy())
        ema[keep] = wa * ema[keep] + (1 - wa) * ema[drop]
        vis[keep] = np.maximum(vis[keep], vis[drop])
        logits[keep] = logits[keep] + logits[drop]
        survivor = np.arange(len(current))
        survivor[drop] = keep
        alive = np.delete(np.arange(len(current)), drop)
        target_ids = current.id[survivor[target]]
        current = dataclasses.replace(
            current, ema=ema, vis=vis, role_logit_sum=logits).take(
                alive[np.argsort(current.id[alive])],
                survivor[current.owner()])
        target = np.searchsorted(current.id, target_ids)
    return current, current.id[target]


def assign_roles(tracklets: TrackletTable) -> np.ndarray:
    """``(T,)`` :class:`~prtrack.core.Role` values of the tracklets, row by
    row: argmax of the mean role logits over member detections; ties break
    toward the lowest role index."""
    logits = tracklets.role_logit_sum
    if np.shape(logits) != (len(tracklets), 4):
        raise ValueError("tracklets need (T, 4) role-logit sums")
    mean_logits = logits / np.maximum(1, tracklets.count)[:, None]
    return mean_logits.argmax(axis=1)


def assign_teams(tracklets: TrackletTable, seed: int = 0,
                 roles: np.ndarray | None = None) -> np.ndarray:
    """``(T,)`` two-cluster team labels of the tracklets, row by row, from
    the L2-normalized foreground EMA embeddings of the player tracklets
    (``roles``, by default :func:`assign_roles`).  Labels are reported up
    to permutation; a tracklet that is not a player gets -1."""
    if roles is None:
        roles = assign_roles(tracklets)
    players = roles == Role.PLAYER
    if players.sum() < 2:
        raise TooFewPlayers(f"got {players.sum()} player tracklets")
    emb = tracklets.ema[players, 0]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms
    labels, _ = kmeans2(emb, seed=seed)
    teams = np.full(len(tracklets), -1)
    teams[players] = labels
    return teams
