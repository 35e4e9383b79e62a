"""Offline post-processing over finished tracklets: appearance-based
tracklet merging, two-cluster team assignment, and role voting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DataError, PartFeatureSet, Role, Tracklet,
                   part_distance_matrix)
from .simgen import DetectionTable
from .solvers import hungarian, kmeans2

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


def _merge_features(t: Tracklet, foreground_only: bool) -> PartFeatureSet:
    f = t.ema_features
    if not foreground_only:
        return f
    # Foreground-only variant: hide the per-part indices so the distance
    # reduces to the foreground embedding alone.
    vis = np.zeros_like(f.visibility)
    vis[0] = f.visibility[0]
    return PartFeatureSet(parts=f.parts, foreground=f.foreground,
                          visibility=vis)


def tracklet_cost_matrix(tracklets: list[Tracklet],
                         cfg: MergeConfig = MergeConfig()) -> np.ndarray:
    """Pairwise appearance distances between tracklet EMA features.

    The diagonal is +inf, and so is every pair whose frame spans
    ``[first_frame, last_frame]`` overlap: a merge of such a pair could put
    one id twice in a frame.
    """
    feats = [_merge_features(t, cfg.foreground_only) for t in tracklets]
    costs = part_distance_matrix(feats, feats)
    np.fill_diagonal(costs, np.inf)
    first = np.array([t.first_frame for t in tracklets])
    last = np.array([t.last_frame for t in tracklets])
    costs[(first[:, None] <= last) & (first <= last[:, None])] = np.inf
    return costs


def _combine(a: Tracklet, b: Tracklet) -> Tracklet:
    """Union of two tracklets under the earlier tracklet's id; EMA features
    recombined as a detection-count-weighted mean."""
    first, second = (a, b) if a.first_frame <= b.first_frame else (b, a)
    na, nb = len(first.detections), len(second.detections)
    fa, fb = first.ema_features, second.ema_features
    wa = na / (na + nb)
    stacked = wa * fa.stacked() + (1 - wa) * fb.stacked()
    vis = np.maximum(fa.visibility, fb.visibility)
    merged_feats = PartFeatureSet(parts=stacked[1:], foreground=stacked[0],
                                  visibility=vis)
    rows = DetectionTable.concat([first.detections, second.detections])
    dets = rows.take(np.argsort(rows.frame, kind="stable"))
    role_sum = first.role_logit_sum
    if role_sum is not None and second.role_logit_sum is not None:
        role_sum = role_sum + second.role_logit_sum
    return Tracklet(id=first.id, detections=dets, ema_features=merged_feats,
                    status=first.status, role_logit_sum=role_sum)


def merge_tracklets(tracklets: list[Tracklet],
                    cfg: MergeConfig = MergeConfig()):
    """Iteratively merge appearance-close tracklets.

    Each round solves a linear assignment on the tracklet cost matrix and
    unions accepted pairs (cost below the merge threshold).  Returns the
    merged tracklets and an id remapping {original id: surviving id}.
    """
    current = list(tracklets)
    id_map = {t.id: t.id for t in tracklets}
    for _ in range(cfg.max_rounds):
        if len(current) < 2:
            break
        costs = tracklet_cost_matrix(current, cfg)
        assignment = hungarian(costs, forbid_threshold=cfg.merge_threshold)
        candidates = sorted(
            {(min(i, j), max(i, j)) for i, j in assignment.pairs},
            key=lambda p: (costs[p[0], p[1]], p))
        used = set()
        merges = []
        for i, j in candidates:
            if i in used or j in used:
                continue
            used.add(i)
            used.add(j)
            merges.append((i, j))
        if not merges:
            break
        merged_out = []
        consumed = set()
        for i, j in merges:
            combined = _combine(current[i], current[j])
            for src in (current[i], current[j]):
                for orig, tgt in list(id_map.items()):
                    if tgt == src.id:
                        id_map[orig] = combined.id
            merged_out.append(combined)
            consumed.add(i)
            consumed.add(j)
        merged_out.extend(t for idx, t in enumerate(current)
                          if idx not in consumed)
        current = sorted(merged_out, key=lambda t: t.id)
    return current, id_map


def assign_roles(tracklets: list[Tracklet]) -> dict[int, Role]:
    """Per-tracklet role: argmax of the mean role logits over member
    detections; ties break toward the lowest role index."""
    roles = {}
    for t in tracklets:
        if t.role_logit_sum is None:
            raise ValueError(f"tracklet {t.id} has no role logits")
        mean_logits = t.role_logit_sum / max(1, len(t.detections))
        roles[t.id] = Role(int(np.argmax(mean_logits)))
    return roles


def assign_teams(tracklets: list[Tracklet], seed: int = 0,
                 roles: dict[int, Role] | None = None) -> dict[int, int]:
    """Two-cluster team labels over player tracklets, from the
    L2-normalized foreground EMA embeddings.  Labels are reported up to
    permutation; non-player tracklets are not labeled."""
    if roles is None:
        roles = assign_roles(tracklets)
    players = [t for t in tracklets if roles[t.id] == Role.PLAYER]
    if len(players) < 2:
        raise TooFewPlayers(f"got {len(players)} player tracklets")
    emb = np.stack([t.ema_features.foreground for t in players])
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms
    labels, _ = kmeans2(emb, seed=seed)
    return {t.id: int(lab) for t, lab in zip(players, labels)}
