"""Retrieval-style evaluation: query/gallery ranking under the part
distance, mAP and CMC Rank-1 for identity and team, accuracy/precision for
role classification."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import PartFeatureSet, Role, _part_distances, _stack

__all__ = [
    "EmptyGallery",
    "LengthMismatch",
    "RetrievalItem",
    "RetrievalSet",
    "rank",
    "map_cmc",
    "role_metrics",
    "evaluate_retrieval",
]


class EmptyGallery(Exception):
    pass


class LengthMismatch(Exception):
    pass


@dataclass
class RetrievalItem:
    features: PartFeatureSet
    identity: int
    team: int | None
    role: Role
    view: int = 0


@dataclass
class RetrievalSet:
    queries: list[RetrievalItem]
    gallery: list[RetrievalItem]


def rank(query: PartFeatureSet, gallery: list[PartFeatureSet]) -> list[int]:
    """Gallery indices by ascending part distance; pairs with no mutual
    visibility rank last.  The distances are one row of the package's
    part-distance kernel (``core._part_distances``); ties break by gallery
    index (stable sort)."""
    if not gallery:
        raise EmptyGallery("gallery is empty")
    dists = _part_distances(*_stack([query]), *_stack(gallery))[0]
    return np.argsort(dists, kind="stable").tolist()


def _average_precision(flags: np.ndarray) -> float:
    """AP over a ranked 0/1 relevance list: mean precision at each
    positive's rank."""
    positives = np.flatnonzero(flags)
    if positives.size == 0:
        return float("nan")
    precisions = [(i + 1) / (r + 1) for i, r in enumerate(positives)]
    return float(np.mean(precisions))


def map_cmc(rankings: list[np.ndarray]) -> tuple[float, float]:
    """mAP and Rank-1 over per-query ranked relevance flags.

    Each entry is the 0/1 positive flags of one query's ranked gallery.
    Queries without a positive are excluded with a warning.
    """
    aps, top1 = [], []
    for i, flags in enumerate(rankings):
        flags = np.asarray(flags)
        ap = _average_precision(flags)
        if np.isnan(ap):
            warnings.warn(f"query {i} has no positives; excluded")
            continue
        aps.append(ap)
        top1.append(float(flags[0]))
    if not aps:
        return float("nan"), float("nan")
    return float(np.mean(aps)), float(np.mean(top1))


def role_metrics(predictions: list[Role],
                 truths: list[Role]) -> tuple[float, float]:
    """Accuracy and macro (unweighted per-class) precision over the four
    roles; classes with no predictions contribute 0 precision."""
    if len(predictions) != len(truths):
        raise LengthMismatch(f"{len(predictions)} vs {len(truths)}")
    preds = np.array([int(p) for p in predictions])
    gts = np.array([int(t) for t in truths])
    accuracy = float((preds == gts).mean()) if len(preds) else float("nan")
    precisions = []
    for cls in range(4):
        predicted = preds == cls
        if predicted.sum() == 0:
            precisions.append(0.0)
        else:
            precisions.append(float((gts[predicted] == cls).mean()))
    return accuracy, float(np.mean(precisions))


def evaluate_retrieval(retrieval: RetrievalSet, match_key: str = "identity",
                       exclude_same_view: bool = True) -> tuple[float, float]:
    """mAP and Rank-1 for identity or team retrieval.

    Gallery items sharing the query's identity and view (same tracklet
    fragment) are excluded from that query's ranking, following standard
    retrieval protocol.  For team matching, only player samples are
    considered on both sides.

    The gallery is stacked into arrays once per call.  Each query's ranking
    is one row of the package's part-distance kernel
    (``core._part_distances``) over its kept gallery columns, sorted stably,
    so ties break by gallery index as in :func:`rank`.
    """
    if match_key not in ("identity", "team"):
        raise ValueError("match_key must be 'identity' or 'team'")
    queries = retrieval.queries
    gallery = retrieval.gallery
    if match_key == "team":
        queries = [q for q in queries if q.role == Role.PLAYER]
        gallery = [g for g in gallery if g.role == Role.PLAYER]
    if not gallery:
        raise EmptyGallery("gallery is empty")
    feats, vis = _stack([g.features for g in gallery])
    identities = np.array([g.identity for g in gallery])
    views = np.array([g.view for g in gallery])
    keys = np.array([getattr(g, match_key) for g in gallery])
    keep = np.ones(len(gallery), dtype=bool)
    rankings = []
    for q in queries:
        if exclude_same_view:
            keep = (identities != q.identity) | (views != q.view)
            if not keep.any():
                continue
        dists = _part_distances(*_stack([q.features]), feats[keep],
                                vis[keep])[0]
        order = np.argsort(dists, kind="stable")
        rankings.append((keys[keep][order] == getattr(q, match_key))
                        .astype(int))
    return map_cmc(rankings)
