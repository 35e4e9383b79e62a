"""Retrieval-style evaluation: query/gallery ranking under the part
distance, mAP and CMC Rank-1 for identity and team, accuracy/precision for
role classification.

Queries and gallery are each one :class:`RetrievalTable` of columns, one
row per sample.  Each query is ranked by one row of the package's
part-distance kernel over the whole gallery, masked and sorted after."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import DataError, PartFeatureSet, Role, _part_distances, _stack

__all__ = [
    "EmptyGallery",
    "LengthMismatch",
    "RetrievalTable",
    "rank",
    "map_cmc",
    "role_metrics",
    "evaluate_retrieval",
]


class EmptyGallery(DataError):
    pass


class LengthMismatch(Exception):
    pass


@dataclass(frozen=True)
class RetrievalTable:
    """Embedded samples as columns, one row per sample."""

    features: np.ndarray    # (N, K+1, D) ordered (foreground, part 1..K)
    visibility: np.ndarray  # (N, K+1) in the same order
    identity: np.ndarray    # (N,)
    team: np.ndarray        # (N,) 0/1, -1 where the sample has no team
    role: np.ndarray        # (N,) Role values
    view: np.ndarray        # (N,) view ids

    def __len__(self) -> int:
        return len(self.identity)

    def take(self, rows) -> "RetrievalTable":
        """The rows ``rows``, an index or boolean array, in that order."""
        return RetrievalTable(*(getattr(self, f.name)[rows]
                                for f in fields(self)))


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

    Each entry is the 0/1 positive flags of one query's ranked gallery,
    possibly empty.  Queries without a positive are excluded with a warning
    that names the entry's index.
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


def role_metrics(predictions: np.ndarray,
                 truths: np.ndarray) -> tuple[float, float]:
    """Accuracy and macro (unweighted per-class) precision over the four
    roles, from int arrays of :class:`~prtrack.core.Role` values; classes
    with no predictions contribute 0 precision."""
    if len(predictions) != len(truths):
        raise LengthMismatch(f"{len(predictions)} vs {len(truths)}")
    preds = np.asarray(predictions, dtype=int)
    gts = np.asarray(truths, dtype=int)
    accuracy = float((preds == gts).mean()) if len(preds) else float("nan")
    precisions = []
    for cls in range(4):
        predicted = preds == cls
        if predicted.sum() == 0:
            precisions.append(0.0)
        else:
            precisions.append(float((gts[predicted] == cls).mean()))
    return accuracy, float(np.mean(precisions))


def evaluate_retrieval(queries: RetrievalTable, gallery: RetrievalTable,
                       match_key: str = "identity",
                       exclude_same_view: bool = True) -> tuple[float, float]:
    """mAP and Rank-1 for identity or team retrieval.

    Gallery rows sharing the query's identity and view (same tracklet
    fragment) are excluded from that query's ranking, following standard
    retrieval protocol; a query with no row left gets an empty ranking,
    which :func:`map_cmc` excludes.  For team matching, only player rows
    are considered on both sides.

    Each query's ranking is one row of the package's part-distance kernel
    (``core._part_distances``) over the whole gallery, so every pair's
    distance has the bits of :func:`rank`'s.  The row is masked, then
    sorted stably, so ties break by gallery index as in :func:`rank`.
    """
    if match_key not in ("identity", "team"):
        raise ValueError("match_key must be 'identity' or 'team'")
    if match_key == "team":
        queries = queries.take(queries.role == int(Role.PLAYER))
        gallery = gallery.take(gallery.role == int(Role.PLAYER))
    if not len(gallery):
        raise EmptyGallery("gallery is empty")
    keys, query_keys = getattr(gallery, match_key), getattr(queries, match_key)
    rankings = []
    for i in range(len(queries)):
        dists = _part_distances(queries.features[i:i + 1],
                                queries.visibility[i:i + 1],
                                gallery.features, gallery.visibility)[0]
        ranked = keys
        if exclude_same_view:
            keep = ((gallery.identity != queries.identity[i])
                    | (gallery.view != queries.view[i]))
            dists, ranked = dists[keep], keys[keep]
        order = np.argsort(dists, kind="stable")
        rankings.append((ranked[order] == query_keys[i]).astype(int))
    return map_cmc(rankings)
