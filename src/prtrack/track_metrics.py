"""Tracking metrics: HOTA (with DetA/AssA), CLEAR-MOT accuracy with
identity switches, and identity-F1 under optimal global id matching.

All three read one :class:`SequenceResult`, built once from ground-truth
and predicted MOT records: per frame, the gt ids, the pred ids and their
IoU matrix from the package's single IoU kernel,
:func:`prtrack.core.iou_matrix`.  They share one per-frame matching
primitive on that matrix: minimum-cost bipartite matching on (1 - IoU)
restricted to pairs with IoU at or above the localization threshold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import DataError, iou_matrix
from .motio import MotRecord
from .solvers import hungarian

__all__ = [
    "EmptyGroundTruth",
    "DuplicateId",
    "SequenceResult",
    "EvalReport",
    "frame_match",
    "hota",
    "mota_ids",
    "idf1",
    "evaluate_sequence",
]

DEFAULT_ALPHAS = tuple(np.round(np.arange(0.05, 1.0, 0.05), 2))


class EmptyGroundTruth(DataError):
    pass


class DuplicateId(DataError):
    """An id occurs twice in one frame of the ground truth or predictions."""


def _columns(records: list[MotRecord], side: str):
    """Frames, ids and ``(N, 4)`` boxes of MOT records, stably sorted by
    frame, so each frame keeps its records' order.  An id repeated within
    a frame raises :class:`DuplicateId` naming ``side``."""
    records = sorted(records, key=lambda r: r.frame)
    frames, ids = [r.frame for r in records], [r.id for r in records]
    pairs = list(zip(frames, ids))
    if len(set(pairs)) < len(pairs):
        frame, id_ = next(p for p, n in Counter(pairs).items() if n > 1)
        raise DuplicateId(f"{side} id {id_} repeats in frame {frame}")
    return (frames, ids,
            np.array([r[2:6] for r in records], dtype=float).reshape(-1, 4))


class SequenceResult:
    """One sequence's ground-truth and predicted MOT records, laid out for
    the metrics.

    ``frames`` holds, for each frame with a record, in ascending frame
    order, the frame's gt ids and pred ids, each in record order, and
    their ``(G_t, P_t)`` IoU matrix.  ``gt_ids`` and ``pred_ids`` hold
    every record's id."""

    def __init__(self, gt: list[MotRecord], pred: list[MotRecord]):
        gt_frames, self.gt_ids, gt_boxes = _columns(gt, "gt")
        pr_frames, self.pred_ids, pr_boxes = _columns(pred, "pred")
        frames = sorted({*gt_frames, *pr_frames})
        cuts = [[bisect(column, f) for f in frames]
                for column in (gt_frames, pr_frames)
                for bisect in (bisect_left, bisect_right)]
        self.frames = [(self.gt_ids[a:b], self.pred_ids[c:d],
                        iou_matrix(gt_boxes[a:b], pr_boxes[c:d]))
                       for a, b, c, d in zip(*cuts)]


@dataclass
class EvalReport:
    hota: float = 0.0
    deta: float = 0.0
    assa: float = 0.0
    mota: float = 0.0
    idf1: float = 0.0
    id_switches: int = 0


def frame_match(ious: np.ndarray, alpha_loc: float) -> list[tuple[int, int]]:
    """Matched (gt index, pred index) pairs by IoU-optimal assignment on one
    frame's (gt, pred) IoU matrix, restricted to pairs with IoU >= alpha_loc."""
    if not ious.size:
        return []
    return hungarian(np.where(ious >= alpha_loc, 1.0 - ious, np.inf)).pairs


def _matches_per_frame(result: SequenceResult, alpha: float):
    """Per frame, the matched (gt id, pred id) pairs."""
    return [[(gt_ids[i], pr_ids[j]) for i, j in frame_match(ious, alpha)]
            for gt_ids, pr_ids, ious in result.frames]


def hota(result: SequenceResult,
         alphas=DEFAULT_ALPHAS) -> tuple[float, float, float]:
    """(HOTA, DetA, AssA) averaged over the localization thresholds."""
    n_gt = len(result.gt_ids)
    if n_gt == 0:
        raise EmptyGroundTruth("no ground-truth boxes")
    n_pred = len(result.pred_ids)
    gt_totals = Counter(result.gt_ids)
    pred_totals = Counter(result.pred_ids)

    hotas, detas, assas = [], [], []
    for alpha in alphas:
        tp_pairs = [p for pairs in _matches_per_frame(result, alpha)
                    for p in pairs]
        tp = len(tp_pairs)
        fn = n_gt - tp
        fp = n_pred - tp
        deta = tp / (tp + fn + fp) if (tp + fn + fp) else 0.0
        if tp == 0:
            assa = 0.0
        else:
            co = Counter(tp_pairs)
            acc = 0.0
            for (gi, pi), tpa in co.items():
                fna = gt_totals[gi] - tpa
                fpa = pred_totals[pi] - tpa
                acc += tpa * (tpa / (tpa + fna + fpa))
            assa = acc / tp
        detas.append(deta)
        assas.append(assa)
        hotas.append(np.sqrt(deta * assa))
    return float(np.mean(hotas)), float(np.mean(detas)), float(np.mean(assas))


def mota_ids(result: SequenceResult,
             alpha: float = 0.5) -> tuple[float, int]:
    """CLEAR-MOT accuracy and identity-switch count.

    A switch is counted whenever a ground-truth id's matched prediction id
    differs from its previous matched prediction id.  Each frame is matched
    on IoU alone: this omits the CLEAR-MOT rule (Bernardin & Stiefelhagen
    2008) of keeping the previous frame's correspondences while they pass
    the threshold, so a switch is counted wherever the IoU-optimal
    assignment moves a ground-truth id to another prediction.
    """
    n_gt = len(result.gt_ids)
    matches = _matches_per_frame(result, alpha)
    tp = sum(map(len, matches))
    fn = n_gt - tp
    fp = len(result.pred_ids) - tp
    last_match: dict[int, int] = {}
    idsw = 0
    for pairs in matches:
        for gi, pi in pairs:
            if gi in last_match and last_match[gi] != pi:
                idsw += 1
            last_match[gi] = pi
    mota = 1.0 - (fn + fp + idsw) / n_gt if n_gt else 0.0
    return float(mota), idsw


def idf1(result: SequenceResult, alpha: float = 0.5) -> float:
    """Identity-F1: optimal global gt-id/pred-id matching maximizing the
    per-frame overlap count, then F1 over identity-true detections."""
    gt_list = np.unique(result.gt_ids)
    pred_list = np.unique(result.pred_ids)
    if not pred_list.size or not gt_list.size:
        return 0.0
    overlap = np.zeros((gt_list.size, pred_list.size), dtype=int)
    for gt_ids, pr_ids, ious in result.frames:
        rows, cols = np.nonzero(ious >= alpha)
        np.add.at(overlap, (np.searchsorted(gt_list, gt_ids)[rows],
                            np.searchsorted(pred_list, pr_ids)[cols]), 1)
    pairs = hungarian(-overlap).pairs
    idtp = sum(int(overlap[i, j]) for i, j in pairs)
    idfn = len(result.gt_ids) - idtp
    idfp = len(result.pred_ids) - idtp
    denom = 2 * idtp + idfp + idfn
    return 2 * idtp / denom if denom else 0.0


def evaluate_sequence(gt: list[MotRecord],
                      pred: list[MotRecord]) -> EvalReport:
    """All metrics of the predicted MOT records against the ground-truth
    ones, on one :class:`SequenceResult`."""
    result = SequenceResult(gt, pred)
    h, d, a = hota(result)
    m, ids = mota_ids(result)
    return EvalReport(hota=h, deta=d, assa=a, mota=m, idf1=idf1(result),
                      id_switches=ids)
