"""Tracking metrics: HOTA (with DetA/AssA), CLEAR-MOT accuracy with
identity switches, and identity-F1 under optimal global id matching.

Each metric computes one (gt, pred) IoU matrix per frame with the package's
single IoU kernel, :func:`prtrack.core.iou_matrix`.  All metrics share one
per-frame matching primitive on that matrix: minimum-cost bipartite
matching on (1 - IoU) restricted to pairs with IoU at or above the
localization threshold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, box_array, iou_matrix
from .solvers import hungarian

__all__ = [
    "EmptyGroundTruth",
    "SequenceResult",
    "EvalReport",
    "frame_match",
    "hota",
    "mota_ids",
    "idf1",
    "evaluate_sequence",
]

DEFAULT_ALPHAS = tuple(np.round(np.arange(0.05, 1.0, 0.05), 2))


class EmptyGroundTruth(Exception):
    pass


@dataclass
class SequenceResult:
    """Per-frame ground truth and predictions: frame -> [(id, box)]."""

    gt: dict[int, list[tuple[int, BoundingBox]]]
    pred: dict[int, list[tuple[int, BoundingBox]]]

    def frames(self):
        return sorted(set(self.gt) | set(self.pred))

    def gt_count(self) -> int:
        return sum(len(v) for v in self.gt.values())

    def pred_count(self) -> int:
        return sum(len(v) for v in self.pred.values())


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


def _frame_ious(result: SequenceResult):
    """Per frame: (gt ids, pred ids, (gt, pred) IoU matrix)."""
    out = {}
    for f in result.frames():
        gt_f = result.gt.get(f, [])
        pr_f = result.pred.get(f, [])
        out[f] = ([i for i, _ in gt_f], [i for i, _ in pr_f],
                  iou_matrix(box_array([b for _, b in gt_f]),
                             box_array([b for _, b in pr_f])))
    return out


def _matches_per_frame(frame_ious, alpha: float):
    """Per-frame list of matched (gt id, pred id) pairs."""
    return {f: [(gt_ids[i], pr_ids[j])
                for i, j in frame_match(ious, alpha)]
            for f, (gt_ids, pr_ids, ious) in frame_ious.items()}


def hota(result: SequenceResult,
         alphas=DEFAULT_ALPHAS) -> tuple[float, float, float]:
    """(HOTA, DetA, AssA) averaged over the localization thresholds."""
    n_gt = result.gt_count()
    if n_gt == 0:
        raise EmptyGroundTruth("no ground-truth boxes")
    n_pred = result.pred_count()
    gt_totals = Counter(i for v in result.gt.values() for i, _ in v)
    pred_totals = Counter(i for v in result.pred.values() for i, _ in v)
    frame_ious = _frame_ious(result)

    hotas, detas, assas = [], [], []
    for alpha in alphas:
        matches = _matches_per_frame(frame_ious, alpha)
        tp_pairs = [p for pairs in matches.values() for p in pairs]
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
    n_gt = result.gt_count()
    matches = _matches_per_frame(_frame_ious(result), alpha)
    tp = sum(len(v) for v in matches.values())
    fn = n_gt - tp
    fp = result.pred_count() - tp
    last_match: dict[int, int] = {}
    idsw = 0
    for f in result.frames():
        for gi, pi in matches[f]:
            if gi in last_match and last_match[gi] != pi:
                idsw += 1
            last_match[gi] = pi
    mota = 1.0 - (fn + fp + idsw) / n_gt if n_gt else 0.0
    return float(mota), idsw


def idf1(result: SequenceResult, alpha: float = 0.5) -> float:
    """Identity-F1: optimal global gt-id/pred-id matching maximizing the
    per-frame overlap count, then F1 over identity-true detections."""
    gt_list = np.unique([i for v in result.gt.values() for i, _ in v])
    pred_list = np.unique([i for v in result.pred.values() for i, _ in v])
    if not pred_list.size or not gt_list.size:
        return 0.0
    overlap = np.zeros((gt_list.size, pred_list.size), dtype=int)
    for gt_ids, pr_ids, ious in _frame_ious(result).values():
        rows, cols = np.nonzero(ious >= alpha)
        np.add.at(overlap, (np.searchsorted(gt_list, gt_ids)[rows],
                            np.searchsorted(pred_list, pr_ids)[cols]), 1)
    pairs = hungarian(-overlap).pairs
    idtp = sum(int(overlap[i, j]) for i, j in pairs)
    idfn = result.gt_count() - idtp
    idfp = result.pred_count() - idtp
    denom = 2 * idtp + idfp + idfn
    return 2 * idtp / denom if denom else 0.0


def evaluate_sequence(result: SequenceResult) -> EvalReport:
    h, d, a = hota(result)
    m, ids = mota_ids(result)
    return EvalReport(hota=h, deta=d, assa=a, mota=m, idf1=idf1(result),
                      id_switches=ids)
