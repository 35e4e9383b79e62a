"""Tracking metrics: HOTA (with DetA/AssA), CLEAR-MOT accuracy with
identity switches, and identity-F1 under optimal global id matching.

All three read one :class:`SequenceResult`, built once from the
ground-truth and predicted :class:`~prtrack.motio.MotTable` columns: per
frame, the gt ids, the pred ids and their IoU matrix from the package's
single IoU kernel,
:func:`prtrack.core.iou_matrix`.  They share one per-frame matching
primitive on that matrix: minimum-cost bipartite matching on (1 - IoU)
restricted to pairs with IoU at or above the localization threshold.

A frame's mask ``ious >= alpha`` shrinks as alpha grows, so two thresholds
whose masks hold the same number of entries have the same mask, and so the
same matching.  :meth:`SequenceResult.matches` keys each frame's matchings
by that number and solves each distinct mask once: HOTA's thresholds and
MOTA's share the work.  A matching is an ``(M, 2)`` array of pairs in gt
order.  A mask with at most one entry per row and per column is matched
without an assignment: :func:`frame_match` returns its entries in row
order, which are the pairs :func:`prtrack.solvers.hungarian` returns,
because an assignment that leaves out an allowed pair takes one more
forbidden pair, and a forbidden pair costs far more than all allowed
pairs together.  Only the other masks reach the assignment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import DataError, iou_matrix
from .motio import MotTable
from .solvers import _NO_PAIRS, hungarian

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


def _columns(table: MotTable, side: str):
    """Frames, ids and ``(N, 4)`` boxes of a MOT table, stably sorted by
    frame, so each frame keeps its rows' order.  An id repeated within a
    frame raises :class:`DuplicateId` naming ``side``: of the repeated
    (frame, id) pairs, the one that comes first in that order."""
    order = np.argsort(table.frame, kind="stable")
    frames, ids = table.frame[order], table.id[order]
    by_pair = np.lexsort((ids, frames))
    repeats = ((frames[by_pair[1:]] == frames[by_pair[:-1]])
               & (ids[by_pair[1:]] == ids[by_pair[:-1]]))
    if repeats.any():
        first = by_pair[:-1][repeats].min()
        raise DuplicateId(f"{side} id {ids[first]} repeats in frame "
                          f"{frames[first]}")
    return frames, ids, table.boxes[order]


class SequenceResult:
    """One sequence's ground-truth and predicted MOT tables, laid out for
    the metrics.

    ``frames`` holds, for each frame with a row, in ascending frame order,
    the frame's gt ids and pred ids, each in row order, and their
    ``(G_t, P_t)`` IoU matrix.  ``gt_ids`` and ``pred_ids`` hold every
    row's id, in frame order.  :meth:`matches` keeps each frame's
    matchings for the life of the result."""

    def __init__(self, gt: MotTable, pred: MotTable):
        gt_frames, self.gt_ids, gt_boxes = _columns(gt, "gt")
        pr_frames, self.pred_ids, pr_boxes = _columns(pred, "pred")
        frames = np.union1d(gt_frames, pr_frames)
        cuts = [np.searchsorted(column, frames, side).tolist()
                for column in (gt_frames, pr_frames)
                for side in ("left", "right")]
        self.frames = [(self.gt_ids[a:b], self.pred_ids[c:d],
                        iou_matrix(gt_boxes[a:b], pr_boxes[c:d]))
                       for a, b, c, d in zip(*cuts)]
        self._gt_codes, self._gt_totals = _codes(self.gt_ids)
        self._pred_codes, self._pred_totals = _codes(self.pred_ids)
        # (F, 2) each frame's first gt and pred record.
        self._starts = np.array([cuts[0], cuts[2]], dtype=np.intp).T
        # A threshold is above 0, so a zero IoU is never in a mask.
        self._sorted_ious = [sorted(ious[ious > 0].tolist())
                             for _, _, ious in self.frames]
        # Per frame: mask size -> its matched (gt, pred) record positions.
        self._solved: list[dict[int, np.ndarray]] = [{} for _ in self.frames]

    def matches(self, alpha: float) -> list[np.ndarray]:
        """Per frame, :func:`frame_match` of its IoU matrix at ``alpha``, an
        ``(M, 2)`` array.  Each frame's distinct mask is matched once, on
        the first call that needs it."""
        return [rows - start
                for rows, start in zip(self._solve(alpha), self._starts)]

    def _matched_codes(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """gt and pred codes of the matched pairs at ``alpha``, in frame
        order and, within a frame, in gt row order."""
        rows = np.concatenate([_NO_PAIRS, *self._solve(alpha)])
        return self._gt_codes[rows[:, 0]], self._pred_codes[rows[:, 1]]

    def _solve(self, alpha: float) -> list[np.ndarray]:
        _check_alpha(alpha)
        alpha = float(alpha)
        entries = []
        for (_, _, ious), values, start, solved in zip(
                self.frames, self._sorted_ious, self._starts, self._solved):
            # The mask ious >= alpha holds the ``size`` largest entries.
            size = len(values) - bisect_left(values, alpha)
            entry = solved.get(size)
            if entry is None:
                entry = solved[size] = frame_match(ious, alpha) + start
            entries.append(entry)
        return entries


def _codes(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each id's code, its rank among the distinct ids, and each code's
    number of rows."""
    _, codes, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return codes.reshape(-1), counts


def _check_alpha(alpha: float) -> None:
    """A localization threshold is a finite number in (0, 1]; at 0 two
    disjoint boxes would match."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(
            f"localization threshold must be in (0, 1], got {alpha!r}")


@dataclass
class EvalReport:
    hota: float = 0.0
    deta: float = 0.0
    assa: float = 0.0
    mota: float = 0.0
    idf1: float = 0.0
    id_switches: int = 0


def frame_match(ious: np.ndarray, alpha_loc: float) -> np.ndarray:
    """Matched (gt index, pred index) pairs by IoU-optimal assignment on one
    frame's (gt, pred) IoU matrix, restricted to pairs with IoU >= alpha_loc:
    an ``(M, 2)`` intp array in gt index order.  A mask with at most one
    allowed pair per row and per column is its own matching."""
    _check_alpha(alpha_loc)
    mask = ious >= alpha_loc
    index = np.array(np.nonzero(mask))
    rows, cols = index.tolist()
    if len(set(rows)) == len(rows) == len(set(cols)):
        return index.T
    return hungarian(np.where(mask, 1.0 - ious, np.inf)).pairs


def hota(result: SequenceResult,
         alphas=DEFAULT_ALPHAS) -> tuple[float, float, float]:
    """(HOTA, DetA, AssA) averaged over the localization thresholds.

    AssA adds each (gt id, pred id) pair's term one at a time, in the order
    of the pair's first match, so its total does not depend on numpy's
    summation order."""
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("hota needs at least one localization threshold")
    n_gt = len(result.gt_ids)
    if n_gt == 0:
        raise EmptyGroundTruth("no ground-truth boxes")
    n_pred = len(result.pred_ids)
    gt_totals, pred_totals = result._gt_totals, result._pred_totals

    hotas, detas, assas = [], [], []
    for alpha in alphas:
        gt_codes, pred_codes = result._matched_codes(alpha)
        tp = len(gt_codes)
        fn = n_gt - tp
        fp = n_pred - tp
        deta = tp / (tp + fn + fp) if (tp + fn + fp) else 0.0
        if tp == 0:
            assa = 0.0
        else:
            _, first, tpa = np.unique(gt_codes * len(pred_totals) + pred_codes,
                                      return_index=True, return_counts=True)
            order = np.argsort(first)
            first, tpa = first[order], tpa[order]
            fna = gt_totals[gt_codes[first]] - tpa
            fpa = pred_totals[pred_codes[first]] - tpa
            acc = 0.0
            for term in (tpa * (tpa / (tpa + fna + fpa))).tolist():
                acc += term
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
    gt_codes, pred_codes = result._matched_codes(alpha)
    tp = len(gt_codes)
    fn = n_gt - tp
    fp = len(result.pred_ids) - tp
    # Each gt id's matches in frame order (a stable sort keeps it).
    order = np.argsort(gt_codes, kind="stable")
    gt_codes, pred_codes = gt_codes[order], pred_codes[order]
    idsw = int(np.count_nonzero((gt_codes[1:] == gt_codes[:-1])
                                & (pred_codes[1:] != pred_codes[:-1])))
    mota = 1.0 - (fn + fp + idsw) / n_gt if n_gt else 0.0
    return float(mota), idsw


def idf1(result: SequenceResult, alpha: float = 0.5) -> float:
    """Identity-F1: optimal global gt-id/pred-id matching maximizing the
    per-frame overlap count, then F1 over identity-true detections."""
    _check_alpha(alpha)
    gt_list = np.unique(result.gt_ids)
    pred_list = np.unique(result.pred_ids)
    if not pred_list.size or not gt_list.size:
        return 0.0
    overlap = np.zeros((gt_list.size, pred_list.size), dtype=int)
    for gt_ids, pr_ids, ious in result.frames:
        rows, cols = np.nonzero(ious >= alpha)
        np.add.at(overlap, (np.searchsorted(gt_list, gt_ids)[rows],
                            np.searchsorted(pred_list, pr_ids)[cols]), 1)
    rows, cols = hungarian(-overlap).pairs.T
    idtp = int(overlap[rows, cols].sum())
    idfn = len(result.gt_ids) - idtp
    idfp = len(result.pred_ids) - idtp
    denom = 2 * idtp + idfp + idfn
    return 2 * idtp / denom if denom else 0.0


def evaluate_sequence(gt: MotTable, pred: MotTable) -> EvalReport:
    """All metrics of the predicted MOT rows against the ground-truth ones,
    on one :class:`SequenceResult`."""
    result = SequenceResult(gt, pred)
    h, d, a = hota(result)
    m, ids = mota_ids(result)
    return EvalReport(hota=h, deta=d, assa=a, mota=m, idf1=idf1(result),
                      id_switches=ids)
