"""Online association: Kalman prediction, fused motion+appearance cost,
linear assignment, EMA part-feature updates, and track lifecycle.

The tracker holds its live tracks as row-aligned arrays: Kalman means
``(T, 8)`` and covariances ``(T, 8, 8)``, EMA features ``(T, K+1, D)``
ordered (foreground, part 1..K) with visibility ``(T, K+1)``, role-logit
sums ``(T, 4)``, integer ids, hits, misses and status codes.  A step reads
one frame's rows of the detection table as arrays, features in the same
layout, and makes a fixed number of batched calls: one Kalman predict
over all rows, one fused cost, one assignment, then one Kalman update and
one EMA over the matched rows.  Survivors keep their relative order and
spawns are appended in detection order, which the assignment's tie-break
toward low (row, col) pairs depends on.  Each step also records the owner
id of each detection row, the track it matched or spawned; from these ids
:meth:`OnlineTracker.finish` builds the finished tracklets as one
:class:`TrackletTable` of columns.

Association reads only boxes and appearance features; team and role labels
never enter the cost computation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import _part_distances, iou_matrix, xywh_to_xyah, xyah_to_xywh
from .motio import MotTable
from .simgen import DetectionTable
from .solvers import _NO_PAIRS, hungarian

__all__ = [
    "NonMonotoneFrame",
    "TrackerConfig",
    "FrameInput",
    "TrackletTable",
    "kalman_init",
    "kalman_predict",
    "kalman_update",
    "build_cost",
    "ema_update",
    "OnlineTracker",
]

# DeepSORT-style noise scaling relative to box height.
_STD_POS = 1.0 / 20.0
_STD_VEL = 1.0 / 160.0


class NonMonotoneFrame(Exception):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    alpha: float = 0.9              # EMA momentum
    appearance_weight: float = 0.75
    match_threshold: float = 0.4    # appearance gate inside the fused cost
    iou_gate: float = 0.3
    max_age: int = 30
    n_init: int = 3
    normalized_ema: bool = False    # renormalize when one side is invisible

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if not (0.0 <= self.appearance_weight <= 1.0):
            raise ValueError("appearance_weight must be in [0, 1]")
        if not (0.0 <= self.iou_gate <= 1.0):
            raise ValueError("iou_gate must be in [0, 1]")
        if not self.match_threshold >= 0.0:
            raise ValueError("match_threshold must be >= 0")
        if self.max_age < 1 or self.n_init < 1:
            raise ValueError("max_age and n_init must be >= 1")


@dataclass
class FrameInput:
    frame: int
    detections: DetectionTable


def _motion_mats(dt: float = 1.0):
    f = np.eye(8)
    for i in range(4):
        f[i, i + 4] = dt
    h = np.zeros((4, 8))
    h[:4, :4] = np.eye(4)
    return f, h


_F, _H = _motion_mats()


def _diag(stds: np.ndarray) -> np.ndarray:
    """(T, n, n) diagonal covariances of (T, n) standard deviations."""
    t, n = stds.shape
    cov = np.zeros((t, n * n))
    cov[:, ::n + 1] = np.square(stds)
    return cov.reshape(t, n, n)


def kalman_init(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means ``(N, 8)`` and covariances ``(N, 8, 8)`` of new tracks at
    ``(N, 4)`` ``x, y, w, h`` boxes, at rest."""
    xyah = xywh_to_xyah(boxes)
    mean = np.zeros((len(xyah), 8))
    mean[:, :4] = xyah
    stds = xyah[:, 3:] * [2 * _STD_POS, 2 * _STD_POS, 0.0, 2 * _STD_POS,
                          10 * _STD_VEL, 10 * _STD_VEL, 0.0, 10 * _STD_VEL]
    stds[:, 2], stds[:, 6] = 1e-2, 1e-5  # aspect-ratio entries: not in h
    return mean, _diag(stds)


def kalman_predict(mean: np.ndarray,
                   cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity prediction of T states, means ``(T, 8)`` and
    covariances ``(T, 8, 8)``; covariance grows by process noise."""
    stds = mean[:, 3:4] * [_STD_POS, _STD_POS, 0.0, _STD_POS,
                           _STD_VEL, _STD_VEL, 0.0, _STD_VEL]
    stds[:, 2], stds[:, 6] = 1e-2, 1e-5
    return mean @ _F.T, _F @ cov @ _F.T + _diag(stds)


def kalman_update(mean: np.ndarray, cov: np.ndarray,
                  boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard correction of T states on their ``(T, 4)`` ``x, y, w, h``
    measured boxes, read as (cx, cy, a, h).  Each state's matrix products
    and inverse are those of a single state, so results do not depend on T.
    """
    stds = mean[:, 3:4] * [_STD_POS, _STD_POS, 0.0, _STD_POS]
    stds[:, 2] = 1e-1
    s = _H @ cov @ _H.T + _diag(stds)
    k = cov @ _H.T @ np.linalg.inv(s)
    innovation = xywh_to_xyah(boxes) - mean @ _H.T
    mean = mean + (k @ innovation[:, :, None])[:, :, 0]
    cov = (np.eye(8) - k @ _H) @ cov
    return mean, (cov + cov.transpose(0, 2, 1)) / 2.0


def build_cost(tracks: np.ndarray, dets: np.ndarray,
               track_feats: np.ndarray, track_vis: np.ndarray,
               det_feats: np.ndarray, det_vis: np.ndarray,
               cfg: TrackerConfig) -> np.ndarray:
    """(T, N) fused appearance+motion cost; gated entries are +inf.

    ``tracks`` holds the T tracks' predicted Kalman means ``(T, 8)`` and
    ``dets`` the N detections' ``(N, 4)`` ``x, y, w, h`` boxes; the feature
    and visibility arrays are the two sides' stacked ``(., K+1, D)`` and
    ``(., K+1)``.  A track whose predicted box is degenerate has IoU 0 and
    matches on appearance only."""
    if not len(tracks) or not len(dets):
        return np.zeros((len(tracks), len(dets)))
    app = _part_distances(track_feats, track_vis, det_feats, det_vis)
    ious = iou_matrix(xyah_to_xywh(tracks[:, :4]), dets)
    w = cfg.appearance_weight
    with np.errstate(invalid="ignore"):
        cost = w * app + (1.0 - w) * (1.0 - ious)
    gate = (ious < cfg.iou_gate) & (app > cfg.match_threshold)
    cost[gate] = np.inf
    cost[~np.isfinite(app)] = np.inf
    return cost


def ema_update(ema: np.ndarray, ema_vis: np.ndarray,
               feats: np.ndarray, vis: np.ndarray, alpha: float,
               normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """EMA update of T tracks' features ``(T, K+1, D)`` and visibility
    ``(T, K+1)`` by their detections' ``feats`` and ``vis``; per index k in
    (foreground, 1..K):
    e_k <- alpha * e_k * v_k_track + (1 - alpha) * f_k * v_k_det.

    Track visibility bits become the OR of the previous bits and the
    detection's.  The default applies the formula literally (an invisible
    side contributes zero, shrinking the magnitude); ``normalized=True``
    divides by the sum of the active weights instead, and an index that
    one side alone sees with a weight of 0 (alpha 0 or 1) takes that
    side's features.  Returns the new features and visibility.
    """
    v_old = ema_vis.astype(float)
    v_new = vis.astype(float)
    mixed = (alpha * ema * v_old[..., None]
             + (1 - alpha) * feats * v_new[..., None])
    if normalized:
        denom = alpha * v_old + (1 - alpha) * v_new
        nonzero = denom > 0
        mixed[nonzero] /= denom[nonzero, None]
        lone = ~nonzero & (v_old + v_new > 0)
        mixed[lone] = np.where(v_old[lone, None] > 0, ema[lone], feats[lone])
    return mixed, np.maximum(ema_vis, vis)


# Status codes of live rows; a track leaves the rows when it finishes.
_TENTATIVE, _CONFIRMED, _LOST = range(3)


@dataclass
class _Rows:
    """Row-aligned state of T tracks."""

    ids: np.ndarray      # (T,)
    hits: np.ndarray     # (T,)
    misses: np.ndarray   # (T,)
    status: np.ndarray   # (T,) of _TENTATIVE, _CONFIRMED, _LOST
    mean: np.ndarray     # (T, 8)
    cov: np.ndarray      # (T, 8, 8)
    ema: np.ndarray      # (T, K+1, D), (foreground, part 1..K)
    vis: np.ndarray      # (T, K+1)
    logits: np.ndarray   # (T, 4) role-logit sums

    @classmethod
    def empty(cls) -> "_Rows":
        return cls(*(np.zeros(0, dtype=int) for _ in range(4)),
                   np.zeros((0, 8)), np.zeros((0, 8, 8)),
                   np.zeros((0, 0, 0)), np.zeros((0, 0), dtype=int),
                   np.zeros((0, 4)))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "_Rows":
        return _Rows(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def concat(parts: list["_Rows"]) -> "_Rows":
        parts = [p for p in parts if len(p)]
        if not parts:
            return _Rows.empty()
        return _Rows(*(np.concatenate([getattr(p, f.name) for p in parts])
                       for f in fields(_Rows)))


@dataclass
class TrackletTable:
    """T finished tracklets as columns, and their N member detections as
    one table: tracklet after tracklet in row order, each tracklet's rows
    in frame order."""

    id: np.ndarray              # (T,)
    count: np.ndarray           # (T,) member rows of each tracklet
    ema: np.ndarray             # (T, K+1, D), (foreground, part 1..K)
    vis: np.ndarray             # (T, K+1)
    role_logit_sum: np.ndarray  # (T, 4)
    detections: DetectionTable  # (N,) rows, N = count.sum()

    def __len__(self) -> int:
        return len(self.id)

    def owner(self) -> np.ndarray:
        """(N,) row index of each member row's tracklet."""
        return np.repeat(np.arange(len(self)), self.count)

    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        """(T,) first and last frames of the tracklets."""
        ends = np.cumsum(self.count)
        return self.detections.frame[ends - self.count], \
            self.detections.frame[ends - 1]

    def take(self, rows: np.ndarray,
             owner: np.ndarray | None = None) -> "TrackletTable":
        """The tracklets ``rows``, an index array, with their member rows;
        ``owner`` (default :meth:`owner`) maps each member row to its
        tracklet's row, and the rows of tracklets left out are dropped."""
        position = np.full(len(self), len(rows))  # left out: sorted last
        position[rows] = np.arange(len(rows))
        pos = position[self.owner() if owner is None else owner]
        count = np.bincount(pos, minlength=len(rows) + 1)[:-1]
        return TrackletTable(
            self.id[rows], count, self.ema[rows], self.vis[rows],
            self.role_logit_sum[rows], self.detections.take(
                np.lexsort((self.detections.frame, pos))[:count.sum()]))

    def mot_rows(self) -> MotTable:
        """:meth:`~prtrack.simgen.DetectionTable.mot_rows` of the member
        rows, under their tracklets' ids."""
        return self.detections.mot_rows(np.repeat(self.id, self.count))


class OnlineTracker:
    """Per-sequence online tracker.  Mutated single-threaded."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self._rows = _Rows.empty()
        # Finished tracks that reached n_init hits, for finish().
        self._retired: list[_Rows] = []
        self._next_id = 1
        self._last_frame = 0
        # The tables stepped so far, and the owner id of each of their rows.
        self._tables: list[DetectionTable] = []
        self._owners: list[np.ndarray] = []

    def step(self, frame_input: FrameInput
             ) -> tuple[int, np.ndarray, np.ndarray]:
        """Advance one frame; returns the frame, the ids of the confirmed
        tracks matched in it and their matched ``(M, 4)`` box rows of the
        frame's table, in track order."""
        frame = frame_input.frame
        if frame <= self._last_frame:
            raise NonMonotoneFrame(
                f"frame {frame} after {self._last_frame}")
        self._last_frame = frame
        dets = frame_input.detections
        f = dets.features
        if f is None:
            raise ValueError("the tracker needs detection features")
        if (dets.frame != frame).any():
            raise ValueError("detections must share the input frame index")
        cfg, rows = self.cfg, self._rows
        boxes, feats, vis, logits = (dets.boxes, f.embeddings, f.visibility,
                                     f.role_logits)
        owner = np.empty(len(dets), dtype=int)
        self._tables.append(dets)
        self._owners.append(owner)

        rows.mean, rows.cov = kalman_predict(rows.mean, rows.cov)
        cost = build_cost(rows.mean, boxes, rows.ema, rows.vis, feats, vis,
                          cfg)
        ti, di = (hungarian(cost).pairs if cost.size else _NO_PAIRS).T
        if len(ti):
            rows.mean[ti], rows.cov[ti] = kalman_update(
                rows.mean[ti], rows.cov[ti], boxes[di])
            rows.ema[ti], rows.vis[ti] = ema_update(
                rows.ema[ti], rows.vis[ti], feats[di], vis[di], cfg.alpha,
                cfg.normalized_ema)
            rows.logits[ti] += logits[di]
            owner[di] = rows.ids[ti]
            rows.hits[ti] += 1
            rows.misses[ti] = 0
            promote = ti[rows.hits[ti] >= cfg.n_init]
            rows.status[promote] = _CONFIRMED

        matched = np.zeros(len(rows), dtype=bool)
        matched[ti] = True
        shown = rows.status[ti] == _CONFIRMED   # pairs are in row order
        outputs = frame, rows.ids[ti[shown]], boxes[di[shown]]
        missed = ~matched
        rows.misses[missed] += 1
        finished = missed & ((rows.status == _TENTATIVE)
                             | (rows.misses > cfg.max_age))
        rows.status[missed & ~finished] = _LOST
        if finished.any():
            # A tentative track never reached n_init hits; finish() drops it.
            retired = np.flatnonzero(finished & (rows.hits >= cfg.n_init))
            if len(retired):
                self._retired.append(rows.take(retired))
            rows = rows.take(np.flatnonzero(~finished))

        spawn = np.ones(len(dets), dtype=bool)
        spawn[di] = False
        new = np.flatnonzero(spawn)
        if len(new):
            mean, cov = kalman_init(boxes[new])
            n = len(new)
            owner[new] = np.arange(self._next_id, self._next_id + n)
            rows = _Rows.concat([rows, _Rows(
                ids=owner[new], hits=np.ones(n, dtype=int),
                misses=np.zeros(n, dtype=int),
                status=np.full(n, _CONFIRMED if cfg.n_init <= 1
                               else _TENTATIVE),
                mean=mean, cov=cov, ema=feats[new], vis=vis[new],
                logits=logits[new])])
            self._next_id += n
        self._rows = rows
        return outputs

    def finish(self) -> TrackletTable:
        """Close the sequence; returns every tracklet that was ever
        confirmed, with all member detections, in id order."""
        rows = _Rows.concat([*self._retired, self._rows])
        done = np.flatnonzero(rows.hits >= self.cfg.n_init)
        rows = rows.take(done[np.argsort(rows.ids[done])])
        owner = np.concatenate([np.zeros(0, dtype=int), *self._owners])
        kept = np.flatnonzero(np.isin(owner, rows.ids))
        # Stable: each tracklet's rows stay in the order they were stepped.
        kept = kept[np.argsort(owner[kept], kind="stable")]
        count = np.unique(owner[kept], return_counts=True)[1]
        table = DetectionTable.concat(self._tables).take(kept)
        t, (k1, d) = len(rows), table.features.embeddings.shape[1:]
        self._rows, self._retired = _Rows.empty(), []
        self._tables, self._owners = [], []
        return TrackletTable(rows.ids, count, rows.ema.reshape(t, k1, d),
                             rows.vis.reshape(t, k1), rows.logits, table)
