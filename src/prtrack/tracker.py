"""Online association: Kalman prediction, fused motion+appearance cost,
linear assignment, EMA part-feature updates, and track lifecycle.

Association reads only boxes and appearance features; team and role labels
never enter the cost computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BoundingBox, Detection, KalmanState, PartFeatureSet,
                   TrackStatus, Tracklet, box_array, iou_matrix,
                   part_distance_matrix, xyah_to_xywh)
from .solvers import hungarian

__all__ = [
    "NonMonotoneFrame",
    "TrackerConfig",
    "FrameInput",
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
        if self.max_age < 1 or self.n_init < 1:
            raise ValueError("max_age and n_init must be >= 1")


@dataclass
class FrameInput:
    frame: int
    detections: list[Detection]


def _motion_mats(dt: float = 1.0):
    f = np.eye(8)
    for i in range(4):
        f[i, i + 4] = dt
    h = np.zeros((4, 8))
    h[:4, :4] = np.eye(4)
    return f, h


_F, _H = _motion_mats()


def kalman_init(box: BoundingBox) -> KalmanState:
    mean = np.zeros(8)
    mean[:4] = box.to_xyah()
    h = box.h
    stds = [2 * _STD_POS * h, 2 * _STD_POS * h, 1e-2, 2 * _STD_POS * h,
            10 * _STD_VEL * h, 10 * _STD_VEL * h, 1e-5, 10 * _STD_VEL * h]
    return KalmanState(mean, np.diag(np.square(stds)))


def _process_noise(h: float) -> np.ndarray:
    stds = [_STD_POS * h, _STD_POS * h, 1e-2, _STD_POS * h,
            _STD_VEL * h, _STD_VEL * h, 1e-5, _STD_VEL * h]
    return np.diag(np.square(stds))


def _measurement_noise(h: float) -> np.ndarray:
    stds = [_STD_POS * h, _STD_POS * h, 1e-1, _STD_POS * h]
    return np.diag(np.square(stds))


def kalman_predict(state: KalmanState) -> KalmanState:
    """Constant-velocity prediction; covariance grows by process noise."""
    mean = _F @ state.mean
    cov = _F @ state.covariance @ _F.T + _process_noise(state.mean[3])
    return KalmanState(mean, cov)


def kalman_update(state: KalmanState, measurement: BoundingBox) -> KalmanState:
    """Standard correction on the (cx, cy, a, h) measurement."""
    z = measurement.to_xyah()
    r = _measurement_noise(state.mean[3])
    s = _H @ state.covariance @ _H.T + r
    k = state.covariance @ _H.T @ np.linalg.inv(s)
    innovation = z - _H @ state.mean
    mean = state.mean + k @ innovation
    cov = (np.eye(8) - k @ _H) @ state.covariance
    cov = (cov + cov.T) / 2.0
    return KalmanState(mean, cov)


def build_cost(tracks: list[Tracklet], dets: list[Detection],
               cfg: TrackerConfig) -> np.ndarray:
    """Fused appearance+motion cost; gated entries are +inf.  A track whose
    predicted box is degenerate has IoU 0 and matches on appearance only."""
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)))
    app = part_distance_matrix([t.ema_features for t in tracks],
                               [d.features for d in dets])
    predicted = xyah_to_xywh(np.array([t.kalman.mean[:4] for t in tracks]))
    ious = iou_matrix(predicted, box_array([d.box for d in dets]))
    w = cfg.appearance_weight
    with np.errstate(invalid="ignore"):
        cost = w * app + (1.0 - w) * (1.0 - ious)
    gate = (ious < cfg.iou_gate) & (app > cfg.match_threshold)
    cost[gate] = np.inf
    cost[~np.isfinite(app)] = np.inf
    return cost


def ema_update(ema: PartFeatureSet, det: PartFeatureSet, alpha: float,
               normalized: bool = False) -> PartFeatureSet:
    """EMA update per index k in (foreground, 1..K):
    e_k <- alpha * e_k * v_k_track + (1 - alpha) * f_k * v_k_det.

    Track visibility bits become the OR of the previous bits and the
    detection's.  The default applies the formula literally (an invisible
    side contributes zero, shrinking the magnitude); ``normalized=True``
    divides by the sum of the active weights instead.
    """
    v_old = ema.visibility.astype(float)
    v_new = det.visibility.astype(float)
    old = ema.stacked()
    new = det.stacked()
    mixed = alpha * old * v_old[:, None] + (1 - alpha) * new * v_new[:, None]
    if normalized:
        denom = alpha * v_old + (1 - alpha) * v_new
        nonzero = denom > 0
        mixed[nonzero] /= denom[nonzero, None]
    vis = np.maximum(ema.visibility, det.visibility)
    return PartFeatureSet(parts=mixed[1:], foreground=mixed[0], visibility=vis)


class OnlineTracker:
    """Per-sequence online tracker.  Mutated single-threaded."""

    def __init__(self, cfg: TrackerConfig = TrackerConfig()):
        self.cfg = cfg
        self.tracks: list[Tracklet] = []
        self.finished: list[Tracklet] = []
        self._next_id = 1
        self._last_frame = 0
        self._hits: dict[int, int] = {}
        self._misses: dict[int, int] = {}

    def step(self, frame_input: FrameInput) -> list[tuple[int, int, BoundingBox]]:
        """Advance one frame; returns (frame, track id, box) for confirmed
        tracks matched in this frame."""
        frame = frame_input.frame
        if frame <= self._last_frame:
            raise NonMonotoneFrame(
                f"frame {frame} after {self._last_frame}")
        self._last_frame = frame
        dets = frame_input.detections
        if any(d.frame != frame for d in dets):
            raise ValueError("detections must share the input frame index")

        for t in self.tracks:
            t.kalman = kalman_predict(t.kalman)

        cost = build_cost(self.tracks, dets, self.cfg)
        assignment = hungarian(cost) if cost.size else None
        matched_tracks, matched_dets = set(), set()
        if assignment is not None:
            for ti, di in assignment.pairs:
                self._match(self.tracks[ti], dets[di])
                matched_tracks.add(ti)
                matched_dets.add(di)

        outputs = []
        survivors = []
        for i, t in enumerate(self.tracks):
            if i in matched_tracks:
                if t.status == TrackStatus.CONFIRMED:
                    outputs.append((frame, t.id, t.detections[-1].box))
                survivors.append(t)
                continue
            self._misses[t.id] += 1
            if t.status == TrackStatus.TENTATIVE:
                t.status = TrackStatus.FINISHED
                self.finished.append(t)
            elif self._misses[t.id] > self.cfg.max_age:
                t.status = TrackStatus.FINISHED
                self.finished.append(t)
            else:
                t.status = TrackStatus.LOST
                survivors.append(t)
        self.tracks = survivors

        for j, d in enumerate(dets):
            if j not in matched_dets:
                self._spawn(d)
        return outputs

    def _match(self, t: Tracklet, d: Detection):
        t.kalman = kalman_update(t.kalman, d.box)
        t.ema_features = ema_update(t.ema_features, d.features,
                                    self.cfg.alpha, self.cfg.normalized_ema)
        t.detections.append(d)
        if d.role_logits is not None:
            t.role_logit_sum = t.role_logit_sum + d.role_logits
        self._hits[t.id] += 1
        self._misses[t.id] = 0
        if (t.status in (TrackStatus.TENTATIVE, TrackStatus.LOST)
                and self._hits[t.id] >= self.cfg.n_init):
            t.status = TrackStatus.CONFIRMED

    def _spawn(self, d: Detection):
        t = Tracklet(id=self._next_id, detections=[d],
                     ema_features=d.features, kalman=kalman_init(d.box),
                     status=TrackStatus.TENTATIVE,
                     role_logit_sum=(np.array(d.role_logits)
                                     if d.role_logits is not None
                                     else np.zeros(4)))
        self._next_id += 1
        self._hits[t.id] = 1
        self._misses[t.id] = 0
        if self.cfg.n_init <= 1:
            t.status = TrackStatus.CONFIRMED
        self.tracks.append(t)

    def finish(self) -> list[Tracklet]:
        """Close the sequence; returns every tracklet that was ever
        confirmed, with all member detections."""
        for t in self.tracks:
            t.status = TrackStatus.FINISHED
        all_tracks = self.finished + self.tracks
        self.tracks = []
        confirmed = [t for t in all_tracks if self._hits[t.id] >= self.cfg.n_init]
        return sorted(confirmed, key=lambda t: t.id)
