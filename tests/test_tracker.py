import numpy as np
import pytest

from prtrack.core import (BoundingBox, Detection, PartFeatureSet,
                          TrackStatus, xyah_to_xywh)
from prtrack.tracker import (FrameInput, NonMonotoneFrame, OnlineTracker,
                             TrackerConfig, build_cost, ema_update,
                             kalman_init, kalman_predict, kalman_update)


def features(value, k=2, d=3, vis=None):
    if vis is None:
        vis = np.ones(k + 1, dtype=int)
    return PartFeatureSet(parts=np.full((k, d), float(value)),
                          foreground=np.full(d, float(value)),
                          visibility=np.asarray(vis))


def det(frame, x, y, value, w=10.0, h=20.0):
    return Detection(frame=frame, box=BoundingBox(x, y, w, h),
                     features=features(value),
                     role_logits=np.array([1.0, 0, 0, 0]))


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(max_age=0)


def test_kalman_tracks_constant_velocity():
    state = kalman_init(BoundingBox(0, 0, 10, 20))
    for t in range(1, 30):
        state = kalman_predict(state)
        state = kalman_update(state, BoundingBox(3.0 * t, 0, 10, 20))
    state = kalman_predict(state)
    x, _, _, h = xyah_to_xywh(state.mean[:4])[0]
    assert x == pytest.approx(90.0, abs=1.0)
    assert h == pytest.approx(20.0, abs=0.5)


def test_ema_update_literal():
    ema = features(1.0)
    new = features(2.0)
    out = ema_update(ema, new, alpha=0.9)
    np.testing.assert_allclose(out.parts, 0.9 * 1.0 + 0.1 * 2.0)
    # invisible detection part: track value decays toward zero
    new_partial = features(2.0, vis=[1, 1, 0])
    out2 = ema_update(ema, new_partial, alpha=0.9)
    np.testing.assert_allclose(out2.parts[1], 0.9)
    np.testing.assert_array_equal(out2.visibility, [1, 1, 1])


def test_ema_update_normalized_freezes_invisible():
    ema = features(1.0)
    new_partial = features(2.0, vis=[1, 1, 0])
    out = ema_update(ema, new_partial, alpha=0.9, normalized=True)
    np.testing.assert_allclose(out.parts[1], 1.0)
    np.testing.assert_allclose(out.parts[0], 1.1)
    # previously-unseen part appears: takes the detection value outright
    ema0 = features(0.0, vis=[1, 1, 0])
    seen = features(3.0)
    out2 = ema_update(ema0, seen, alpha=0.9, normalized=True)
    np.testing.assert_allclose(out2.parts[1], 3.0)


def test_build_cost_gating():
    cfg = TrackerConfig(appearance_weight=0.75, match_threshold=0.4,
                        iou_gate=0.3)
    tracker = OnlineTracker(cfg)
    tracker.step(FrameInput(1, [det(1, 0, 0, 1.0)]))
    track = tracker.tracks[0]
    near_same = det(2, 1, 0, 1.0)
    far_diff = det(2, 500, 500, 9.0)
    cost = build_cost([track], [near_same, far_diff], cfg)
    assert np.isfinite(cost[0, 0])
    assert np.isinf(cost[0, 1])


def test_lost_track_with_negative_predicted_height():
    # A track that shrank every frame keeps shrinking once lost, until its
    # predicted height is negative; it then matches on appearance only.
    cfg = TrackerConfig(n_init=1, max_age=30)
    tracker = OnlineTracker(cfg)
    for t in range(1, 9):
        tracker.step(FrameInput(t, [det(t, 0, 0, 1.0, w=4.0 - 0.4 * t,
                                        h=40.0 - 4.0 * t)]))
    for t in range(9, 20):
        tracker.step(FrameInput(t, []))
    track = tracker.tracks[0]
    assert track.status == TrackStatus.LOST
    assert track.kalman.mean[3] < 0
    same = det(20, 0, 0, 1.0)
    other = det(20, 0, 0, 9.0)
    cost = build_cost([track], [same, other], cfg)
    w = cfg.appearance_weight
    assert cost[0, 0] == pytest.approx(1.0 - w)  # app distance 0, IoU 0
    assert np.isinf(cost[0, 1])
    tracker.step(FrameInput(20, [same]))
    tracker.step(FrameInput(21, [det(21, 0, 0, 1.0)]))
    tracks = tracker.finish()
    assert [len(t.detections) for t in tracks] == [10]


def test_tracker_keeps_identities_through_crossing():
    cfg = TrackerConfig(n_init=1)
    tracker = OnlineTracker(cfg)
    for t in range(1, 21):
        a = det(t, 10.0 * t, 0, 1.0)
        b = det(t, 10.0 * (21 - t), 0, 5.0)
        tracker.step(FrameInput(t, [a, b]))
    tracks = tracker.finish()
    assert len(tracks) == 2
    for tr in tracks:
        values = {d.features.parts[0, 0] for d in tr.detections}
        assert len(values) == 1


def test_tentative_track_needs_n_init_hits():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    out1 = tracker.step(FrameInput(1, [det(1, 0, 0, 1.0)]))
    assert out1 == []
    out2 = tracker.step(FrameInput(2, [det(2, 1, 0, 1.0)]))
    assert out2 == []
    out3 = tracker.step(FrameInput(3, [det(3, 2, 0, 1.0)]))
    assert len(out3) == 1
    assert tracker.tracks[0].status == TrackStatus.CONFIRMED


def test_unconfirmed_track_dropped_on_miss():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    tracker.step(FrameInput(1, [det(1, 0, 0, 1.0)]))
    tracker.step(FrameInput(2, []))
    assert tracker.tracks == []
    assert tracker.finish() == []


def test_confirmed_track_survives_max_age():
    cfg = TrackerConfig(n_init=1, max_age=5)
    tracker = OnlineTracker(cfg)
    for t in range(1, 4):
        tracker.step(FrameInput(t, [det(t, float(t), 0, 1.0)]))
    for t in range(4, 9):
        tracker.step(FrameInput(t, []))
    assert len(tracker.tracks) == 1
    assert tracker.tracks[0].status == TrackStatus.LOST
    tracker.step(FrameInput(9, []))
    assert tracker.tracks == []
    assert len(tracker.finish()) == 1


def test_finish_includes_preconfirmation_detections():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    for t in range(1, 6):
        tracker.step(FrameInput(t, [det(t, float(t), 0, 1.0)]))
    tracks = tracker.finish()
    assert len(tracks) == 1
    assert [d.frame for d in tracks[0].detections] == [1, 2, 3, 4, 5]


def test_non_monotone_frame_rejected():
    tracker = OnlineTracker()
    tracker.step(FrameInput(5, []))
    with pytest.raises(NonMonotoneFrame):
        tracker.step(FrameInput(5, []))


def test_detection_frame_must_match():
    tracker = OnlineTracker()
    with pytest.raises(ValueError):
        tracker.step(FrameInput(2, [det(1, 0, 0, 1.0)]))
