from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (CONFIRMED, LOST, TENTATIVE, Box, Detection,
                     brute_track)
from prtrack import tracker as tracker_module
from prtrack.core import PartFeatureSet, _stack, xyah_to_xywh
from prtrack.motio import FeatureTable
from prtrack.simgen import (DetectionTable, ScenarioConfig, generate,
                            to_tracking_input)
from prtrack.tracker import (FrameInput, NonMonotoneFrame, OnlineTracker,
                             TrackerConfig, build_cost, ema_update,
                             kalman_init, kalman_predict, kalman_update)

# The tracker's status codes of live rows, by ``brute_track``'s names.
STATUS = {tracker_module._TENTATIVE: TENTATIVE,
          tracker_module._CONFIRMED: CONFIRMED, tracker_module._LOST: LOST}


def features(value, k=2, d=3, vis=None):
    if vis is None:
        vis = np.ones(k + 1, dtype=int)
    return PartFeatureSet(parts=np.full((k, d), float(value)),
                          foreground=np.full(d, float(value)),
                          visibility=np.asarray(vis))


def det(frame, x, y, value, w=10.0, h=20.0):
    return Detection(frame=frame, box=Box(x, y, w, h),
                     features=features(value),
                     role_logits=np.array([1.0, 0, 0, 0]))


def frame_input(frame, dets, k=2, d=3):
    """The tracker input of one frame's ``Detection``s: a detection table
    of their rows, with placeholder ground truth."""
    n = len(dets)
    frames, index = np.array([x.frame for x in dets], dtype=int), np.arange(n)
    features = FeatureTable(
        frames, index,
        np.array([x.features.parts for x in dets]).reshape(n, k, d),
        np.array([x.features.foreground for x in dets]).reshape(n, d),
        np.array([x.features.visibility for x in dets],
                 dtype=int).reshape(n, k + 1),
        np.array([x.role_logits for x in dets]).reshape(n, 4))
    return FrameInput(frame, DetectionTable(
        frames, index, np.array([x.box for x in dets], float).reshape(n, 4),
        np.zeros(n, int), np.full(n, -1), np.zeros(n, int), features))


def outputs(step):
    """A step's matched confirmed tracks as (frame, id, box) rows; the id
    and box columns must have one row per match."""
    frame, ids, boxes = step
    assert ids.shape == (len(boxes),) and boxes.shape == (len(ids), 4)
    return [(frame, i, tuple(box)) for i, box in zip(ids.tolist(),
                                                      boxes.tolist())]


def cost_of(tracker, dets, cfg):
    """``build_cost`` of a tracker's live tracks against ``Detection``s."""
    rows = tracker._rows
    return build_cost(rows.mean, np.array([d.box for d in dets]), rows.ema,
                      rows.vis, *_stack([d.features for d in dets]), cfg)


def ema_of(ema, new, alpha, normalized=False):
    """``ema_update`` of one track, as a ``PartFeatureSet``."""
    mixed, vis = ema_update(*_stack([ema]), *_stack([new]), alpha,
                            normalized)
    return PartFeatureSet(parts=mixed[0, 1:], foreground=mixed[0, 0],
                          visibility=vis[0])


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(max_age=0)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="match_threshold"):
            TrackerConfig(match_threshold=bad)


def test_kalman_tracks_constant_velocity():
    mean, cov = kalman_init(np.array([[0, 0, 10, 20]], dtype=float))
    for t in range(1, 30):
        mean, cov = kalman_predict(mean, cov)
        mean, cov = kalman_update(mean, cov,
                                  np.array([[3.0 * t, 0, 10, 20]]))
    mean, cov = kalman_predict(mean, cov)
    x, _, _, h = xyah_to_xywh(mean[0, :4])[0]
    assert x == pytest.approx(90.0, abs=1.0)
    assert h == pytest.approx(20.0, abs=0.5)


def test_ema_update_literal():
    ema = features(1.0)
    new = features(2.0)
    out = ema_of(ema, new, alpha=0.9)
    np.testing.assert_allclose(out.parts, 0.9 * 1.0 + 0.1 * 2.0)
    # invisible detection part: track value decays toward zero
    new_partial = features(2.0, vis=[1, 1, 0])
    out2 = ema_of(ema, new_partial, alpha=0.9)
    np.testing.assert_allclose(out2.parts[1], 0.9)
    np.testing.assert_array_equal(out2.visibility, [1, 1, 1])


def test_ema_update_normalized_freezes_invisible():
    ema = features(1.0)
    new_partial = features(2.0, vis=[1, 1, 0])
    out = ema_of(ema, new_partial, alpha=0.9, normalized=True)
    np.testing.assert_allclose(out.parts[1], 1.0)
    np.testing.assert_allclose(out.parts[0], 1.1)
    # previously-unseen part appears: takes the detection value outright
    ema0 = features(0.0, vis=[1, 1, 0])
    seen = features(3.0)
    out2 = ema_of(ema0, seen, alpha=0.9, normalized=True)
    np.testing.assert_allclose(out2.parts[1], 3.0)


# Finite values whose product with an alpha of at least 0.01 stays normal.
_ema_float = st.floats(-1e6, 1e6, allow_subnormal=False).filter(
    lambda x: x == 0 or abs(x) >= 1e-200)


@st.composite
def ema_cases(draw):
    """EMA state and detections of T tracks, and an alpha in [0, 1].  At
    alpha 0 the normalized weights of a part hidden in the detection sum to
    0, and at alpha 1 those of a part the track had not seen."""
    t, k, d = (draw(st.integers(1, n)) for n in (4, 3, 4))
    ema, feats = (draw(arrays(float, (t, k + 1, d), elements=_ema_float))
                  for _ in range(2))
    ema_vis, vis = (draw(arrays(int, (t, k + 1), elements=st.integers(0, 1)))
                    for _ in range(2))
    alpha = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
                           st.floats(0.01, 1.0)))
    return ema, ema_vis, feats, vis, alpha


@settings(deadline=None)
@given(ema_cases())
@example((np.full((1, 3, 2), 2.0), np.ones((1, 3), dtype=int),
          np.full((1, 3, 2), 5.0), np.array([[1, 1, 0]]), 0.0))
@example((np.full((1, 3, 2), 2.0), np.array([[1, 1, 0]]),
          np.full((1, 3, 2), 5.0), np.ones((1, 3), dtype=int), 1.0))
def test_normalized_ema_keeps_parts_hidden_in_the_detection(case):
    """With ``normalized``, a part that the track has seen and the
    detection hides keeps its EMA within 1 ulp (alpha * e / alpha), and a
    part the track had not seen takes the detection's features within 1
    ulp; at alpha 0 or 1, where that side's weight is 0, exactly.  In both
    modes the visibility bits become the OR of the track's and the
    detection's."""
    ema, ema_vis, feats, vis, alpha = case
    for normalized in (False, True):
        mixed, mixed_vis = ema_update(ema, ema_vis, feats, vis, alpha,
                                      normalized)
        np.testing.assert_array_equal(mixed_vis, ema_vis | vis)
    kept = (ema_vis == 1) & (vis == 0)
    np.testing.assert_array_max_ulp(mixed[kept], ema[kept], maxulp=1)
    seen = (ema_vis == 0) & (vis == 1)
    np.testing.assert_array_max_ulp(mixed[seen], feats[seen], maxulp=1)
    if alpha in (0.0, 1.0):
        lone = kept if alpha == 0.0 else seen
        assert _bits(mixed[lone]) == _bits((ema if alpha == 0.0
                                            else feats)[lone])


def test_build_cost_gating():
    cfg = TrackerConfig(appearance_weight=0.75, match_threshold=0.4,
                        iou_gate=0.3)
    tracker = OnlineTracker(cfg)
    tracker.step(frame_input(1, [det(1, 0, 0, 1.0)]))
    near_same = det(2, 1, 0, 1.0)
    far_diff = det(2, 500, 500, 9.0)
    cost = cost_of(tracker, [near_same, far_diff], cfg)
    assert np.isfinite(cost[0, 0])
    assert np.isinf(cost[0, 1])


def test_lost_track_with_negative_predicted_height():
    # A track that shrank every frame keeps shrinking once lost, until its
    # predicted height is negative; it then matches on appearance only.
    cfg = TrackerConfig(n_init=1, max_age=30)
    tracker = OnlineTracker(cfg)
    for t in range(1, 9):
        tracker.step(frame_input(t, [det(t, 0, 0, 1.0, w=4.0 - 0.4 * t,
                                         h=40.0 - 4.0 * t)]))
    for t in range(9, 20):
        tracker.step(frame_input(t, []))
    rows = tracker._rows
    assert rows.status.tolist() == [tracker_module._LOST]
    assert rows.mean[0, 3] < 0
    same = det(20, 0, 0, 1.0)
    other = det(20, 0, 0, 9.0)
    cost = cost_of(tracker, [same, other], cfg)
    w = cfg.appearance_weight
    assert cost[0, 0] == pytest.approx(1.0 - w)  # app distance 0, IoU 0
    assert np.isinf(cost[0, 1])
    tracker.step(frame_input(20, [same]))
    tracker.step(frame_input(21, [det(21, 0, 0, 1.0)]))
    assert tracker.finish().count.tolist() == [10]


def test_tracker_keeps_identities_through_crossing():
    cfg = TrackerConfig(n_init=1)
    tracker = OnlineTracker(cfg)
    for t in range(1, 21):
        a = det(t, 10.0 * t, 0, 1.0)
        b = det(t, 10.0 * (21 - t), 0, 5.0)
        tracker.step(frame_input(t, [a, b]))
    tracks = tracker.finish()
    assert len(tracks) == 2
    for tr in split(tracks):
        values = set(tr.detections.features.parts[:, 0, 0].tolist())
        assert len(values) == 1


def test_tentative_track_needs_n_init_hits():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    out1 = tracker.step(frame_input(1, [det(1, 0, 0, 1.0)]))
    assert outputs(out1) == []
    out2 = tracker.step(frame_input(2, [det(2, 1, 0, 1.0)]))
    assert outputs(out2) == []
    out3 = tracker.step(frame_input(3, [det(3, 2, 0, 1.0)]))
    assert outputs(out3) == [(3, 1, (2.0, 0.0, 10.0, 20.0))]
    assert tracker._rows.status.tolist() == [tracker_module._CONFIRMED]


def test_unconfirmed_track_dropped_on_miss():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    tracker.step(frame_input(1, [det(1, 0, 0, 1.0)]))
    tracker.step(frame_input(2, []))
    assert len(tracker._rows) == 0
    assert len(tracker.finish()) == 0


def test_confirmed_track_survives_max_age():
    cfg = TrackerConfig(n_init=1, max_age=5)
    tracker = OnlineTracker(cfg)
    for t in range(1, 4):
        tracker.step(frame_input(t, [det(t, float(t), 0, 1.0)]))
    for t in range(4, 9):
        tracker.step(frame_input(t, []))
    assert tracker._rows.status.tolist() == [tracker_module._LOST]
    tracker.step(frame_input(9, []))
    assert len(tracker._rows) == 0
    assert len(tracker.finish()) == 1


def test_finish_includes_preconfirmation_detections():
    tracker = OnlineTracker(TrackerConfig(n_init=3))
    for t in range(1, 6):
        tracker.step(frame_input(t, [det(t, float(t), 0, 1.0)]))
    tracks = tracker.finish()
    assert len(tracks) == 1
    assert tracks.detections.frame.tolist() == [1, 2, 3, 4, 5]


def test_non_monotone_frame_rejected():
    tracker = OnlineTracker()
    tracker.step(frame_input(5, []))
    with pytest.raises(NonMonotoneFrame):
        tracker.step(frame_input(5, []))


def test_detection_frame_must_match():
    tracker = OnlineTracker()
    with pytest.raises(ValueError, match="frame index"):
        tracker.step(frame_input(2, [det(1, 0, 0, 1.0)]))


def test_step_needs_features():
    frames, _ = to_tracking_input(generate(ScenarioConfig(frames=2)),
                                  features="none")
    with pytest.raises(ValueError, match="needs detection features"):
        OnlineTracker().step(FrameInput(1, frames[0]))


@st.composite
def sequences(draw, restarts=False):
    """A tracker config and a random clip: people enter and leave, move
    with jitter, hide parts, sometimes appear twice at once; frames can be
    empty and frame numbers skip.  With ``restarts``, there is at least one
    person, and each comes and goes in blocks of steps and stays away for
    more than ``max_age`` steps, so that the person's track ends and a new
    one starts later: fragments for the merge to join."""
    cfg = TrackerConfig(alpha=draw(st.sampled_from([0.0, 0.5, 0.9])),
                        n_init=draw(st.integers(1, 3)),
                        max_age=draw(st.integers(1, 5)),
                        normalized_ema=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_people = draw(st.integers(1 if restarts else 0, 5))
    p_present = draw(st.sampled_from([0.7, 1.0] if restarts
                                     else [0.3, 0.7, 1.0]))
    p_hidden = draw(st.sampled_from([0.0, 0.3, 0.7]))
    jitter = draw(st.sampled_from([0.0, 2.0, 10.0]))
    n_frames = draw(st.integers(8, 30) if restarts else st.integers(1, 20))
    frame_numbers = np.cumsum(rng.integers(1, 4, size=n_frames))
    k, d = 2, 3
    start = rng.uniform(0, 60, size=(n_people, 2))
    velocity = rng.uniform(-4, 4, size=(n_people, 2))
    size = rng.uniform(5, 30, size=(n_people, 2))
    base = rng.normal(size=(n_people, k + 1, d))
    present = np.ones((n_people, n_frames), dtype=bool)
    if restarts:
        for p in range(n_people):
            blocks, on = [], rng.random() < 0.5
            while len(blocks) < n_frames:
                low, high = ((cfg.n_init, cfg.n_init + 6) if on
                             else (cfg.max_age + 1, cfg.max_age + 4))
                blocks += [on] * int(rng.integers(low, high))
                on = not on
            present[p] = blocks[:n_frames]
    frames = []
    for step, f in enumerate(frame_numbers):
        dets = []
        for p in range(n_people):
            if not present[p, step] or rng.random() >= p_present:
                continue
            x, y = start[p] + velocity[p] * f + rng.normal(0, jitter + 1e-9,
                                                             size=2)
            w, h = size[p] * rng.uniform(0.8, 1.2, size=2)
            emb = base[p] + rng.normal(0, 0.1, size=(k + 1, d))
            feats = PartFeatureSet(
                parts=emb[1:], foreground=emb[0],
                visibility=(rng.random(k + 1) >= p_hidden).astype(int))
            logits = rng.normal(size=4)
            one = Detection(frame=int(f), box=Box(x, y, w, h),
                            features=feats, role_logits=logits)
            dets.append(one)
            if rng.random() < 0.1:
                dets.append(Detection(frame=int(f), box=one.box,
                                      features=feats, role_logits=logits))
        frames.append((int(f), dets))
    return cfg, frames


# One finished tracklet of a ``TrackletTable``, with its member rows.
Row = namedtuple("Row", "id ema vis role_logit_sum detections")


def split(table):
    """The tracklets of a ``TrackletTable`` one by one, as ``Row``s."""
    ends = np.cumsum(table.count).tolist()
    return [Row(i, e, v, r, table.detections.take(slice(lo, hi)))
            for i, e, v, r, lo, hi in zip(
                table.id.tolist(), table.ema, table.vis,
                table.role_logit_sum, [0, *ends], ends)]


def live(tracker):
    """The tracker's live tracks in row order, read from its row columns,
    as ``brute_track`` tuples; the member rows are taken from the tables
    stepped so far."""
    rows, table = tracker._rows, DetectionTable.concat(tracker._tables)
    return [(int(rows.ids[i]), STATUS[rows.status[i]], rows.mean[i],
             rows.cov[i], rows.ema[i], rows.vis[i], rows.logits[i],
             table.take(rows.members[i])) for i in range(len(rows))]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def members(dets):
    """Each detection's frame, box, features and role logits, bit for bit."""
    return [(d.frame, _bits([d.box.x, d.box.y, d.box.w, d.box.h]),
             _bits(d.features.parts), _bits(d.features.foreground),
             _bits(d.features.visibility), _bits(d.role_logits))
            for d in dets]


def member_rows(table):
    """``members`` of a tracklet's detection table, row by row."""
    f = table.features
    return [(frame, *map(_bits, row)) for frame, *row in zip(
        table.frame.tolist(), table.boxes, f.parts, f.foreground,
        f.visibility, f.role_logits)]


def assert_same_tracks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:2] == w[:2]
        for a, b in zip(g[2:7], w[2:7]):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert member_rows(g[7]) == members(w[7])


def assert_same_tracklets(table, want):
    """``assert_same_tracks`` for finished tracklets, which hold no status
    and no Kalman state."""
    assert table.count.tolist() == [len(w[7]) for w in want]
    got = split(table)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.id == w[0]
        for a, b in zip(g[1:4], w[4:7]):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert member_rows(g.detections) == members(w[7])


@settings(max_examples=150, deadline=None)
@given(sequences())
def test_tracker_equals_per_object_oracle(case):
    cfg, frames = case
    want_steps, want_tracklets = brute_track(frames, cfg)
    tracker = OnlineTracker(cfg)
    for (frame, dets), (want_out, want_live) in zip(frames, want_steps):
        assert outputs(tracker.step(frame_input(frame, dets))) == [
            (f, i, (b.x, b.y, b.w, b.h)) for f, i, b in want_out]
        assert_same_tracks(live(tracker), want_live)
    assert_same_tracklets(tracker.finish(), want_tracklets)
    assert len(tracker._rows) == 0 and len(tracker.finish()) == 0


def tracklets_of(cfg, frames):
    """The ``TrackletTable`` of a tracker stepped over ``frames``."""
    tracker = OnlineTracker(cfg)
    for frame, dets in frames:
        tracker.step(frame_input(frame, dets))
    return tracker.finish()


@settings(max_examples=150, deadline=None)
@given(sequences())
def test_tracker_invariants(case):
    """Each stepped row is in at most one tracklet, a tracklet's frames
    strictly increase, ids are unique, every tracklet was confirmed and
    every EMA is finite.  The member rows are the tracklets' rows in turn,
    in id order."""
    cfg, frames = case
    table = tracklets_of(cfg, frames)
    assert table.count.sum() == len(table.detections) and (
        np.diff(table.id) > 0).all()
    tracklets = split(table)
    rows = [(f, j) for t in tracklets for f, j in zip(
        t.detections.frame.tolist(), t.detections.det_index.tolist())]
    assert len(set(rows)) == len(rows)
    stepped = {(f, j) for f, dets in frames for j in range(len(dets))}
    assert set(rows) <= stepped
    for t in tracklets:
        assert (np.diff(t.detections.frame) > 0).all()
        assert len(t.detections) >= cfg.n_init
        assert np.isfinite(t.ema).all()
    ids = [t.id for t in tracklets]
    assert len(set(ids)) == len(ids)
