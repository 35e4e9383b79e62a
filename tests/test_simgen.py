import dataclasses

import numpy as np
import pytest

from prtrack.core import Role
from prtrack.embedder import EmbedderModel
from prtrack.simgen import (ConfigInvalid, DetectionTable, ScenarioConfig,
                            detection_table, embed_detections, generate,
                            oracle_feature_projection, to_reid_dataset,
                            to_tracking_input, tracker_frames)

from oracles import (brute_embed_detections, brute_generate,
                     brute_tracking_input)


def small_config(**kw):
    base = dict(frames=60, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(n_players_per_team=0).validate()
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(occlusion_rate=1.5).validate()
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(feature_noise_sigma=-1).validate()
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(channels=5).validate()
    ScenarioConfig().validate()


def test_roster_and_determinism():
    cfg = small_config()
    s1 = generate(cfg)
    s2 = generate(cfg)
    assert len(s1.agents) == 2 * 10 + 2 + 2 + 1
    roles = [a.role for a in s1.agents]
    assert roles.count(Role.PLAYER) == 20
    assert roles.count(Role.GOALKEEPER) == 2
    assert len(s1.frames) == 60
    for f1, f2 in zip(s1.frames, s2.frames):
        for o1, o2 in zip(f1, f2):
            assert o1.present == o2.present
            if o1.present:
                np.testing.assert_array_equal(o1.grid.cells, o2.grid.cells)


def test_boxes_stay_on_pitch():
    s = generate(small_config(frames=200))
    for frame in s.frames:
        for ob in frame:
            if ob.present:
                c = ob.box.center
                assert 0 <= c[0] <= s.config.pitch_width
                assert 0 <= c[1] <= s.config.pitch_height


def test_occlusion_produces_absences_and_partial_visibility():
    s = generate(small_config(frames=300, occlusion_rate=0.4, seed=1))
    absent = partial = 0
    for frame in s.frames:
        for ob in frame:
            if not ob.present:
                absent += 1
            elif ob.part_visible.sum() < s.config.num_parts:
                partial += 1
                hidden = np.flatnonzero(ob.part_visible == 0) + 1
                assert not np.isin(ob.grid.part_labels, hidden).any()
    assert absent > 0
    assert partial > 0


def test_no_occlusion_means_full_visibility():
    s = generate(small_config(frames=40))
    for frame in s.frames:
        for ob in frame:
            assert ob.present
            assert ob.part_visible.sum() == s.config.num_parts


def test_reid_dataset_split_disjoint():
    s = generate(small_config(frames=120))
    train, queries, gallery = to_reid_dataset(s, sampling_stride=10)
    train_ids = {x.identity for x in train}
    test_ids = {x.identity for x in queries} | {x.identity for x in gallery}
    assert train_ids.isdisjoint(test_ids)
    left = sum(1 for a in s.agents if a.role == Role.PLAYER and a.team == 0
               and a.identity in train_ids)
    right = sum(1 for a in s.agents if a.role == Role.PLAYER and a.team == 1
                and a.identity in train_ids)
    other = sum(1 for a in s.agents if a.role != Role.PLAYER
                and a.identity in train_ids)
    assert left >= 4 and right >= 4 and other >= 3
    with pytest.raises(ValueError):
        to_reid_dataset(s, sampling_stride=0)


def test_tracking_input_oracle_features():
    s = generate(small_config(frames=30))
    frame_inputs, gt_records = to_tracking_input(s, features="oracle",
                                                 feature_sigma=0.0, seed=0)
    assert len(frame_inputs) == 30
    n_dets = sum(len(d) for d in frame_inputs)
    assert n_dets == len(gt_records)
    d = frame_inputs[0][0]
    assert d.features.visibility.all()
    assert int(np.argmax(d.role_logits)) == int(d.gt_role)
    # same identity, no noise: identical features in every frame
    d2 = next(x for x in frame_inputs[5] if x.gt_identity == d.gt_identity)
    np.testing.assert_allclose(d.features.parts, d2.features.parts)


def test_tracking_input_noise_modes():
    s = generate(small_config(frames=40))
    clean, _ = to_tracking_input(s, seed=0)
    drop, _ = to_tracking_input(s, detector_noise="dropout",
                                noise_param=0.5, seed=0)
    assert sum(map(len, drop)) < sum(map(len, clean))
    jit, _ = to_tracking_input(s, detector_noise="jitter",
                               noise_param=3.0, seed=0)
    assert jit[0][0].box.x != clean[0][0].box.x
    with pytest.raises(ValueError):
        to_tracking_input(s, detector_noise="blur")


def test_oracle_projection_deterministic():
    cfg = small_config()
    p1, o1 = oracle_feature_projection(cfg)
    p2, o2 = oracle_feature_projection(cfg)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(o1, o2)
    assert p1.shape == (8, cfg.channels)
    assert o1.shape == (cfg.num_parts + 1, 8)


def test_team_and_role_separations_control_latents():
    wide = generate(small_config(team_separation=6.0, identity_separation=0.0,
                                 frames=1))
    left = [a.latent for a in wide.agents
            if a.role == Role.PLAYER and a.team == 0]
    right = [a.latent for a in wide.agents
             if a.role == Role.PLAYER and a.team == 1]
    gap = np.linalg.norm(np.mean(left, axis=0) - np.mean(right, axis=0))
    assert gap == pytest.approx(6.0, rel=1e-9)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("kw", [
    dict(frames=90, occlusion_rate=0.4, exit_rate=0.3, seed=1),
    dict(frames=60, occlusion_rate=0.5, num_parts=1, channels=8, seed=2),
    dict(frames=60, occlusion_rate=0.3, grid_w=2, feature_noise_sigma=0.0,
         seed=3),
    # One agent who is gone most of the clip: frames where nobody is present.
    dict(frames=60, n_players_per_team=1, n_goalkeepers=0, n_referees=0,
         n_staff=0, occlusion_rate=0.3, exit_rate=1.0, seed=4),
])
def test_generate_equals_per_agent_oracle(kw):
    cfg = small_config(**kw)
    got, want = generate(cfg), brute_generate(cfg)
    for a, b in zip(got.agents, want.agents, strict=True):
        assert (a.identity, a.team, a.role) == (b.identity, b.team, b.role)
        assert _bits(a.latent) == _bits(b.latent)
    empty = 0
    for frame_got, frame_want in zip(got.frames, want.frames, strict=True):
        empty += not any(ob.present for ob in frame_got)
        for a, b in zip(frame_got, frame_want, strict=True):
            assert (a.frame, a.identity, a.present) == \
                (b.frame, b.identity, b.present)
            if not b.present:
                assert (a.box, a.part_visible, a.grid) == (None, None, None)
                continue
            assert _bits([a.box.x, a.box.y, a.box.w, a.box.h]) == \
                _bits([b.box.x, b.box.y, b.box.w, b.box.h])
            assert _bits(a.part_visible) == _bits(b.part_visible)
            assert _bits(a.grid.cells) == _bits(b.grid.cells)
            assert _bits(a.grid.part_labels) == _bits(b.grid.part_labels)
    if cfg.exit_rate == 1.0:
        assert empty > 0


def test_agent_lookup_by_identity():
    s = generate(small_config(frames=1))
    assert [s.agent(a.identity) for a in s.agents] == s.agents
    for unknown in (0, len(s.agents) + 1, -1):
        with pytest.raises(KeyError):
            s.agent(unknown)


# Occlusion and exits; one part, so an occluded agent can have every part
# hidden; one agent who is gone most of the clip, so frames are empty.
_TRACKING_SCENARIOS = (
    dict(frames=60, occlusion_rate=0.4, exit_rate=0.3, seed=1),
    dict(frames=60, occlusion_rate=0.5, num_parts=1, channels=8, seed=2),
    dict(frames=60, n_players_per_team=1, n_goalkeepers=0, n_referees=0,
         n_staff=0, occlusion_rate=0.3, exit_rate=1.0, seed=4),
)


@pytest.mark.parametrize("features", ["oracle", "none"])
@pytest.mark.parametrize("noise,param", [("none", 0.0), ("jitter", 8.0),
                                         ("dropout", 0.2)])
def test_tracking_input_equals_per_detection_oracle(noise, param, features):
    hidden = empty = 0
    for kw in _TRACKING_SCENARIOS:
        s = generate(small_config(**kw))
        args = (s, noise, param, features, 0.05, 7)
        got, got_gt = to_tracking_input(*args)
        want, want_gt = brute_tracking_input(*args)
        assert got_gt == want_gt
        assert _bits([r[2:] for r in got_gt]) == \
            _bits([r[2:] for r in want_gt])
        for frame_got, frame_want in zip(got, want, strict=True):
            empty += not frame_want
            for a, b in zip(frame_got, frame_want, strict=True):
                assert (a.frame, a.confidence, a.gt_identity, a.gt_team,
                        a.gt_role) == (b.frame, b.confidence, b.gt_identity,
                                       b.gt_team, b.gt_role)
                assert _bits([a.box.x, a.box.y, a.box.w, a.box.h]) == \
                    _bits([b.box.x, b.box.y, b.box.w, b.box.h])
                if features == "none":
                    assert a.features is a.role_logits is None
                    continue
                for name in ("parts", "foreground", "visibility"):
                    assert _bits(getattr(a.features, name)) == \
                        _bits(getattr(b.features, name))
                assert _bits(a.role_logits) == _bits(b.role_logits)
                hidden += not b.features.visibility.any()
    assert empty > 0
    if features == "oracle":
        assert hidden > 0


def test_detection_table_checks_boxes():
    table, _ = detection_table(generate(small_config(frames=3)))
    assert table.boxes.shape == (len(table.frame), 4)
    for row, col, value, message in ((0, 0, np.nan, "finite"),
                                     (1, 2, 0.0, "positive"),
                                     (2, 3, -1.0, "positive")):
        boxes = table.boxes.copy()
        boxes[row, col] = value
        with pytest.raises(ValueError, match=message):
            DetectionTable(table.frame, table.det_index, boxes,
                           table.gt_identity, table.gt_team, table.gt_role,
                           table.features)


# A full roster with occlusion and exits, so frames hold many detections;
# two agents under heavy occlusion and exits, so a frame in the middle and
# the last frames hold none.
_EMBED_SCENARIOS = (
    dict(frames=30, occlusion_rate=0.4, exit_rate=0.3, seed=1),
    dict(frames=60, n_players_per_team=1, n_goalkeepers=0, n_referees=0,
         n_staff=0, occlusion_rate=0.8, exit_rate=0.5, seed=16),
)


@pytest.mark.parametrize("noise,param", [("jitter", 8.0), ("dropout", 0.2)])
def test_embed_detections_equals_per_frame_oracle(noise, param):
    mid_empty = trailing_empty = 0
    for kw in _EMBED_SCENARIOS:
        cfg = small_config(**kw)
        s = generate(cfg)
        model = EmbedderModel.init(channels=cfg.channels,
                                   num_parts=cfg.num_parts, seed=5)
        table, _ = detection_table(s, noise, param, "none", seed=7)
        got = embed_detections(model, s, table)
        frame_inputs, _ = brute_tracking_input(s, noise, param, "none",
                                               0.05, 7)
        want = brute_embed_detections(model, s, frame_inputs)
        assert got.frame.tolist() == [r.frame for r in want]
        assert got.det_index.tolist() == [r.det_index for r in want]
        for name, column in (
                ("parts", [r.features.parts for r in want]),
                ("foreground", [r.features.foreground for r in want]),
                ("visibility", [r.features.visibility for r in want]),
                ("role_logits", [r.role_logits for r in want])):
            assert _bits(getattr(got, name)) == _bits(np.stack(column)), name

        frames = tracker_frames(dataclasses.replace(table, features=got),
                                cfg.frames)
        assert len(frames) == cfg.frames
        sizes = [len(dets) for dets in frames]
        assert sizes == [len(dets) for dets in frame_inputs]
        mid_empty += 0 in sizes[:max(np.flatnonzero(sizes)) + 1]
        trailing_empty += sizes[-1] == 0
        rows = [d for dets in frames for d in dets]
        for d, rec in zip(rows, want, strict=True):
            assert d.frame == rec.frame
            for name in ("parts", "foreground", "visibility"):
                assert _bits(getattr(d.features, name)) == \
                    _bits(getattr(rec.features, name))
            assert _bits(d.role_logits) == _bits(rec.role_logits)
    assert mid_empty and trailing_empty
