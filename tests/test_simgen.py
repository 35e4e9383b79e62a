import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prtrack.core import Role
from prtrack.embedder import EmbedderModel, forward_batch
from prtrack.simgen import (GALLERY, QUERY, TRAIN, DetectionTable,
                            ScenarioConfig, _frame_cells, detection_table,
                            embed_detections, generate,
                            oracle_feature_projection, reid_samples,
                            to_reid_dataset, to_tracking_input)

from oracles import (brute_embed_detections, brute_generate,
                     brute_reid_dataset, brute_tracking_input, mot_table)


def small_config(**kw):
    base = dict(frames=60, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="n_players_per_team"):
        ScenarioConfig(n_players_per_team=0)
    with pytest.raises(ValueError, match="occlusion_rate"):
        ScenarioConfig(occlusion_rate=1.5)
    with pytest.raises(ValueError, match="feature_noise_sigma"):
        ScenarioConfig(feature_noise_sigma=-1)
    with pytest.raises(ValueError, match="channels"):
        ScenarioConfig(channels=5)
    with pytest.raises(ValueError, match="grid_h must be >= num_parts"):
        ScenarioConfig(grid_h=4, num_parts=5)
    for name, bad in (("pitch_width", float("nan")),
                      ("pitch_height", float("inf")),
                      ("feature_noise_sigma", float("nan")),
                      ("role_separation", float("inf")),
                      ("team_separation", float("nan")),
                      ("identity_separation", float("inf")),
                      ("part_signature_scale", float("nan")),
                      ("part_signature_scale", float("-inf"))):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: bad})
    with pytest.raises(ValueError, match="^team_separation must be >= 0"):
        ScenarioConfig(team_separation=-1.0)
    ScenarioConfig()


def test_roster_and_determinism():
    cfg = small_config()
    s1 = generate(cfg)
    s2 = generate(cfg)
    assert len(s1.agent_role) == 2 * 10 + 2 + 2 + 1
    roles = s1.agent_role.tolist()
    assert roles.count(Role.PLAYER) == 20
    assert roles.count(Role.GOALKEEPER) == 2
    assert np.unique(s1.frame).tolist() == list(range(1, 61))
    for name in ("agent_team", "agent_role", "agent_latent", "frame",
                 "identity", "cells"):
        np.testing.assert_array_equal(getattr(s1, name), getattr(s2, name))


def test_boxes_stay_on_pitch():
    s = generate(small_config(frames=200))
    x, y, w, h = s.boxes.T
    cx, cy = x + w / 2.0, y + h / 2.0
    assert ((0 <= cx) & (cx <= s.config.pitch_width)).all()
    assert ((0 <= cy) & (cy <= s.config.pitch_height)).all()


def test_occlusion_produces_absences_and_partial_visibility():
    s = generate(small_config(frames=300, occlusion_rate=0.4, seed=1))
    absent = s.config.frames * len(s.agent_role) - len(s.frame)
    partial = 0
    for part_visible, part_labels in zip(s.part_visible, s.part_labels):
        if part_visible.sum() < s.config.num_parts:
            partial += 1
            hidden = np.flatnonzero(part_visible == 0) + 1
            assert not np.isin(part_labels, hidden).any()
    assert absent > 0
    assert partial > 0


def test_no_occlusion_means_full_visibility():
    s = generate(small_config(frames=40))
    assert list(zip(s.frame.tolist(), s.identity.tolist())) == [
        (t, i) for t in range(1, 41)
        for i in range(1, len(s.agent_role) + 1)]
    assert (s.part_visible.sum(axis=1) == s.config.num_parts).all()


def test_reid_dataset_split_disjoint():
    s = generate(small_config(frames=120))
    train, queries, gallery = to_reid_dataset(s, sampling_stride=10)
    train_ids = set(s.identity[train].tolist())
    test_ids = set(s.identity[np.concatenate([queries, gallery])].tolist())
    assert train_ids.isdisjoint(test_ids)
    trained = np.isin(np.arange(1, len(s.agent_role) + 1), list(train_ids))
    player = s.agent_role == Role.PLAYER
    left = np.count_nonzero(trained & player & (s.agent_team == 0))
    right = np.count_nonzero(trained & player & (s.agent_team == 1))
    other = np.count_nonzero(trained & ~player)
    assert left >= 4 and right >= 4 and other >= 3
    with pytest.raises(ValueError):
        to_reid_dataset(s, sampling_stride=0)


# 150 frames, so samples fall in two views; exits on most of the clip, so
# some held-out identity has fewer than 2 samples and goes to the gallery
# only, at every stride.
_REID_SCENARIO = dict(frames=150, n_players_per_team=6, occlusion_rate=0.3,
                      exit_rate=0.8, seed=3)


@pytest.mark.parametrize("stride", [1, 5, 25])
def test_reid_dataset_equals_per_observation_oracle(stride):
    cfg = small_config(**_REID_SCENARIO)
    s = generate(cfg)
    got = to_reid_dataset(s, sampling_stride=stride)
    samples = reid_samples(s, sampling_stride=stride)
    want = brute_reid_dataset(brute_generate(cfg), sampling_stride=stride)
    for rows, subset, want_split in zip(got, (TRAIN, QUERY, GALLERY), want,
                                        strict=True):
        assert rows.dtype == int
        batch = samples.batch(subset)
        view = samples.view[samples.rows(subset)]
        assert len(rows) == len(batch) == len(want_split)
        for r, b in enumerate(want_split):
            assert (batch.identity[r], batch.team[r], batch.role[r],
                    view[r]) == \
                (b.identity, -1 if b.team is None else b.team, b.role, b.view)
            assert _bits(batch.cells[r]) == _bits(b.grid.cells)
            assert _bits(batch.part_labels[r]) == _bits(b.grid.part_labels)
    _, queries, gallery = got
    assert set(s.identity[gallery]) - set(s.identity[queries])
    assert set(s.view[np.concatenate(got)].tolist()) == {0, 1}


def test_tracking_input_oracle_features():
    s = generate(small_config(frames=30))
    frame_inputs, gt_records = to_tracking_input(s, features="oracle",
                                                 feature_sigma=0.0, seed=0)
    assert len(frame_inputs) == 30
    assert sum(map(len, frame_inputs)) == len(gt_records)
    first, sixth = frame_inputs[0], frame_inputs[5]
    assert first.features.visibility[0].all()
    assert np.argmax(first.features.role_logits[0]) == first.gt_role[0]
    # same identity, no noise: identical features in every frame
    j = np.flatnonzero(sixth.gt_identity == first.gt_identity[0])[0]
    np.testing.assert_allclose(first.features.parts[0],
                               sixth.features.parts[j])


def test_tracking_input_noise_modes():
    s = generate(small_config(frames=40))
    clean, _ = to_tracking_input(s, seed=0)
    drop, _ = to_tracking_input(s, detector_noise="dropout",
                                noise_param=0.5, seed=0)
    assert sum(map(len, drop)) < sum(map(len, clean))
    jit, _ = to_tracking_input(s, detector_noise="jitter",
                               noise_param=3.0, seed=0)
    assert jit[0].boxes[0, 0] != clean[0].boxes[0, 0]
    with pytest.raises(ValueError):
        to_tracking_input(s, detector_noise="blur")
    # A negative scale fails as rng.normal's does, drawn at once or not.
    for args in (("jitter", -1.0), ("none", 0.0, "oracle", -0.1),
                 ("dropout", 0.2, "oracle", -0.1)):
        with pytest.raises(ValueError):
            to_tracking_input(s, *args)
    # A drop probability above 1 would drop every detection.
    for features in ("oracle", "none"):
        with pytest.raises(ValueError,
                           match=r"noise_param must be in \[0, 1\]"):
            detection_table(s, "dropout", 1.5, features)


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
    player = wide.agent_role == Role.PLAYER
    left = wide.agent_latent[player & (wide.agent_team == 0)]
    right = wide.agent_latent[player & (wide.agent_team == 1)]
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
    assert [b.identity for b in want.agents] == list(
        range(1, len(got.agent_role) + 1))
    assert got.agent_team.tolist() == [-1 if b.team is None else b.team
                                       for b in want.agents]
    assert got.agent_role.tolist() == [b.role for b in want.agents]
    assert _bits(got.agent_latent) == _bits([b.latent for b in want.agents])
    observations = [ob for frame in want.frames for ob in frame]
    present = [ob for ob in observations if ob.present]
    keys = list(zip(got.frame.tolist(), got.identity.tolist()))
    assert keys == [(ob.frame, ob.identity) for ob in present]
    assert not {(ob.frame, ob.identity) for ob in observations
                if not ob.present} & set(keys)
    for r, b in enumerate(present):
        assert _bits(got.boxes[r]) == \
            _bits([b.box.x, b.box.y, b.box.w, b.box.h])
        assert _bits(got.part_visible[r]) == _bits(b.part_visible)
        assert _bits(got.cells[r]) == _bits(b.grid.cells)
        assert _bits(got.part_labels[r]) == _bits(b.grid.part_labels)
    empty = cfg.frames - len(np.unique(got.frame))
    if cfg.exit_rate == 1.0:
        assert empty > 0


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
        cfg = small_config(**kw)
        args = (noise, param, features, 0.05, 7)
        got, got_gt = to_tracking_input(generate(cfg), *args)
        want, want_gt = brute_tracking_input(brute_generate(cfg), *args)
        want_gt = mot_table(want_gt)
        for name in ("frame", "id", "boxes", "conf", "class_id",
                     "visibility"):
            assert _bits(getattr(got_gt, name)) == \
                _bits(getattr(want_gt, name)), name
        for frame_got, frame_want in zip(got, want, strict=True):
            empty += not frame_want
            assert len(frame_got) == len(frame_want)
            assert frame_got.det_index.tolist() == list(range(len(frame_got)))
            f = frame_got.features
            assert (f is None) == (features == "none")
            for r, b in enumerate(frame_want):
                assert b.confidence == 1.0
                assert (frame_got.frame[r], frame_got.gt_identity[r],
                        frame_got.gt_team[r], frame_got.gt_role[r]) == \
                    (b.frame, b.gt_identity,
                     -1 if b.gt_team is None else b.gt_team, b.gt_role)
                assert _bits(frame_got.boxes[r]) == \
                    _bits([b.box.x, b.box.y, b.box.w, b.box.h])
                if f is None:
                    assert b.features is b.role_logits is None
                    continue
                for name in ("parts", "foreground", "visibility"):
                    assert _bits(getattr(f, name)[r]) == \
                        _bits(getattr(b.features, name))
                assert _bits(f.role_logits[r]) == _bits(b.role_logits)
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
        records = brute_generate(cfg)
        frame_inputs, _ = brute_tracking_input(records, noise, param, "none",
                                               0.05, 7)
        want = brute_embed_detections(model, records, frame_inputs)
        assert got.frame.tolist() == [r.frame for r in want]
        assert got.det_index.tolist() == [r.det_index for r in want]
        for name, column in (
                ("parts", [r.features.parts for r in want]),
                ("foreground", [r.features.foreground for r in want]),
                ("visibility", [r.features.visibility for r in want]),
                ("role_logits", [r.role_logits for r in want])):
            assert _bits(getattr(got, name)) == _bits(np.stack(column)), name

        frames = dataclasses.replace(table, features=got).by_frame(
            cfg.frames)
        assert len(frames) == cfg.frames
        sizes = [len(t) for t in frames]
        assert sizes == [len(dets) for dets in frame_inputs]
        mid_empty += 0 in sizes[:max(np.flatnonzero(sizes)) + 1]
        trailing_empty += sizes[-1] == 0
        rows = [(t, r) for t in frames for r in range(len(t))]
        for (t, r), rec in zip(rows, want, strict=True):
            assert t.frame[r] == t.features.frame[r] == rec.frame
            for name in ("parts", "foreground", "visibility"):
                assert _bits(getattr(t.features, name)[r]) == \
                    _bits(getattr(rec.features, name))
            assert _bits(t.features.role_logits[r]) == _bits(rec.role_logits)
    assert mid_empty and trailing_empty


def _strided(identity, stride):
    """Every ``stride``-th row of each identity, in row order."""
    return np.sort(np.concatenate(
        [np.flatnonzero(identity == i)[::stride]
         for i in np.unique(identity)]))


@pytest.mark.parametrize("kw", [
    _REID_SCENARIO,
    # Frames where nobody is present.
    dict(frames=60, n_players_per_team=1, n_goalkeepers=0, n_referees=0,
         n_staff=0, occlusion_rate=0.3, exit_rate=1.0, seed=4),
])
@pytest.mark.parametrize("stride", [1, 5, 25, None])
def test_partial_cells_equal_the_full_scenario(kw, stride):
    """Cells for a subset of rows leave every other column and every drawn
    cell as the full scenario has them."""
    cfg = small_config(**kw)
    full, got = generate(cfg), generate(cfg, stride)
    for name in ("agent_team", "agent_role", "agent_latent", "frame",
                 "identity", "boxes", "part_visible", "part_labels"):
        assert _bits(getattr(got, name)) == _bits(getattr(full, name)), name
    kept = (np.zeros(0, dtype=int) if stride is None
            else _strided(full.identity, stride))
    assert np.flatnonzero(got.cell_row >= 0).tolist() == kept.tolist()
    assert got.cell_row[kept].tolist() == list(range(len(kept)))
    assert got.cells.shape == (len(kept), *full.cells.shape[1:])
    assert _bits(got.cells) == _bits(full.cells[kept])
    want = [ob for frame in brute_generate(cfg).frames for ob in frame
            if ob.present]
    for r in kept.tolist():
        assert _bits(got.cells[got.cell_row[r]]) == _bits(want[r].grid.cells)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        generate(cfg, 0)


@pytest.mark.parametrize("stride", [1, 5, 25])
def test_reid_samples_of_a_partial_scenario(stride):
    """A scenario with cells for the sample rows alone gives the samples of
    the full one; with cells for fewer rows, it raises ``ValueError``."""
    cfg = small_config(**_REID_SCENARIO)
    got = reid_samples(generate(cfg, stride), stride)
    want = reid_samples(generate(cfg), stride)
    for subset in (TRAIN, QUERY, GALLERY):
        a, b = got.batch(subset), want.batch(subset)
        for name in ("cells", "part_labels", "identity", "role", "team"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    for name in ("part_labels", "identity", "team", "role", "view",
                 "subset"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for other in (None, stride * 2):
        with pytest.raises(ValueError, match="has no cells"):
            reid_samples(generate(cfg, other), stride)


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(1, 40), players=st.integers(1, 3),
       others=st.integers(0, 2), occlusion=st.sampled_from([0.0, 0.4, 0.8]),
       exits=st.sampled_from([0.0, 0.5, 1.0]),
       stride=st.sampled_from([1, None, 3]), seed=st.integers(0, 1000))
# Frames where nobody is present, before, between and after the rows.
@example(frames=60, players=1, others=0, occlusion=0.3, exits=1.0,
         stride=None, seed=4)
def test_frame_cells_replay_the_stored_cells(frames, players, others,
                                             occlusion, exits, stride, seed):
    """Every frame's cells rebuilt from its saved generator state, in any
    frame order and with one generator, equal that frame's rows of the
    scenario generated with every row's cells, bit for bit, whatever
    ``cell_stride`` the replayed scenario was generated at."""
    cfg = small_config(frames=frames, n_players_per_team=players,
                       n_goalkeepers=others, n_referees=others,
                       n_staff=others, occlusion_rate=occlusion,
                       exit_rate=exits, seed=seed)
    full, s = generate(cfg), generate(cfg, stride)
    assert len(s.frame_state) == frames
    ends = np.searchsorted(full.frame, np.arange(1, frames + 1),
                           side="right").tolist()
    rng = np.random.default_rng(12345)
    for t, lo, hi in reversed(list(zip(range(1, frames + 1), [0, *ends],
                                       ends))):
        got = _frame_cells(s, rng, t, lo, hi)
        assert _bits(got) == _bits(full.cells[lo:hi]), t


@pytest.mark.parametrize("stride", [None, 5])
def test_embed_detections_reads_no_stored_cells(stride):
    """A scenario without stored cells, or with the sample rows' alone,
    gives the features that the full scenario's stored cells give, frame by
    frame, bit for bit, under every detector noise."""
    for kw in _EMBED_SCENARIOS:
        cfg = small_config(**kw)
        full = generate(cfg)
        s = dataclasses.replace(generate(cfg, stride), cells=None)
        model = EmbedderModel.init(channels=cfg.channels,
                                   num_parts=cfg.num_parts, seed=5)
        row_of = {key: r for r, key in enumerate(zip(full.frame.tolist(),
                                                     full.identity.tolist()))}
        for noise, param in (("none", 0.0), ("jitter", 8.0),
                             ("dropout", 0.2)):
            table, _ = detection_table(full, noise, param, "none", seed=7)
            got = embed_detections(model, s, table)
            assert _bits(got.frame) == _bits(table.frame)
            assert _bits(got.det_index) == _bits(table.det_index)
            for dets in table.by_frame(cfg.frames):
                if not len(dets):
                    continue
                rows = [row_of[key] for key in zip(dets.frame.tolist(),
                                                   dets.gt_identity.tolist())]
                feats, vis, logits = forward_batch(model, full.cells[rows])
                mine = got.frame == dets.frame[0]
                assert _bits(got.foreground[mine]) == _bits(feats[:, 0])
                assert _bits(got.parts[mine]) == _bits(feats[:, 1:])
                assert _bits(got.visibility[mine]) == _bits(vis)
                assert _bits(got.role_logits[mine]) == _bits(logits)
