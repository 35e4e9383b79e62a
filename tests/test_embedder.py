from dataclasses import fields

import numpy as np
import pytest

from prtrack import embedder
from prtrack.core import Role
from prtrack.embedder import (PARAM_NAMES, EmbedderModel, FeatureGrid,
                              GridSample, InsufficientIdentities, TrainBatch,
                              TrainConfig, _forward_arrays, _lr_at,
                              forward_batch, grad_check, loss_and_grad,
                              sample_batch, train)
from prtrack.losses import LossWeights
from prtrack.simgen import ScenarioConfig, generate, to_reid_dataset

from oracles import (brute_draw_batch, brute_group_by_identity,
                     brute_loss_and_grad, brute_train)


def make_grid(rng, h=4, w=3, c=6, k=3):
    labels = rng.integers(0, k + 1, size=(h, w))
    # make sure every part label appears at least once
    flat = labels.reshape(-1)
    for j in range(k + 1):
        flat[j] = j
    return FeatureGrid(rng.normal(size=(h, w, c)), labels)


def make_dataset(rng, n_left=4, n_right=4, n_other=3, per_id=5,
                 h=4, w=3, c=6, k=3):
    data = []
    ident = 0
    def add(team, role, count):
        nonlocal ident
        for _ in range(count):
            for _ in range(per_id):
                data.append(GridSample(make_grid(rng, h, w, c, k),
                                       ident, team, role))
            ident += 1
    add(0, Role.PLAYER, n_left)
    add(1, Role.PLAYER, n_right)
    add(None, Role.REFEREE, n_other)
    return data


def part_masks(model, grid):
    """Soft part masks (H, W, K+1) of one grid."""
    masks = _forward_arrays(model, grid.cells[None])["masks"][0]
    return masks.reshape(*grid.cells.shape[:2], -1)


def test_forward_shapes(rng):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grid = make_grid(rng)
    (pfs,), role_logits = forward_batch(model, [grid])
    masks = part_masks(model, grid)
    assert pfs.parts.shape == (3, 4)
    assert pfs.foreground.shape == (4,)
    assert pfs.visibility.shape == (4,)
    assert role_logits.shape == (1, 4)
    assert masks.shape == (4, 3, 4)
    np.testing.assert_allclose(masks.sum(axis=2), 1.0, atol=1e-12)


def test_forward_batch_matches_single(rng):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grids = [make_grid(rng) for _ in range(4)]
    sets, logits = forward_batch(model, grids)
    for i, g in enumerate(grids):
        (single,), (rl,) = forward_batch(model, [g])
        np.testing.assert_allclose(sets[i].parts, single.parts, atol=1e-12)
        np.testing.assert_allclose(sets[i].foreground, single.foreground,
                                   atol=1e-12)
        np.testing.assert_array_equal(sets[i].visibility, single.visibility)
        np.testing.assert_allclose(logits[i], rl, atol=1e-12)


def test_visibility_follows_argmax(rng):
    """A part is visible when some cell's mask argmax is that part; on
    grids of 3 cells and on 2x2 grids, some parts are hidden."""
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grids = [make_grid(rng)] + [
        FeatureGrid(rng.normal(size=(h, w, 6)), np.zeros((h, w), int))
        for h, w in [(1, 3), (2, 2)] * 10]
    hidden = 0
    for grid in grids:
        (pfs,), _ = forward_batch(model, [grid])
        argmax = part_masks(model, grid).reshape(-1, 4).argmax(axis=1)
        for j in range(3):
            assert pfs.visibility[j + 1] == int((argmax == j + 1).any())
        assert pfs.visibility[0] == int(pfs.visibility[1:].any())
        hidden += 3 - pfs.visibility[1:].sum()
    assert hidden > 0


def test_gradients_match_finite_differences(rng):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=11,
                               seed=3)
    data = make_dataset(rng, per_id=2)
    batch = sample_batch(data, np.random.default_rng(0),
                         samples_per_identity=2)
    cfg = TrainConfig(seed=0)
    worst = grad_check(model, batch, cfg)
    assert worst < 1e-4


def test_sample_batch_composition(rng):
    data = make_dataset(rng)
    batch = sample_batch(data, np.random.default_rng(1))
    assert len(batch) == 11 * 4
    assert len(set(batch.identity.tolist())) == 11
    teams = batch.team[batch.role == int(Role.PLAYER)].tolist()
    assert teams.count(0) == 16 and teams.count(1) == 16


def test_sample_batch_insufficient(rng):
    data = make_dataset(rng, n_left=3)
    with pytest.raises(InsufficientIdentities):
        sample_batch(data, np.random.default_rng(0))
    with pytest.raises(InsufficientIdentities, match="no training samples"):
        sample_batch([], np.random.default_rng(0))
    with pytest.raises(InsufficientIdentities, match="no training samples"):
        train(TrainConfig(), [])


def test_train_draws_sample_batch_batches(rng, monkeypatch):
    """``train`` stacks the samples once, and its steps gather the batches
    that repeated ``sample_batch`` calls draw from a generator seeded
    alike."""
    data = make_dataset(rng, per_id=3)
    cfg = TrainConfig(epochs=3, steps_per_epoch=2, samples_per_identity=2,
                      seed=4)
    seen = []
    loss_and_grad_ = embedder.loss_and_grad

    def spy(model, batch, cfg, workspace):
        seen.append(batch)
        return loss_and_grad_(model, batch, cfg, workspace)
    monkeypatch.setattr(embedder, "loss_and_grad", spy)
    train(cfg, data)
    draws = np.random.default_rng(cfg.seed)
    assert len(seen) == 6
    for got in seen:
        want = sample_batch(data, draws, 2)
        for f in fields(TrainBatch):
            np.testing.assert_array_equal(getattr(got, f.name),
                                          getattr(want, f.name))


def test_lr_schedule():
    cfg = TrainConfig(base_lr=1.0, warmup_epochs=5, decay_epochs=(20, 35))
    assert _lr_at(0, cfg) == pytest.approx(0.2)
    assert _lr_at(4, cfg) == pytest.approx(1.0)
    assert _lr_at(10, cfg) == pytest.approx(1.0)
    assert _lr_at(20, cfg) == pytest.approx(0.1)
    assert _lr_at(40, cfg) == pytest.approx(0.01)


def test_train_is_deterministic_and_learns(rng):
    data = make_dataset(rng, per_id=6)
    cfg = TrainConfig(epochs=8, steps_per_epoch=2, samples_per_identity=2,
                      seed=5)
    m1, h1 = train(cfg, data)
    m2, h2 = train(cfg, data)
    assert h1 == h2
    for name, p in m1.params().items():
        np.testing.assert_array_equal(p, m2.params()[name])
    assert h1[-1] < h1[0]


def test_train_reid_only_weights(rng):
    data = make_dataset(rng, per_id=3)
    cfg = TrainConfig(epochs=2, steps_per_epoch=1, samples_per_identity=2,
                      weights=LossWeights(lambda_team=0.0, lambda_role=0.0))
    model, history = train(cfg, data)
    assert len(history) == 2


def _occluded_train_set(seed=3):
    scenario = generate(ScenarioConfig(frames=130, n_players_per_team=6,
                                       occlusion_rate=0.3, seed=seed))
    train_set, _, _ = to_reid_dataset(scenario, sampling_stride=5)
    return train_set


# (dataset, config) pairs of the oracle tests: an occluded scenario's
# training split; identities with fewer samples than a batch takes of each,
# so each is drawn with replacement; and the cross-entropy role loss on
# identities with exactly as many samples as a batch takes, drawn without.
def _oracle_cases():
    return [
        (_occluded_train_set(), TrainConfig(epochs=4, steps_per_epoch=3,
                                            seed=3)),
        (make_dataset(np.random.default_rng(8), per_id=2),
         TrainConfig(epochs=5, steps_per_epoch=2, samples_per_identity=3,
                     seed=1)),
        (make_dataset(np.random.default_rng(9), per_id=3),
         TrainConfig(epochs=5, steps_per_epoch=2, samples_per_identity=3,
                     focal_gamma=0.0, seed=2)),
    ]


@pytest.mark.parametrize("case", range(3),
                         ids=["occluded", "replace", "gamma0"])
def test_train_equals_per_sample_oracle(case):
    """Gathered batches and the flat Adam update give the per-sample,
    per-parameter training's model and loss history to the bit."""
    data, cfg = _oracle_cases()[case]
    model, history = train(cfg, data)
    want_model, want_history = brute_train(cfg, data)
    assert history == want_history
    for name in PARAM_NAMES:
        got, want = getattr(model, name), getattr(want_model, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("case", range(3),
                         ids=["occluded", "replace", "gamma0"])
def test_loss_and_grad_equals_per_sample_oracle(case):
    """On batches drawn as training draws them, ``loss_and_grad`` on the
    gathered columns returns the oracle's loss, gradients and component
    values to the bit, with a fresh workspace and with one reused."""
    data, cfg = _oracle_cases()[case]
    model, _ = train(TrainConfig(epochs=1, steps_per_epoch=1,
                                 samples_per_identity=cfg.samples_per_identity,
                                 seed=cfg.seed), data)
    ids = sorted({s.identity for s in data})
    remapped = [GridSample(s.grid, ids.index(s.identity), s.team, s.role)
                for s in data]
    rng, brute_rng = np.random.default_rng(5), np.random.default_rng(5)
    workspace = {}
    for step in range(3):
        batch = sample_batch(remapped, rng, cfg.samples_per_identity)
        samples = brute_draw_batch(brute_group_by_identity(remapped),
                                   brute_rng, cfg.samples_per_identity)
        for f in fields(TrainBatch):
            np.testing.assert_array_equal(
                getattr(batch, f.name),
                getattr(TrainBatch.from_samples(samples), f.name))
        value, grads, comps = loss_and_grad(
            model, batch, cfg, workspace if step else None)
        want_value, want_grads, want_comps = brute_loss_and_grad(
            model, samples, cfg)
        assert value == want_value
        assert comps == want_comps
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name
