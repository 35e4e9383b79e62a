import numpy as np
import pytest

from prtrack import embedder
from prtrack.core import Role
from prtrack.embedder import (EmbedderModel, FeatureGrid, GridSample,
                              InsufficientIdentities, TrainConfig,
                              _forward_arrays, _lr_at, forward_batch,
                              grad_check, loss_and_grad, sample_batch, train)
from prtrack.losses import LossWeights


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
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grid = make_grid(rng)
    (pfs,), _ = forward_batch(model, [grid])
    argmax = part_masks(model, grid).reshape(-1, 4).argmax(axis=1)
    for j in range(3):
        assert pfs.visibility[j + 1] == int((argmax == j + 1).any())
    assert pfs.visibility[0] == int(pfs.visibility[1:].any())


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
    ids = [s.identity for s in batch]
    assert len(set(ids)) == 11
    teams = [s.team for s in batch if s.role == Role.PLAYER]
    assert teams.count(0) == 16 and teams.count(1) == 16


def test_sample_batch_insufficient(rng):
    data = make_dataset(rng, n_left=3)
    with pytest.raises(InsufficientIdentities):
        sample_batch(data, np.random.default_rng(0))


def test_train_draws_sample_batch_batches(rng, monkeypatch):
    """``train`` groups the samples once, and its steps draw the batches
    that repeated ``sample_batch`` calls draw from a generator seeded
    alike."""
    data = make_dataset(rng, per_id=3)
    cfg = TrainConfig(epochs=3, steps_per_epoch=2, samples_per_identity=2,
                      seed=4)
    seen = []
    loss_and_grad_ = embedder.loss_and_grad

    def spy(model, batch, cfg):
        seen.append([id(s.grid) for s in batch])
        return loss_and_grad_(model, batch, cfg)
    monkeypatch.setattr(embedder, "loss_and_grad", spy)
    train(cfg, data)
    draws = np.random.default_rng(cfg.seed)
    assert seen == [[id(s.grid) for s in sample_batch(data, draws, 2)]
                    for _ in range(6)]


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
