import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from prtrack import embedder
from prtrack.core import Role
from prtrack.embedder import (PARAM_NAMES, EmbedderModel,
                              InsufficientIdentities, TrainBatch,
                              TrainConfig, _forward_arrays, _lr_at,
                              forward_batch, grad_check, loss_and_grad,
                              sample_batch, train)
from prtrack.losses import LossWeights
from prtrack.simgen import ScenarioConfig

from oracles import (FeatureGrid, GridSample, brute_draw_batch,
                     brute_forward, brute_generate, brute_group_by_identity,
                     brute_loss_and_grad, brute_reid_dataset, brute_train,
                     stack_samples)


def make_grid(rng, h=4, w=3, c=6, k=3):
    labels = rng.integers(0, k + 1, size=(h, w))
    # make sure every part label appears at least once
    flat = labels.reshape(-1)
    for j in range(k + 1):
        flat[j] = j
    return FeatureGrid(rng.normal(size=(h, w, c)), labels)


def make_samples(rng, n_left=4, n_right=4, n_other=3, per_id=5,
                 h=4, w=3, c=6, k=3):
    """Random grids of ``per_id`` samples per identity, as a list of
    ``GridSample``s."""
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


def make_dataset(rng, **kw):
    """:func:`make_samples`'s samples as a ``TrainBatch``."""
    return stack_samples(make_samples(rng, **kw))


def part_masks(model, grid):
    """Soft part masks (H, W, K+1) of one grid."""
    masks = _forward_arrays(model, grid.cells[None])["masks"][0]
    return masks.reshape(*grid.cells.shape[:2], -1)


def test_forward_shapes(rng):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grid = make_grid(rng)
    feats, vis, role_logits = forward_batch(model, grid.cells[None])
    masks = part_masks(model, grid)
    assert feats.shape == (1, 4, 4)
    assert vis.shape == (1, 4)
    assert role_logits.shape == (1, 4)
    assert masks.shape == (4, 3, 4)
    np.testing.assert_allclose(masks.sum(axis=2), 1.0, atol=1e-12)


def test_forward_batch_matches_single(rng):
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    cells = np.stack([make_grid(rng).cells for _ in range(4)])
    feats, vis, logits = forward_batch(model, cells)
    for i in range(len(cells)):
        (single,), (single_vis,), (rl,) = forward_batch(model, cells[i:i + 1])
        np.testing.assert_allclose(feats[i], single, atol=1e-12)
        np.testing.assert_array_equal(vis[i], single_vis)
        np.testing.assert_allclose(logits[i], rl, atol=1e-12)


def test_forward_batch_equals_per_sample_oracle(rng):
    """``forward_batch`` gives the features, visibility and role logits of
    the oracle's grid-by-grid forward pass to the bit: on random grids, on
    grids of zeros, whose logits all tie at an untrained model's zero
    bias, and under a model trained a few steps."""
    data = make_dataset(rng, per_id=3)
    untrained = EmbedderModel.init(channels=6, num_parts=3, dim=8,
                                   n_ids=11, seed=2)
    trained, _ = train(TrainConfig(epochs=2, steps_per_epoch=2,
                                   samples_per_identity=2, seed=2), data)
    grids = np.concatenate([data.cells[:20], np.zeros((3, 4, 3, 6))])
    for model in (untrained, trained):
        feats, vis, role_logits = forward_batch(model, grids)
        fw = brute_forward(model, grids)
        want = np.concatenate([fw["f_fg"][:, None], fw["f_parts"]], axis=1)
        assert feats.tobytes() == want.tobytes()
        assert vis.dtype == fw["vis"].dtype
        assert vis.tobytes() == fw["vis"].tobytes()
        assert role_logits.tobytes() == fw["role_logits"].tobytes()
        if model is untrained:   # tied logits: the first class, background
            np.testing.assert_array_equal(vis[-3:], 0)


def test_visibility_follows_argmax(rng):
    """A part is visible when some cell's mask argmax is that part; on
    grids of 3 cells and on 2x2 grids, some parts are hidden."""
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=5)
    grids = [make_grid(rng)] + [
        FeatureGrid(rng.normal(size=(h, w, 6)), np.zeros((h, w), int))
        for h, w in [(1, 3), (2, 2)] * 10]
    hidden = 0
    for grid in grids:
        _, (vis,), _ = forward_batch(model, grid.cells[None])
        argmax = part_masks(model, grid).reshape(-1, 4).argmax(axis=1)
        for j in range(3):
            assert vis[j + 1] == int((argmax == j + 1).any())
        assert vis[0] == int(vis[1:].any())
        hidden += 3 - vis[1:].sum()
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


@pytest.mark.parametrize("bad", [-1, 4])
def test_loss_and_grad_rejects_part_labels_out_of_range(rng, bad):
    """The part loss reads the forward pass's softmax and still checks the
    labels against its K+1 classes."""
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=11,
                               seed=3)
    batch = sample_batch(make_dataset(rng, per_id=2),
                         np.random.default_rng(0), samples_per_identity=2)
    labels = batch.part_labels.copy()
    labels[3, 1, 2] = bad
    with pytest.raises(ValueError, match="targets out of range"):
        loss_and_grad(model, replace(batch, part_labels=labels),
                      TrainConfig())


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
    empty = data.take(np.zeros(0, dtype=int))
    with pytest.raises(InsufficientIdentities, match="no training samples"):
        sample_batch(empty, np.random.default_rng(0))
    with pytest.raises(InsufficientIdentities, match="no training samples"):
        train(TrainConfig(), empty)


def test_train_draws_sample_batch_batches(rng, monkeypatch):
    """``train``'s steps gather the batches that repeated ``sample_batch``
    calls draw from a generator seeded alike."""
    data = make_dataset(rng, per_id=3)
    cfg = TrainConfig(epochs=3, steps_per_epoch=2, samples_per_identity=2,
                      seed=4)
    seen = []
    loss_and_grad_ = embedder.loss_and_grad

    def spy(model, batch, cfg, **kw):
        seen.append(batch)
        return loss_and_grad_(model, batch, cfg, **kw)
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


def test_train_keeps_no_state_between_calls(rng):
    """``train`` builds its per-call state afresh: calls with two configs
    of different batch sizes, alternated in one process, each return the
    model and history of that config's first call to the bit."""
    data = make_dataset(rng, per_id=3)
    cfgs = [TrainConfig(epochs=2, steps_per_epoch=2, samples_per_identity=2,
                        seed=1),
            TrainConfig(epochs=3, steps_per_epoch=1, samples_per_identity=3,
                        team_margin=0.2, seed=5)]
    first = [train(cfg, data) for cfg in cfgs]
    for _ in range(2):
        for cfg, (want_model, want_history) in zip(cfgs, first):
            model, history = train(cfg, data)
            assert history == want_history
            for name in PARAM_NAMES:
                assert (getattr(model, name).tobytes()
                        == getattr(want_model, name).tobytes()), name


def test_trained_model_does_not_depend_on_blas_threads(tmp_path):
    """Training writes the same model file at 1 and at 2 BLAS threads.
    OpenBLAS reads its thread count when it loads, so each count gets a
    fresh interpreter."""
    script = textwrap.dedent("""
        import sys
        from prtrack.embedder import TrainConfig, train
        from prtrack.motio import save_model
        from prtrack.simgen import (TRAIN, ScenarioConfig, generate,
                                    reid_samples)
        scenario = generate(ScenarioConfig(frames=130, n_players_per_team=6,
                                           occlusion_rate=0.3, seed=3))
        samples = reid_samples(scenario, sampling_stride=5)
        model, _ = train(TrainConfig(epochs=4, steps_per_epoch=3, seed=3),
                         samples.batch(TRAIN))
        save_model(model, sys.argv[1])
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        path = tmp_path / f"model_{threads}.txt"
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        written.append(path.read_bytes())
    assert written[0] == written[1]


def _occluded_train_set(seed=3):
    cfg = ScenarioConfig(frames=130, n_players_per_team=6, occlusion_rate=0.3,
                         seed=seed)
    train_set, _, _ = brute_reid_dataset(brute_generate(cfg),
                                         sampling_stride=5)
    return train_set


# (samples, config) pairs of the oracle tests: an occluded scenario's
# training split; identities with fewer samples than a batch takes of each,
# so each is drawn with replacement; and the cross-entropy role loss on
# identities with exactly as many samples as a batch takes, drawn without.
def _oracle_cases():
    return [
        (_occluded_train_set(), TrainConfig(epochs=4, steps_per_epoch=3,
                                            seed=3)),
        (make_samples(np.random.default_rng(8), per_id=2),
         TrainConfig(epochs=5, steps_per_epoch=2, samples_per_identity=3,
                     seed=1)),
        (make_samples(np.random.default_rng(9), per_id=3),
         TrainConfig(epochs=5, steps_per_epoch=2, samples_per_identity=3,
                     focal_gamma=0.0, seed=2)),
    ]


@pytest.mark.parametrize("case", range(3),
                         ids=["occluded", "replace", "gamma0"])
def test_train_equals_per_sample_oracle(case):
    """Gathered batches and the flat Adam update give the per-sample,
    per-parameter training's model and loss history to the bit."""
    data, cfg = _oracle_cases()[case]
    model, history = train(cfg, stack_samples(data))
    want_model, want_history = brute_train(cfg, data)
    assert history == want_history
    for name in PARAM_NAMES:
        got, want = getattr(model, name), getattr(want_model, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


def _oracle_batches(case):
    """``(model, cfg, batch, samples)`` for three steps of an oracle case:
    a model trained one step, and the batches that ``sample_batch`` and
    the oracle's per-sample draw take from generators seeded alike."""
    data, cfg = _oracle_cases()[case]
    model, _ = train(TrainConfig(epochs=1, steps_per_epoch=1,
                                 samples_per_identity=cfg.samples_per_identity,
                                 seed=cfg.seed), stack_samples(data))
    ids = sorted({s.identity for s in data})
    remapped = [GridSample(s.grid, ids.index(s.identity), s.team, s.role)
                for s in data]
    table = stack_samples(remapped)
    rng, brute_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        batch = sample_batch(table, rng, cfg.samples_per_identity)
        samples = brute_draw_batch(brute_group_by_identity(remapped),
                                   brute_rng, cfg.samples_per_identity)
        yield model, cfg, batch, samples


@pytest.mark.parametrize("case", range(3),
                         ids=["occluded", "replace", "gamma0"])
def test_loss_and_grad_equals_per_sample_oracle(case):
    """On batches drawn as training draws them, ``loss_and_grad`` on the
    gathered columns returns the oracle's loss, gradients and component
    values to the bit."""
    for model, cfg, batch, samples in _oracle_batches(case):
        for f in fields(TrainBatch):
            np.testing.assert_array_equal(
                getattr(batch, f.name),
                getattr(stack_samples(samples), f.name))
        value, grads, comps = loss_and_grad(model, batch, cfg)
        want_value, want_grads, want_comps = brute_loss_and_grad(
            model, samples, cfg)
        assert value == want_value
        assert comps == want_comps
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize("case", range(3),
                         ids=["occluded", "replace", "gamma0"])
def test_loss_and_grad_matches_einsum_definition(case):
    """The matrix products of ``loss_and_grad`` give the ``einsum``
    contractions' loss within 1e-12 relative and each gradient within
    1e-12 of that parameter's largest ``einsum`` gradient entry: they
    differ only in summation order."""
    for model, cfg, batch, samples in _oracle_batches(case):
        value, grads, _ = loss_and_grad(model, batch, cfg)
        want_value, want_grads, _ = brute_loss_and_grad(
            model, samples, cfg, einsum=True)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        for name, g in grads.items():
            want = want_grads[name]
            assert (np.abs(g - want).max()
                    <= 1e-12 * np.abs(want).max()), name
