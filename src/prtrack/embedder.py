"""Desk-scale differentiable embedding model.

A feature grid stands in for the backbone's spatial feature map.  A linear
pixel classifier produces soft part masks; part and foreground embeddings
are attention-pooled projections of the grid cells; linear heads provide
identity logits (training only) and role logits.  Trained with the weighted
multi-task objective via hand-derived gradients and Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DataError, PartFeatureSet, Role
from .losses import (LossValue, LossWeights, TripletConfig, focal_loss,
                     gilt_loss, part_prediction_loss, softmax, total_loss,
                     triplet_batch_hard)

__all__ = [
    "DimMismatch",
    "InsufficientIdentities",
    "FeatureGrid",
    "EmbedderModel",
    "TrainConfig",
    "GridSample",
    "forward_batch",
    "loss_and_grad",
    "sample_batch",
    "train",
    "grad_check",
]


class DimMismatch(DataError):
    pass


class InsufficientIdentities(DataError):
    pass


@dataclass(frozen=True)
class FeatureGrid:
    """H'xW' grid of C-dim cell features with per-cell part labels (0 = bg)."""

    cells: np.ndarray        # (H, W, C)
    part_labels: np.ndarray  # (H, W) ints in [0, K]


@dataclass
class GridSample:
    grid: FeatureGrid
    identity: int
    team: int | None   # 0/1, players only
    role: Role
    view: int = 0


# Parameter names in a fixed order, used by Adam, checkpoints, and grad checks.
PARAM_NAMES = ("w_pix", "b_pix", "w_emb", "b_emb", "w_role", "b_role",
               "w_id_g", "b_id_g", "w_id_f", "b_id_f", "w_id_c", "b_id_c")


@dataclass
class EmbedderModel:
    """Linear pixel classifier + projection + role/identity heads."""

    w_pix: np.ndarray   # (C, K+1)
    b_pix: np.ndarray   # (K+1,)
    w_emb: np.ndarray   # (C, D)
    b_emb: np.ndarray   # (D,)
    w_role: np.ndarray  # (D, 4)
    b_role: np.ndarray  # (4,)
    w_id_g: np.ndarray  # (D, n_ids)
    b_id_g: np.ndarray
    w_id_f: np.ndarray  # (D, n_ids)
    b_id_f: np.ndarray
    w_id_c: np.ndarray  # (K*D, n_ids)
    b_id_c: np.ndarray

    def __post_init__(self):
        # C, K+1, D and n_ids are read off w_pix, w_emb and w_id_g.
        c, k1 = self.w_pix.shape[0], self.w_pix.shape[-1]
        d, n = self.w_emb.shape[-1], self.w_id_g.shape[-1]
        for name, shape in zip(PARAM_NAMES, (
                (c, k1), (k1,), (c, d), (d,), (d, 4), (4,), (d, n), (n,),
                (d, n), (n,), ((k1 - 1) * d, n), (n,))):
            if (actual := getattr(self, name).shape) != shape:
                raise ValueError(f"{name} has shape {actual}, "
                                 f"expected {shape}")

    @property
    def num_parts(self) -> int:
        return self.w_pix.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.w_emb.shape[1]

    @property
    def channels(self) -> int:
        return self.w_emb.shape[0]

    @property
    def n_ids(self) -> int:
        return self.w_id_g.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @staticmethod
    def init(channels: int = 16, num_parts: int = 5, dim: int = 8,
             n_ids: int = 11, seed: int = 0) -> "EmbedderModel":
        rng = np.random.default_rng(seed)
        def w(rows, cols):
            return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))
        return EmbedderModel(
            w_pix=w(channels, num_parts + 1), b_pix=np.zeros(num_parts + 1),
            w_emb=w(channels, dim), b_emb=np.zeros(dim),
            w_role=w(dim, 4), b_role=np.zeros(4),
            w_id_g=w(dim, n_ids), b_id_g=np.zeros(n_ids),
            w_id_f=w(dim, n_ids), b_id_f=np.zeros(n_ids),
            w_id_c=w(num_parts * dim, n_ids), b_id_c=np.zeros(n_ids),
        )


@dataclass
class TrainConfig:
    epochs: int = 50
    steps_per_epoch: int = 4
    samples_per_identity: int = 4
    base_lr: float = 1e-2
    warmup_epochs: int = 5
    decay_epochs: tuple[int, int] = (20, 35)
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    reid_margin: float = 0.3
    team_margin: float = 0.05
    focal_gamma: float = 2.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        if not self.base_lr > 0:
            raise ValueError("base_lr must be > 0")
        # The batch-hard triplets need two samples of each identity.
        if self.samples_per_identity < 2:
            raise ValueError("samples_per_identity must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _forward_arrays(model: EmbedderModel, cells: np.ndarray):
    """Shared forward math on a (B, H, W, C) stack of grids.

    Returns a dict of intermediates reused by the backward pass.
    """
    b, h, w, c = cells.shape
    if c != model.channels:
        raise DimMismatch(f"grid channels {c} != model channels {model.channels}")
    k = model.num_parts
    x = cells.reshape(b, h * w, c)
    z = x @ model.w_pix + model.b_pix            # (B, N, K+1)
    masks = softmax(z)
    proj = x @ model.w_emb + model.b_emb         # (B, N, D)

    # Pooling weights: class 0 is background; foreground = 1 - background.
    part_w = masks[:, :, 1:]                     # (B, N, K)
    fg_w = 1.0 - masks[:, :, 0]                  # (B, N)
    part_sum = part_w.sum(axis=1)                # (B, K)
    fg_sum = fg_w.sum(axis=1)                    # (B,)
    f_parts = np.einsum("bnk,bnd->bkd", part_w, proj) / part_sum[:, :, None]
    f_fg = np.einsum("bn,bnd->bd", fg_w, proj) / fg_sum[:, None]
    f_g = proj.mean(axis=1)

    argmax = z.argmax(axis=2)                    # (B, N)
    vis_parts = (argmax[:, :, None] == np.arange(1, k + 1)).any(axis=1)
    vis = np.concatenate([vis_parts.any(axis=1, keepdims=True), vis_parts],
                         axis=1).astype(int)     # (B, K+1): fg, parts

    role_logits = f_fg @ model.w_role + model.b_role
    return {
        "x": x, "z": z, "masks": masks, "proj": proj,
        "part_w": part_w, "fg_w": fg_w, "part_sum": part_sum, "fg_sum": fg_sum,
        "f_parts": f_parts, "f_fg": f_fg, "f_g": f_g,
        "vis": vis, "role_logits": role_logits,
    }


def forward_batch(model: EmbedderModel, grids: list[FeatureGrid]):
    """Vectorized forward over same-shape grids.

    Returns (list of PartFeatureSet, role_logits (B, 4)).
    """
    cells = np.stack([np.asarray(g.cells, float) for g in grids])
    fw = _forward_arrays(model, cells)
    sets = [PartFeatureSet(parts=parts, foreground=fg, visibility=vis)
            for parts, fg, vis in zip(fw["f_parts"], fw["f_fg"], fw["vis"])]
    return sets, fw["role_logits"]


def loss_and_grad(model: EmbedderModel, batch: list[GridSample],
                  cfg: TrainConfig):
    """Total multi-task loss over a batch and model-shaped gradients.

    Returns (loss value, {param name: gradient}, per-component values).
    """
    cells = np.stack([np.asarray(s.grid.cells, float) for s in batch])
    labels_grid = np.stack([np.asarray(s.grid.part_labels, int) for s in batch])
    fw = _forward_arrays(model, cells)
    b, n = fw["z"].shape[:2]
    k, d = model.num_parts, model.dim
    ids = np.array([s.identity for s in batch])
    roles = np.array([int(s.role) for s in batch])
    wts = cfg.weights

    # --- component losses -------------------------------------------------
    # Part prediction: per-image cell-sum, averaged over the batch.
    pa = part_prediction_loss(fw["z"], labels_grid.reshape(b, n))
    pa = LossValue(pa.value / b, pa.gradients / b)

    id_logits = {
        "global": fw["f_g"] @ model.w_id_g + model.b_id_g,
        "foreground": fw["f_fg"] @ model.w_id_f + model.b_id_f,
        "concat": fw["f_parts"].reshape(b, k * d) @ model.w_id_c + model.b_id_c,
    }
    reid = gilt_loss(fw["f_parts"], fw["vis"][:, 1:], id_logits, ids,
                     TripletConfig(margin=cfg.reid_margin))

    players = roles == int(Role.PLAYER)
    if players.sum() >= 4:
        teams = np.array([batch[i].team for i in np.where(players)[0]])
        team = triplet_batch_hard(fw["f_fg"][players], teams,
                                  TripletConfig(margin=cfg.team_margin))
    else:
        team = LossValue(0.0, np.zeros((int(players.sum()), d)))

    role = focal_loss(fw["role_logits"], roles, cfg.focal_gamma)

    components = {"pa": pa, "reid": reid, "team": team, "role": role}
    tot = total_loss(components, wts)
    g = tot.gradients  # per-component gradients, already weight-scaled

    # --- backward ---------------------------------------------------------
    grads = {name: np.zeros_like(p) for name, p in model.params().items()}
    d_fg_emb = np.zeros((b, d))     # grad wrt foreground embedding
    d_g_emb = np.zeros((b, d))      # grad wrt global embedding
    d_parts = np.array(g["reid"]["parts"])  # (B, K, D)

    # Identity heads (holistic scopes).
    dlg = g["reid"]["id_logits"]
    grads["w_id_g"] += fw["f_g"].T @ dlg["global"]
    grads["b_id_g"] += dlg["global"].sum(axis=0)
    d_g_emb += dlg["global"] @ model.w_id_g.T
    grads["w_id_f"] += fw["f_fg"].T @ dlg["foreground"]
    grads["b_id_f"] += dlg["foreground"].sum(axis=0)
    d_fg_emb += dlg["foreground"] @ model.w_id_f.T
    flat_parts = fw["f_parts"].reshape(b, k * d)
    grads["w_id_c"] += flat_parts.T @ dlg["concat"]
    grads["b_id_c"] += dlg["concat"].sum(axis=0)
    d_parts += (dlg["concat"] @ model.w_id_c.T).reshape(b, k, d)

    # Team triplet on player foreground embeddings.
    if players.any():
        d_fg_emb[players] += g["team"]

    # Role head (focal) on the foreground embedding.
    d_role_z = g["role"]
    grads["w_role"] += fw["f_fg"].T @ d_role_z
    grads["b_role"] += d_role_z.sum(axis=0)
    d_fg_emb += d_role_z @ model.w_role.T

    # Backprop pooled embeddings into per-cell projections and mask weights.
    proj, part_w, fg_w = fw["proj"], fw["part_w"], fw["fg_w"]
    part_sum, fg_sum = fw["part_sum"], fw["fg_sum"]
    d_proj = np.zeros_like(proj)                      # (B, N, D)
    d_mask = np.zeros_like(fw["masks"])               # (B, N, K+1)

    # Global embedding: plain mean over cells.
    d_proj += d_g_emb[:, None, :] / n

    # Part embeddings: f_k = sum_c m p / sum_c m.
    d_proj += np.einsum("bnk,bkd->bnd", part_w, d_parts / part_sum[:, :, None])
    resid = proj[:, None, :, :] - fw["f_parts"][:, :, None, :]  # (B, K, N, D)
    d_mask[:, :, 1:] += np.einsum(
        "bknd,bkd->bnk", resid, d_parts / part_sum[:, :, None])

    # Foreground embedding via weight 1 - m_background.
    d_proj += fg_w[:, :, None] * d_fg_emb[:, None, :] / fg_sum[:, None, None]
    resid_f = proj - fw["f_fg"][:, None, :]
    d_fg_w = np.einsum("bnd,bd->bn", resid_f, d_fg_emb / fg_sum[:, None])
    d_mask[:, :, 0] -= d_fg_w

    # Softmax backward for the mask weights, plus direct part-prediction grad.
    m = fw["masks"]
    dz = m * (d_mask - (d_mask * m).sum(axis=2, keepdims=True))
    dz += g["pa"]

    x = fw["x"]
    grads["w_pix"] += np.einsum("bnc,bnk->ck", x, dz)
    grads["b_pix"] += dz.sum(axis=(0, 1))
    grads["w_emb"] += np.einsum("bnc,bnd->cd", x, d_proj)
    grads["b_emb"] += d_proj.sum(axis=(0, 1))

    comp_values = {name: lv.value for name, lv in components.items()}
    return tot.value, grads, comp_values


def sample_batch(dataset: list[GridSample], rng: np.random.Generator,
                 samples_per_identity: int = 4) -> list[GridSample]:
    """Draw 4 left-team + 4 right-team player identities and 3 other-role
    identities, ``samples_per_identity`` grids each."""
    return _draw_batch(_group_by_identity(dataset), rng, samples_per_identity)


def _group_by_identity(dataset: list[GridSample]):
    """``(samples by identity, left, right, other)``: the sorted player ids
    of each team and the sorted ids of the other roles."""
    by_id: dict[int, list[GridSample]] = {}
    for s in dataset:
        by_id.setdefault(s.identity, []).append(s)
    left = sorted(i for i, ss in by_id.items()
                  if ss[0].role == Role.PLAYER and ss[0].team == 0)
    right = sorted(i for i, ss in by_id.items()
                   if ss[0].role == Role.PLAYER and ss[0].team == 1)
    other = sorted(i for i, ss in by_id.items() if ss[0].role != Role.PLAYER)
    return by_id, left, right, other


def _draw_batch(groups, rng: np.random.Generator,
                samples_per_identity: int) -> list[GridSample]:
    """:func:`sample_batch`'s draw from :func:`_group_by_identity`'s
    grouping."""
    by_id, left, right, other = groups
    if len(left) < 4 or len(right) < 4 or len(other) < 3:
        raise InsufficientIdentities(
            f"need 4+4 player ids per team and 3 other-role ids, "
            f"got {len(left)}/{len(right)}/{len(other)}")
    chosen = (list(rng.choice(left, 4, replace=False))
              + list(rng.choice(right, 4, replace=False))
              + list(rng.choice(other, 3, replace=False)))
    batch = []
    for ident in chosen:
        pool = by_id[ident]
        replace = len(pool) < samples_per_identity
        picks = rng.choice(len(pool), samples_per_identity, replace=replace)
        batch.extend(pool[j] for j in picks)
    return batch


def _lr_at(epoch: int, cfg: TrainConfig) -> float:
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        lr = cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    else:
        lr = cfg.base_lr
    for de in cfg.decay_epochs:
        if epoch >= de:
            lr *= 0.1
    return lr


def train(cfg: TrainConfig, dataset: list[GridSample],
          model: EmbedderModel | None = None):
    """Adam training with linear warmup and step decay.

    Returns (model, per-epoch mean loss history).  Deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    ids = sorted({s.identity for s in dataset})
    if model is None:
        sample = dataset[0]
        h, w, c = np.asarray(sample.grid.cells).shape
        k = int(max(np.asarray(s.grid.part_labels).max() for s in dataset))
        model = EmbedderModel.init(channels=c, num_parts=k, dim=8,
                                   n_ids=len(ids), seed=cfg.seed)
    id_index = {ident: j for j, ident in enumerate(ids)}
    remapped = [GridSample(s.grid, id_index[s.identity], s.team, s.role, s.view)
                for s in dataset]

    m_state = {k_: np.zeros_like(p) for k_, p in model.params().items()}
    v_state = {k_: np.zeros_like(p) for k_, p in model.params().items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    history = []
    groups = _group_by_identity(remapped)
    for epoch in range(cfg.epochs):
        lr = _lr_at(epoch, cfg)
        epoch_losses = []
        for _ in range(cfg.steps_per_epoch):
            batch = _draw_batch(groups, rng, cfg.samples_per_identity)
            value, grads, _ = loss_and_grad(model, batch, cfg)
            epoch_losses.append(value)
            t += 1
            for name in PARAM_NAMES:
                gr = grads[name]
                m_state[name] = beta1 * m_state[name] + (1 - beta1) * gr
                v_state[name] = beta2 * v_state[name] + (1 - beta2) * gr**2
                mhat = m_state[name] / (1 - beta1**t)
                vhat = v_state[name] / (1 - beta2**t)
                p = getattr(model, name)
                setattr(model, name, p - lr * mhat / (np.sqrt(vhat) + eps))
        history.append(float(np.mean(epoch_losses)))
    return model, history


def grad_check(model: EmbedderModel, batch: list[GridSample],
               cfg: TrainConfig, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every model parameter."""
    _, grads, _ = loss_and_grad(model, batch, cfg)
    worst = 0.0
    for name in PARAM_NAMES:
        p = getattr(model, name)
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lo_hi, _, _ = loss_and_grad(model, batch, cfg)
            flat[i] = orig - step
            lo_lo, _, _ = loss_and_grad(model, batch, cfg)
            flat[i] = orig
            fd = (lo_hi - lo_lo) / (2 * step)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-4)
            worst = max(worst, rel)
    return worst
