"""Desk-scale differentiable embedding model.

A feature grid stands in for the backbone's spatial feature map.  A linear
pixel classifier produces soft part masks; part and foreground embeddings
are attention-pooled projections of the grid cells; linear heads provide
identity logits (training only) and role logits.  Trained with the weighted
multi-task objective via hand-derived gradients and Adam.
:func:`forward_batch` is the one forward entry point outside training: it
embeds a ``(B, H, W, C)`` stack of grids into arrays, for detections and
retrieval samples alike.

A training step is a few array operations on state built once per
:func:`train` call, before its loop (``_StepPlan``): the flat gradient
vector with a view per parameter; the re-id objective's scope buffers,
the ``(3, B, n_ids)`` identity logits and the ``(K+1, B, ·)``
embeddings, visibility and same-label matrices that its triplet kernel
reads; and the kernel's per-shape constants, the off-diagonal mask, the
row offsets and the gradient sign vector.  Each step overwrites them; a
:func:`loss_and_grad` call without a plan builds its own.  Adam's
products and quotients go to two buffers of the parameter vector's size.
The first four points below give the bits of the per-sample,
per-parameter algorithm they replaced; the last changes its last digits:

- The training set is a :class:`TrainBatch` of columns, one row per
  sample.  A step draws row indices, with the same generator calls as
  drawing samples, and gathers its rows with one ``take`` per column: the
  stack of the same rows, so the forward pass reads the same values.
- Adam keeps the parameters, ``m`` and ``v`` as flat vectors, and the
  model holds a view into the parameter vector per parameter.  Adam is
  elementwise, and the flat update does each element's operations in the
  per-parameter order, so the flat and the per-parameter updates agree to
  the bit.  :func:`loss_and_grad` writes the gradients into views of one
  flat vector in the same layout, each assigned once, and Adam reads that
  vector as it is.
- One call of the batch-hard triplet kernel serves the K part scopes of
  the re-id objective and the team triplet, as scope K+1 over the
  foreground embeddings of all rows with the players valid
  (:func:`~prtrack.losses.gilt_and_team_loss`).  Each scope's floats are
  those of a call of its own.
- The part-prediction loss takes the forward pass's softmax of the pixel
  logits; it does not compute the same softmax again.  That softmax's
  row sums over the K+1 classes, and the mask backward's
  ``sum(d_mask * m)`` over them, are column adds: numpy adds fewer than
  8 last-axis entries left to right from zero, and so do they
  (``losses._sum_last``).  Filling the plan's buffers copies values;
  the products into them are the same products.
- The pooling contractions of the forward and backward passes are matrix
  products, which numpy hands to BLAS, and the part residual
  ``p - f_k`` of the mask gradient is expanded so that no ``(B, K, N, D)``
  array is built.  The sums run in another order than the ``einsum``
  loops they replaced, so the gradients differ from those by about 1e-15
  relative.  They do not depend on BLAS's thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import DataError, Role
from .losses import (LossValue, LossWeights, _gilt, _GiltPlan, _sum_last,
                     focal_loss, part_prediction_loss, softmax, total_loss)

__all__ = [
    "DimMismatch",
    "InsufficientIdentities",
    "EmbedderModel",
    "TrainConfig",
    "TrainBatch",
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
class TrainBatch:
    """Samples as columns, one row per sample: each sample's grid of C-dim
    cell features, standing in for the backbone's feature map, and its
    labels."""

    cells: np.ndarray        # (R, H, W, C) float
    part_labels: np.ndarray  # (R, H, W) ints in [0, K], 0 = background
    identity: np.ndarray     # (R,)
    role: np.ndarray         # (R,) Role values
    team: np.ndarray         # (R,) 0/1, -1 where the sample has no team

    def __len__(self) -> int:
        return len(self.identity)

    def take(self, rows: np.ndarray) -> "TrainBatch":
        """The batch of the rows ``rows``, in that order."""
        return TrainBatch(*(np.take(getattr(self, f.name), rows, axis=0)
                            for f in fields(self)))


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
        if not math.isfinite(self.base_lr):
            raise ValueError("base_lr must be finite")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if any(epoch < 0 for epoch in self.decay_epochs):
            raise ValueError("decay_epochs must be >= 0")
        # A negative focal gamma makes the role loss NaN once p_t saturates.
        for name in ("focal_gamma", "reid_margin", "team_margin"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
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
    f_parts = part_w.transpose(0, 2, 1) @ proj / part_sum[:, :, None]
    f_fg = (fg_w[:, None, :] @ proj)[:, 0] / fg_sum[:, None]
    f_g = proj.mean(axis=1)

    shown = np.zeros((b, k + 1), dtype=bool)     # some cell's argmax class
    shown[np.arange(b)[:, None], z.argmax(axis=2)] = True
    vis = shown.astype(int)                      # (B, K+1): fg, parts
    vis[:, 0] = shown[:, 1:].any(axis=1)

    role_logits = f_fg @ model.w_role + model.b_role
    return {
        "x": x, "z": z, "masks": masks, "proj": proj,
        "part_w": part_w, "fg_w": fg_w, "part_sum": part_sum, "fg_sum": fg_sum,
        "f_parts": f_parts, "f_fg": f_fg, "f_g": f_g,
        "vis": vis, "role_logits": role_logits,
    }


def forward_batch(model: EmbedderModel, grids: np.ndarray):
    """The embeddings of a ``(B, H, W, C)`` stack of grid cells.

    Returns (features ``(B, K+1, D)`` ordered (foreground, part 1..K),
    visibility ``(B, K+1)`` in the same order, role logits ``(B, 4)``).
    """
    fw = _forward_arrays(model, grids)
    features = np.concatenate([fw["f_fg"][:, None], fw["f_parts"]], axis=1)
    return features, fw["vis"], fw["role_logits"]


class _StepPlan:
    """What every training step on batches of ``b`` rows shares: the
    re-id objective's scope buffers and kernel constants, and the flat
    gradient vector with a view per parameter, laid out as
    :func:`_param_views` lays out the parameters.  Each step overwrites
    them."""

    def __init__(self, model: EmbedderModel, cfg: TrainConfig, b: int):
        k = model.num_parts
        self.gilt = _GiltPlan(b, k, model.dim, model.n_ids,
                              [cfg.reid_margin] * k + [cfg.team_margin])
        self.grads = _param_views(
            np.empty(sum(p.size for p in model.params().values())), model)


def loss_and_grad(model: EmbedderModel, batch: TrainBatch,
                  cfg: TrainConfig, plan: _StepPlan | None = None):
    """Total multi-task loss over a batch and model-shaped gradients.

    Returns (loss value, {param name: gradient}, per-component values).
    The gradients are views into one flat vector laid out in PARAM_NAMES
    order, as :func:`_param_views` lays out the parameters.  ``plan`` is
    the state that :func:`train` builds once for its steps; the gradients
    are then its views, which the next call with it overwrites.  A call
    without one builds its own.
    """
    if plan is None:
        plan = _StepPlan(model, cfg, len(batch))
    fw = _forward_arrays(model, batch.cells)
    b, n = fw["z"].shape[:2]
    k, d = model.num_parts, model.dim
    ids, roles = batch.identity, batch.role

    # --- component losses -------------------------------------------------
    # Part prediction on the forward pass's softmax: per-image cell-sum,
    # averaged over the batch.
    pa = part_prediction_loss(fw["masks"], batch.part_labels.reshape(b, n))
    pa = LossValue(pa.value / b, pa.gradients / b)

    # The re-id objective's scopes, written into the plan's buffers: the
    # identity logits in scope order, the K part scopes and, as scope K+1
    # of the same kernel call, the team triplet over the players'
    # foreground embeddings; no player is valid below four.
    gp = plan.gilt
    flat_parts = fw["f_parts"].reshape(b, k * d)
    for logits, f, w, bias in (
            (gp.logits[0], fw["f_g"], model.w_id_g, model.b_id_g),
            (gp.logits[1], flat_parts, model.w_id_c, model.b_id_c),
            (gp.logits[2], fw["f_fg"], model.w_id_f, model.b_id_f)):
        np.matmul(f, w, out=logits)
        logits += bias
    gp.emb[:k] = fw["f_parts"].transpose(1, 0, 2)
    gp.emb[k] = fw["f_fg"]
    gp.valid[:k] = fw["vis"][:, 1:].T
    players = roles == int(Role.PLAYER)
    gp.valid[k] = players if players.sum() >= 4 else False
    reid, team_values, team_grads = _gilt(gp, ids, batch.team)
    team = LossValue(float(team_values[0]), team_grads[0])

    role = focal_loss(fw["role_logits"], roles, cfg.focal_gamma)

    components = {"pa": pa, "reid": reid, "team": team, "role": role}
    tot = total_loss(components, cfg.weights)
    g = tot.gradients  # per-component gradients, already weight-scaled

    # --- backward ---------------------------------------------------------
    grads = plan.grads

    # Identity heads (holistic scopes).
    dlg = g["reid"]["id_logits"]
    np.matmul(fw["f_g"].T, dlg["global"], out=grads["w_id_g"])
    dlg["global"].sum(axis=0, out=grads["b_id_g"])
    d_g_emb = dlg["global"] @ model.w_id_g.T  # grad wrt global embedding
    np.matmul(fw["f_fg"].T, dlg["foreground"], out=grads["w_id_f"])
    dlg["foreground"].sum(axis=0, out=grads["b_id_f"])
    d_fg_emb = dlg["foreground"] @ model.w_id_f.T  # wrt foreground emb.
    np.matmul(flat_parts.T, dlg["concat"], out=grads["w_id_c"])
    dlg["concat"].sum(axis=0, out=grads["b_id_c"])
    d_parts = g["reid"]["parts"] + (dlg["concat"] @ model.w_id_c.T
                                    ).reshape(b, k, d)  # (B, K, D)

    # Team triplet on player foreground embeddings.
    np.add(d_fg_emb, g["team"], out=d_fg_emb, where=players[:, None])

    # Role head (focal) on the foreground embedding.
    d_role_z = g["role"]
    np.matmul(fw["f_fg"].T, d_role_z, out=grads["w_role"])
    d_role_z.sum(axis=0, out=grads["b_role"])
    d_fg_emb += d_role_z @ model.w_role.T

    # Backprop pooled embeddings into per-cell projections and mask weights.
    proj, part_w, fg_w = fw["proj"], fw["part_w"], fw["fg_w"]
    part_sum, fg_sum = fw["part_sum"], fw["fg_sum"]
    d_mask = np.empty_like(fw["masks"])               # (B, N, K+1)

    # Global embedding: plain mean over cells.  Part embeddings: f_k =
    # sum_c m p / sum_c m.  The mask gradient sum_d (p - f_k) dp_k expands
    # to p . dp_k - f_k . dp_k.
    dp = d_parts / part_sum[:, :, None]               # (B, K, D)
    d_proj = d_g_emb[:, None, :] / n + part_w @ dp    # (B, N, D)
    d_mask[:, :, 1:] = (proj @ dp.transpose(0, 2, 1)
                        - (fw["f_parts"] * dp).sum(axis=2)[:, None, :])

    # Foreground embedding via weight 1 - m_background.
    dfg = d_fg_emb / fg_sum[:, None]                  # (B, D)
    d_proj += fg_w[:, :, None] * d_fg_emb[:, None, :] / fg_sum[:, None, None]
    d_mask[:, :, 0] = ((fw["f_fg"] * dfg).sum(axis=1)[:, None]
                       - (proj @ dfg[:, :, None])[:, :, 0])

    # Softmax backward for the mask weights, plus direct part-prediction grad.
    m = fw["masks"]
    dz = m * (d_mask - _sum_last(d_mask * m)[:, :, None])
    dz += g["pa"]

    x = fw["x"].reshape(b * n, -1)
    np.matmul(x.T, dz.reshape(b * n, -1), out=grads["w_pix"])
    dz.sum(axis=(0, 1), out=grads["b_pix"])
    np.matmul(x.T, d_proj.reshape(b * n, -1), out=grads["w_emb"])
    d_proj.sum(axis=(0, 1), out=grads["b_emb"])

    comp_values = {name: lv.value for name, lv in components.items()}
    return tot.value, grads, comp_values


def sample_batch(batch: TrainBatch, rng: np.random.Generator,
                 samples_per_identity: int = 4) -> TrainBatch:
    """Draw 4 left-team + 4 right-team player identities and 3 other-role
    identities of ``batch``, ``samples_per_identity`` rows each."""
    return batch.take(_draw_batch(_group_by_identity(batch), rng,
                                  samples_per_identity))


def _group_by_identity(table: TrainBatch):
    """``(rows by identity, left, right, other)``: each identity's row
    indices in table order, the sorted player ids of each team and the
    sorted ids of the other roles, as each identity's first row has it.
    An empty table raises :class:`InsufficientIdentities`."""
    if not len(table):
        raise InsufficientIdentities("no training samples")
    ids, first, counts = np.unique(table.identity, return_index=True,
                                   return_counts=True)
    rows = np.split(np.argsort(table.identity, kind="stable"),
                    np.cumsum(counts)[:-1])
    player = table.role[first] == int(Role.PLAYER)
    team = table.team[first]
    return (dict(zip(ids.tolist(), rows)), ids[player & (team == 0)],
            ids[player & (team == 1)], ids[~player])


def _draw_batch(groups, rng: np.random.Generator,
                samples_per_identity: int) -> np.ndarray:
    """The table rows of :func:`sample_batch`'s draw from
    :func:`_group_by_identity`'s grouping."""
    by_id, left, right, other = groups
    if len(left) < 4 or len(right) < 4 or len(other) < 3:
        raise InsufficientIdentities(
            f"need 4+4 player ids per team and 3 other-role ids, "
            f"got {len(left)}/{len(right)}/{len(other)}")
    chosen = (rng.choice(left, 4, replace=False).tolist()
              + rng.choice(right, 4, replace=False).tolist()
              + rng.choice(other, 3, replace=False).tolist())
    rows = []
    for ident in chosen:
        pool = by_id[ident]
        replace = len(pool) < samples_per_identity
        rows.append(pool[rng.choice(len(pool), samples_per_identity,
                                    replace=replace)])
    return np.concatenate(rows)


def _lr_at(epoch: int, cfg: TrainConfig) -> float:
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        lr = cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    else:
        lr = cfg.base_lr
    for de in cfg.decay_epochs:
        if epoch >= de:
            lr *= 0.1
    return lr


def _param_views(flat: np.ndarray, model: EmbedderModel
                 ) -> dict[str, np.ndarray]:
    """Views into the flat vector ``flat`` shaped like ``model``'s
    parameters, laid out in PARAM_NAMES order."""
    views, start = {}, 0
    for name in PARAM_NAMES:
        shape = getattr(model, name).shape
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


def train(cfg: TrainConfig, batch: TrainBatch):
    """Adam training with linear warmup and step decay.

    The identities of the training set ``batch`` are renumbered
    0..n_ids-1 in sorted order; an empty ``batch`` raises
    :class:`InsufficientIdentities`.  Each step gathers its drawn rows and
    calls :func:`loss_and_grad` once, with the state that the call builds
    for all its steps.  The model's parameters are views
    into one flat vector, which Adam updates in place with flat ``m`` and
    ``v`` from the flat vector that the step's gradients are views of.  The
    module docstring says why these give the bits of the
    per-sample, per-parameter algorithm.

    Returns (model, per-epoch mean loss history).  Deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    groups = _group_by_identity(batch)
    ids, identity = np.unique(batch.identity, return_inverse=True)
    table = replace(batch, identity=identity)
    model = EmbedderModel.init(channels=table.cells.shape[-1],
                               num_parts=int(table.part_labels.max()), dim=8,
                               n_ids=len(ids), seed=cfg.seed)
    theta = np.concatenate(list(model.params().values()), axis=None)
    model = EmbedderModel(**_param_views(theta, model))

    # A batch holds _draw_batch's 4 + 4 + 3 identities.
    plan = _StepPlan(model, cfg, 11 * cfg.samples_per_identity)
    m_state, v_state = np.zeros_like(theta), np.zeros_like(theta)
    step, scratch = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    history = []
    for epoch in range(cfg.epochs):
        lr = _lr_at(epoch, cfg)
        epoch_losses = []
        for _ in range(cfg.steps_per_epoch):
            rows = _draw_batch(groups, rng, cfg.samples_per_identity)
            value, grads, _ = loss_and_grad(model, table.take(rows), cfg,
                                            plan=plan)
            epoch_losses.append(value)
            t += 1
            gr = grads[PARAM_NAMES[0]].base  # the flat gradient vector
            # p - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps),
            # each product and quotient of the expression into a buffer.
            m_state *= beta1
            m_state += np.multiply(1 - beta1, gr, out=scratch)
            v_state *= beta2
            np.square(gr, out=scratch)
            v_state += np.multiply(1 - beta2, scratch, out=scratch)
            np.multiply(lr, np.divide(m_state, 1 - beta1**t, out=step),
                        out=step)
            np.divide(v_state, 1 - beta2**t, out=scratch)
            step /= np.add(np.sqrt(scratch, out=scratch), eps, out=scratch)
            theta -= step
        history.append(float(np.mean(epoch_losses)))
    return model, history


def grad_check(model: EmbedderModel, batch: TrainBatch,
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
