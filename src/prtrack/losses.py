"""Training objectives with analytic gradients, implemented on numpy.

Includes cross-entropy identity loss, focal role loss, pixel-wise part
prediction loss, batch-hard triplet losses (plain and visibility-masked),
the combined re-identification objective over holistic and per-part scopes,
and the weighted total.

The composition of the combined ReID objective (identity cross-entropy on
the holistic scopes plus visibility-aware part triplets) follows the
part-based baseline this model extends; it is isolated in
:func:`gilt_loss` so it can be swapped wholesale.

:func:`gilt_loss` takes its three identity cross-entropies from one
softmax over the ``(3, N, n_ids)`` stack of the scopes' logits.  A softmax
row's max, exponentials and sum do not depend on the rows around it, and
each scope keeps its own ``.mean()`` and is added in scope order, so the
values and gradients are those of three :func:`cross_entropy_id` calls.

Every batch-hard triplet, the K part scopes of :func:`gilt_loss` as well
as the plain and the masked one, is one call of the private array kernel
``_batch_hard_triplets``.  It keeps the float order of a per-anchor loop,
so :func:`triplet_batch_hard` gradients can differ by about 1 ulp from
summing the terms first and dividing once (none for 2^j anchors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateBatch",
    "LossWeights",
    "TripletConfig",
    "LossValue",
    "triplet_batch_hard",
    "masked_triplet_batch_hard",
    "cross_entropy_id",
    "focal_loss",
    "part_prediction_loss",
    "gilt_loss",
    "total_loss",
    "softmax",
]

_EPS = 1e-12


class DegenerateBatch(Exception):
    """Batch cannot support the requested mining (too few labels/samples)."""


@dataclass(frozen=True)
class LossWeights:
    lambda_pa: float = 0.3
    lambda_reid: float = 1.0
    lambda_team: float = 0.1
    lambda_role: float = 1.5

    def __post_init__(self):
        for name in ("lambda_pa", "lambda_reid", "lambda_team", "lambda_role"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TripletConfig:
    margin: float = 0.3  # team variant uses 0.05


@dataclass
class LossValue:
    value: float
    gradients: object  # array matching the primary input, or a dict of arrays


def softmax(logits: np.ndarray) -> np.ndarray:
    # The row maxima come from a transposed copy, as elementwise maxima of
    # its rows: numpy's max over a short last axis costs about 0.1 us per
    # row.  A maximum is exact in any order, and a zero maximum shifts
    # every logit to the same bits whatever its sign, so the result is the
    # one of ``logits.max(axis=-1, keepdims=True)``.
    top = np.ascontiguousarray(np.moveaxis(logits, -1, 0)).max(axis=0)
    z = logits - top[..., None]
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _probs(logits: np.ndarray, targets: np.ndarray):
    """Softmax rows of ``logits`` (..., M, C), int ``targets`` (M,) in
    range, and the row indices ``arange(M)``."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=int)
    if targets.min() < 0 or targets.max() >= logits.shape[-1]:
        raise ValueError("targets out of range")
    return softmax(logits), targets, np.arange(logits.shape[-2])


def cross_entropy_id(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean softmax cross-entropy; gradient is (softmax - onehot) / N."""
    p, targets, idx = _probs(logits, targets)
    value = float(-np.log(np.clip(p[idx, targets], _EPS, None)).mean())
    p[idx, targets] -= 1.0
    return LossValue(value, p / len(idx))


def focal_loss(logits: np.ndarray, targets: np.ndarray,
               gamma: float = 2.0) -> LossValue:
    """Mean focal loss (1 - p_t)^gamma * (-log p_t); reduces to CE at gamma=0."""
    if gamma == 0.0:
        return cross_entropy_id(logits, targets)
    p, targets, idx = _probs(logits, targets)
    pt = np.clip(p[idx, targets], _EPS, 1.0)
    one_m = 1.0 - pt
    value = float((one_m**gamma * (-np.log(pt))).mean())
    # d/dp_t of (1-p_t)^g * (-ln p_t), then chain through softmax.
    dl_dpt = gamma * one_m ** (gamma - 1) * np.log(pt) - one_m**gamma / pt
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    dpt_dz = pt[:, None] * (onehot - p)
    grad = dl_dpt[:, None] * dpt_dz / len(idx)
    return LossValue(value, grad)


def part_prediction_loss(grid_logits: np.ndarray,
                         grid_labels: np.ndarray) -> LossValue:
    """Sum (not mean) of pixel-wise cross-entropy over all grid cells.

    Logits ``(..., C)``, one grid ``(H, W, C)`` or a batch ``(B, H, W, C)``,
    with labels ``(...)``; the gradient has the logits' shape.
    """
    logits = np.asarray(grid_logits, dtype=float)
    labels = np.asarray(grid_labels, dtype=int)
    if labels.shape != logits.shape[:-1]:
        raise ValueError("labels must have the logits' shape without C")
    p, tgt, idx = _probs(logits.reshape(-1, logits.shape[-1]),
                         labels.reshape(-1))
    value = float(-np.log(np.clip(p[idx, tgt], _EPS, None)).sum())
    p[idx, tgt] -= 1.0
    return LossValue(value, p.reshape(logits.shape))


def _check_labels(labels: np.ndarray) -> None:
    _, counts = np.unique(labels, return_counts=True)
    if len(counts) < 2 or counts.min() < 2:
        raise DegenerateBatch("need >= 2 labels with >= 2 samples each")


def _batch_hard_triplets(emb: np.ndarray, labels: np.ndarray,
                         valid: np.ndarray, margin: float):
    """The batch-hard triplet kernel over S scopes at once.

    Embeddings ``emb`` (S, N, D), ``labels`` (N,) shared by all scopes,
    ``valid`` (S, N).  An anchor qualifies when it is valid and has a valid
    positive and a valid negative; its hardest positive is the first
    farthest, its hardest negative the first nearest.  Returns values (S,),
    each the mean of ``max(0, d_ap - d_an + margin)`` over the scope's m
    qualifying anchors (0 when m = 0), and gradients (S, N, D).

    Float order, as a per-anchor loop would have it: a scope's mean sums
    its terms in anchor order as one 1-D array; each gradient term ``(e_a
    - e_x) / d / m`` is added in anchor order, the positive's before the
    negative's, and not at all when ``d <= 1e-12``.  Dividing each term
    by m, not the sum once, can move a gradient by about 1 ulp.
    """
    s, n, _ = emb.shape
    sq = (emb**2).sum(axis=2)
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * emb @ emb.transpose(0, 2, 1)
    dist = np.sqrt(np.clip(d2, 0.0, None))                # (S, N, N)
    same = labels[:, None] == labels[None, :]
    pair_ok = valid[:, :, None] & valid[:, None, :]
    pos_d = np.where(pair_ok & same & ~np.eye(n, dtype=bool), dist, -np.inf)
    neg_d = np.where(pair_ok & ~same, dist, np.inf)
    hp, hn = pos_d.argmax(axis=2), neg_d.argmin(axis=2)  # (S, N)
    t = pos_d.max(axis=2) - neg_d.min(axis=2) + margin   # -inf: no pos/neg
    qualifies = np.isfinite(t)
    m = qualifies.sum(axis=1)                             # (S,)

    # Each scope's terms packed to the front of its row: the masked sum
    # then adds them in the pairwise order of a 1-D sum over the m terms.
    front = np.arange(n) < m[:, None]
    packed = np.zeros((s, n))
    packed[front] = np.maximum(t[qualifies], 0.0)
    values = np.divide(packed.sum(axis=1, where=front), m, out=np.zeros(s),
                       where=m > 0)

    # Each active anchor's terms, positive then negative: +w to it, -w to x.
    sc, a = np.nonzero(t > 0)
    x = np.stack([hp[sc, a], hn[sc, a]], axis=1).ravel()
    sign = np.tile([1.0, -1.0], len(sc))
    sc, a = sc.repeat(2), a.repeat(2)
    d = dist[sc, a, x]
    keep = d > _EPS
    sc, a, x, d, sign = sc[keep], a[keep], x[keep], d[keep], sign[keep]
    w = sign[:, None] * ((emb[sc, a] - emb[sc, x]) / d[:, None] / m[sc, None])
    grad = np.zeros(emb.shape)
    np.add.at(grad, (np.stack([sc, sc], axis=1), np.stack([a, x], axis=1)),
              np.stack([w, -w], axis=1))
    return values, grad


def triplet_batch_hard(embeddings: np.ndarray, labels: np.ndarray,
                       cfg: TripletConfig = TripletConfig()) -> LossValue:
    """Batch-hard triplet loss with analytic (sub)gradient.

    Mean over anchors of max(0, d(a, hardest positive) - d(a, hardest
    negative) + margin) with Euclidean distances: the all-valid case of
    :func:`masked_triplet_batch_hard` (see the module docstring on ulps).
    """
    labels = np.asarray(labels)
    _check_labels(labels)
    return masked_triplet_batch_hard(embeddings, labels,
                                     np.ones(len(labels), dtype=bool), cfg)


def masked_triplet_batch_hard(embeddings: np.ndarray, labels: np.ndarray,
                              valid: np.ndarray,
                              cfg: TripletConfig = TripletConfig()) -> LossValue:
    """Batch-hard triplet restricted to samples flagged ``valid``.

    Anchors, positives, and negatives must all be valid; anchors lacking a
    valid positive or negative are skipped.  Returns 0 with zero gradient
    when no anchor qualifies.
    """
    emb = np.asarray(embeddings, dtype=float)
    values, grad = _batch_hard_triplets(
        emb[None], np.asarray(labels), np.asarray(valid).astype(bool)[None],
        cfg.margin)
    return LossValue(float(values[0]), grad[0])


def gilt_loss(parts: np.ndarray, part_visibility: np.ndarray,
              id_logits: dict[str, np.ndarray], labels: np.ndarray,
              cfg: TripletConfig = TripletConfig()) -> LossValue:
    """Combined ReID objective over holistic and per-part scopes.

    Identity cross-entropy averaged over the holistic scopes ('global',
    'concat', 'foreground'), plus a visibility-masked batch-hard triplet
    averaged over the K part scopes; the two terms are summed.

    gradients: {'id_logits': {scope: array}, 'parts': (N, K, D) array}
    """
    parts = np.asarray(parts, dtype=float)       # (N, K, D)
    vis = np.asarray(part_visibility)            # (N, K)
    labels = np.asarray(labels)
    k = parts.shape[1]
    _check_labels(labels)

    # One softmax for the three scopes (see the module docstring).
    scopes = ("global", "concat", "foreground")
    p, targets, idx = _probs(np.stack([np.asarray(id_logits[scope], float)
                                       for scope in scopes]), labels)
    ce_value = 0.0
    for scope_p in p:
        value = float(-np.log(np.clip(scope_p[idx, targets], _EPS,
                                      None)).mean())
        ce_value += value / len(scopes)
    p[:, idx, targets] -= 1.0
    logit_grads = dict(zip(scopes, p / len(idx) / len(scopes)))

    values, grads = _batch_hard_triplets(parts.transpose(1, 0, 2), labels,
                                         vis.T.astype(bool), cfg.margin)
    # cumsum adds the v / k in scope order, as a loop over scopes would.
    part_value = float(np.cumsum(values / k)[-1])
    part_grads = grads.transpose(1, 0, 2) / k

    return LossValue(ce_value + part_value,
                     {"id_logits": logit_grads, "parts": part_grads})


def total_loss(components: dict[str, LossValue],
               w: LossWeights = LossWeights()) -> LossValue:
    """Weighted sum of the part-prediction, ReID, team, and role losses.

    ``components`` maps 'pa' / 'reid' / 'team' / 'role' to their LossValues.
    The returned gradients dict holds each component's gradient scaled by
    its weight.
    """
    weights = {"pa": w.lambda_pa, "reid": w.lambda_reid,
               "team": w.lambda_team, "role": w.lambda_role}
    value = 0.0
    grads = {}
    for name, lam in weights.items():
        comp = components[name]
        value += lam * comp.value
        grads[name] = _scale(comp.gradients, lam)
    return LossValue(value, grads)


def _scale(grad, lam):
    if isinstance(grad, dict):
        return {k: _scale(v, lam) for k, v in grad.items()}
    return lam * np.asarray(grad)
