"""Training objectives with analytic gradients, implemented on numpy.

Includes cross-entropy identity loss, focal role loss, pixel-wise part
prediction loss, batch-hard triplet losses (plain and visibility-masked),
the combined re-identification objective over holistic and per-part scopes,
and the weighted total.

The composition of the combined ReID objective (identity cross-entropy on
the holistic scopes plus visibility-aware part triplets) follows the
part-based baseline this model extends; it is isolated in
:func:`gilt_loss` so it can be swapped wholesale.
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
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _pairwise_dist(emb: np.ndarray) -> np.ndarray:
    sq = (emb**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * emb @ emb.T
    return np.sqrt(np.clip(d2, 0.0, None))


def cross_entropy_id(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean softmax cross-entropy; gradient is (softmax - onehot) / N."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n, c = logits.shape
    if targets.min() < 0 or targets.max() >= c:
        raise ValueError("targets out of range")
    p = softmax(logits)
    pt = p[np.arange(n), targets]
    value = float(-np.log(np.clip(pt, _EPS, None)).mean())
    grad = p.copy()
    grad[np.arange(n), targets] -= 1.0
    return LossValue(value, grad / n)


def focal_loss(logits: np.ndarray, targets: np.ndarray,
               gamma: float = 2.0) -> LossValue:
    """Mean focal loss (1 - p_t)^gamma * (-log p_t); reduces to CE at gamma=0."""
    if gamma == 0.0:
        return cross_entropy_id(logits, targets)
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=int)
    n, c = logits.shape
    if targets.min() < 0 or targets.max() >= c:
        raise ValueError("targets out of range")
    p = softmax(logits)
    idx = np.arange(n)
    pt = np.clip(p[idx, targets], _EPS, 1.0)
    one_m = 1.0 - pt
    value = float((one_m**gamma * (-np.log(pt))).mean())
    # d/dp_t of (1-p_t)^g * (-ln p_t), then chain through softmax.
    dl_dpt = gamma * one_m ** (gamma - 1) * np.log(pt) - one_m**gamma / pt
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    dpt_dz = pt[:, None] * (onehot - p)
    grad = dl_dpt[:, None] * dpt_dz / n
    return LossValue(value, grad)


def part_prediction_loss(grid_logits: np.ndarray,
                         grid_labels: np.ndarray) -> LossValue:
    """Sum (not mean) of pixel-wise cross-entropy over all grid cells."""
    logits = np.asarray(grid_logits, dtype=float)
    labels = np.asarray(grid_labels, dtype=int)
    h, w, c = logits.shape
    flat = logits.reshape(-1, c)
    tgt = labels.reshape(-1)
    if tgt.min() < 0 or tgt.max() >= c:
        raise ValueError("labels out of range")
    p = softmax(flat)
    idx = np.arange(flat.shape[0])
    value = float(-np.log(np.clip(p[idx, tgt], _EPS, None)).sum())
    grad = p
    grad[idx, tgt] -= 1.0
    return LossValue(value, grad.reshape(h, w, c))


def triplet_batch_hard(embeddings: np.ndarray, labels: np.ndarray,
                       cfg: TripletConfig = TripletConfig()) -> LossValue:
    """Batch-hard triplet loss with analytic (sub)gradient.

    Mean over anchors of max(0, d(a, hardest positive) - d(a, hardest
    negative) + margin) with Euclidean distances.
    """
    emb = np.asarray(embeddings, dtype=float)
    labels = np.asarray(labels)
    n = emb.shape[0]
    uniq, counts = np.unique(labels, return_counts=True)
    if len(uniq) < 2 or counts.min() < 2:
        raise DegenerateBatch("need >= 2 labels with >= 2 samples each")
    dist = _pairwise_dist(emb)
    same = labels[:, None] == labels[None, :]
    pos_d = np.where(same & ~np.eye(n, dtype=bool), dist, -np.inf)
    neg_d = np.where(~same, dist, np.inf)
    hp = pos_d.argmax(axis=1)
    hn = neg_d.argmin(axis=1)
    idx = np.arange(n)
    terms = dist[idx, hp] - dist[idx, hn] + cfg.margin
    active = terms > 0
    value = float(np.clip(terms, 0.0, None).mean())
    grad = np.zeros_like(emb)
    for a in idx[active]:
        p, ng = hp[a], hn[a]
        dp, dn = dist[a, p], dist[a, ng]
        if dp > _EPS:
            u = (emb[a] - emb[p]) / dp
            grad[a] += u
            grad[p] -= u
        if dn > _EPS:
            v = (emb[a] - emb[ng]) / dn
            grad[a] -= v
            grad[ng] += v
    return LossValue(value, grad / n)


def masked_triplet_batch_hard(embeddings: np.ndarray, labels: np.ndarray,
                              valid: np.ndarray,
                              cfg: TripletConfig = TripletConfig()) -> LossValue:
    """Batch-hard triplet restricted to samples flagged ``valid``.

    Anchors, positives, and negatives must all be valid; anchors lacking a
    valid positive or negative are skipped.  Returns 0 with zero gradient
    when no anchor qualifies.
    """
    emb = np.asarray(embeddings, dtype=float)
    labels = np.asarray(labels)
    valid = np.asarray(valid).astype(bool)
    n = emb.shape[0]
    grad = np.zeros_like(emb)
    if valid.sum() < 2:
        return LossValue(0.0, grad)
    dist = _pairwise_dist(emb)
    same = labels[:, None] == labels[None, :]
    pair_ok = valid[:, None] & valid[None, :]
    pos_d = np.where(same & pair_ok & ~np.eye(n, dtype=bool), dist, -np.inf)
    neg_d = np.where(~same & pair_ok, dist, np.inf)
    terms = []
    contribs = []
    for a in range(n):
        if not valid[a]:
            continue
        if not np.isfinite(pos_d[a]).any() or not np.isfinite(neg_d[a]).any():
            continue
        p = int(pos_d[a].argmax())
        ng = int(neg_d[a].argmin())
        t = dist[a, p] - dist[a, ng] + cfg.margin
        terms.append(max(0.0, t))
        if t > 0:
            contribs.append((a, p, ng))
    if not terms:
        return LossValue(0.0, grad)
    m = len(terms)
    for a, p, ng in contribs:
        dp, dn = dist[a, p], dist[a, ng]
        if dp > _EPS:
            u = (emb[a] - emb[p]) / dp
            grad[a] += u / m
            grad[p] -= u / m
        if dn > _EPS:
            v = (emb[a] - emb[ng]) / dn
            grad[a] -= v / m
            grad[ng] += v / m
    return LossValue(float(np.mean(terms)), grad)


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
    n, k, d = parts.shape
    uniq, counts = np.unique(labels, return_counts=True)
    if len(uniq) < 2 or counts.min() < 2:
        raise DegenerateBatch("need >= 2 labels with >= 2 samples each")

    scopes = ("global", "concat", "foreground")
    ce_value = 0.0
    logit_grads = {}
    for scope in scopes:
        lv = cross_entropy_id(id_logits[scope], labels)
        ce_value += lv.value / len(scopes)
        logit_grads[scope] = lv.gradients / len(scopes)

    part_value = 0.0
    part_grads = np.zeros_like(parts)
    for j in range(k):
        lv = masked_triplet_batch_hard(parts[:, j, :], labels, vis[:, j], cfg)
        part_value += lv.value / k
        part_grads[:, j, :] += lv.gradients / k

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
