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
``_batch_hard_triplets``.  The kernel takes S scopes at once, each with
its own labels, validity and margin, and a scope's floats do not depend on
the others: :func:`gilt_and_team_loss` passes the team triplet, over all
rows with the players valid, as scope K+1 of the part scopes' call.  The
kernel reads the hardest distances at their ``argmax``/``argmin`` and
scatters the gradient terms with one ``np.bincount`` over flat cell
indices, in the order ``np.add.at`` would add them.  It keeps the float
order of a per-anchor loop, so :func:`triplet_batch_hard` gradients can
differ by about 1 ulp from summing the terms first and dividing once
(none for 2^j anchors).  What every call of one ``(S, N, D)`` shape
shares, the off-diagonal mask, row offsets, sign vector and cell
offsets, is a ``_TripletPlan``; the training loop builds one per
``train`` call inside a ``_GiltPlan``, whose buffers it fills each step
with the scopes' logits, embeddings and visibility.  The K part scopes
share one same-identity matrix, computed once a step.  The label check
counts non-negative int labels with ``np.bincount`` instead of
``np.unique``'s sort.  None of this moves a float operation.

:func:`softmax` takes its row maxima from a transposed copy, and its row
sums below 8 classes as column adds, which add in numpy's order; both
give the bits of numpy's own reductions (see the function).

:func:`part_prediction_loss` takes the cells' class probabilities, so a
caller that already has the softmax of the logits (the embedder's forward
pass does) passes it instead of having it computed again; the gradient is
still with respect to the logits.
"""

from __future__ import annotations

import math
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
    "gilt_and_team_loss",
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
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if value < 0:
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
    # one of ``logits.max(axis=-1, keepdims=True)``.  The transpose is the
    # view ``np.moveaxis(logits, -1, 0)`` without its argument handling.
    top = np.ascontiguousarray(
        logits.transpose(-1, *range(logits.ndim - 1))).max(axis=0)
    e = np.exp(logits - top[..., None])
    return e / _sum_last(e)[..., None]


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` to the bit, faster for fewer than 8 columns.

    numpy adds fewer than 8 last-axis entries left to right from zero,
    ``((0 + a0) + a1) + ...``, one row at a time; the column adds here do
    the same additions a column at a time, without the per-row cost.  The
    zero start only turns a row of -0.0 into +0.0.  From 8 columns on
    numpy sums pairwise with 8 accumulators, so those rows go to ``sum``.
    """
    c = a.shape[-1]
    if not 1 <= c < 8:
        return a.sum(axis=-1)
    total = a[..., 0] + 0.0
    for j in range(1, c):
        total += a[..., j]
    return total


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
    log_pt, weight = np.log(pt), one_m**gamma
    value = float((weight * -log_pt).mean())
    # d/dp_t of (1-p_t)^g * (-ln p_t), then chain through softmax.  Where
    # p_t is 1, (1-p_t)^(g-1) is infinite for g < 1 but ln p_t is 0 and the
    # product tends to 0: a base of 1 there gives that 0.
    base = np.where(one_m == 0.0, 1.0, one_m)
    dl_dpt = gamma * base ** (gamma - 1) * log_pt - weight / pt
    # onehot - p in place: 0 - p keeps the +0.0 of a zero probability.
    grad = np.subtract(0.0, p, out=p)
    grad[idx, targets] += 1.0
    grad *= pt[:, None]
    grad *= dl_dpt[:, None]
    grad /= len(idx)
    return LossValue(value, grad)


def part_prediction_loss(grid_probs: np.ndarray,
                         grid_labels: np.ndarray) -> LossValue:
    """Sum (not mean) of pixel-wise cross-entropy over all grid cells.

    Takes the cells' class probabilities ``(..., C)``, the :func:`softmax`
    of their logits, for one grid ``(H, W, C)`` or a batch ``(B, H, W,
    C)``, with labels ``(...)`` in ``[0, C)``.  The gradient is the one
    with respect to the logits, ``probs - onehot``, in the probabilities'
    shape.
    """
    probs = np.asarray(grid_probs, dtype=float)
    labels = np.asarray(grid_labels, dtype=int)
    if labels.shape != probs.shape[:-1]:
        raise ValueError("labels must have the probabilities' shape without C")
    c = probs.shape[-1]
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("targets out of range")
    p, tgt = probs.reshape(-1, c), labels.reshape(-1)
    idx = np.arange(len(tgt))
    picked = p[idx, tgt]
    value = float(-np.log(np.clip(picked, _EPS, None)).sum())
    grad = p.copy()
    grad[idx, tgt] = picked - 1.0
    return LossValue(value, grad.reshape(probs.shape))


def _check_labels(labels: np.ndarray) -> None:
    """Raise :class:`DegenerateBatch` unless ``labels`` hold at least two
    labels with at least two samples each.  Non-negative int labels no
    larger than four times their count are counted with ``np.bincount``,
    other labels with ``np.unique``'s sort; both give the same counts."""
    labels = np.asarray(labels)
    if (labels.dtype.kind in "iu" and labels.size and labels.min() >= 0
            and labels.max() <= 4 * labels.size):
        counts = np.bincount(labels)
        counts = counts[counts > 0]
    else:
        _, counts = np.unique(labels, return_counts=True)
    if len(counts) < 2 or counts.min() < 2:
        raise DegenerateBatch("need >= 2 labels with >= 2 samples each")


class _TripletPlan:
    """The constants of the batch-hard kernel on ``(S, N, D)`` embeddings,
    which every call of that shape shares: built once, read by each
    call."""

    def __init__(self, s: int, n: int, dim: int):
        self.shape = (s, n, dim)
        self.off_diagonal = ~np.eye(n, dtype=bool)
        rows = np.arange(s * n)
        self.row_start = rows * n              # flat index of (row, 0)
        self.scope_start = rows - rows % n     # first row of row's scope
        self.ranks = np.arange(n)
        self.sign = np.tile([1.0, -1.0], s * n)
        self.cell_offsets = np.arange(dim)


def _batch_hard_triplets(emb: np.ndarray, labels: np.ndarray,
                         valid: np.ndarray, margins: np.ndarray,
                         plan: _TripletPlan | None = None):
    """The batch-hard triplet kernel over S scopes at once.

    Embeddings ``emb`` (S, N, D); per scope, ``labels`` (S, N), ``valid``
    (S, N) and ``margins`` (S,).  An anchor qualifies when it is valid and
    has a valid positive and a valid negative; its hardest positive is the
    first farthest, its hardest negative the first nearest.  Returns values
    (S,), each the mean of ``max(0, d_ap - d_an + margin)`` over the
    scope's m qualifying anchors (0 when m = 0), and gradients (S, N, D).
    A scope computes the same floats as it would alone, whatever the other
    scopes hold.  ``plan`` holds the constants of the shape; a call
    without one builds them.

    Float order, as a per-anchor loop would have it: a scope's mean sums
    its terms in anchor order as one 1-D array; each gradient term ``(e_a
    - e_x) / d / m`` is added in anchor order, the positive's before the
    negative's, and not at all when ``d <= 1e-12``.  Dividing each term
    by m, not the sum once, can move a gradient by about 1 ulp.
    """
    return _hardest_triplets(emb, labels[:, :, None] == labels[:, None, :],
                             valid, margins, plan)


def _hardest_triplets(emb, same, valid, margins, plan=None):
    """:func:`_batch_hard_triplets` on the ``(S, N, N)`` matrix ``same``
    of pairs with one label, in place of the labels."""
    if plan is None:
        plan = _TripletPlan(*emb.shape)
    elif plan.shape != emb.shape:
        raise ValueError(f"a plan for {plan.shape} cannot take embeddings "
                         f"{emb.shape}")
    s, n, dim = emb.shape
    sq = (emb**2).sum(axis=2)
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * emb @ emb.transpose(0, 2, 1)
    dist = np.sqrt(np.clip(d2, 0.0, None))                # (S, N, N)
    pair_ok = valid[:, :, None] & valid[:, None, :]
    # Rows s * N + a per scope s and anchor a; ``pair_ok > same`` is
    # ``pair_ok & ~same``.
    pos_d = np.where(pair_ok & same & plan.off_diagonal, dist,
                     -np.inf).reshape(s * n, n)
    neg_d = np.where(pair_ok > same, dist, np.inf).reshape(s * n, n)
    # The hardest distances sit at the arg indices: -inf where there is no
    # positive or negative.  ``hp``, ``hn`` and ``t`` have a row s * N + a.
    hp = pos_d.argmax(axis=1)
    hn = neg_d.argmin(axis=1)
    t = (pos_d.take(plan.row_start + hp) - neg_d.take(plan.row_start + hn)
         ).reshape(s, n) + margins[:, None]
    qualifies = np.isfinite(t)
    m = qualifies.sum(axis=1)                             # (S,)

    # Each scope's terms packed to the front of its row: the masked sum
    # then adds them in the pairwise order of a 1-D sum over the m terms.
    front = plan.ranks < m[:, None]
    packed = np.zeros((s, n))
    packed[front] = np.maximum(t[qualifies], 0.0)
    values = np.divide(packed.sum(axis=1, where=front), m, out=np.zeros(s),
                       where=m > 0)

    # Each active anchor's terms, positive then negative: +w to its row,
    # -w to the row of x, in the same scope.
    anchor = np.flatnonzero(t > 0)
    x = np.stack([hp, hn], axis=1)[anchor].ravel()
    sign = plan.sign[:len(x)]
    anchor = anchor.repeat(2)
    d = dist.take(plan.row_start[anchor] + x)
    keep = d > _EPS
    if not keep.all():
        anchor, x, d, sign = anchor[keep], x[keep], d[keep], sign[keep]
    other = plan.scope_start[anchor] + x
    flat = emb.reshape(s * n, dim)
    # np.add.at's order: term by term, +w to the anchor's cells, then -w to
    # x's.  bincount adds each flat cell's weights in that order.
    terms = np.empty((len(x), 2, dim))
    np.multiply(sign[:, None], (flat[anchor] - flat[other]) / d[:, None]
                / m[anchor // n, None], out=terms[:, 0])
    np.negative(terms[:, 0], out=terms[:, 1])
    cells = ((np.stack([anchor, other], axis=1) * dim)[:, :, None]
             + plan.cell_offsets)
    grad = np.bincount(cells.ravel(), terms.ravel(), minlength=emb.size)
    return values, grad.reshape(emb.shape)


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
        emb[None], np.asarray(labels)[None],
        np.asarray(valid).astype(bool)[None], np.array([cfg.margin]))
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
    k = np.shape(parts)[1]
    plan = _GiltPlan.of(parts, part_visibility, id_logits, [cfg.margin] * k)
    return _gilt(plan, np.asarray(labels))[0]


def gilt_and_team_loss(parts: np.ndarray, part_visibility: np.ndarray,
                       id_logits: dict[str, np.ndarray], labels: np.ndarray,
                       cfg: TripletConfig, foreground: np.ndarray,
                       team: np.ndarray, team_valid: np.ndarray,
                       team_cfg: TripletConfig
                       ) -> tuple[LossValue, LossValue]:
    """:func:`gilt_loss` and the team triplet, ``masked_triplet_batch_hard(
    foreground, team, team_valid, team_cfg)``, from one triplet kernel
    call: the team triplet is scope K+1 of the part scopes' call.  The
    values and gradients are those of the two functions.  When some row is
    valid, the valid rows' team labels must pass the checks of
    :func:`triplet_batch_hard`."""
    k = np.shape(parts)[1]
    plan = _GiltPlan.of(parts, part_visibility, id_logits,
                        [cfg.margin] * k + [team_cfg.margin])
    plan.emb[k] = foreground
    plan.valid[k] = team_valid
    reid, values, grads = _gilt(plan, np.asarray(labels), np.asarray(team))
    return reid, LossValue(float(values[0]), grads[0])


_SCOPES = ("global", "concat", "foreground")


class _GiltPlan:
    """The inputs of :func:`_gilt` for N rows, K parts of D dims, n_ids
    identities and the S scopes of the kernel, K parts and maybe one more,
    with margins ``margins`` (S,): buffers that a caller fills before each
    call, and the kernel's constants.  The training loop builds one per
    :func:`~prtrack.embedder.train` call; :meth:`of` builds one for a
    call of its own."""

    def __init__(self, n: int, k: int, dim: int, n_ids: int, margins):
        self.margins = np.array(margins, dtype=float)
        s = len(self.margins)
        self.k = k
        self.logits = np.empty((len(_SCOPES), n, n_ids))  # scope order
        self.emb = np.empty((s, n, dim))          # K parts, then the extra
        self.valid = np.empty((s, n), dtype=bool)
        self.same = np.empty((s, n, n), dtype=bool)
        self.triplets = _TripletPlan(s, n, dim)

    @classmethod
    def of(cls, parts, part_visibility, id_logits, margins) -> "_GiltPlan":
        """A plan with the part scopes and logits filled from arrays."""
        parts = np.asarray(parts, dtype=float)   # (N, K, D)
        logits = [np.asarray(id_logits[scope], float) for scope in _SCOPES]
        n, k, dim = parts.shape
        plan = cls(n, k, dim, logits[0].shape[-1], margins)
        plan.logits[...] = logits
        plan.emb[:k] = parts.transpose(1, 0, 2)
        plan.valid[:k] = np.asarray(part_visibility).T
        return plan


def _gilt(plan: _GiltPlan, labels: np.ndarray, extra_labels=None):
    """:func:`gilt_loss`'s loss over the filled ``plan``, and the kernel's
    values and gradients of the scopes after the K part scopes, labelled
    ``extra_labels``: shapes (1,) and (1, N, D) with one, (0,) and (0, N,
    D) without.

    The three identity cross-entropies come from one softmax over the
    ``(3, N, n_ids)`` logits; the K part scopes share one same-identity
    matrix."""
    k = plan.k
    _check_labels(labels)
    p, targets, idx = _probs(plan.logits, labels)
    # Each scope's own mean, added in scope order (see the module
    # docstring): the mean over axis 1 of C-ordered rows is each row's 1-D
    # mean.  ``take`` returns them C-ordered; ``p[:, idx, targets]`` would
    # not.
    flat = idx * p.shape[-1] + targets
    picked = -np.log(np.clip(p.reshape(len(p), -1).take(flat, axis=1),
                             _EPS, None))
    ce_value = 0.0
    for value in picked.mean(axis=1).tolist():
        ce_value += value / len(_SCOPES)
    p[:, idx, targets] -= 1.0
    logit_grads = dict(zip(_SCOPES, p / len(idx) / len(_SCOPES)))

    same = plan.same
    np.equal(labels[:, None], labels[None, :], out=same[0])
    same[1:k] = same[0]
    if extra_labels is not None:
        ok = plan.valid[k]
        if ok.any():
            _check_labels(extra_labels[ok])
        np.equal(extra_labels[:, None], extra_labels[None, :], out=same[k])
    values, grads = _hardest_triplets(plan.emb, same, plan.valid,
                                      plan.margins, plan.triplets)
    # cumsum adds the v / k in scope order, as a loop over scopes would.
    part_value = float(np.cumsum(values[:k] / k)[-1])
    part_grads = grads[:k].transpose(1, 0, 2) / k

    reid = LossValue(ce_value + part_value,
                     {"id_logits": logit_grads, "parts": part_grads})
    return reid, values[k:], grads[k:]


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
