import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prtrack.losses import (DegenerateBatch, LossWeights, LossValue,
                            TripletConfig, cross_entropy_id, focal_loss,
                            gilt_loss, masked_triplet_batch_hard,
                            part_prediction_loss, softmax, total_loss,
                            triplet_batch_hard)

from oracles import brute_softmax, brute_triplet


def fd_check(fn, x, grad, coords, step=1e-6, tol=1e-6):
    """Central finite differences on selected flat coordinates."""
    flat = x.reshape(-1)
    gflat = np.asarray(grad).reshape(-1)
    for i in coords:
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        fd = (hi - lo) / (2 * step)
        assert abs(fd - gflat[i]) <= tol * max(1.0, abs(fd)), (i, fd, gflat[i])


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(6, 9)))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


# Logits with ties, zeros of both signs, and magnitudes from 1e-300 to 1e3,
# plus -inf entries in rows that keep a finite maximum.
_logit = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 700.0]),
                   st.floats(-1e3, 1e3, allow_subnormal=True))


@settings(deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
def test_softmax_equals_row_max_softmax(shape, data):
    """The transposed-copy row maximum gives numpy's row-max softmax to
    the bit."""
    logits = data.draw(arrays(float, tuple(shape), elements=_logit))
    hide = data.draw(arrays(bool, tuple(shape)))
    hide[..., 0] = False
    logits[hide] = -np.inf
    got, want = softmax(logits), brute_softmax(logits)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cross_entropy_value_and_grad(rng):
    logits = rng.normal(size=(8, 5))
    targets = rng.integers(0, 5, 8)
    lv = cross_entropy_id(logits, targets)
    p = softmax(logits)
    expected = -np.log(p[np.arange(8), targets]).mean()
    assert lv.value == pytest.approx(expected, abs=1e-12)
    fd_check(lambda: cross_entropy_id(logits, targets).value,
             logits, lv.gradients, range(0, 40, 7))


def test_cross_entropy_target_range():
    with pytest.raises(ValueError):
        cross_entropy_id(np.zeros((2, 3)), np.array([0, 3]))


def test_focal_reduces_to_ce_at_gamma_zero(rng):
    logits = rng.normal(size=(6, 4))
    targets = rng.integers(0, 4, 6)
    f = focal_loss(logits, targets, gamma=0.0)
    c = cross_entropy_id(logits, targets)
    assert f.value == c.value
    np.testing.assert_array_equal(f.gradients, c.gradients)


def test_focal_downweights_easy_examples():
    easy = np.array([[8.0, 0.0, 0.0]])
    hard = np.array([[0.5, 0.0, 0.0]])
    t = np.array([0])
    ratio_focal = focal_loss(hard, t).value / focal_loss(easy, t).value
    ratio_ce = cross_entropy_id(hard, t).value / cross_entropy_id(easy, t).value
    assert ratio_focal > ratio_ce


def test_focal_gradient(rng):
    logits = rng.normal(size=(7, 4))
    targets = rng.integers(0, 4, 7)
    lv = focal_loss(logits, targets, gamma=2.0)
    fd_check(lambda: focal_loss(logits, targets, 2.0).value,
             logits, lv.gradients, range(0, 28, 5))


def test_part_prediction_is_cell_sum(rng):
    logits = rng.normal(size=(3, 2, 4))
    labels = rng.integers(0, 4, size=(3, 2))
    lv = part_prediction_loss(logits, labels)
    p = softmax(logits.reshape(-1, 4))
    expected = -np.log(p[np.arange(6), labels.reshape(-1)]).sum()
    assert lv.value == pytest.approx(expected, abs=1e-10)
    fd_check(lambda: part_prediction_loss(logits, labels).value,
             logits, lv.gradients, range(0, 24, 5))
    # A (B, H, W, C) batch: the stacked per-image gradients, the summed value.
    logits = rng.normal(size=(5, 3, 2, 4))
    labels = rng.integers(0, 4, size=(5, 3, 2))
    lv = part_prediction_loss(logits, labels)
    per_image = [part_prediction_loss(g, lab) for g, lab in zip(logits, labels)]
    assert lv.gradients.shape == logits.shape
    np.testing.assert_array_equal(
        lv.gradients, np.stack([p.gradients for p in per_image]))
    assert lv.value == pytest.approx(sum(p.value for p in per_image),
                                     rel=1e-12)
    with pytest.raises(ValueError):
        part_prediction_loss(logits, labels[:, :, :1])


def test_triplet_batch_hard_value(rng):
    emb = rng.normal(size=(8, 3))
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    cfg = TripletConfig(margin=0.4)
    lv = triplet_batch_hard(emb, labels, cfg)
    dist = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
    terms = []
    for a in range(8):
        pos = [j for j in range(8) if labels[j] == labels[a] and j != a]
        neg = [j for j in range(8) if labels[j] != labels[a]]
        terms.append(max(0.0, max(dist[a, p] for p in pos)
                         - min(dist[a, n] for n in neg) + 0.4))
    assert lv.value == pytest.approx(np.mean(terms), abs=1e-12)
    fd_check(lambda: triplet_batch_hard(emb, labels, cfg).value,
             emb, lv.gradients, range(0, 24, 4), tol=1e-5)


def test_triplet_degenerate():
    with pytest.raises(DegenerateBatch):
        triplet_batch_hard(np.zeros((3, 2)), np.array([0, 0, 0]))
    with pytest.raises(DegenerateBatch):
        triplet_batch_hard(np.zeros((3, 2)), np.array([0, 0, 1]))


def test_masked_triplet_ignores_invalid(rng):
    emb = rng.normal(size=(8, 4))
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    valid = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    lv = masked_triplet_batch_hard(emb, labels, valid)
    lv_sub = triplet_batch_hard(emb[:4], labels[:4])
    assert lv.value == pytest.approx(lv_sub.value, abs=1e-12)
    np.testing.assert_array_equal(lv.gradients[4:], 0.0)


def test_masked_triplet_no_anchor_returns_zero(rng):
    emb = rng.normal(size=(4, 3))
    labels = np.array([0, 0, 1, 1])
    lv = masked_triplet_batch_hard(emb, labels, np.array([1, 0, 0, 0]))
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.gradients, 0.0)


def test_masked_triplet_gradient(rng):
    emb = rng.normal(size=(10, 4))
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])
    valid = (rng.random(10) < 0.8).astype(int)
    lv = masked_triplet_batch_hard(emb, labels, valid)
    fd_check(lambda: masked_triplet_batch_hard(emb, labels, valid).value,
             emb, lv.gradients, range(0, 40, 7), tol=1e-5)


def _gilt_inputs(rng, n=8, k=3, d=4, n_ids=4):
    parts = rng.normal(size=(n, k, d))
    vis = (rng.random((n, k)) < 0.8).astype(int)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])[:n]
    logits = {s: rng.normal(size=(n, n_ids))
              for s in ("global", "concat", "foreground")}
    return parts, vis, labels, logits


def test_gilt_combines_scopes(rng):
    parts, vis, labels, logits = _gilt_inputs(rng)
    lv = gilt_loss(parts, vis, logits, labels)
    ce = np.mean([cross_entropy_id(logits[s], labels).value
                  for s in ("global", "concat", "foreground")])
    tri = np.mean([masked_triplet_batch_hard(parts[:, j], labels,
                                             vis[:, j]).value
                   for j in range(parts.shape[1])])
    assert lv.value == pytest.approx(ce + tri, abs=1e-12)


def test_gilt_gradients(rng):
    parts, vis, labels, logits = _gilt_inputs(rng)
    lv = gilt_loss(parts, vis, logits, labels)
    fd_check(lambda: gilt_loss(parts, vis, logits, labels).value,
             parts, lv.gradients["parts"], range(0, 96, 13), tol=1e-5)
    for scope in ("global", "concat", "foreground"):
        fd_check(lambda: gilt_loss(parts, vis, logits, labels).value,
                 logits[scope], lv.gradients["id_logits"][scope],
                 range(0, 32, 5), tol=1e-5)


def _integer_batch(rng, n, d, n_scopes=1):
    """Labels with >= 2 samples each and small integer embeddings: their
    distances are square roots of exact integers, so every distance formula
    rounds them alike.  Ties and duplicated rows (distance 0) are common."""
    labels = np.repeat(np.arange(n // 2), 2)
    labels = np.concatenate([labels, rng.integers(0, n // 2, n % 2)])
    rng.shuffle(labels)
    emb = rng.integers(-2, 3, size=(n, n_scopes, d)).astype(float)
    emb[rng.integers(n)] = emb[rng.integers(n)]
    return emb, labels


def test_gilt_parts_equal_per_scope_oracle():
    rng = np.random.default_rng(7)
    for n in (4, 5, 9, 16, 23, 32, 44) * 3:
        k, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        parts, labels = _integer_batch(rng, n, d, k)
        vis = (rng.random((n, k)) < rng.uniform(0.3, 1.0)).astype(int)
        vis[:, 0] = 0
        vis[rng.integers(n), 0] = 1    # scope 0: no qualifying anchor
        logits = {s: rng.normal(size=(n, n // 2))
                  for s in ("global", "concat", "foreground")}
        lv = gilt_loss(parts, vis, logits, labels, TripletConfig(0.3))
        ce_value = 0.0
        for s in ("global", "concat", "foreground"):
            ce_value += cross_entropy_id(logits[s], labels).value / 3
        part_value = 0.0
        for j in range(k):
            value, grad = brute_triplet(parts[:, j], labels, vis[:, j], 0.3)
            part_value += value / k
            np.testing.assert_array_equal(lv.gradients["parts"][:, j],
                                          grad / k)
        assert lv.value == ce_value + part_value
        assert not lv.gradients["parts"][:, 0].any()


def test_triplet_batch_hard_matches_oracle():
    rng = np.random.default_rng(8)
    for n in (4, 6, 8, 12, 16, 20, 32, 44):
        emb, labels = _integer_batch(rng, n, int(rng.integers(1, 9)))
        emb = emb[:, 0]
        lv = triplet_batch_hard(emb, labels, TripletConfig(0.3))
        value, grad = brute_triplet(emb, labels, np.ones(n), 0.3,
                                    divide_each=False)
        assert lv.value == value
        # Terms are divided by n before they are added: ~1 ulp from the
        # oracle's single division, none when n is a power of two.
        if n & (n - 1) == 0:
            np.testing.assert_array_equal(lv.gradients, grad)
        else:
            np.testing.assert_allclose(lv.gradients, grad, rtol=0,
                                       atol=1e-12 * np.abs(grad).max())


@st.composite
def masked_batches(draw):
    """Embeddings, labels, validity, and other values for the hidden rows."""
    n = draw(st.integers(4, 12))
    d = draw(st.integers(1, 4))
    values = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    return (draw(arrays(float, (n, d), elements=values)),
            draw(arrays(int, n, elements=st.integers(0, 2))),
            draw(arrays(bool, n)),
            draw(arrays(float, (n, d), elements=values)))


@settings(deadline=None)
@given(masked_batches())
def test_masked_triplet_hidden_samples_do_not_matter(batch):
    emb, labels, valid, other = batch
    lv = masked_triplet_batch_hard(emb, labels, valid)
    np.testing.assert_array_equal(lv.gradients[~valid], 0.0)
    moved = np.where(valid[:, None], emb, other)
    lv2 = masked_triplet_batch_hard(moved, labels, valid)
    assert lv2.value == lv.value
    np.testing.assert_array_equal(lv2.gradients, lv.gradients)


def test_total_loss_weighted_sum():
    comps = {"pa": LossValue(2.0, np.ones(3)),
             "reid": LossValue(1.0, np.full(3, 2.0)),
             "team": LossValue(4.0, np.full(3, -1.0)),
             "role": LossValue(0.5, np.zeros(3))}
    w = LossWeights(lambda_pa=0.3, lambda_reid=1.0,
                    lambda_team=0.1, lambda_role=1.5)
    lv = total_loss(comps, w)
    assert lv.value == pytest.approx(0.3 * 2 + 1.0 + 0.1 * 4 + 1.5 * 0.5)
    np.testing.assert_allclose(lv.gradients["pa"], 0.3)
    np.testing.assert_allclose(lv.gradients["team"], -0.1)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_team=-0.1)
