import itertools

import numpy as np
import pytest

from prtrack.core import PartFeatureSet, Role
from prtrack.reid_metrics import (EmptyGallery, LengthMismatch, RetrievalItem,
                                  RetrievalSet, evaluate_retrieval, map_cmc,
                                  rank, role_metrics)

from conftest import random_feature_set
from oracles import brute_retrieval


def feat(x, vis=None, k=2, d=2):
    vec = np.array([float(x), 0.0])
    if vis is None:
        vis = np.ones(k + 1, dtype=int)
    return PartFeatureSet(parts=np.tile(vec, (k, 1)), foreground=vec,
                          visibility=np.asarray(vis))


def item(x, identity, team=0, role=Role.PLAYER, view=0):
    return RetrievalItem(feat(x), identity, team, role, view)


def test_rank_orders_by_distance():
    q = feat(0.0)
    gallery = [feat(3.0), feat(1.0), feat(2.0)]
    assert rank(q, gallery) == [1, 2, 0]
    with pytest.raises(EmptyGallery):
        rank(q, [])


def test_rank_no_mutual_visibility_last():
    q = feat(0.0, vis=[1, 1, 0])
    far_but_visible = feat(100.0)
    invisible = feat(0.0, vis=[0, 0, 1])
    assert rank(q, [invisible, far_but_visible]) == [1, 0]


def test_map_cmc_hand_computed():
    # query 1: positives at ranks 1 and 3 -> AP = (1/1 + 2/3)/2
    # query 2: positive at rank 2 -> AP = 1/2
    rankings = [np.array([1, 0, 1, 0]), np.array([0, 1])]
    m, r1 = map_cmc(rankings)
    assert m == pytest.approx((((1.0 + 2.0 / 3.0) / 2.0) + 0.5) / 2.0)
    assert r1 == pytest.approx(0.5)


def test_map_cmc_excludes_empty_queries():
    with pytest.warns(UserWarning):
        m, r1 = map_cmc([np.array([0, 0]), np.array([1])])
    assert m == pytest.approx(1.0)
    with pytest.warns(UserWarning):
        m, r1 = map_cmc([np.array([0])])
    assert np.isnan(m) and np.isnan(r1)


def test_role_metrics_hand_computed():
    preds = [Role.PLAYER, Role.PLAYER, Role.REFEREE, Role.STAFF]
    truth = [Role.PLAYER, Role.REFEREE, Role.REFEREE, Role.PLAYER]
    acc, prec = role_metrics(preds, truth)
    assert acc == pytest.approx(0.5)
    # per-class precision: player 1/2, goalkeeper 0 (no predictions),
    # referee 1/1, staff 0/1
    assert prec == pytest.approx((0.5 + 0.0 + 1.0 + 0.0) / 4.0)
    with pytest.raises(LengthMismatch):
        role_metrics(preds, truth[:2])


def test_identity_retrieval_exact_small():
    queries = [item(0.0, identity=1, view=0)]
    gallery = [item(0.1, identity=1, view=1),
               item(5.0, identity=2, view=0),
               item(0.2, identity=1, view=0)]  # same identity+view: excluded
    retrieval = RetrievalSet(queries, gallery)
    m, r1 = evaluate_retrieval(retrieval, "identity")
    assert m == pytest.approx(1.0)
    assert r1 == pytest.approx(1.0)
    m_all, _ = evaluate_retrieval(retrieval, "identity",
                                  exclude_same_view=False)
    assert m_all == pytest.approx(1.0)


def test_team_retrieval_filters_players():
    queries = [item(0.0, identity=1, team=0),
               item(9.0, identity=9, role=Role.REFEREE, team=None)]
    gallery = [item(0.1, identity=2, team=0),
               item(5.0, identity=3, team=1),
               item(0.2, identity=4, role=Role.GOALKEEPER, team=0)]
    m, r1 = evaluate_retrieval(RetrievalSet(queries, gallery), "team")
    # only the player query vs the two player gallery items is evaluated
    assert m == pytest.approx(1.0)
    assert r1 == pytest.approx(1.0)


def test_evaluate_retrieval_bad_key():
    with pytest.raises(ValueError):
        evaluate_retrieval(RetrievalSet([], [item(0.0, 1)]), "color")
    with pytest.raises(EmptyGallery):
        evaluate_retrieval(RetrievalSet([item(0.0, 1)], []), "identity")


def random_retrieval(rng, n_queries=12, n_gallery=30):
    """Four identities on two teams over two views, with hidden parts, sets
    that share no visible index with others, non-players, and gallery items
    that copy another item's features under a different identity, so
    distances tie."""
    def one():
        identity = int(rng.integers(4))
        role = Role.PLAYER if rng.random() < 0.8 else Role.REFEREE
        return RetrievalItem(
            random_feature_set(rng, k=3, d=4, p_visible=0.5,
                               force_any=False),
            identity, identity % 2 if role == Role.PLAYER else None, role,
            int(rng.integers(2)))

    queries = [one() for _ in range(n_queries)]
    gallery = [one() for _ in range(n_gallery)]
    for j in rng.choice(n_gallery, size=n_gallery // 3, replace=False):
        gallery[j].features = gallery[int(rng.integers(n_gallery))].features
    for i in range(0, n_queries, 3):
        queries[i].features = gallery[int(rng.integers(n_gallery))].features
    return RetrievalSet(queries, gallery)


@pytest.mark.filterwarnings("ignore:query .* has no positives")
@pytest.mark.parametrize("seed", range(10))
def test_evaluate_retrieval_matches_oracle(seed):
    retrieval = random_retrieval(np.random.default_rng(seed))
    for match_key, exclude in itertools.product(("identity", "team"),
                                                (True, False)):
        expected = brute_retrieval(retrieval, match_key, exclude)
        assert not np.isnan(expected[0])
        assert evaluate_retrieval(retrieval, match_key, exclude) == expected
