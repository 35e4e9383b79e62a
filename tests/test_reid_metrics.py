import math

import numpy as np
import pytest
import yaml

from prtrack import reid_metrics
from prtrack.config import load_config
from prtrack.core import PartFeatureSet, Role
from prtrack.pipeline import evaluate_reid, train_on_scenario
from prtrack.reid_metrics import (EmptyGallery, LengthMismatch,
                                  RetrievalTable, evaluate_retrieval, map_cmc,
                                  rank, role_metrics)
from prtrack.simgen import generate

from conftest import random_feature_set
from oracles import (RetrievalItem, brute_evaluate_reid, brute_generate,
                     brute_reid_dataset, brute_retrieval)
from test_simgen import _REID_SCENARIO


def feat(x, vis=None, k=2, d=2):
    vec = np.array([float(x), 0.0])
    if vis is None:
        vis = np.ones(k + 1, dtype=int)
    return PartFeatureSet(parts=np.tile(vec, (k, 1)), foreground=vec,
                          visibility=np.asarray(vis))


def item(x, identity, team=0, role=Role.PLAYER, view=0):
    return RetrievalItem(feat(x), identity, team, role, view)


def table(items, k=2, d=2):
    """The items' columns as a ``RetrievalTable``."""
    return RetrievalTable(
        np.array([it.features.stacked() for it in items]).reshape(-1, k + 1,
                                                                  d),
        np.array([it.features.visibility for it in items]).reshape(-1, k + 1),
        np.array([it.identity for it in items], dtype=int),
        np.array([-1 if it.team is None else it.team for it in items],
                 dtype=int),
        np.array([int(it.role) for it in items], dtype=int),
        np.array([it.view for it in items], dtype=int))


def retrieve(queries, gallery, *args):
    """``evaluate_retrieval`` on lists of items."""
    k, d = (queries or gallery)[0].features.parts.shape
    return evaluate_retrieval(table(queries, k, d), table(gallery, k, d),
                              *args)


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
    acc, prec = role_metrics(np.array(preds), np.array(truth))
    assert acc == pytest.approx(0.5)
    # per-class precision: player 1/2, goalkeeper 0 (no predictions),
    # referee 1/1, staff 0/1
    assert prec == pytest.approx((0.5 + 0.0 + 1.0 + 0.0) / 4.0)
    with pytest.raises(LengthMismatch):
        role_metrics(np.array(preds), np.array(truth[:2]))


def test_identity_retrieval_exact_small():
    queries = [item(0.0, identity=1, view=0)]
    gallery = [item(0.1, identity=1, view=1),
               item(5.0, identity=2, view=0),
               item(0.2, identity=1, view=0)]  # same identity+view: excluded
    m, r1 = retrieve(queries, gallery, "identity")
    assert m == pytest.approx(1.0)
    assert r1 == pytest.approx(1.0)


def test_team_retrieval_filters_players():
    queries = [item(0.0, identity=1, team=0),
               item(9.0, identity=9, role=Role.REFEREE, team=None)]
    gallery = [item(0.1, identity=2, team=0),
               item(5.0, identity=3, team=1),
               item(0.2, identity=4, role=Role.GOALKEEPER, team=0)]
    m, r1 = retrieve(queries, gallery, "team")
    # only the player query vs the two player gallery items is evaluated
    assert m == pytest.approx(1.0)
    assert r1 == pytest.approx(1.0)


def test_evaluate_retrieval_bad_key():
    with pytest.raises(ValueError):
        retrieve([], [item(0.0, 1)], "color")
    with pytest.raises(EmptyGallery):
        retrieve([item(0.0, 1)], [], "identity")


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
    return queries, gallery


@pytest.mark.filterwarnings("ignore:query .* has no positives")
@pytest.mark.parametrize("seed", range(10))
def test_evaluate_retrieval_matches_oracle(seed):
    queries, gallery = random_retrieval(np.random.default_rng(seed))
    for match_key in ("identity", "team"):
        expected = brute_retrieval(queries, gallery, match_key)
        assert not np.isnan(expected[0])
        assert retrieve(queries, gallery, match_key) == expected


def test_query_with_no_gallery_row_left_is_excluded_with_a_warning(
        monkeypatch):
    """A query whose gallery holds only its own identity in its own view
    keeps no gallery row.  It reaches ``map_cmc`` as an empty ranking, so
    it is excluded as a query without positives is, with a warning that
    names its index."""
    gallery = [item(0.1, identity=1, view=0), item(0.2, identity=1, view=0)]
    seen = []
    map_cmc_ = reid_metrics.map_cmc

    def spy(rankings):
        seen.extend(rankings)
        return map_cmc_(rankings)
    monkeypatch.setattr(reid_metrics, "map_cmc", spy)
    with pytest.warns(UserWarning, match="^query 0 has no positives"):
        m, r1 = retrieve([item(0.0, identity=1, view=0)], gallery,
                         "identity")
    assert np.isnan(m) and np.isnan(r1)
    assert [len(flags) for flags in seen] == [0]
    # A second query in another view keeps both rows, both positive.
    seen.clear()
    with pytest.warns(UserWarning, match="^query 0 has no positives"):
        m, r1 = retrieve([item(0.0, identity=1, view=0),
                          item(0.0, identity=1, view=1)], gallery,
                         "identity")
    assert (m, r1) == (1.0, 1.0)
    assert [flags.tolist() for flags in seen] == [[], [1, 1]]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# The reid_train benchmark workload's run; test_simgen's two-view scenario
# with long exits; and a single-view clip of 120 frames, where every
# identity query loses its positives and reid_map is NaN.
_REID_RUNS = (
    {"scenario": {"frames": 250, "occlusion_rate": 0.3},
     "sampling_stride": 5, "train": {"epochs": 60}},
    {"scenario": _REID_SCENARIO, "sampling_stride": 5,
     "train": {"epochs": 15}},
    {"scenario": {"frames": 120, "occlusion_rate": 0.1, "seed": 9},
     "train": {"epochs": 15}},
)


@pytest.mark.filterwarnings("ignore:query .* has no positives")
@pytest.mark.parametrize("run", range(len(_REID_RUNS)),
                         ids=["reid_train", "two_views", "one_view"])
def test_evaluate_reid_equals_per_sample_oracle(run, tmp_path):
    """The row path, one forward pass per side and one kernel row per
    query, gives the six figures of the per-sample path: a forward pass
    and a ``rank`` call per sample."""
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(_REID_RUNS[run]))
    cfg = load_config(path)
    _, samples = generate(cfg.scenario, cfg.sampling_stride)
    model, _ = train_on_scenario(cfg, samples)
    got = evaluate_reid(model, samples)
    _, query_samples, gallery_samples = brute_reid_dataset(
        brute_generate(cfg.scenario), cfg.sampling_stride)
    want = brute_evaluate_reid(model, query_samples, gallery_samples)
    assert list(got) == list(want)
    assert all(_same(got[key], want[key]) for key in got), (got, want)
    if run == 2:
        assert np.isnan(got["reid_map"]) and not np.isnan(got["team_map"])
    else:
        assert not np.isnan(got["reid_map"])
