import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_merge, brute_track
from prtrack.core import PartFeatureSet, Role, part_distance_matrix
from prtrack.postproc import (MergeConfig, TooFewPlayers, assign_roles,
                              assign_teams, merge_tracklets,
                              tracklet_cost_matrix)
from prtrack.pipeline import team_accuracy
from prtrack.simgen import DetectionTable
from prtrack.tracker import TrackletTable
from test_tracker import (_bits, member_rows, members, sequences, split,
                          tracklets_of)


def feat(vec, vis=None, k=2):
    vec = np.asarray(vec, dtype=float)
    if vis is None:
        vis = np.ones(k + 1, dtype=int)
    return PartFeatureSet(parts=np.tile(vec, (k, 1)), foreground=vec,
                          visibility=np.asarray(vis))


def tracklet(tid, frames, vec, vis=None, role=Role.PLAYER, team=None):
    """A table of one tracklet with EMA ``vec`` in every index."""
    n = len(frames)
    dets = DetectionTable(np.array(frames, dtype=int), np.zeros(n, int),
                          np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)),
                          np.zeros(n, int),
                          np.full(n, -1 if team is None else team),
                          np.full(n, int(role)), None)
    logits = np.full(4, -1.0)
    logits[int(role)] = 1.0
    f = feat(vec, vis)
    return TrackletTable(np.array([tid]), np.array([n]), f.stacked()[None],
                         f.visibility[None], logits[None] * n, dets)


def table(*tracklets):
    """One table of the rows of one-tracklet tables, in argument order."""
    return TrackletTable(
        *(np.concatenate([getattr(t, name) for t in tracklets])
          for name in ("id", "count", "ema", "vis", "role_logit_sum")),
        DetectionTable.concat([t.detections for t in tracklets]))


def test_cost_matrix_diagonal_and_overlap():
    a = tracklet(1, [1, 2, 3], [0.0, 0.0])
    b = tracklet(2, [2, 3, 4], [0.0, 0.0])       # overlaps a
    c = tracklet(3, [10, 11], [0.0, 0.0])
    costs = tracklet_cost_matrix(table(a, b, c))
    assert np.isinf(costs[0, 0]) and np.isinf(costs[1, 1])
    assert np.isinf(costs[0, 1]) and np.isinf(costs[1, 0])
    assert costs[0, 2] == pytest.approx(0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        spans = [sorted(rng.integers(1, 40, 2)) for _ in range(12)]
        ts = [tracklet(i, range(lo, hi + 1), rng.normal(size=2))
              for i, (lo, hi) in enumerate(spans)]
        costs = tracklet_cost_matrix(table(*ts))
        overlap = np.array([[lo <= hi2 and lo2 <= hi for lo2, hi2 in spans]
                            for lo, hi in spans])
        np.testing.assert_array_equal(np.isinf(costs), overlap)
        feats = [feat(t.ema[0, 0], t.vis[0]) for t in ts]
        np.testing.assert_array_equal(
            costs[~overlap], part_distance_matrix(feats, feats)[~overlap])


def test_table_take_keeps_only_the_chosen_tracklets():
    a = tracklet(1, [1, 2, 3], [1.0, 0.0])
    b = tracklet(2, [5, 6], [0.0, 1.0])
    c = tracklet(3, [4], [2.0, 2.0])
    both = table(a, b)
    for rows, want in (([1], [b]), ([0], [a]), ([2, 0], [c, a])):
        whole = table(a, b, c) if 2 in rows else both
        got = whole.take(np.array(rows))
        assert got.id.tolist() == [t.id[0] for t in want]
        assert got.count.tolist() == [t.count[0] for t in want]
        assert got.detections.frame.tolist() == [
            f for t in want for f in t.detections.frame.tolist()]
        np.testing.assert_array_equal(
            got.ema, np.concatenate([t.ema for t in want]))


def test_merge_of_no_tracklets():
    merged, survivor = merge_tracklets([])
    assert merged == []
    assert survivor.shape == (0,) and survivor.dtype.kind == "i"


def test_merge_joins_matching_fragments():
    a = tracklet(1, [1, 2, 3], [1.0, 0.0])
    b = tracklet(5, [10, 11, 12], [1.0, 0.05])
    c = tracklet(7, [20, 21], [9.0, 9.0])
    merged, survivor = merge_tracklets(table(a, b, c))
    assert len(merged) == 2
    assert survivor.tolist() == [1, 1, 7]
    joined = next(t for t in split(merged) if t.id == 1)
    assert joined.detections.frame.tolist() == [1, 2, 3, 10, 11, 12]


def test_merge_features_count_weighted():
    a = tracklet(1, [1, 2, 3], [0.0, 0.0])       # 3 detections
    b = tracklet(2, [10], [0.3, 0.0])            # 1 detection
    merged, _ = merge_tracklets(table(a, b), MergeConfig(merge_threshold=0.5))
    assert len(merged) == 1
    np.testing.assert_allclose(merged.ema[0, 0],
                               [0.075, 0.0], atol=1e-12)


def test_merge_respects_threshold():
    a = tracklet(1, [1, 2], [0.0, 0.0])
    b = tracklet(2, [10, 11], [1.0, 0.0])
    merged, survivor = merge_tracklets(table(a, b),
                                       MergeConfig(merge_threshold=0.3))
    assert len(merged) == 2
    assert survivor.tolist() == [1, 2]


def test_merge_rounds_chain_fragments():
    a = tracklet(1, [1, 2], [0.0, 0.0])
    b = tracklet(2, [10, 11], [0.05, 0.0])
    c = tracklet(3, [20, 21], [0.1, 0.0])
    merged, survivor = merge_tracklets(table(a, b, c))
    assert len(merged) == 1
    assert survivor.tolist() == [1, 1, 1]


def test_foreground_only_ignores_part_mismatch():
    base = np.array([0.0, 0.0])
    a = tracklet(1, [1, 2], base)
    b = tracklet(2, [10, 11], base)
    # corrupt one part embedding of b far beyond the threshold
    b.ema[0, 2] += 10.0
    part_based, _ = merge_tracklets(table(a, b))
    assert len(part_based) == 2
    fg_only, _ = merge_tracklets(table(a, b),
                                 MergeConfig(foreground_only=True))
    assert len(fg_only) == 1


def test_assign_roles_votes_and_tie_breaks():
    t = tracklet(1, [1, 2], [0.0, 0.0], role=Role.REFEREE)
    assert assign_roles(t).tolist() == [Role.REFEREE]
    t.role_logit_sum = np.zeros((1, 4))
    assert assign_roles(t).tolist() == [Role.PLAYER]  # lowest index wins ties
    t.role_logit_sum = None
    with pytest.raises(ValueError):
        assign_roles(t)


def test_assign_teams_two_clusters():
    left = [tracklet(i, [i], [5.0, 0.0]) for i in range(1, 5)]
    right = [tracklet(i, [i], [-5.0, 0.0]) for i in range(5, 9)]
    ref = tracklet(9, [1], [0.0, 9.0], role=Role.REFEREE)
    teams = assign_teams(table(*left, *right, ref), seed=0)
    assert teams.shape == (9,) and teams[8] == -1   # the referee's row
    assert set(teams[:4].tolist()) in ({0}, {1})
    assert set(teams[4:8].tolist()) == {1 - teams[0]}


def test_assign_teams_too_few_players():
    ref = tracklet(1, [1], [0.0, 0.0], role=Role.REFEREE)
    staff = tracklet(2, [1], [1.0, 0.0], role=Role.STAFF)
    with pytest.raises(TooFewPlayers):
        assign_teams(table(ref, staff))


def test_team_accuracy_on_hand_built_tables():
    """The better of the two label permutations counts, rows labelled -1
    are left out, and no labelled row with a ground-truth team gives NaN."""
    t = table(*(tracklet(i, [i], [0.0, 0.0], team=team)
                for i, team in enumerate((0, 0, 1, 1, None), 1)))
    assert team_accuracy(t, np.array([0, 0, 1, 1, -1])) == 1.0
    assert team_accuracy(t, np.array([1, 1, 0, 0, 0])) == 1.0
    # Rows 1, 3 and 4 are scored: 2 of 3 right once the labels swap.
    assert team_accuracy(t, np.array([1, -1, 0, 1, 1])) == pytest.approx(
        2 / 3)
    assert np.isnan(team_accuracy(t, np.array([-1, -1, -1, -1, 0])))
    assert np.isnan(team_accuracy(t, np.full(5, -1)))


def test_merge_config_validation():
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="merge_threshold"):
            MergeConfig(merge_threshold=bad)
    # Fewer than one round would merge nothing, without a word.
    for bad in (0, -2):
        with pytest.raises(ValueError, match="^max_rounds must be >= 1"):
            MergeConfig(max_rounds=bad)


def keys(t):
    """A tracklet's member rows as (frame, index in the frame) pairs."""
    return set(zip(t.detections.frame.tolist(),
                   t.detections.det_index.tolist()))


# Random clips, half of them with people whose tracks end and restart.
_clips = st.one_of(sequences(), sequences(restarts=True))
_merge_configs = st.builds(
    MergeConfig, merge_threshold=st.sampled_from([0.3, 1.0, 3.0]),
    max_rounds=st.sampled_from([1, 10]), foreground_only=st.booleans())


@settings(max_examples=150, deadline=None)
@given(_clips, st.sampled_from([0.3, 1.0, 3.0]), st.sampled_from([1, 10]),
       st.booleans())
def test_merge_invariants(case, threshold, rounds, foreground_only):
    """On the tracklets of a random clip: the merged member sets partition
    the input's along the surviving ids, one per input row, each the id
    of a merged tracklet; a merged tracklet's frames strictly increase; and
    its EMA is the count-weighted mean of its sources' EMAs."""
    rows = tracklets_of(*case)
    merged, survivor = merge_tracklets(
        rows, MergeConfig(merge_threshold=threshold, max_rounds=rounds,
                          foreground_only=foreground_only))
    tracklets = split(rows)
    survivors = {t.id: t for t in split(merged)}
    assert len(survivors) == len(merged)
    assert survivor.shape == (len(rows),)
    id_map = dict(zip(rows.id.tolist(), survivor.tolist()))
    assert set(id_map) == {t.id for t in tracklets}
    assert set(id_map.values()) == set(survivors)
    for tid, m in survivors.items():
        sources = [t for t in tracklets if id_map[t.id] == tid]
        assert keys(m) == set().union(*map(keys, sources))
        assert len(m.detections) == sum(len(t.detections) for t in sources)
        assert (np.diff(m.detections.frame) > 0).all()
        counts = np.array([len(t.detections) for t in sources])
        mean = sum(n * t.ema
                   for n, t in zip(counts, sources)) / counts.sum()
        np.testing.assert_allclose(m.ema, mean, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            m.vis, np.max([t.vis for t in sources], axis=0))


def merge_rounds(tracklets, cfg):
    """``merge_tracklets`` as single rounds, each fed the previous round's
    output: per round, its input, cost matrix, output and id map {input
    id: surviving id}."""
    one_round = dataclasses.replace(cfg, max_rounds=1)
    current = tracklets
    for _ in range(cfg.max_rounds):
        merged, survivor = merge_tracklets(current, one_round)
        yield (current, tracklet_cost_matrix(current, cfg), merged,
               dict(zip(current.id.tolist(), survivor.tolist())))
        if len(merged) == len(current):
            return
        current = merged


@settings(max_examples=150, deadline=None)
@given(_clips, _merge_configs)
def test_merge_accepts_only_pairs_below_threshold(case, cfg):
    """Every pair that a round joins costs less than ``merge_threshold`` in
    that round's cost matrix; the rounds compose to one call's result."""
    tracklets = tracklets_of(*case)
    id_map = {i: i for i in tracklets.id.tolist()}
    for current, costs, merged, step in merge_rounds(tracklets, cfg):
        for survivor in set(merged.id.tolist()):
            joined = [i for i, tid in enumerate(current.id.tolist())
                      if step[tid] == survivor]
            assert len(joined) in (1, 2)
            if len(joined) == 2:
                assert costs[joined[0], joined[1]] < cfg.merge_threshold
        id_map = {k: step[v] for k, v in id_map.items()}
    want, want_survivor = merge_tracklets(tracklets, cfg)
    assert [id_map[i] for i in tracklets.id.tolist()] == \
        want_survivor.tolist()
    assert merged.id.tolist() == want.id.tolist()


@settings(max_examples=150, deadline=None)
@given(_clips, _merge_configs, st.randoms(use_true_random=False))
def test_merge_ignores_input_order(case, cfg, random):
    """The merged tracklets and each input id's surviving id do not depend
    on the order of the input list.  Draws in which a round's cost matrix holds a finite cost
    twice above its diagonal are left out: the assignment breaks ties by
    (row, col), and so by list order."""
    tracklets = tracklets_of(*case)
    for _, costs, _, _ in merge_rounds(tracklets, cfg):
        upper = costs[np.triu_indices_from(costs, 1)]
        finite = upper[np.isfinite(upper)]
        assume(np.unique(finite).size == finite.size)
    want, want_survivor = merge_tracklets(tracklets, cfg)
    order = np.array(random.sample(range(len(tracklets)), len(tracklets)),
                     dtype=int)
    got, got_survivor = merge_tracklets(tracklets.take(order), cfg)
    assert got_survivor.tolist() == want_survivor[order].tolist()
    assert sorted(got.id.tolist()) == sorted(want.id.tolist())
    by_id = {t.id: t for t in split(want)}
    for g in split(got):
        w = by_id[g.id]
        assert member_rows(g.detections) == member_rows(w.detections)
        assert _bits(g.ema) == _bits(w.ema)
        np.testing.assert_array_equal(g.vis, w.vis)


@settings(max_examples=150, deadline=None)
@given(_clips, _merge_configs, st.randoms(use_true_random=False))
def test_merge_equals_per_object_oracle(case, cfg, random):
    """On the tracklets of a random clip, in a random order, the merge
    equals ``brute_merge`` of the per-object tracker's tracklets in the
    same order bit for bit: ids, surviving ids, each tracklet's member rows,
    EMA, visibility, role-logit sum and count."""
    tracker_cfg, frames = case
    tracklets = brute_track(frames, tracker_cfg)[1]
    order = random.sample(range(len(tracklets)), len(tracklets))
    want, want_survivor = brute_merge([tracklets[i] for i in order], cfg)
    got, got_survivor = merge_tracklets(
        tracklets_of(*case).take(np.array(order, dtype=int)), cfg)
    assert got_survivor.tolist() == want_survivor
    assert got.id.tolist() == [w[0] for w in want]
    assert got.count.tolist() == [len(w[4]) for w in want]
    for g, w in zip(split(got), want):
        assert _bits(g.ema) == _bits(w[1])
        assert _bits(g.vis) == _bits(w[2])
        assert _bits(g.role_logit_sum) == _bits(w[3])
        assert member_rows(g.detections) == members(w[4])
