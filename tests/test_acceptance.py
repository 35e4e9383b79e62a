"""End-to-end acceptance suite.

Each test here pins one externally checkable claim about the package:
analytic gradients, solver and metric correctness against brute-force
enumeration, part-distance invariants, the multi-task and merge-ablation
directions on the synthetic benchmark, perfect-input exactness,
determinism, and file-format round-trips.  Expected values come from
independent oracles (enumeration, finite differences, hand computation),
never from the implementation under test.
"""

import time

import numpy as np
import pytest
import yaml

from prtrack.cli import main
from prtrack.core import PartFeatureSet, Role, part_distance
from prtrack.embedder import (EmbedderModel, TrainConfig, forward_batch,
                              grad_check, sample_batch, train)
from prtrack.losses import (LossWeights, TripletConfig, cross_entropy_id,
                            focal_loss, gilt_loss, masked_triplet_batch_hard,
                            part_prediction_loss, softmax, triplet_batch_hard)
from prtrack.motio import (parse_features, parse_mot, write_features,
                           write_mot)
from prtrack.postproc import MergeConfig, merge_tracklets
from prtrack.pipeline import evaluate_reid
from prtrack.simgen import (GALLERY, QUERY, TRAIN, ScenarioConfig,
                            generate, to_tracking_input)
from prtrack.solvers import hungarian, kmeans2
from prtrack.track_metrics import (SequenceResult, evaluate_sequence, hota,
                                   idf1, mota_ids)
from prtrack.tracker import FrameInput, OnlineTracker, TrackerConfig

from conftest import mot_sequence, random_feature_set
from oracles import (Box, FeatureRow, MotRow, brute_assignment, brute_hota,
                     brute_idf1, brute_mota_ids, feature_table, mot_table)
from test_embedder import make_dataset


# --------------------------------------------------------------------------
# 1. Gradient suite: every loss and the full embedder chain pass
#    finite-difference checks (rel error < 1e-4, 100 points per loss, < 30 s).
# --------------------------------------------------------------------------

def _fd_ok(fn, x, grad, n_coords, rng, step=1e-6, tol=1e-4):
    flat = np.asarray(x).reshape(-1)
    g = np.asarray(grad).reshape(-1)
    coords = rng.choice(flat.size, size=min(n_coords, flat.size),
                        replace=False)
    for i in coords:
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        fd = (hi - lo) / (2 * step)
        rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-4)
        assert rel < tol, (i, fd, g[i])


def test_acceptance_1_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(100):
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, 6)
        lv = cross_entropy_id(logits, targets)
        _fd_ok(lambda: cross_entropy_id(logits, targets).value,
               logits, lv.gradients, 2, rng)
        lv = focal_loss(logits, targets, 2.0)
        _fd_ok(lambda: focal_loss(logits, targets, 2.0).value,
               logits, lv.gradients, 2, rng)

        grid = rng.normal(size=(3, 2, 4))
        labels = rng.integers(0, 4, size=(3, 2))
        lv = part_prediction_loss(softmax(grid), labels)
        _fd_ok(lambda: part_prediction_loss(softmax(grid), labels).value,
               grid, lv.gradients, 2, rng)

        emb = rng.normal(size=(8, 4))
        lab = np.repeat(np.arange(4), 2)
        cfg = TripletConfig(margin=0.3)
        lv = triplet_batch_hard(emb, lab, cfg)
        _fd_ok(lambda: triplet_batch_hard(emb, lab, cfg).value,
               emb, lv.gradients, 2, rng)

        valid = (rng.random(8) < 0.8).astype(int)
        lv = masked_triplet_batch_hard(emb, lab, valid, cfg)
        if lv.value > 0:
            _fd_ok(lambda: masked_triplet_batch_hard(emb, lab, valid,
                                                     cfg).value,
                   emb, lv.gradients, 2, rng)

        parts = rng.normal(size=(8, 3, 4))
        vis = (rng.random((8, 3)) < 0.8).astype(int)
        id_logits = {s: rng.normal(size=(8, 4))
                     for s in ("global", "concat", "foreground")}
        lv = gilt_loss(parts, vis, id_logits, lab, cfg)
        _fd_ok(lambda: gilt_loss(parts, vis, id_logits, lab, cfg).value,
               parts, lv.gradients["parts"], 2, rng)

    # full embedder chain: analytic vs central differences on every weight
    model = EmbedderModel.init(channels=6, num_parts=3, dim=4, n_ids=11,
                               seed=1)
    data = make_dataset(np.random.default_rng(2), per_id=2)
    batch = sample_batch(data, np.random.default_rng(3),
                         samples_per_identity=2)
    assert grad_check(model, batch, TrainConfig(seed=0)) < 1e-4
    assert time.time() - start < 30.0


# --------------------------------------------------------------------------
# 2. Oracle equivalence: assignment vs permutation enumeration on 1000
#    matrices; tracking metrics vs from-definition brute force on >= 20
#    micro-sequences.
# --------------------------------------------------------------------------

def test_acceptance_2a_hungarian_vs_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        costs = rng.uniform(-5, 5, size=(m, n))
        got = hungarian(costs)
        best, best_sets = brute_assignment(costs)
        assert abs(got.total_cost - best) < 1e-9
        assert frozenset(map(tuple, got.pairs.tolist())) in best_sets


def _micro_sequence(seed):
    """Random short sequence (<= 20 frames, <= 4 ids) with id splits,
    drops, jitter, and false positives."""
    rng = np.random.default_rng(seed)
    n_ids = int(rng.integers(1, 5))
    n_frames = int(rng.integers(4, 21))
    gt = {}
    pred = {}
    paths = {i: (rng.uniform(0, 300), rng.uniform(0, 300),
                 rng.uniform(-4, 4), rng.uniform(-4, 4))
             for i in range(1, n_ids + 1)}
    split_frame = {i: int(rng.integers(2, n_frames + 1))
                   for i in range(1, n_ids + 1)}
    for f in range(1, n_frames + 1):
        gt[f], pred[f] = [], []
        for i, (x0, y0, vx, vy) in paths.items():
            box = Box(x0 + vx * f, y0 + vy * f, 20.0, 40.0)
            gt[f].append((i, box))
            if rng.random() < 0.15:
                continue  # missed detection
            jx, jy = rng.normal(0, 1.5, 2)
            pbox = Box(box.x + jx, box.y + jy, 20.0, 40.0)
            pid = i if f < split_frame[i] else i + 100
            pred[f].append((pid, pbox))
        if rng.random() < 0.2:
            pred[f].append((999, Box(rng.uniform(600, 900),
                                     rng.uniform(600, 900), 20.0, 40.0)))
    return gt, pred


def test_acceptance_2b_metrics_vs_brute_force():
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    for seed in range(24):
        gt, pred = _micro_sequence(seed)
        result = SequenceResult(mot_sequence(gt), mot_sequence(pred))
        h, d, a = hota(result, alphas=alphas)
        bh, bd, ba = brute_hota(gt, pred, alphas)
        assert abs(h - bh) < 1e-12 and abs(d - bd) < 1e-12 \
            and abs(a - ba) < 1e-12
        m, ids = mota_ids(result)
        bm, bids = brute_mota_ids(gt, pred)
        assert ids == bids
        assert abs(m - bm) < 1e-12
        assert abs(idf1(result) - brute_idf1(gt, pred)) < 1e-12


# --------------------------------------------------------------------------
# 3. Part-distance invariants over 10^4 random feature sets.
# --------------------------------------------------------------------------

def test_acceptance_3_part_distance_properties():
    rng = np.random.default_rng(11)
    for _ in range(5000):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        a = random_feature_set(rng, k=k, d=d, p_visible=0.7)
        b = random_feature_set(rng, k=k, d=d, p_visible=0.7)
        mutual = a.visibility * b.visibility
        if mutual.sum() == 0:
            continue
        dist = part_distance(a, b)
        # symmetry
        assert abs(dist - part_distance(b, a)) < 1e-9
        # invariance to the content of invisible indices
        noise = rng.normal(size=(k, d))
        parts2 = a.parts + noise * (1 - a.visibility[1:, None])
        fg2 = a.foreground + rng.normal(size=d) * (1 - a.visibility[0])
        a2 = PartFeatureSet(parts=parts2, foreground=fg2,
                            visibility=a.visibility)
        assert abs(part_distance(a2, b) - dist) < 1e-9
        # all-visible: plain mean of per-index Euclidean distances
        ones = np.ones(k + 1, dtype=int)
        av = PartFeatureSet(a.parts, a.foreground, ones)
        bv = PartFeatureSet(b.parts, b.foreground, ones)
        expected = np.mean(np.linalg.norm(av.stacked() - bv.stacked(),
                                          axis=1))
        assert abs(part_distance(av, bv) - expected) < 1e-9


# --------------------------------------------------------------------------
# 4 & 5. Multi-task training direction and team clustering on the synthetic
#        benchmark, 5 seeds.
# --------------------------------------------------------------------------

_JOINT = LossWeights()
_REID_ONLY = LossWeights(lambda_team=0.0, lambda_role=0.0)


def _cluster_accuracy(model, batch):
    players = batch.role == Role.PLAYER
    feats, _, _ = forward_batch(model, batch.cells[players])
    emb = feats[:, 0]
    emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    labels, _ = kmeans2(emb, seed=0)
    truth = batch.team[players]
    return max(float((labels == truth).mean()),
               float((1 - labels == truth).mean()))


@pytest.fixture(scope="module")
def multitask_benchmark():
    """Joint vs identity-only training on five seeds of the weak-team-signal
    benchmark; returns per-variant metric arrays plus elapsed time."""
    start = time.time()
    rows = {"joint": [], "reid": []}
    for seed in range(5):
        _, samples = generate(ScenarioConfig(seed=seed, team_separation=0.7,
                                             feature_noise_sigma=0.6),
                              sampling_stride=25)
        for name, weights in (("joint", _JOINT), ("reid", _REID_ONLY)):
            model, _ = train(TrainConfig(seed=seed, weights=weights),
                             samples.batch(TRAIN))
            report = evaluate_reid(model, samples)
            cluster = _cluster_accuracy(model, samples.batch(QUERY, GALLERY))
            rows[name].append((report["reid_map"], report["team_map"],
                               cluster))
    return ({k: np.array(v) for k, v in rows.items()},
            time.time() - start)


def test_acceptance_4_multitask_improves_team_retrieval(multitask_benchmark):
    rows, elapsed = multitask_benchmark
    joint, reid = rows["joint"], rows["reid"]
    assert joint[:, 1].mean() > reid[:, 1].mean()          # team mAP up
    assert joint[:, 0].mean() >= reid[:, 0].mean() - 0.02  # reid mAP held
    assert elapsed < 300.0


def test_acceptance_5_team_clustering(multitask_benchmark):
    rows, _ = multitask_benchmark
    assert rows["joint"][:, 2].mean() >= rows["reid"][:, 2].mean()
    # separable regime: wide team separation, joint-trained embeddings
    _, samples = generate(ScenarioConfig(seed=0), sampling_stride=25)
    model, _ = train(TrainConfig(seed=0, weights=_JOINT),
                     samples.batch(TRAIN))
    assert _cluster_accuracy(model, samples.batch(QUERY, GALLERY)) >= 0.95


# --------------------------------------------------------------------------
# 6. Part-based merge beats no merge and foreground-only merge on an
#    occlusion-heavy scenario (IDF1 and ID switches, 5-seed means).
# --------------------------------------------------------------------------

def test_acceptance_6_merge_ablation():
    start = time.time()
    sums = {name: np.zeros(2) for name in ("none", "fg", "part")}
    for seed in range(5):
        cfg = ScenarioConfig(n_players_per_team=9, occlusion_rate=0.3,
                             seed=seed)
        assert (2 * cfg.n_players_per_team + cfg.n_goalkeepers
                + cfg.n_referees + cfg.n_staff) == 23
        scenario, _ = generate(cfg)
        frame_inputs, gt_mot = to_tracking_input(scenario,
                                                 features="oracle", seed=seed)
        tracker = OnlineTracker(TrackerConfig(normalized_ema=True))
        for t, dets in enumerate(frame_inputs):
            tracker.step(FrameInput(frame=t + 1, detections=dets))
        tracklets = tracker.finish()
        variants = {
            "none": tracklets,
            "fg": merge_tracklets(tracklets,
                                  MergeConfig(foreground_only=True))[0],
            "part": merge_tracklets(tracklets, MergeConfig())[0],
        }
        for name, tks in variants.items():
            result = SequenceResult(gt_mot, tks.mot_rows())
            _, ids = mota_ids(result)
            sums[name] += (idf1(result), ids)
    none, fg, part = sums["none"], sums["fg"], sums["part"]
    assert part[0] > none[0] and part[0] > fg[0]   # mean IDF1 strictly up
    assert part[1] < none[1] and part[1] < fg[1]   # mean switches down
    assert time.time() - start < 180.0


# --------------------------------------------------------------------------
# 7. Perfect input: ground-truth boxes and noiseless features give exact
#    HOTA = MOTA = IDF1 = 1.0 and zero identity switches.
# --------------------------------------------------------------------------

def test_acceptance_7_perfect_input_identities():
    cfg = ScenarioConfig(frames=300, feature_noise_sigma=0.0, seed=5)
    scenario, _ = generate(cfg)
    frame_inputs, gt_mot = to_tracking_input(scenario, features="oracle",
                                             feature_sigma=0.0, seed=5)
    tracker = OnlineTracker(TrackerConfig())
    for t, dets in enumerate(frame_inputs):
        tracker.step(FrameInput(frame=t + 1, detections=dets))
    merged, _ = merge_tracklets(tracker.finish(), MergeConfig())
    report = evaluate_sequence(gt_mot, merged.mot_rows())
    assert report.hota == 1.0
    assert report.mota == 1.0
    assert report.idf1 == 1.0
    assert report.id_switches == 0


# --------------------------------------------------------------------------
# 8. Determinism: the pipeline command run twice with one seed writes
#    byte-identical reports and MOT outputs.
# --------------------------------------------------------------------------

def test_acceptance_8_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "scenario": {"frames": 120, "occlusion_rate": 0.1},
        "train": {"epochs": 15},
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pipeline", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("report.yaml", "report.txt", "model.txt", "gt.txt",
                  "track_raw.txt", "track_merged.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# --------------------------------------------------------------------------
# 9. Format round-trips: 100 randomized MOT and feature files reproduce
#    byte-identical output after write -> parse -> write.
# --------------------------------------------------------------------------

def test_acceptance_9_format_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    for i in range(100):
        mot = [MotRow(frame=int(rng.integers(1, 100)),
                      id=int(rng.integers(1, 20)),
                      bb_left=float(rng.uniform(-10, 2000)),
                      bb_top=float(rng.uniform(-10, 1100)),
                      bb_width=float(rng.uniform(0.5, 300)),
                      bb_height=float(rng.uniform(0.5, 300)),
                      conf=float(rng.uniform(0, 1)),
                      visibility=float(rng.uniform(0, 1)))
               for _ in range(int(rng.integers(1, 40)))]
        p1 = tmp_path / f"mot_{i}_a.txt"
        p2 = tmp_path / f"mot_{i}_b.txt"
        write_mot(mot_table(mot), p1)
        write_mot(parse_mot(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 10))
        feats = []
        for j in range(int(rng.integers(1, 15))):
            vis = (rng.random(k + 1) < 0.8).astype(int)
            if not vis.any():
                vis[0] = 1
            feats.append(FeatureRow(
                frame=int(rng.integers(1, 50)), det_index=j,
                features=PartFeatureSet(parts=rng.normal(size=(k, d)) * 10,
                                        foreground=rng.normal(size=d) * 10,
                                        visibility=vis),
                role_logits=rng.normal(size=4)))
        f1 = tmp_path / f"feat_{i}_a.txt"
        f2 = tmp_path / f"feat_{i}_b.txt"
        write_features(feature_table(feats), f1)
        write_features(parse_features(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()
