"""Independent brute-force reference implementations used to check the
library's solvers and metrics.  Everything here is written from the plain
definitions with exhaustive enumeration; nothing is shared with the package
internals beyond basic types, unless a function's docstring says so."""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from prtrack.core import (PartFeatureSet, Role, _check_boxes, iou_matrix,
                          part_distance_matrix, xyah_to_xywh)
from prtrack.embedder import (PARAM_NAMES, EmbedderModel, TrainBatch,
                              _lr_at, forward_batch)
from prtrack.losses import (LossValue, TripletConfig, _batch_hard_triplets,
                            _check_labels, cross_entropy_id, focal_loss,
                            part_prediction_loss, total_loss,
                            triplet_batch_hard)
from prtrack.motio import FeatureTable, MotTable, ParseError, read_text
from prtrack.reid_metrics import rank
from prtrack.simgen import (_VIEW_CHUNK, ScenarioConfig, _sample_events,
                            oracle_feature_projection)
from prtrack.solvers import hungarian


class Box(NamedTuple):
    """One box as a record of its own: top-left corner plus size, in
    pixels."""

    x: float
    y: float
    w: float
    h: float


@dataclass
class Detection:
    """One detection as a record of its own, as the per-object reference
    algorithms read it."""

    frame: int
    box: Box
    confidence: float = 1.0
    features: PartFeatureSet | None = None
    role_logits: np.ndarray | None = None  # (4,)
    gt_identity: int | None = None
    gt_team: int | None = None  # 0 = left, 1 = right
    gt_role: Role | None = None


class MotRow(NamedTuple):
    """One MOT-challenge row as a record of its own: frame, id, box,
    confidence, class, visibility."""

    frame: int
    id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float = 1.0
    class_id: int = 1
    visibility: float = 1.0


@dataclass(frozen=True)
class FeatureRow:
    """One detection's feature row as a record of its own."""

    frame: int
    det_index: int
    features: PartFeatureSet
    role_logits: np.ndarray  # (4,)


def _int_column(values):
    """Python ints as an int64 column, or as an object column where one
    lies outside int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def mot_table(rows):
    """The ``MotRow``s (or tuples in their field order) as a package
    ``MotTable``, in their order."""
    rows = [MotRow(*r) for r in rows]
    return MotTable(_int_column([r.frame for r in rows]),
                    _int_column([r.id for r in rows]),
                    np.array([r[2:6] for r in rows], dtype=float).reshape(-1, 4),
                    np.array([r.conf for r in rows], dtype=float),
                    _int_column([r.class_id for r in rows]),
                    np.array([r.visibility for r in rows], dtype=float))


def feature_table(rows):
    """The ``FeatureRow``s as a package ``FeatureTable``, in their order;
    their feature sets must share K and D."""
    if not rows:
        return FeatureTable.empty()
    return FeatureTable(_int_column([r.frame for r in rows]),
                        _int_column([r.det_index for r in rows]),
                        np.stack([r.features.stacked() for r in rows]),
                        np.stack([r.features.visibility for r in rows]),
                        np.stack([r.role_logits for r in rows]))


@dataclass(frozen=True)
class FeatureGrid:
    """One sample's H x W grid of C-dim cell features with per-cell part
    labels (0 = background), as a record of its own."""

    cells: np.ndarray        # (H, W, C)
    part_labels: np.ndarray  # (H, W) ints in [0, K]


@dataclass
class GridSample:
    """One re-id sample as a record of its own, as the per-sample
    reference algorithms read it."""

    grid: FeatureGrid
    identity: int
    team: int | None   # 0/1, players only
    role: Role
    view: int = 0


@dataclass
class RetrievalItem:
    """One embedded retrieval sample as a record of its own."""

    features: PartFeatureSet
    identity: int
    team: int | None
    role: Role
    view: int = 0


def stack_samples(samples):
    """The ``GridSample``s' columns as an ``embedder.TrainBatch``, stacked
    sample by sample in list order."""
    return TrainBatch(
        cells=np.stack([np.asarray(s.grid.cells, float) for s in samples]),
        part_labels=np.stack([np.asarray(s.grid.part_labels, int)
                              for s in samples]),
        identity=np.array([s.identity for s in samples], dtype=int),
        role=np.array([int(s.role) for s in samples], dtype=int),
        team=np.array([-1 if s.team is None else s.team for s in samples],
                      dtype=int))


def box_iou(a, b):
    """Intersection over union of two ``Box``es: the overlap
    rectangle's area over the area the two boxes cover together."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def brute_assignment(costs):
    """Minimum-cost complete assignment by enumerating all permutations.

    Returns (best total cost, set of pair sets achieving it).  Only finite
    matrices; rectangular allowed (assigns min(m, n) pairs).
    """
    costs = np.asarray(costs, dtype=float)
    m, n = costs.shape
    transposed = False
    if m > n:
        costs = costs.T
        m, n = n, m
        transposed = True
    best = None
    best_sets = []
    for cols in itertools.permutations(range(n), m):
        total = sum(costs[r, c] for r, c in enumerate(cols))
        if best is None or total < best - 1e-12:
            best = total
            best_sets = [frozenset(enumerate(cols))]
        elif abs(total - best) <= 1e-12:
            best_sets.append(frozenset(enumerate(cols)))
    if transposed:
        best_sets = [frozenset((c, r) for r, c in s) for s in best_sets]
    return best, best_sets


def brute_frame_match(gt_frame, pred_frame, alpha):
    """IoU-optimal per-frame matching by enumeration: among injective
    gt->pred mappings restricted to IoU >= alpha, pick the one with the
    largest pair count, then the largest total IoU."""
    ng, npr = len(gt_frame), len(pred_frame)
    ious = np.zeros((ng, npr))
    for i, (_, gb) in enumerate(gt_frame):
        for j, (_, pb) in enumerate(pred_frame):
            ious[i, j] = box_iou(gb, pb)
    best_pairs = []
    best_key = (-1, -np.inf)
    rows = list(range(ng))
    for r in range(min(ng, npr), -1, -1):
        for row_sub in itertools.combinations(rows, r):
            for cols in itertools.permutations(range(npr), r):
                if any(ious[i, j] < alpha for i, j in zip(row_sub, cols)):
                    continue
                total = sum(ious[i, j] for i, j in zip(row_sub, cols))
                key = (r, total)
                if key > best_key:
                    best_key = key
                    best_pairs = list(zip(row_sub, cols))
        if best_key[0] == r and best_pairs:
            break
    return best_pairs


def _matches(gt, pred, alpha):
    frames = sorted(set(gt) | set(pred))
    out = {}
    for f in frames:
        gt_f = gt.get(f, [])
        pr_f = pred.get(f, [])
        pairs = brute_frame_match(gt_f, pr_f, alpha)
        out[f] = [(gt_f[i][0], pr_f[j][0]) for i, j in pairs]
    return out


def brute_hota(gt, pred, alphas):
    """(HOTA, DetA, AssA) from the definitions, averaged over alphas."""
    n_gt = sum(len(v) for v in gt.values())
    n_pred = sum(len(v) for v in pred.values())
    gt_tot = {}
    for v in gt.values():
        for i, _ in v:
            gt_tot[i] = gt_tot.get(i, 0) + 1
    pr_tot = {}
    for v in pred.values():
        for i, _ in v:
            pr_tot[i] = pr_tot.get(i, 0) + 1
    hs, ds, As = [], [], []
    for alpha in alphas:
        matches = _matches(gt, pred, alpha)
        pairs = [p for v in matches.values() for p in v]
        tp = len(pairs)
        fn, fp = n_gt - tp, n_pred - tp
        deta = tp / (tp + fn + fp) if tp + fn + fp else 0.0
        if tp == 0:
            assa = 0.0
        else:
            counts = {}
            for p in pairs:
                counts[p] = counts.get(p, 0) + 1
            s = 0.0
            for (gi, pi), tpa in counts.items():
                s += tpa * tpa / (gt_tot[gi] + pr_tot[pi] - tpa)
            assa = s / tp
        ds.append(deta)
        As.append(assa)
        hs.append((deta * assa) ** 0.5)
    return (float(np.mean(hs)), float(np.mean(ds)), float(np.mean(As)))


def brute_mota_ids(gt, pred, alpha=0.5):
    n_gt = sum(len(v) for v in gt.values())
    matches = _matches(gt, pred, alpha)
    tp = sum(len(v) for v in matches.values())
    fn = n_gt - tp
    fp = sum(len(v) for v in pred.values()) - tp
    last = {}
    idsw = 0
    for f in sorted(matches):
        for gi, pi in matches[f]:
            if gi in last and last[gi] != pi:
                idsw += 1
            last[gi] = pi
    mota = 1.0 - (fn + fp + idsw) / n_gt if n_gt else 0.0
    return mota, idsw


def brute_idf1(gt, pred, alpha=0.5):
    """IDF1 by enumerating all injective gt-id -> pred-id mappings."""
    overlap = {}
    gt_ids, pred_ids = set(), set()
    frames = sorted(set(gt) | set(pred))
    for f in frames:
        for gi, _ in gt.get(f, []):
            gt_ids.add(gi)
        for pi, _ in pred.get(f, []):
            pred_ids.add(pi)
        for gi, gb in gt.get(f, []):
            for pi, pb in pred.get(f, []):
                if box_iou(gb, pb) >= alpha:
                    overlap[(gi, pi)] = overlap.get((gi, pi), 0) + 1
    gl, pl = sorted(gt_ids), sorted(pred_ids)
    if not gl or not pl:
        return 0.0
    best = 0
    r = min(len(gl), len(pl))
    for gsub in itertools.combinations(gl, r):
        for psub in itertools.permutations(pl, r):
            idtp = sum(overlap.get((g, p), 0) for g, p in zip(gsub, psub))
            best = max(best, idtp)
    n_gt = sum(len(v) for v in gt.values())
    n_pred = sum(len(v) for v in pred.values())
    denom = 2 * best + (n_gt - best) + (n_pred - best)
    return 2 * best / denom if denom else 0.0


def _part_distance(q, g):
    """Mean Euclidean distance between the embeddings of the indices
    (foreground, part 1..K) visible in both sets; inf when there is none."""
    q_rows = [q.foreground, *q.parts]
    g_rows = [g.foreground, *g.parts]
    total, count = 0.0, 0
    for k in range(len(q_rows)):
        if q.visibility[k] and g.visibility[k]:
            total += math.sqrt(sum((float(a) - float(b)) ** 2
                                   for a, b in zip(q_rows[k], g_rows[k])))
            count += 1
    return total / count if count else math.inf


def brute_retrieval(queries, gallery, match_key):
    """(mAP, rank-1) of identity or team retrieval over lists of
    :class:`RetrievalItem`s, query by query.

    Team retrieval keeps players only.  A query's gallery leaves out items of
    its identity and view; the rest is sorted by (distance, gallery index).
    AP is the mean precision at each relevant item's rank; queries with no
    relevant item are left out."""
    if match_key == "team":
        # Role.PLAYER is 0.
        queries = [q for q in queries if q.role == 0]
        gallery = [g for g in gallery if g.role == 0]
    aps, top1 = [], []
    for q in queries:
        scored = []
        for j, g in enumerate(gallery):
            if g.identity == q.identity and g.view == q.view:
                continue
            relevant = getattr(g, match_key) == getattr(q, match_key)
            scored.append((_part_distance(q.features, g.features), j,
                           relevant))
        scored.sort()
        precisions, hits = [], 0
        for r, (_, _, relevant) in enumerate(scored):
            if relevant:
                hits += 1
                precisions.append(hits / (r + 1))
        if not precisions:
            continue
        aps.append(np.mean(precisions))
        top1.append(1.0 if scored[0][2] else 0.0)
    if not aps:
        return math.nan, math.nan
    return float(np.mean(aps)), float(np.mean(top1))


def brute_triplet(emb, labels, valid, margin, divide_each=True):
    """Visibility-masked batch-hard triplet loss of one scope, anchor by
    anchor; returns (value, gradient).

    An anchor counts when it is valid and some other valid sample shares its
    label and some valid sample does not.  Its hardest positive is the
    farthest such sample, its hardest negative the nearest, the first in
    index order on ties.  The value is the mean of max(0, d_ap - d_an +
    margin) over the m counted anchors, 0 when there are none.  An anchor
    with a positive term pulls d_ap down and pushes d_an up; a distance of 0
    adds nothing.  ``divide_each`` divides each term by m before adding it
    (the positive's, then the negative's, anchor by anchor); otherwise the
    terms are summed and the sum is divided by m once."""
    emb = np.asarray(emb, dtype=float)
    n, d = emb.shape

    def dist(i, j):
        return math.sqrt(sum((emb[i, c] - emb[j, c]) ** 2 for c in range(d)))

    anchors = []
    for a in range(n):
        if not valid[a]:
            continue
        pos = [j for j in range(n)
               if j != a and valid[j] and labels[j] == labels[a]]
        neg = [j for j in range(n) if valid[j] and labels[j] != labels[a]]
        if pos and neg:
            p = max(pos, key=lambda j: dist(a, j))
            ng = min(neg, key=lambda j: dist(a, j))
            anchors.append((a, p, ng, dist(a, p) - dist(a, ng) + margin))
    grad = np.zeros_like(emb)
    if not anchors:
        return 0.0, grad
    m = len(anchors)
    value = float(np.mean([max(0.0, t) for *_, t in anchors]))
    scale = m if divide_each else 1
    for a, p, ng, t in anchors:
        if t <= 0:
            continue
        for x, sign in ((p, 1.0), (ng, -1.0)):
            if dist(a, x) > 0:
                g = sign * ((emb[a] - emb[x]) / dist(a, x) / scale)
                grad[a] += g
                grad[x] -= g
    return value, (grad if divide_each else grad / m)


# One track's constant-velocity Kalman filter on (cx, cy, a, h) and their
# velocities, state by state.
_F = np.eye(8) + np.eye(8, k=4)
_H = np.eye(4, 8)
# Standard deviations per pixel of box height, DeepSORT's.
_POS, _VEL = 1.0 / 20.0, 1.0 / 160.0


def _xyah(box):
    return np.array([box.x + box.w / 2.0, box.y + box.h / 2.0,
                     box.w / box.h, box.h])


def _kalman_init(box):
    mean = np.zeros(8)
    mean[:4] = _xyah(box)
    h = box.h
    stds = [2 * _POS * h, 2 * _POS * h, 1e-2, 2 * _POS * h,
            10 * _VEL * h, 10 * _VEL * h, 1e-5, 10 * _VEL * h]
    return mean, np.diag(np.square(stds))


def _kalman_predict(mean, cov):
    h = mean[3]
    stds = [_POS * h, _POS * h, 1e-2, _POS * h,
            _VEL * h, _VEL * h, 1e-5, _VEL * h]
    return _F @ mean, _F @ cov @ _F.T + np.diag(np.square(stds))


def _kalman_update(mean, cov, box):
    h = mean[3]
    r = np.diag(np.square([_POS * h, _POS * h, 1e-1, _POS * h]))
    s = _H @ cov @ _H.T + r
    k = cov @ _H.T @ np.linalg.inv(s)
    mean = mean + k @ (_xyah(box) - _H @ mean)
    cov = (np.eye(8) - k @ _H) @ cov
    return mean, (cov + cov.T) / 2.0


def _ema(ema, det, alpha, normalized):
    """Per-track EMA of a feature set: index k of (foreground, 1..K) mixes
    alpha * e_k * v_k_track + (1 - alpha) * f_k * v_k_det, divided by the
    active weights when ``normalized``; visibility is the OR."""
    rows = []
    for k in range(len(ema.visibility)):
        e = ema.foreground if k == 0 else ema.parts[k - 1]
        f = det.foreground if k == 0 else det.parts[k - 1]
        vo, vn = float(ema.visibility[k]), float(det.visibility[k])
        mixed = alpha * e * vo + (1 - alpha) * f * vn
        denom = alpha * vo + (1 - alpha) * vn
        if normalized and denom == 0 and vo + vn > 0:
            mixed = e if vo else f      # the one side that saw index k
        rows.append(mixed / denom if normalized and denom > 0 else mixed)
    vis = [max(a, b) for a, b in zip(ema.visibility, det.visibility)]
    return PartFeatureSet(parts=np.array(rows[1:]), foreground=rows[0],
                          visibility=np.array(vis))


# The statuses of a ``brute_track`` track.
TENTATIVE, CONFIRMED, LOST, FINISHED = ("tentative", "confirmed", "lost",
                                        "finished")


@dataclass
class Track:
    """One track of ``brute_track`` as a record of its own."""

    id: int
    detections: list                # its ``Detection``s, in frame order
    ema_features: PartFeatureSet
    kalman: tuple                   # mean (8,), covariance (8, 8)
    status: str                     # one of the statuses above
    role_logit_sum: np.ndarray      # (4,)


def brute_track(frames, cfg):
    """Per-object reference of ``OnlineTracker``: one ``Track`` per
    track, predicted, matched and aged track by track with per-track Kalman
    and EMA formulas of its own.  The association cost reads the package's
    part-distance and IoU matrices and the assignment its ``hungarian``,
    which have oracle tests of their own.

    ``frames`` is a list of (frame index, detections).  Returns (steps,
    tracklets): per frame, the step's outputs and the live tracks after it;
    then the tracklets ``finish()`` returns, in id order.  A track is the
    tuple ``(id, status, mean, covariance, features (K+1, D), visibility,
    role-logit sum, detections)``."""
    tracks, finished, hits, misses = [], [], {}, {}
    next_id, steps = 1, []
    for frame, dets in frames:
        for t in tracks:
            t.kalman = _kalman_predict(*t.kalman)
        if tracks and dets:
            app = part_distance_matrix([t.ema_features for t in tracks],
                                       [d.features for d in dets])
            ious = iou_matrix(
                xyah_to_xywh(np.array([t.kalman[0][:4] for t in tracks])),
                [d.box for d in dets])
            w = cfg.appearance_weight
            with np.errstate(invalid="ignore"):
                cost = w * app + (1.0 - w) * (1.0 - ious)
            cost[(ious < cfg.iou_gate) & (app > cfg.match_threshold)] = np.inf
            cost[~np.isfinite(app)] = np.inf
            pairs = hungarian(cost).pairs.tolist()
        else:
            pairs = []
        for ti, di in pairs:
            t, d = tracks[ti], dets[di]
            t.kalman = _kalman_update(*t.kalman, d.box)
            t.ema_features = _ema(t.ema_features, d.features, cfg.alpha,
                                  cfg.normalized_ema)
            t.detections.append(d)
            if d.role_logits is not None:
                t.role_logit_sum = t.role_logit_sum + d.role_logits
            hits[t.id] += 1
            misses[t.id] = 0
            if t.status in (TENTATIVE, LOST) and hits[t.id] >= cfg.n_init:
                t.status = CONFIRMED
        matched = {ti for ti, _ in pairs}
        outputs, survivors = [], []
        for i, t in enumerate(tracks):
            if i in matched:
                if t.status == CONFIRMED:
                    outputs.append((frame, t.id, t.detections[-1].box))
                survivors.append(t)
                continue
            misses[t.id] += 1
            if t.status == TENTATIVE or misses[t.id] > cfg.max_age:
                t.status = FINISHED
                finished.append(t)
            else:
                t.status = LOST
                survivors.append(t)
        tracks = survivors
        used = {di for _, di in pairs}
        for j, d in enumerate(dets):
            if j in used:
                continue
            tracks.append(Track(
                id=next_id, detections=[d], ema_features=d.features,
                kalman=_kalman_init(d.box),
                status=CONFIRMED if cfg.n_init <= 1 else TENTATIVE,
                role_logit_sum=(np.array(d.role_logits)
                                if d.role_logits is not None
                                else np.zeros(4))))
            hits[next_id], misses[next_id] = 1, 0
            next_id += 1
        steps.append((outputs, [_state(t) for t in tracks]))
    for t in tracks:
        t.status = FINISHED
    done = [t for t in finished + tracks if hits[t.id] >= cfg.n_init]
    return steps, [_state(t) for t in sorted(done, key=lambda t: t.id)]


def _state(t):
    return (t.id, t.status, *t.kalman,
            np.vstack([t.ema_features.foreground, t.ema_features.parts]),
            t.ema_features.visibility, t.role_logit_sum, list(t.detections))


def _brute_combine(a, b):
    """Union of two merge records under the earlier one's id; features
    recombined as a detection-count-weighted mean."""
    first, second = (a, b) if a[4][0].frame <= b[4][0].frame else (b, a)
    na, nb = len(first[4]), len(second[4])
    wa = na / (na + nb)
    return (first[0], wa * first[1] + (1 - wa) * second[1],
            np.maximum(first[2], second[2]), first[3] + second[3],
            sorted(first[4] + second[4], key=lambda d: d.frame))


def brute_merge(tracklets, cfg):
    """Per-object reference of ``merge_tracklets`` on the tracklets of
    ``brute_track``, joined pair by pair.  A round's cost matrix is the
    package's ``part_distance_matrix`` of the tracklets' feature sets, with
    the parts hidden when ``cfg.foreground_only``, and +inf for every pair
    whose frame spans overlap; its assignment is the package's
    ``hungarian``.  Both have oracle tests of their own.

    Returns (merged, survivors): the merged tracklets in id order, each the
    tuple ``(id, features (K+1, D), visibility, role-logit sum,
    detections)``, and the list of each input tracklet's surviving id."""
    current = [(t[0], t[4], t[5], t[6], list(t[7])) for t in tracklets]
    id_map = {t[0]: t[0] for t in current}
    for _ in range(cfg.max_rounds):
        if len(current) < 2:
            break
        sets = []
        for _, feats, vis, _, _ in current:
            if cfg.foreground_only:
                vis = np.array([vis[0]] + [0] * (len(vis) - 1))
            sets.append(PartFeatureSet(parts=feats[1:], foreground=feats[0],
                                       visibility=vis))
        costs = part_distance_matrix(sets, sets)
        spans = [(t[4][0].frame, t[4][-1].frame) for t in current]
        for i, (lo, hi) in enumerate(spans):
            for j, (lo2, hi2) in enumerate(spans):
                if lo <= hi2 and lo2 <= hi:
                    costs[i, j] = np.inf
        assignment = hungarian(costs, forbid_threshold=cfg.merge_threshold)
        candidates = sorted(
            {(min(i, j), max(i, j)) for i, j in assignment.pairs.tolist()},
            key=lambda p: (costs[p[0], p[1]], p))
        used, merges = set(), []
        for i, j in candidates:
            if i in used or j in used:
                continue
            used.update((i, j))
            merges.append((i, j))
        if not merges:
            break
        merged_out, consumed = [], set()
        for i, j in merges:
            combined = _brute_combine(current[i], current[j])
            for src in (current[i], current[j]):
                for orig, tgt in list(id_map.items()):
                    if tgt == src[0]:
                        id_map[orig] = combined[0]
            merged_out.append(combined)
            consumed.update((i, j))
        merged_out.extend(t for idx, t in enumerate(current)
                          if idx not in consumed)
        current = sorted(merged_out, key=lambda t: t[0])
    return current, [id_map[t[0]] for t in tracklets]


@dataclass
class Observation:
    """One agent in one frame; an absent agent's fields are None."""

    frame: int
    identity: int
    present: bool
    box: Box | None
    part_visible: np.ndarray | None  # (K,)
    grid: FeatureGrid | None


@dataclass
class Agent:
    """One member of the roster."""

    identity: int
    team: int | None  # 0 left / 1 right; None for referees and staff
    role: Role
    latent: np.ndarray  # (C,)


@dataclass
class Scenario:
    """The roster and one list of :class:`Observation`s per frame, one for
    each agent, present or not."""

    config: ScenarioConfig
    agents: list[Agent]
    frames: list[list[Observation]]  # frames[t] = observations of all agents

    def agent(self, identity):
        return self.agents[identity - 1]


def brute_generate(config):
    """Per-(frame, agent) reference of ``simgen.generate``: each frame
    rescans every agent's tagged occlusion phases and exit windows and
    draws each present agent's cell noise in its own call.  It returns the
    test-local :class:`Scenario` of per-(frame, agent) records and its
    roster of test-local :class:`Agent` records.  It shares
    ``_sample_events`` with the package; every generator draw is made here,
    in the order the package must keep."""
    rng = np.random.default_rng(config.seed)
    c, k = config.channels, config.num_parts

    # Orthogonal directions: one axis per role, one team axis each for
    # players and goalkeepers, then part signatures.  Role separation and
    # team separation are controlled independently.
    q, _ = np.linalg.qr(rng.normal(size=(c, c)))
    rs, ts = config.role_separation, config.team_separation
    centroids = {
        (Role.PLAYER, 0): rs * q[:, 0] - 0.5 * ts * q[:, 4],
        (Role.PLAYER, 1): rs * q[:, 0] + 0.5 * ts * q[:, 4],
        (Role.GOALKEEPER, 0): rs * q[:, 1] - 0.5 * ts * q[:, 5],
        (Role.GOALKEEPER, 1): rs * q[:, 1] + 0.5 * ts * q[:, 5],
        (Role.REFEREE, None): rs * q[:, 2],
        (Role.STAFF, None): rs * q[:, 3],
    }
    signatures = config.part_signature_scale * q[:, 6:6 + k + 1].T  # (K+1, C)

    agents: list[Agent] = []
    ident = 1
    def add(role, team):
        nonlocal ident
        offset = rng.normal(size=c)
        offset *= config.identity_separation / np.linalg.norm(offset)
        key = (role, team if role in (Role.PLAYER, Role.GOALKEEPER) else None)
        agents.append(Agent(ident, team, role, centroids[key] + offset))
        ident += 1

    for team in (0, 1):
        for _ in range(config.n_players_per_team):
            add(Role.PLAYER, team)
    for j in range(config.n_goalkeepers):
        add(Role.GOALKEEPER, j % 2)
    for _ in range(config.n_referees):
        add(Role.REFEREE, None)
    for _ in range(config.n_staff):
        add(Role.STAFF, None)

    # Smooth trajectories: bounded-acceleration random walk with wall bounce.
    n_agents = len(agents)
    pw, ph = config.pitch_width, config.pitch_height
    pos = np.column_stack([rng.uniform(0.1 * pw, 0.9 * pw, n_agents),
                           rng.uniform(0.1 * ph, 0.9 * ph, n_agents)])
    vel = rng.normal(0.0, 2.0, size=(n_agents, 2))
    box_h = rng.uniform(100.0, 140.0, n_agents)
    box_w = box_h * rng.uniform(0.38, 0.46, n_agents)
    v_max = 6.0

    base_labels = _brute_part_layout(config.grid_h, config.grid_w, k)

    # Occlusion and exit windows per agent.  Long occlusions ramp through a
    # partial phase (some parts hidden), a full phase (detection absent),
    # and a partial reappearance phase; short ones stay partial throughout.
    occl = [_sample_events(rng, config.frames, config.occlusion_rate, 10, 60)
            for _ in range(n_agents)]

    def _phase_plan(s, e):
        dur = e - s
        def partial():
            nhide = int(rng.integers(1, max(2, k)))
            top = bool(rng.random() < 0.5)
            return ("partial", nhide, top)
        if dur >= 24:
            ramp = min(8, dur // 3)
            return [(s, s + ramp, partial()),
                    (s + ramp, e - ramp, ("full",)),
                    (e - ramp, e, partial())]
        return [(s, e, partial())]

    occl_phases = [[p for ev in events_i for p in _phase_plan(*ev)]
                   for events_i in occl]
    exits = [_sample_events(rng, config.frames, config.exit_rate, 30, 120)
             for _ in range(n_agents)]

    frames_out: list[list[Observation]] = []
    for t in range(config.frames):
        obs_t = []
        for i, a in enumerate(agents):
            exited = any(s <= t < e for s, e in exits[i])
            occluded_full = False
            hidden_parts = np.zeros(k, dtype=bool)
            for s, e, kind in occl_phases[i]:
                if s <= t < e:
                    if kind[0] == "full":
                        occluded_full = True
                    elif kind[2]:
                        hidden_parts[:kind[1]] = True   # occluder from above
                    else:
                        hidden_parts[k - kind[1]:] = True  # from below
            if exited or occluded_full:
                obs_t.append(Observation(t + 1, a.identity, False,
                                         None, None, None))
                continue
            box = Box(pos[i, 0] - box_w[i] / 2, pos[i, 1] - box_h[i] / 2,
                      box_w[i], box_h[i])
            part_vis = (~hidden_parts).astype(int)
            labels = base_labels.copy()
            for j in range(k):
                if hidden_parts[j]:
                    labels[labels == j + 1] = 0
            cells = signatures[labels].copy()
            cells[labels > 0] += a.latent
            cells += rng.normal(0.0, config.feature_noise_sigma, cells.shape)
            obs_t.append(Observation(t + 1, a.identity, True, box, part_vis,
                                     FeatureGrid(cells, labels)))
        frames_out.append(obs_t)

        accel = rng.normal(0.0, 0.4, size=(n_agents, 2))
        vel = np.clip(vel + accel, -v_max, v_max)
        pos = pos + vel
        for axis, limit in ((0, pw), (1, ph)):
            low = pos[:, axis] < 0.05 * limit
            high = pos[:, axis] > 0.95 * limit
            vel[low | high, axis] *= -1
            pos[:, axis] = np.clip(pos[:, axis], 0.05 * limit, 0.95 * limit)

    return Scenario(config, agents, frames_out)


def _brute_part_layout(h, w, k):
    """Row-by-row silhouette labels: part bands, background corners."""
    labels = np.zeros((h, w), dtype=int)
    edges = np.linspace(0, h, k + 1)
    for row in range(h):
        part = int(np.searchsorted(edges, row + 0.5))
        labels[row, :] = min(max(part, 1), k)
    if w >= 3:
        labels[0, 0] = 0
        labels[0, w - 1] = 0
        labels[h - 1, 0] = 0
        labels[h - 1, w - 1] = 0
    return labels


def brute_reid_dataset(scenario, sampling_stride=25):
    """Per-observation reference of ``simgen.to_reid_dataset`` over the
    records of :func:`brute_generate`: each present observation becomes a
    sample of its identity, every ``sampling_stride``-th sample per
    identity is kept, and the split takes the first half of each roster
    group (at least 4 players per team and 3 others) for training.  A
    held-out identity gives its first quarter of samples to the queries and
    the rest to the gallery, or all to the gallery below 2 samples.  It
    shares the view chunk length with the package."""
    per_identity = {}
    for frame_obs in scenario.frames:
        for ob in frame_obs:
            if not ob.present:
                continue
            agent = scenario.agent(ob.identity)
            per_identity.setdefault(ob.identity, []).append(
                GridSample(ob.grid, ob.identity, agent.team, agent.role,
                           view=(ob.frame - 1) // _VIEW_CHUNK))
    for ident, samples in per_identity.items():
        per_identity[ident] = samples[::sampling_stride]

    left = [a.identity for a in scenario.agents
            if a.role == Role.PLAYER and a.team == 0]
    right = [a.identity for a in scenario.agents
             if a.role == Role.PLAYER and a.team == 1]
    other = [a.identity for a in scenario.agents if a.role != Role.PLAYER]

    train_ids, test_ids = [], []
    for group, minimum in ((left, 4), (right, 4), (other, 3)):
        n_train = max(minimum, int(math.ceil(len(group) / 2)))
        n_train = min(n_train, len(group))
        train_ids.extend(group[:n_train])
        test_ids.extend(group[n_train:])

    train = [s for i in train_ids for s in per_identity.get(i, [])]
    queries, gallery = [], []
    for ident in test_ids:
        samples = per_identity.get(ident, [])
        if len(samples) < 2:
            gallery.extend(samples)
            continue
        n_query = max(1, len(samples) // 4)
        queries.extend(samples[:n_query])
        gallery.extend(samples[n_query:])
    return train, queries, gallery


def brute_evaluate_reid(model, queries, gallery):
    """``pipeline.evaluate_reid`` on lists of :class:`GridSample`s, sample
    by sample: each sample is embedded by a forward pass of its own into a
    :class:`RetrievalItem`, each query is ranked on its own by
    ``reid_metrics.rank`` over the gallery items it keeps, and the role
    figures are counted query by query.  A query with no gallery item left,
    or no positive among them, is left out.  Shares the forward pass and
    ``rank`` with the package."""
    def embed(sample):
        cells = np.asarray(sample.grid.cells, float)[None]
        feats, vis, role_logits = forward_batch(model, cells)
        item = RetrievalItem(PartFeatureSet(feats[0, 1:], feats[0, 0],
                                            vis[0]),
                             sample.identity, sample.team, sample.role,
                             sample.view)
        return item, Role(int(np.argmax(role_logits[0])))

    embedded = [embed(s) for s in queries]
    q_items = [item for item, _ in embedded]
    g_items = [embed(s)[0] for s in gallery]

    def retrieval(match_key):
        qs, gs = q_items, g_items
        if match_key == "team":
            qs = [q for q in qs if q.role == Role.PLAYER]
            gs = [g for g in gs if g.role == Role.PLAYER]
        aps, top1 = [], []
        for q in qs:
            kept = [g for g in gs
                    if g.identity != q.identity or g.view != q.view]
            if not kept:
                continue
            order = rank(q.features, [g.features for g in kept])
            hits = [getattr(kept[j], match_key) == getattr(q, match_key)
                    for j in order]
            precisions = [(n + 1) / (r + 1) for n, r in
                          enumerate(r for r, hit in enumerate(hits) if hit)]
            if precisions:
                aps.append(np.mean(precisions))
                top1.append(float(hits[0]))
        if not aps:
            return math.nan, math.nan
        return float(np.mean(aps)), float(np.mean(top1))

    preds = [role for _, role in embedded]
    truths = [s.role for s in queries]
    accuracy = (sum(p == t for p, t in zip(preds, truths)) / len(truths)
                if truths else math.nan)
    precisions = []
    for cls in Role:
        hits = [t == cls for p, t in zip(preds, truths) if p == cls]
        precisions.append(sum(hits) / len(hits) if hits else 0.0)
    reid_map, reid_rank1 = retrieval("identity")
    team_map, team_rank1 = retrieval("team")
    return {"reid_map": reid_map, "reid_rank1": reid_rank1,
            "team_map": team_map, "team_rank1": team_rank1,
            "role_accuracy": accuracy,
            "role_precision": sum(precisions) / len(precisions)}


def brute_tracking_input(scenario, detector_noise="none", noise_param=0.0,
                         features="oracle", feature_sigma=0.05, seed=0):
    """Per-detection reference of ``simgen.to_tracking_input`` over the
    records of :func:`brute_generate`, in three passes over the
    detections: each present agent's detection is drawn (kept unless its
    dropout draw falls below ``noise_param``), then each kept one is
    jittered, then each is given its oracle features, one
    ``PartFeatureSet`` at a time.  Each ground-truth row is a ``MotRow``.
    It shares ``oracle_feature_projection`` with the package; every
    generator draw is made here, in the order the package must keep."""
    rng = np.random.default_rng(seed)
    proj, offsets = oracle_feature_projection(scenario.config)
    kept, gt_records = [], []
    for frame_obs in scenario.frames:
        frame_kept = []
        for ob in frame_obs:
            if not ob.present:
                continue
            box = ob.box
            gt_records.append(MotRow(ob.frame, ob.identity,
                                     box.x, box.y, box.w, box.h))
            if detector_noise == "dropout" and rng.random() < noise_param:
                continue
            frame_kept.append([ob, box])
        kept.append(frame_kept)
    if detector_noise == "jitter":
        for frame_kept in kept:
            for det in frame_kept:
                dx, dy = rng.normal(0.0, noise_param, 2)
                box = det[1]
                det[1] = Box(box.x + dx, box.y + dy, box.w, box.h)
    frame_inputs = []
    for frame_kept in kept:
        dets = []
        for ob, box in frame_kept:
            agent = scenario.agent(ob.identity)
            feats = role_logits = None
            if features == "oracle":
                feats, role_logits = _brute_oracle_features(
                    agent, ob.part_visible, proj, offsets, feature_sigma, rng)
            dets.append(Detection(frame=ob.frame, box=box, confidence=1.0,
                                  features=feats, role_logits=role_logits,
                                  gt_identity=ob.identity,
                                  gt_team=agent.team, gt_role=agent.role))
        frame_inputs.append(dets)
    return frame_inputs, gt_records


def brute_embed_detections(model, scenario, frame_inputs):
    """Per-frame reference of ``simgen.embed_detections`` over the records
    of :func:`brute_generate`: each frame's detections look up their grids
    by identity among the frame's present observations, and one
    ``embedder.forward_batch`` call, shared with the package, embeds them.
    Returns one ``FeatureRow`` per detection, in frame order, keyed by
    its frame and its index in the frame."""
    records = []
    for frame_idx, dets in enumerate(frame_inputs):
        if not dets:
            continue
        obs_by_id = {ob.identity: ob
                     for ob in scenario.frames[frame_idx] if ob.present}
        cells = np.stack([obs_by_id[d.gt_identity].grid.cells for d in dets])
        feats, vis, role_logits = forward_batch(model, cells)
        records.extend(
            FeatureRow(d.frame, j, PartFeatureSet(f[1:], f[0], v), rl)
            for j, (d, f, v, rl)
            in enumerate(zip(dets, feats, vis, role_logits)))
    return records


def _brute_oracle_features(agent, part_vis, proj, offsets, sigma, rng):
    """One detection's oracle features: the agent's projected latent plus a
    per-part offset and noise on each visible part, their mean as the
    foreground, and role logits of +3 for the true role and -3 otherwise."""
    k = part_vis.shape[0]
    dim = proj.shape[0]
    base = proj @ agent.latent
    visible = part_vis.astype(bool)
    parts = np.zeros((k, dim))
    parts[visible] = (base + offsets[1:][visible]
                      + rng.normal(0.0, sigma, (int(visible.sum()), dim)))
    if visible.any():
        fg = parts[visible].mean(axis=0)
        vis = np.concatenate([[1], part_vis])
    else:
        fg = np.zeros(dim)
        vis = np.zeros(k + 1, dtype=int)
    role_logits = np.full(4, -3.0)
    role_logits[int(agent.role)] = 3.0
    return PartFeatureSet(parts=parts, foreground=fg,
                          visibility=vis), role_logits


def brute_write_mot(records, path):
    """MOT rows written field by field with ``str.format``: frame and id as
    integers, the box, confidence and visibility with 6 decimals."""
    lines = []
    for r in sorted(records, key=lambda r: (r.frame, r.id)):
        lines.append(",".join([
            str(r.frame), str(r.id),
            "{:.6f}".format(r.bb_left), "{:.6f}".format(r.bb_top),
            "{:.6f}".format(r.bb_width), "{:.6f}".format(r.bb_height),
            "{:.6f}".format(r.conf), str(r.class_id),
            "{:.6f}".format(r.visibility),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def brute_write_features(records, path):
    """Feature rows of ``FeatureRow``s written value by value with
    ``str.format``: 9 significant digits for the vectors."""
    def vec(values):
        return " ".join("{:.9g}".format(float(v)) for v in values)

    lines = []
    for r in sorted(records, key=lambda r: (r.frame, r.det_index)):
        f = r.features
        fields = [str(r.frame), str(r.det_index),
                  str(f.num_parts), str(f.dim), vec(f.foreground)]
        for k in range(f.num_parts):
            fields.append(vec(f.parts[k]))
        fields.append(" ".join(str(int(v)) for v in f.visibility))
        fields.append(vec(r.role_logits))
        lines.append(" ".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def brute_parse_mot(path):
    """MOT rows read line by line as ``MotRow``s, by the rules of the
    per-line reader the package had before its column reader: nine
    comma-separated fields, each converted by ``int`` or ``float``; finite
    confidence, visibility and box; positive box size.  Frames and ids are
    Python ints of any size.  A frame below the row's before, or below 0 on
    the first row, warns."""
    records = []
    last_frame = 0
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        fields = raw.split(",")
        if len(fields) != 9:
            raise ParseError(f"expected 9 fields, got {len(fields)}", lineno,
                             path)
        try:
            rec = MotRow(
                frame=int(fields[0]), id=int(fields[1]),
                bb_left=float(fields[2]), bb_top=float(fields[3]),
                bb_width=float(fields[4]), bb_height=float(fields[5]),
                conf=float(fields[6]), class_id=int(fields[7]),
                visibility=float(fields[8]))
            if not all(map(math.isfinite, (rec.conf, rec.visibility))):
                raise ValueError("conf and visibility must be finite")
            _check_boxes(np.array([rec[2:6]], dtype=float))
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from exc
        if rec.frame < last_frame:
            warnings.warn(f"non-monotone frame at line {lineno}")
        last_frame = rec.frame
        records.append(rec)
    return records


def brute_parse_features(path):
    """Feature rows read line by line as ``FeatureRow``s, by the rules of
    the per-line reader the package had before its column reader: frame,
    index, K and D by ``int``, then exactly the values they imply, a
    ``PartFeatureSet`` and finite role logits; after every line is read,
    the first row whose parts are shaped unlike the first row's fails, as
    ``prtrack track`` failed it."""
    records = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        tok = raw.split()
        try:
            frame, det_index, k, d = (int(tok[0]), int(tok[1]),
                                      int(tok[2]), int(tok[3]))
            expected = 4 + d + k * d + (k + 1) + 4
            if len(tok) != expected:
                raise ParseError(f"expected {expected} tokens, "
                                 f"got {len(tok)}", lineno, path)
            pos = 4
            fg = np.array([float(v) for v in tok[pos:pos + d]])
            pos += d
            parts = np.array(
                [float(v) for v in tok[pos:pos + k * d]]).reshape(k, d)
            pos += k * d
            vis = np.array([int(v) for v in tok[pos:pos + k + 1]])
            pos += k + 1
            role_logits = np.array([float(v) for v in tok[pos:pos + 4]])
            if not np.isfinite(role_logits).all():
                raise ValueError("role logits must be finite")
            records.append((lineno, FeatureRow(
                frame, det_index,
                PartFeatureSet(parts=parts, foreground=fg, visibility=vis),
                role_logits)))
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), lineno, path) from exc
    for lineno, rec in records:
        if rec.features.parts.shape != records[0][1].features.parts.shape:
            raise ParseError("parts shaped unlike the first row's", lineno,
                             path)
    return [rec for _, rec in records]


def _brute_gilt_loss(parts, part_visibility, id_logits, labels, cfg):
    """``losses.gilt_loss`` with one ``cross_entropy_id`` call per holistic
    scope, as the package had it before the scopes shared one softmax.
    The part triplets are the package's kernel, checked on its own by
    ``brute_triplet``."""
    parts = np.asarray(parts, dtype=float)       # (N, K, D)
    vis = np.asarray(part_visibility)            # (N, K)
    labels = np.asarray(labels)
    k = parts.shape[1]
    _check_labels(labels)

    scopes = ("global", "concat", "foreground")
    ce_value = 0.0
    logit_grads = {}
    for scope in scopes:
        lv = cross_entropy_id(id_logits[scope], labels)
        ce_value += lv.value / len(scopes)
        logit_grads[scope] = lv.gradients / len(scopes)

    values, grads = _batch_hard_triplets(
        parts.transpose(1, 0, 2), np.broadcast_to(labels, (k, len(labels))),
        vis.T.astype(bool), np.full(k, cfg.margin))
    # cumsum adds the v / k in scope order, as a loop over scopes would.
    part_value = float(np.cumsum(values / k)[-1])
    part_grads = grads.transpose(1, 0, 2) / k

    return LossValue(ce_value + part_value,
                     {"id_logits": logit_grads, "parts": part_grads})


def brute_forward(model, cells):
    """``embedder._forward_arrays`` on a ``(B, H, W, C)`` stack of grids,
    one grid at a time, with the expressions of the package's forward pass
    before the training step kept state across steps: the softmax of
    :func:`brute_softmax`, ``.sum`` and ``.mean`` over the cells, the
    ``@`` pooling products, and the visible classes read off each cell's
    ``argmax``.  Each grid's arrays keep a batch axis of one and are
    stacked; the pooling weights are views of the stacked masks, as the
    package's are.  The role head, like the identity heads of
    :func:`brute_loss_and_grad`, is one product over the stacked
    foreground embeddings: one row's product is a matrix-vector product,
    which BLAS may round otherwise."""
    k = model.num_parts
    keys = ("x", "z", "masks", "proj", "part_sum", "fg_sum", "f_parts",
            "f_fg", "f_g", "vis")
    rows = {key: [] for key in keys}
    for grid in np.asarray(cells, dtype=float):
        h, w, c = grid.shape
        x = grid.reshape(1, h * w, c)
        z = x @ model.w_pix + model.b_pix
        masks = brute_softmax(z)
        proj = x @ model.w_emb + model.b_emb
        part_w, fg_w = masks[:, :, 1:], 1.0 - masks[:, :, 0]
        part_sum, fg_sum = part_w.sum(axis=1), fg_w.sum(axis=1)
        f_parts = part_w.transpose(0, 2, 1) @ proj / part_sum[:, :, None]
        f_fg = (fg_w[:, None, :] @ proj)[:, 0] / fg_sum[:, None]
        shown = np.zeros(k + 1, dtype=bool)
        shown[z[0].argmax(axis=1)] = True
        vis = np.array([[int(shown[1:].any())]
                        + shown[1:].astype(int).tolist()])
        for key, value in zip(keys, (x, z, masks, proj, part_sum, fg_sum,
                                     f_parts, f_fg, proj.mean(axis=1), vis)):
            rows[key].append(value)
    fw = {key: np.concatenate(values) for key, values in rows.items()}
    fw["role_logits"] = fw["f_fg"] @ model.w_role + model.b_role
    fw["part_w"] = fw["masks"][:, :, 1:]
    fw["fg_w"] = 1.0 - fw["masks"][:, :, 0]
    return fw


def _einsum_pooling(model, fw):
    """``fw`` with the pooled embeddings and role logits of the forward
    pass computed by ``np.einsum`` sums over the cells."""
    f_parts = (np.einsum("bnk,bnd->bkd", fw["part_w"], fw["proj"])
               / fw["part_sum"][:, :, None])
    f_fg = np.einsum("bn,bnd->bd", fw["fg_w"], fw["proj"]) / fw["fg_sum"][:, None]
    return {**fw, "f_parts": f_parts, "f_fg": f_fg,
            "role_logits": f_fg @ model.w_role + model.b_role}


def brute_loss_and_grad(model, batch, cfg, einsum=False):
    """``embedder.loss_and_grad`` on a list of ``GridSample``s, stacked
    sample by sample, with fresh arrays for every intermediate and the
    forward pass of :func:`brute_forward`.  Shares the component losses
    other than :func:`_brute_gilt_loss` with the package.

    With ``einsum`` true, the pooling contractions of the forward and
    backward passes are ``np.einsum`` sums, the backward one over the
    ``(B, K, N, D)`` part residual: the definition that the package's
    matrix products equal up to summation order."""
    cells = np.stack([np.asarray(s.grid.cells, float) for s in batch])
    labels_grid = np.stack([np.asarray(s.grid.part_labels, int) for s in batch])
    fw = brute_forward(model, cells)
    if einsum:
        fw = _einsum_pooling(model, fw)
    b, n = fw["z"].shape[:2]
    k, d = model.num_parts, model.dim
    ids = np.array([s.identity for s in batch])
    roles = np.array([int(s.role) for s in batch])
    wts = cfg.weights

    # --- component losses -------------------------------------------------
    # Part prediction: per-image cell-sum, averaged over the batch, on a
    # softmax of the logits of its own.
    pa = part_prediction_loss(brute_softmax(fw["z"]),
                              labels_grid.reshape(b, n))
    pa = LossValue(pa.value / b, pa.gradients / b)

    id_logits = {
        "global": fw["f_g"] @ model.w_id_g + model.b_id_g,
        "foreground": fw["f_fg"] @ model.w_id_f + model.b_id_f,
        "concat": fw["f_parts"].reshape(b, k * d) @ model.w_id_c + model.b_id_c,
    }
    reid = _brute_gilt_loss(fw["f_parts"], fw["vis"][:, 1:], id_logits, ids,
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
    dp = d_parts / part_sum[:, :, None]               # (B, K, D)
    if einsum:
        d_proj += np.einsum("bnk,bkd->bnd", part_w, dp)
        resid = proj[:, None, :, :] - fw["f_parts"][:, :, None, :]
        d_mask[:, :, 1:] += np.einsum("bknd,bkd->bnk", resid, dp)
    else:
        d_proj += part_w @ dp
        d_mask[:, :, 1:] += (proj @ dp.transpose(0, 2, 1)
                             - (fw["f_parts"] * dp).sum(axis=2)[:, None, :])

    # Foreground embedding via weight 1 - m_background.
    dfg = d_fg_emb / fg_sum[:, None]                  # (B, D)
    d_proj += fg_w[:, :, None] * d_fg_emb[:, None, :] / fg_sum[:, None, None]
    if einsum:
        resid_f = proj - fw["f_fg"][:, None, :]
        d_mask[:, :, 0] -= np.einsum("bnd,bd->bn", resid_f, dfg)
    else:
        d_mask[:, :, 0] -= ((proj @ dfg[:, :, None])[:, :, 0]
                            - (fw["f_fg"] * dfg).sum(axis=1)[:, None])

    # Softmax backward for the mask weights, plus direct part-prediction grad.
    m = fw["masks"]
    dz = m * (d_mask - (d_mask * m).sum(axis=2, keepdims=True))
    dz += g["pa"]

    x = fw["x"]
    if einsum:
        grads["w_pix"] += np.einsum("bnc,bnk->ck", x, dz)
        grads["w_emb"] += np.einsum("bnc,bnd->cd", x, d_proj)
    else:
        x = x.reshape(b * n, -1)
        grads["w_pix"] += x.T @ dz.reshape(b * n, -1)
        grads["w_emb"] += x.T @ d_proj.reshape(b * n, -1)
    grads["b_pix"] += dz.sum(axis=(0, 1))
    grads["b_emb"] += d_proj.sum(axis=(0, 1))

    comp_values = {name: lv.value for name, lv in components.items()}
    return tot.value, grads, comp_values


def brute_group_by_identity(dataset):
    """``(samples by identity, left, right, other)`` of a list of
    ``GridSample``s, each identity's role and team read off its first
    sample."""
    by_id = {}
    for s in dataset:
        by_id.setdefault(s.identity, []).append(s)
    left = sorted(i for i, ss in by_id.items()
                  if ss[0].role == Role.PLAYER and ss[0].team == 0)
    right = sorted(i for i, ss in by_id.items()
                   if ss[0].role == Role.PLAYER and ss[0].team == 1)
    other = sorted(i for i, ss in by_id.items() if ss[0].role != Role.PLAYER)
    return by_id, left, right, other


def brute_draw_batch(groups, rng, samples_per_identity):
    """A training batch as a list of ``GridSample``s: 4 + 4 player
    identities of the two teams and 3 others, then each identity's picks."""
    by_id, left, right, other = groups
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


def brute_train(cfg, dataset):
    """``embedder.train`` step by step: a batch of ``GridSample``s per
    step, :func:`brute_loss_and_grad`, and Adam on each parameter array in
    turn, each update a new array.  Shares the model initialisation and
    the learning-rate schedule with the package."""
    rng = np.random.default_rng(cfg.seed)
    ids = sorted({s.identity for s in dataset})
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
    groups = brute_group_by_identity(remapped)
    for epoch in range(cfg.epochs):
        lr = _lr_at(epoch, cfg)
        epoch_losses = []
        for _ in range(cfg.steps_per_epoch):
            batch = brute_draw_batch(groups, rng, cfg.samples_per_identity)
            value, grads, _ = brute_loss_and_grad(model, batch, cfg)
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


def brute_part_prediction_loss(logits, labels):
    """``losses.part_prediction_loss`` as it was when it took logits: the
    sum over cells of cross-entropy on :func:`brute_softmax` of the
    ``(..., C)`` logits; returns (value, gradient ``p - onehot``)."""
    logits = np.asarray(logits, dtype=float)
    c = logits.shape[-1]
    p = brute_softmax(logits.reshape(-1, c))
    tgt = np.asarray(labels, dtype=int).reshape(-1)
    idx = np.arange(len(tgt))
    value = float(-np.log(np.clip(p[idx, tgt], 1e-12, None)).sum())
    p[idx, tgt] -= 1.0
    return value, p.reshape(logits.shape)


def brute_softmax(logits):
    """Softmax over the last axis, shifted by numpy's row maximum of that
    axis, as ``losses.softmax`` had it before it took the maxima from a
    transposed copy."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
