"""Independent brute-force reference implementations used to check the
library's solvers and metrics.  Everything here is written from the plain
definitions with exhaustive enumeration; nothing is shared with the package
internals beyond basic types."""

import itertools
import math

import numpy as np


def box_iou(a, b):
    """Intersection over union of two ``BoundingBox``es: the overlap
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


def brute_retrieval(retrieval, match_key, exclude_same_view):
    """(mAP, rank-1) of identity or team retrieval, query by query.

    Team retrieval keeps players only.  A query's gallery leaves out items of
    its identity and view when ``exclude_same_view``; the rest is sorted by
    (distance, gallery index).  AP is the mean precision at each relevant
    item's rank; queries with no relevant item are left out."""
    queries, gallery = retrieval.queries, retrieval.gallery
    if match_key == "team":
        # Role.PLAYER is 0.
        queries = [q for q in queries if q.role == 0]
        gallery = [g for g in gallery if g.role == 0]
    aps, top1 = [], []
    for q in queries:
        scored = []
        for j, g in enumerate(gallery):
            if (exclude_same_view and g.identity == q.identity
                    and g.view == q.view):
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
