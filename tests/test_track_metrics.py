import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtrack import track_metrics
from prtrack.core import iou_matrix
from prtrack.solvers import hungarian
from prtrack.track_metrics import (DuplicateId, EmptyGroundTruth,
                                   SequenceResult, evaluate_sequence,
                                   frame_match, hota, idf1, mota_ids)

from conftest import box, mot_sequence
from oracles import Box


def seq(gt, pred):
    return SequenceResult(mot_sequence(gt), mot_sequence(pred))


def test_frame_match_threshold():
    gt = [(1, box(0, 0)), (2, box(100, 0))]
    pred = [(7, box(1, 0)), (8, box(200, 0))]
    ious = iou_matrix([b for _, b in gt], [b for _, b in pred])
    assert frame_match(ious, alpha_loc=0.5).tolist() == [[0, 0]]
    for got in (frame_match(ious, alpha_loc=0.95),
                frame_match(np.zeros((0, 2)), 0.5)):
        assert got.shape == (0, 2) and got.dtype == np.intp


def test_perfect_tracking_is_all_ones():
    gt = {f: [(1, box(0, 0)), (2, box(50, 0))] for f in range(1, 6)}
    pred = {f: [(11, box(0, 0)), (12, box(50, 0))] for f in range(1, 6)}
    r = evaluate_sequence(mot_sequence(gt), mot_sequence(pred))
    assert r.hota == 1.0 and r.deta == 1.0 and r.assa == 1.0
    assert r.mota == 1.0 and r.idf1 == 1.0 and r.id_switches == 0


def test_missed_detections_hand_computed():
    # 4 frames, one object; predictions cover only frames 1-2.
    gt = {f: [(1, box(0, 0))] for f in range(1, 5)}
    pred = {f: [(9, box(0, 0))] for f in range(1, 3)}
    mota, ids = mota_ids(seq(gt, pred))
    assert mota == pytest.approx(1.0 - 2.0 / 4.0)
    assert ids == 0
    # IDF1: idtp=2, idfn=2, idfp=0 -> 2*2 / (4 + 0 + 2*... )
    assert idf1(seq(gt, pred)) == pytest.approx(4.0 / 6.0)
    h, deta, assa = hota(seq(gt, pred))
    assert deta == pytest.approx(2.0 / 4.0)
    assert assa == pytest.approx(0.5)
    assert h == pytest.approx(0.5)


def test_identity_switch_counted():
    gt = {f: [(1, box(0, 0))] for f in range(1, 5)}
    pred = {1: [(7, box(0, 0))], 2: [(7, box(0, 0))],
            3: [(8, box(0, 0))], 4: [(8, box(0, 0))]}
    mota, ids = mota_ids(seq(gt, pred))
    assert ids == 1
    assert mota == pytest.approx(1.0 - 1.0 / 4.0)
    # IDF1 keeps the better half: idtp=2
    assert idf1(seq(gt, pred)) == pytest.approx(0.5)


def test_false_positives_penalize_mota():
    gt = {1: [(1, box(0, 0))]}
    pred = {1: [(1, box(0, 0)), (2, box(500, 0))]}
    mota, ids = mota_ids(seq(gt, pred))
    assert mota == pytest.approx(0.0)  # 1 FP over 1 gt


def test_hota_empty_ground_truth():
    with pytest.raises(EmptyGroundTruth):
        hota(seq({}, {1: [(1, box(0, 0))]}))


def test_idf1_empty_predictions():
    gt = {1: [(1, box(0, 0))]}
    assert idf1(seq(gt, {})) == 0.0


def test_hota_association_split():
    # one object tracked by two prediction ids, half the frames each
    gt = {f: [(1, box(0, 0))] for f in range(1, 9)}
    pred = {f: [(5 if f <= 4 else 6, box(0, 0))] for f in range(1, 9)}
    h, deta, assa = hota(seq(gt, pred), alphas=(0.5,))
    assert deta == pytest.approx(1.0)
    # each TP: TPA=4, FNA=4, FPA=0 -> A = 4/8
    assert assa == pytest.approx(0.5)
    assert h == pytest.approx(np.sqrt(0.5))


def test_frames_and_ids_beyond_64_bits():
    big = 2 ** 70
    gt = {big + f: [(big, box(0, 0)), (-big, box(50, 0))] for f in range(3)}
    pred = {big + f: [(-big, box(0, 0)), (big, box(50, 0))] for f in range(3)}
    r = evaluate_sequence(mot_sequence(gt), mot_sequence(pred))
    assert (r.hota, r.mota, r.idf1, r.id_switches) == (1.0, 1.0, 1.0, 0)


def test_iou_kernel_called_once_per_frame(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return iou_matrix(a, b)

    monkeypatch.setattr(track_metrics, "iou_matrix", counted)
    # Frames 1-5 have ground truth, 3-7 predictions, frame 9 only a stray.
    gt = {f: [(1, box(0, 0)), (2, box(50, 0))] for f in range(1, 6)}
    pred = {f: [(7, box(1, 0))] for f in (*range(3, 8), 9)}
    evaluate_sequence(mot_sequence(gt), mot_sequence(pred))
    assert calls == [(2, 0), (2, 0), (2, 1), (2, 1), (2, 1), (0, 1), (0, 1),
                     (0, 1)]


def test_id_repeated_in_a_frame_rejected():
    gt = {1: [(1, box(0, 0))], 2: [(1, box(0, 0))]}
    twice = {1: [(1, box(0, 0)), (1, box(50, 0))]}
    with pytest.raises(DuplicateId, match="pred id 1 repeats in frame 1"):
        seq(gt, twice)
    with pytest.raises(DuplicateId, match="gt id 1 repeats in frame 1"):
        seq({**gt, **twice}, gt)
    # The same id in two frames, or two ids in one frame, is fine.
    seq(gt, {1: [(1, box(0, 0)), (2, box(50, 0))], 2: [(1, box(0, 0))]})


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, float("nan"),
                                   float("inf"), -float("inf")])
def test_thresholds_outside_unit_interval_rejected(alpha):
    r = seq({1: [(1, box(0, 0))]}, {1: [(2, box(50, 0))]})
    for call in (lambda: frame_match(np.array([[0.0]]), alpha),
                 lambda: hota(r, alphas=(0.5, alpha)),
                 lambda: mota_ids(r, alpha=alpha),
                 lambda: idf1(r, alpha=alpha),
                 lambda: r.matches(alpha)):
        with pytest.raises(ValueError, match="localization threshold"):
            call()


def test_hota_needs_a_threshold():
    r = seq({1: [(1, box(0, 0))]}, {1: [(1, box(0, 0))]})
    with pytest.raises(ValueError, match="at least one"):
        hota(r, alphas=())
    assert hota(r, alphas=(1.0,)) == (1.0, 1.0, 1.0)


def _reference_match(ious, alpha):
    return hungarian(np.where(ious >= alpha, 1.0 - ious, np.inf)).pairs


_iou = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                 st.floats(0.0, 1.0))


@st.composite
def iou_cases(draw):
    """An IoU matrix with ties, zeros and values that the threshold equals,
    and the threshold.  Half the matrices keep at most one entry per row
    and per column, at the entries of a partial permutation."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    ious = np.array(draw(st.lists(_iou, min_size=n * m, max_size=n * m)),
                    dtype=float).reshape(n, m)
    if draw(st.booleans()):
        order = draw(st.permutations(range(max(n, m))))
        ious[~np.eye(max(n, m), dtype=bool)[order][:n, :m]] = 0.0
    alpha = draw(st.one_of(
        st.sampled_from(sorted({*ious.ravel().tolist(), 0.5} - {0.0})),
        st.floats(0.0, 1.0, exclude_min=True)))
    return ious, alpha


@settings(deadline=None, max_examples=300)
@given(iou_cases())
def test_frame_match_equals_assignment(case):
    ious, alpha = case
    mask = ious >= alpha
    single = (mask.sum(axis=0) <= 1).all() and (mask.sum(axis=1) <= 1).all()
    got = frame_match(ious, alpha)
    assert got.tolist() == _reference_match(ious, alpha).tolist()
    assert got.dtype == np.intp and got.shape[1:] == (2,)
    if single:
        assert got.tolist() == np.argwhere(mask).tolist()


_grid = st.sampled_from([0.0, 2.0, 4.0, 6.0])


@st.composite
def grid_sequences(draw):
    """Ground truth and predictions on a coarse box grid, so IoU values tie
    and repeat across frames, and many pairs do not overlap."""
    def frame_boxes():
        boxes = draw(st.lists(st.builds(Box, _grid, _grid,
                                        st.sampled_from([2.0, 4.0]),
                                        st.sampled_from([2.0, 4.0])),
                              max_size=4))
        return list(enumerate(boxes))
    n_frames = draw(st.integers(1, 4))
    return ({f: frame_boxes() for f in range(1, n_frames + 1)},
            {f: frame_boxes() for f in range(1, n_frames + 1)})


@settings(deadline=None, max_examples=200)
@given(grid_sequences(), st.data())
def test_memoized_matches_equal_per_threshold_matching(sequence, data):
    r = seq(*sequence)
    values = sorted({v for _, _, ious in r.frames
                     for v in ious.ravel().tolist()} - {0.0})
    alpha = st.floats(0.0, 1.0, exclude_min=True)
    if values:
        alpha = st.one_of(st.sampled_from(values), alpha)
    alphas = data.draw(st.lists(alpha, min_size=1, max_size=8))
    alphas += data.draw(st.lists(st.sampled_from(alphas), max_size=4))
    for a in alphas:
        want = [frame_match(ious, a).tolist() for _, _, ious in r.frames]
        got = r.matches(a)
        assert [m.tolist() for m in got] == want
        assert all(m.dtype == np.intp and m.shape[1:] == (2,) for m in got)
        assert [_reference_match(ious, a).tolist()
                for _, _, ious in r.frames] == want
    if len(r.gt_ids):
        fresh = SequenceResult(mot_sequence(sequence[0]),
                               mot_sequence(sequence[1]))
        assert hota(r, alphas) == hota(fresh, alphas)
        assert mota_ids(r) == mota_ids(fresh)


def test_thresholds_share_each_frames_matching(monkeypatch):
    # Apart boxes: every mask holds at most one entry per row and column.
    gt = {f: [(1, box(0, 0)), (2, box(50, 0))] for f in range(1, 6)}
    pred = {f: [(7, box(1, 0)), (8, box(50, 0))] for f in range(3, 8)}
    r = seq(gt, pred)
    solved, assigned = [], []

    def counted_match(ious, alpha):
        solved.append(alpha)
        return frame_match(ious, alpha)

    def counted_hungarian(costs, *args):
        assigned.append(costs.shape)
        return hungarian(costs, *args)

    monkeypatch.setattr(track_metrics, "frame_match", counted_match)
    monkeypatch.setattr(track_metrics, "hungarian", counted_hungarian)
    hota(r)
    assert assigned == []
    # Frames 3-5 have two masks (both pairs, then the exact one alone),
    # the other frames one, whatever the threshold.
    assert len(solved) == 2 * 3 + 4
    solved.clear()
    assert mota_ids(r) == (1.0 - (4 + 4) / 10, 0)   # 4 FN, 4 FP
    assert solved == []
