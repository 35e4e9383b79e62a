import numpy as np
import pytest

from prtrack import track_metrics
from prtrack.core import box_array, iou_matrix
from prtrack.track_metrics import (DuplicateId, EmptyGroundTruth,
                                   SequenceResult, evaluate_sequence,
                                   frame_match, hota, idf1, mota_ids)

from conftest import box, mot_records


def seq(gt, pred):
    return SequenceResult(mot_records(gt), mot_records(pred))


def test_frame_match_threshold():
    gt = [(1, box(0, 0)), (2, box(100, 0))]
    pred = [(7, box(1, 0)), (8, box(200, 0))]
    ious = iou_matrix(box_array([b for _, b in gt]),
                      box_array([b for _, b in pred]))
    assert frame_match(ious, alpha_loc=0.5) == [(0, 0)]
    assert frame_match(ious, alpha_loc=0.95) == []
    assert frame_match(np.zeros((0, 2)), 0.5) == []


def test_perfect_tracking_is_all_ones():
    gt = {f: [(1, box(0, 0)), (2, box(50, 0))] for f in range(1, 6)}
    pred = {f: [(11, box(0, 0)), (12, box(50, 0))] for f in range(1, 6)}
    r = evaluate_sequence(mot_records(gt), mot_records(pred))
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
    r = evaluate_sequence(mot_records(gt), mot_records(pred))
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
    evaluate_sequence(mot_records(gt), mot_records(pred))
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
