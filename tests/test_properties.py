"""Property tests of the tracking metrics and the text formats.

The metrics do not depend on the names of predicted ids or on the order of
records across frames or, without IoU ties, within a frame; they lie in
their ranges, HOTA at one threshold is the geometric mean of DetA and AssA,
and a prediction equal to the ground truth scores as perfect; the MOT and
feature writers round-trip random finite records at their declared
precision, and write the same bytes as the field-by-field ``str.format``
writers of ``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prtrack.core import BoundingBox, PartFeatureSet, box_array, iou_matrix
from prtrack.motio import (FeatureRecord, FeatureTable, MotRecord,
                           parse_features, parse_mot, write_features,
                           write_mot)
from prtrack.track_metrics import SequenceResult, evaluate_sequence, hota

from conftest import mot_records
from oracles import brute_write_features, brute_write_mot

_coord = st.floats(-1e4, 1e4, allow_nan=False)
_size = st.floats(1.0, 300.0)


@st.composite
def sequences(draw, lanes=False):
    """Ground truth and predictions: frame -> [(id, box)], ids unique per
    frame.  A prediction is a jittered ground-truth box or a stray box,
    under an id drawn independently of the ground truth's.  With
    ``lanes``, each ground-truth id keeps to a horizontal lane of its own,
    so its boxes never overlap another id's."""
    n_frames = draw(st.integers(1, 6))
    gt, pred = {}, {}
    for f in range(1, n_frames + 1):
        ids = draw(st.lists(st.integers(1, 5), max_size=4, unique=True))
        gt[f] = [(i, BoundingBox(500.0 * i + draw(st.floats(0, 100))
                                 if lanes else draw(_coord),
                                 draw(_coord), draw(_size), draw(_size)))
                 for i in ids]
        boxes = [BoundingBox(b.x + draw(st.floats(-20, 20)),
                             b.y + draw(st.floats(-20, 20)), b.w, b.h)
                 for _, b in gt[f] if draw(st.booleans())]
        boxes += draw(st.lists(st.builds(BoundingBox, _coord, _coord, _size,
                                         _size), max_size=2))
        pred_ids = draw(st.lists(st.integers(1, 7), min_size=len(boxes),
                                 max_size=len(boxes), unique=True))
        pred[f] = list(zip(pred_ids, boxes))
    if not any(gt.values()):
        gt[1] = [(1, BoundingBox(0.0, 0.0, 10.0, 10.0))]
    return gt, pred


def _scores(gt, pred):
    r = evaluate_sequence(mot_records(gt), mot_records(pred))
    return r.hota, r.deta, r.assa, r.mota, r.idf1, r.id_switches


def _interleaved(records, random):
    """The records in a random order that keeps each frame's records in
    their order."""
    queues = {}
    for r in records:
        queues.setdefault(r.frame, []).append(r)
    slots = [r.frame for r in records]
    random.shuffle(slots)
    return [queues[f].pop(0) for f in slots]


@settings(deadline=None)
@given(sequences(), st.randoms(use_true_random=False))
def test_metrics_ignore_predicted_id_names(seq, random):
    gt, pred = seq
    gt_records, pred_records = mot_records(gt), mot_records(pred)
    assert evaluate_sequence(_interleaved(gt_records, random),
                             _interleaved(pred_records, random)) == \
        evaluate_sequence(gt_records, pred_records)
    ids = sorted({i for v in pred.values() for i, _ in v})
    names = random.sample(range(-50, 1000), len(ids))
    rename = dict(zip(ids, names))
    renamed = {f: [(rename[i], b) for i, b in v] for f, v in pred.items()}
    *floats, switches = _scores(gt, pred)
    *floats_renamed, switches_renamed = _scores(gt, renamed)
    assert floats_renamed == pytest.approx(floats, abs=1e-12)
    assert switches_renamed == switches


@settings(deadline=None)
@given(sequences(lanes=True))
def test_prediction_equal_to_ground_truth_is_perfect(seq):
    gt, _ = seq
    assert _scores(gt, gt) == (1.0, 1.0, 1.0, 1.0, 1.0, 0)


@settings(deadline=None)
@given(sequences())
def test_metrics_lie_in_their_ranges(seq):
    r = evaluate_sequence(*map(mot_records, seq))
    for name in ("hota", "deta", "assa", "idf1"):
        assert 0.0 <= getattr(r, name) <= 1.0, name
    assert r.mota <= 1.0
    assert r.id_switches >= 0


@settings(deadline=None)
@given(sequences(), st.floats(0.01, 1.0))
def test_hota_at_one_threshold_is_geometric_mean(seq, alpha):
    h, d, a = hota(SequenceResult(*map(mot_records, seq)), alphas=(alpha,))
    assert abs(h ** 2 - d * a) <= 1e-12


def _has_iou_ties(gt, pred):
    """Whether a frame's gt/pred IoU matrix holds a positive value twice."""
    for f, boxes in gt.items():
        ious = iou_matrix(box_array([b for _, b in boxes]),
                          box_array([b for _, b in pred.get(f, [])]))
        positive = ious[ious > 0]
        if np.unique(positive).size < positive.size:
            return True
    return False


@settings(deadline=None)
@given(sequences(), st.randoms(use_true_random=False))
def test_metrics_ignore_row_order_within_a_frame(seq, random):
    """No metric moves when each frame's gt and predicted rows are permuted.
    Draws with an IoU tie in a frame are left out: ``hungarian`` breaks
    ties between cost-equal matchings by (row, col), so a permutation may
    pick another matching of the same cost there."""
    gt, pred = seq
    assume(not _has_iou_ties(gt, pred))
    shuffled = [{f: random.sample(v, len(v)) for f, v in side.items()}
                for side in (gt, pred)]
    *floats, switches = _scores(gt, pred)
    *floats_shuffled, switches_shuffled = _scores(*shuffled)
    assert floats_shuffled == pytest.approx(floats, abs=1e-12)
    assert switches_shuffled == switches


_record_float = st.floats(-1e6, 1e6, allow_nan=False)


@settings(deadline=None)
@given(st.lists(st.builds(
    MotRecord, frame=st.integers(0, 10**6), id=st.integers(-1, 10**6),
    bb_left=_record_float, bb_top=_record_float,
    bb_width=st.floats(1e-3, 1e6), bb_height=st.floats(1e-3, 1e6),
    conf=_record_float, class_id=st.integers(-5, 5),
    visibility=_record_float), max_size=8))
def test_mot_roundtrip_at_six_decimals(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("mot") / "a.txt"
    write_mot(records, path)
    parsed = parse_mot(path)
    expected = sorted(records, key=lambda r: (r.frame, r.id))
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert got[:2] == want[:2] and got.class_id == want.class_id
        np.testing.assert_allclose(got[2:7] + (got.visibility,),
                                   want[2:7] + (want.visibility,),
                                   rtol=0, atol=5e-7 + 1e-9)
    again = path.with_name("b.txt")
    write_mot(parsed, again)
    assert again.read_bytes() == path.read_bytes()


_feature_float = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def feature_records(draw):
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    out = []
    for det_index in range(draw(st.integers(0, 5))):
        vectors = draw(st.lists(_feature_float, min_size=(k + 1) * d + 4,
                                max_size=(k + 1) * d + 4))
        out.append(FeatureRecord(
            frame=draw(st.integers(0, 10**6)), det_index=det_index,
            features=PartFeatureSet(
                parts=np.reshape(vectors[d:(k + 1) * d], (k, d)),
                foreground=np.array(vectors[:d]),
                visibility=np.array(draw(st.lists(
                    st.integers(0, 1), min_size=k + 1, max_size=k + 1)))),
            role_logits=np.array(vectors[-4:])))
    return out


@settings(deadline=None)
@given(feature_records())
def test_features_roundtrip_at_nine_significant_digits(tmp_path_factory,
                                                       records):
    path = tmp_path_factory.mktemp("features") / "f.txt"
    write_features(FeatureTable.from_records(records), path)
    parsed = parse_features(path)
    expected = sorted(records, key=lambda r: (r.frame, r.det_index))
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert (got.frame, got.det_index) == (want.frame, want.det_index)
        np.testing.assert_array_equal(got.features.visibility,
                                      want.features.visibility)
        for a, b in ((got.features.stacked(), want.features.stacked()),
                     (got.role_logits, want.role_logits)):
            np.testing.assert_allclose(a, b, rtol=5e-9 * (1 + 1e-6), atol=0)
    again = path.with_name("g.txt")
    write_features(FeatureTable.from_records(parsed), again)
    assert again.read_bytes() == path.read_bytes()


# Signed zeros, subnormals, huge and non-finite values, and integers that
# are negative or need more than 64 bits.
_any_float = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.2e-308, 1e300,
                                        -1e300, 1e-7, 0.5e-6]),
                       st.floats())
_finite_float = st.one_of(st.sampled_from([-0.0, 5e-324, -1e-310, 1e300,
                                           -1e300]),
                          st.floats(allow_nan=False, allow_infinity=False))
_any_int = st.one_of(st.sampled_from([-1, 0, 2**63, -2**63 - 1, 2**70]),
                     st.integers())


@settings(deadline=None)
@given(st.lists(st.builds(
    MotRecord, frame=_any_int, id=_any_int, bb_left=_any_float,
    bb_top=_any_float, bb_width=_any_float, bb_height=_any_float,
    conf=_any_float, class_id=_any_int, visibility=_any_float),
    max_size=8))
def test_mot_writer_bytes_equal_format_writer(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("mot")
    write_mot(records, path / "a.txt")
    brute_write_mot(records, path / "b.txt")
    assert (path / "a.txt").read_bytes() == (path / "b.txt").read_bytes()


@st.composite
def any_feature_records(draw):
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        vectors = draw(st.lists(_finite_float, min_size=(k + 1) * d,
                                max_size=(k + 1) * d))
        out.append(FeatureRecord(
            frame=draw(_any_int), det_index=draw(_any_int),
            features=PartFeatureSet(
                parts=np.reshape(vectors[d:], (k, d)),
                foreground=np.array(vectors[:d]),
                visibility=np.array(draw(st.lists(
                    st.integers(0, 1), min_size=k + 1, max_size=k + 1)))),
            role_logits=np.array(draw(st.lists(_any_float, min_size=4,
                                               max_size=4)))))
    return out


@settings(deadline=None)
@given(any_feature_records())
def test_feature_writer_bytes_equal_format_writer(tmp_path_factory,
                                                  records):
    path = tmp_path_factory.mktemp("features")
    write_features(FeatureTable.from_records(records), path / "a.txt")
    brute_write_features(records, path / "b.txt")
    assert (path / "a.txt").read_bytes() == (path / "b.txt").read_bytes()
