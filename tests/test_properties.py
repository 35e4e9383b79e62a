"""Property tests of the tracking metrics and the text formats.

The metrics do not depend on the names of predicted ids or on the order of
records across frames or, without IoU ties, within a frame; they lie in
their ranges, HOTA at one threshold is the geometric mean of DetA and AssA,
and a prediction equal to the ground truth scores as perfect; the MOT and
feature writers round-trip random finite records at their declared
precision, and write the same bytes as the field-by-field ``str.format``
writers of ``tests/oracles.py``; the column readers accept and reject the
same lines as the per-line readers of ``tests/oracles.py``, name the same
line and read the same values bit for bit.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prtrack.core import PartFeatureSet, iou_matrix
from prtrack.motio import (MotTable, ParseError, parse_features, parse_mot,
                           write_features, write_mot)
from prtrack.track_metrics import SequenceResult, evaluate_sequence, hota

from conftest import mot_sequence
from oracles import (Box, FeatureRow, MotRow, brute_parse_features,
                     brute_parse_mot, brute_write_features, brute_write_mot,
                     feature_table, mot_table)

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
        gt[f] = [(i, Box(500.0 * i + draw(st.floats(0, 100))
                         if lanes else draw(_coord),
                         draw(_coord), draw(_size), draw(_size)))
                 for i in ids]
        boxes = [Box(b.x + draw(st.floats(-20, 20)),
                     b.y + draw(st.floats(-20, 20)), b.w, b.h)
                 for _, b in gt[f] if draw(st.booleans())]
        boxes += draw(st.lists(st.builds(Box, _coord, _coord, _size, _size),
                               max_size=2))
        pred_ids = draw(st.lists(st.integers(1, 7), min_size=len(boxes),
                                 max_size=len(boxes), unique=True))
        pred[f] = list(zip(pred_ids, boxes))
    if not any(gt.values()):
        gt[1] = [(1, Box(0.0, 0.0, 10.0, 10.0))]
    return gt, pred


def _scores(gt, pred):
    r = evaluate_sequence(mot_sequence(gt), mot_sequence(pred))
    return r.hota, r.deta, r.assa, r.mota, r.idf1, r.id_switches


def _take(table, rows):
    return MotTable(*(getattr(table, f.name)[rows]
                      for f in dataclasses.fields(table)))


def _interleaved(table, random):
    """The rows of ``table`` in a random order that keeps each frame's rows
    in their order."""
    queues = {}
    for i, f in enumerate(table.frame.tolist()):
        queues.setdefault(f, []).append(i)
    slots = table.frame.tolist()
    random.shuffle(slots)
    return _take(table, [queues[f].pop(0) for f in slots])


@settings(deadline=None)
@given(sequences(), st.randoms(use_true_random=False))
def test_metrics_ignore_predicted_id_names(seq, random):
    gt, pred = seq
    gt_records, pred_records = mot_sequence(gt), mot_sequence(pred)
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
    r = evaluate_sequence(*map(mot_sequence, seq))
    for name in ("hota", "deta", "assa", "idf1"):
        assert 0.0 <= getattr(r, name) <= 1.0, name
    assert r.mota <= 1.0
    assert r.id_switches >= 0


@settings(deadline=None)
@given(sequences(), st.floats(0.01, 1.0))
def test_hota_at_one_threshold_is_geometric_mean(seq, alpha):
    h, d, a = hota(SequenceResult(*map(mot_sequence, seq)), alphas=(alpha,))
    assert abs(h ** 2 - d * a) <= 1e-12


def _has_iou_ties(gt, pred):
    """Whether a frame's gt/pred IoU matrix holds a positive value twice."""
    for f, boxes in gt.items():
        ious = iou_matrix([b for _, b in boxes],
                          [b for _, b in pred.get(f, [])])
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
    MotRow, frame=st.integers(0, 10**6), id=st.integers(-1, 10**6),
    bb_left=_record_float, bb_top=_record_float,
    bb_width=st.floats(1e-3, 1e6), bb_height=st.floats(1e-3, 1e6),
    conf=_record_float, class_id=st.integers(-5, 5),
    visibility=_record_float), max_size=8))
def test_mot_roundtrip_at_six_decimals(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("mot") / "a.txt"
    write_mot(mot_table(records), path)
    parsed = parse_mot(path)
    expected = sorted(records, key=lambda r: (r.frame, r.id))
    assert len(parsed) == len(expected)
    got_rows = zip(parsed.frame.tolist(), parsed.id.tolist(),
                   parsed.boxes.tolist(), parsed.conf.tolist(),
                   parsed.class_id.tolist(), parsed.visibility.tolist())
    for (frame, id_, box, conf, class_id, vis), want in zip(got_rows,
                                                            expected):
        assert (frame, id_, class_id) == (want.frame, want.id, want.class_id)
        np.testing.assert_allclose((*box, conf, vis),
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
        out.append(FeatureRow(
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
    write_features(feature_table(records), path)
    parsed = parse_features(path)
    expected = sorted(records, key=lambda r: (r.frame, r.det_index))
    assert len(parsed) == len(expected)
    for i, want in enumerate(expected):
        assert (parsed.frame[i], parsed.det_index[i]) == \
            (want.frame, want.det_index)
        np.testing.assert_array_equal(parsed.visibility[i],
                                      want.features.visibility)
        for a, b in ((parsed.embeddings[i], want.features.stacked()),
                     (parsed.role_logits[i], want.role_logits)):
            np.testing.assert_allclose(a, b, rtol=5e-9 * (1 + 1e-6), atol=0)
    again = path.with_name("g.txt")
    write_features(parsed, again)
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
    MotRow, frame=_any_int, id=_any_int, bb_left=_any_float,
    bb_top=_any_float, bb_width=_any_float, bb_height=_any_float,
    conf=_any_float, class_id=_any_int, visibility=_any_float),
    max_size=8))
def test_mot_writer_bytes_equal_format_writer(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("mot")
    write_mot(mot_table(records), path / "a.txt")
    brute_write_mot(records, path / "b.txt")
    assert (path / "a.txt").read_bytes() == (path / "b.txt").read_bytes()


@st.composite
def any_feature_records(draw):
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        vectors = draw(st.lists(_finite_float, min_size=(k + 1) * d,
                                max_size=(k + 1) * d))
        out.append(FeatureRow(
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
    write_features(feature_table(records), path / "a.txt")
    brute_write_features(records, path / "b.txt")
    assert (path / "a.txt").read_bytes() == (path / "b.txt").read_bytes()


# Differential tests of the column readers against the per-line readers of
# tests/oracles.py.  A file is drawn whole: valid lines only, or lines of
# which any field may be malformed.  Integers stay within int64, where both
# readers keep them; beyond it the column reader fails by design.
_INT64 = np.iinfo(np.int64)
_int_text = st.one_of(st.integers(-3, 60),
                      st.integers(_INT64.min, _INT64.max)).map(str)
_bad_int_text = st.sampled_from(["1.0", "1e3", "nan", "", "x", "2.5"])
_finite_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:.6f}".format),
    st.sampled_from(["0", "-0.0", "1e3", "5e-324", "+2.5"]))
_bad_float_text = st.sampled_from(["nan", "inf", "-inf", "NaN", "x", ""])
_size_text = st.one_of(st.floats(1e-3, 1e6).map(repr),
                       st.sampled_from(["1", "7.5", "1e3"]))
_bad_size_text = st.sampled_from(["0", "0.0", "-0.0", "-2.5", "-inf"])
_blank_line = st.sampled_from(["", "   ", "\t"])


def _field(draw, good, bad, broken):
    """A good token, or in a broken file one time in 24 a bad one."""
    return draw(bad if broken and draw(st.integers(0, 23)) == 23 else good)


@st.composite
def mot_files(draw):
    """The text of a MOT file: lines of nine fields, blank lines, and, in
    a broken file, malformed fields and lines of 8 or 10 fields."""
    broken = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_blank_line))
            continue
        fields = [_field(draw, _int_text, _bad_int_text, broken)
                  for _ in range(2)]
        fields += [_field(draw, _finite_text, _bad_float_text, broken)
                   for _ in range(2)]
        fields += [_field(draw, _size_text,
                          st.one_of(_bad_size_text, _bad_float_text), broken)
                   for _ in range(2)]
        fields += [_field(draw, _finite_text, _bad_float_text, broken),
                   _field(draw, _int_text, _bad_int_text, broken),
                   _field(draw, _finite_text, _bad_float_text, broken)]
        if broken and draw(st.integers(0, 7)) == 7:
            fields = draw(st.sampled_from([fields[:-1], fields + ["1"]]))
        lines.append(",".join(fields))
    return _joined(draw, lines)


def _joined(draw, lines):
    """The lines, each ended by ``\\n`` or ``\\r\\n``, the last maybe by
    nothing."""
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def feature_files(draw):
    """The text of a features file: lines of the file's K and D, blank
    lines, and, in a broken file, malformed values, lines of another K
    (0 among them) or D, and lines of one token too few or too many.  A
    negative K or D is left out: the per-line reader failed such a line
    with whatever its slicing and numpy's ``reshape`` made of it."""
    broken = draw(st.booleans())
    k, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_blank_line))
            continue
        kk, dd = k, d
        if broken and draw(st.integers(0, 3)) == 3:
            kk, dd = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        tokens = [_field(draw, _int_text, _bad_int_text, broken)
                  for _ in range(2)] + [str(kk), str(dd)]
        tokens += [_field(draw, _finite_text, _bad_float_text, broken)
                   for _ in range((kk + 1) * dd)]
        tokens += [_field(draw, st.sampled_from(["0", "1"]),
                          st.sampled_from(["2", "-1", "1.0", "x"]), broken)
                   for _ in range(kk + 1)]
        tokens += [_field(draw, _finite_text, _bad_float_text, broken)
                   for _ in range(4)]
        if broken and draw(st.integers(0, 7)) == 7:
            tokens = draw(st.sampled_from([tokens[:-1], tokens + ["1"]]))
        lines.append(" ".join(tokens))
    return _joined(draw, lines)


def _outcome(read, path):
    """What ``read(path)`` returns, or its ParseError's text and line, and
    the messages of the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path)
        except ParseError as exc:
            return ("error", str(exc), exc.line), None
    return result, [str(w.message) for w in caught]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_same_columns(got, want):
    for f in dataclasses.fields(want):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), \
            f.name


@settings(deadline=None, max_examples=300)
@given(mot_files())
@example("1,1,0,0,10,10,1,1,1\r\n\r\n2,1,0,0,10,10,1,1e3,1\n")
def test_mot_reader_equals_per_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mot") / "m.txt"
    path.write_bytes(text.encode())
    got, got_warnings = _outcome(parse_mot, path)
    want, want_warnings = _outcome(brute_parse_mot, path)
    if isinstance(want, tuple):
        assert got == want
        return
    _assert_same_columns(got, mot_table(want))
    assert got_warnings == want_warnings


@settings(deadline=None, max_examples=300)
@given(feature_files())
@example("1 0 1 1 0.5 1.5 1 1 0.1 0.2 0.3 0.4\n"
         "1 1 2 1 0.5 1.5 2.5 1 1 0 0.1 0.2 0.3 0.4\n")
def test_feature_reader_equals_per_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("features") / "f.txt"
    path.write_bytes(text.encode())
    got, _ = _outcome(parse_features, path)
    want, _ = _outcome(brute_parse_features, path)
    if isinstance(want, tuple):
        assert got == want
        return
    _assert_same_columns(got, feature_table(want))


@pytest.mark.parametrize("fmt,names", [
    ("{0},{1},0,0,10,10,1,{2},1", ("frame", "id", "class")),
    ("{0} {1} 1 1 0.5 1.5 1 1 0.1 0.2 0.3 0.4", ("frame", "index"))])
def test_integers_outside_int64_fail_at_their_line(tmp_path, fmt, names):
    """Frames, ids, classes and detection indices are int64 columns: a
    value outside int64, which the per-line readers kept as a Python int,
    fails at its line, and the extremes of int64 read as they are."""
    read = parse_mot if "," in fmt else parse_features
    path = tmp_path / "f.txt"
    path.write_text("\n".join([fmt.format(1, 1, 1), fmt.format(
        _INT64.max, _INT64.min, _INT64.min)]) + "\n")
    table = read(path)
    assert table.frame.dtype == np.int64
    assert table.frame.tolist() == [1, _INT64.max]
    for i, name in enumerate(names):
        for value in (_INT64.max + 1, _INT64.min - 1, 2**70):
            bad = ["1"] * 3
            bad[i] = str(value)
            path.write_text("\n".join([fmt.format(1, 1, 1), "",
                                       fmt.format(*bad)]) + "\n")
            with pytest.raises(ParseError) as err:
                read(path)
            assert err.value.line == 3
            assert str(err.value) == (f"{path}: line 3: {name} is outside "
                                      "the int64 range")


def test_negative_part_count_or_dimension_fails_at_its_line(tmp_path):
    path = tmp_path / "f.txt"
    good = "1 0 1 1 0.5 1.5 1 1 0.1 0.2 0.3 0.4"
    # A negative K or D, with the token count its formula gives.
    for k, d in ((-1, 2), (1, -1), (2, -1), (-2, 0)):
        n = 4 + (k + 1) * d + k + 1 + 4
        line = " ".join(["1", "1", str(k), str(d)] + ["0"] * (n - 4))
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(ParseError) as err:
            parse_features(path)
        assert str(err.value) == (f"{path}: line 2: K {k} and D {d} must "
                                  "not be negative")
