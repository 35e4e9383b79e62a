import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prtrack.core import (NoMutualVisibility, PartFeatureSet, _check_boxes,
                          iou_matrix, part_distance, part_distance_matrix,
                          xywh_to_xyah, xyah_to_xywh)

from conftest import random_feature_set
from oracles import Box, box_iou


def test_feature_set_validation():
    with pytest.raises(ValueError):
        PartFeatureSet(parts=np.zeros((0, 4)), foreground=np.zeros(4),
                       visibility=np.ones(1, dtype=int))
    with pytest.raises(ValueError):
        PartFeatureSet(parts=np.zeros((2, 4)), foreground=np.zeros(3),
                       visibility=np.ones(3, dtype=int))
    with pytest.raises(ValueError):
        PartFeatureSet(parts=np.zeros((2, 4)), foreground=np.zeros(4),
                       visibility=np.array([1, 2, 0]))
    for bad in (np.nan, np.inf, -np.inf):
        parts = np.zeros((2, 4))
        parts[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            PartFeatureSet(parts=parts, foreground=np.zeros(4),
                           visibility=np.ones(3, dtype=int))
        with pytest.raises(ValueError, match="finite"):
            PartFeatureSet(parts=np.zeros((2, 4)),
                           foreground=np.array([0.0, bad, 0.0, 0.0]),
                           visibility=np.ones(3, dtype=int))


def test_stacked(rng):
    p = random_feature_set(rng, k=3, d=4)
    st = p.stacked()
    np.testing.assert_array_equal(st[0], p.foreground)
    np.testing.assert_array_equal(st[1:], p.parts)


def test_part_distance_all_visible_is_mean_euclid(rng):
    k, d = 4, 6
    a = PartFeatureSet(rng.normal(size=(k, d)), rng.normal(size=d),
                       np.ones(k + 1, dtype=int))
    b = PartFeatureSet(rng.normal(size=(k, d)), rng.normal(size=d),
                       np.ones(k + 1, dtype=int))
    expected = np.mean([np.linalg.norm(a.foreground - b.foreground)]
                       + [np.linalg.norm(a.parts[j] - b.parts[j])
                          for j in range(k)])
    assert part_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_part_distance_no_mutual_visibility():
    a = PartFeatureSet(np.ones((2, 3)), np.ones(3), np.array([1, 0, 0]))
    b = PartFeatureSet(np.ones((2, 3)), np.ones(3), np.array([0, 1, 1]))
    with pytest.raises(NoMutualVisibility):
        part_distance(a, b)


def test_part_distance_shape_mismatch(rng):
    a = random_feature_set(rng, k=2, d=3)
    b = random_feature_set(rng, k=3, d=3)
    with pytest.raises(ValueError):
        part_distance(a, b)


def test_matrix_matches_scalar(rng):
    sets_a = [random_feature_set(rng, k=3, d=5, p_visible=0.6)
              for _ in range(7)]
    sets_b = [random_feature_set(rng, k=3, d=5, p_visible=0.6)
              for _ in range(5)]
    mat = part_distance_matrix(sets_a, sets_b)
    for i, a in enumerate(sets_a):
        for j, b in enumerate(sets_b):
            try:
                expected = part_distance(a, b)
            except NoMutualVisibility:
                expected = np.inf
            assert mat[i, j] == expected


def test_matrix_empty():
    assert part_distance_matrix([], []).shape == (0, 0)


@st.composite
def feature_set_lists(draw):
    """Two lists of feature sets sharing K and D; visibility bits are
    arbitrary, so some pairs share no visible index."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def one():
        return PartFeatureSet(
            parts=draw(arrays(float, (k, d), elements=values)),
            foreground=draw(arrays(float, d, elements=values)),
            visibility=draw(arrays(int, k + 1, elements=st.integers(0, 1))))

    return ([one() for _ in range(draw(st.integers(1, 4)))],
            [one() for _ in range(draw(st.integers(1, 4)))])


@settings(deadline=None)
@given(feature_set_lists())
def test_matrix_cells_equal_scalar_bitwise(sets):
    a, b = sets
    mat = part_distance_matrix(a, b)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            mutual = bool((p.visibility * q.visibility).any())
            assert np.isinf(mat[i, j]) == (not mutual)
            if mutual:
                assert mat[i, j] == part_distance(p, q)
            else:
                with pytest.raises(NoMutualVisibility):
                    part_distance(p, q)


@settings(deadline=None)
@given(feature_set_lists())
def test_part_distance_symmetric(sets):
    a, b = sets
    np.testing.assert_array_equal(part_distance_matrix(a, b),
                                  part_distance_matrix(b, a).T)


@settings(deadline=None)
@given(feature_set_lists(), st.floats(-1e3, 1e3))
def test_invisible_values_do_not_matter(sets, fill):
    a, b = sets

    def overwrite_hidden(p):
        rows = p.stacked()
        rows[p.visibility == 0] = fill
        return PartFeatureSet(parts=rows[1:], foreground=rows[0],
                              visibility=p.visibility)

    np.testing.assert_array_equal(
        part_distance_matrix(a, b),
        part_distance_matrix([overwrite_hidden(p) for p in a],
                             [overwrite_hidden(q) for q in b]))


def test_box_roundtrip():
    b = np.array([[10.0, 20.0, 30.0, 60.0]])
    np.testing.assert_array_equal(xywh_to_xyah(b), [[25.0, 50.0, 0.5, 60.0]])
    np.testing.assert_allclose(xyah_to_xywh(xywh_to_xyah(b)),
                               [[10.0, 20.0, 30.0, 60.0]])
    np.testing.assert_array_equal(xywh_to_xyah(np.vstack([b, b])),
                                  [[25.0, 50.0, 0.5, 60.0]] * 2)
    assert xywh_to_xyah(np.zeros((0, 4))).shape == (0, 4)
    with pytest.raises(ValueError, match="positive"):
        _check_boxes(np.array([[0, 0, -1, 5]], dtype=float))
    for bad in ((np.nan, 0, 5, 5), (0, 0, np.nan, 10), (0, 0, 5, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            _check_boxes(np.array([bad], dtype=float))


def test_iou_basic(rng):
    a = [0, 0, 10, 10]
    far = [20, 20, 10, 10]
    m = iou_matrix([a], [a, far, [5, 0, 10, 10]])
    assert m.shape == (1, 3)
    assert m[0, 0] == 1.0 and m[0, 1] == 0.0
    assert m[0, 2] == pytest.approx(50.0 / 150.0)
    assert iou_matrix(np.zeros((0, 4)), [a]).shape == (0, 1)
    # every entry equals the definition's value to the bit
    boxes = [Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
             for _ in range(12)]
    m = iou_matrix(boxes[:5], boxes[5:])
    expected = [[box_iou(p, q) for q in boxes[5:]] for p in boxes[:5]]
    np.testing.assert_array_equal(m, expected)


def test_iou_degenerate_rows():
    boxes = np.array([[0, 0, 10, 10],
                      [0, 0, 10, -4],    # negative height
                      [0, 0, 0, 10],     # zero width
                      [0, 0, -10, -10]])  # both negative: positive area
    m = iou_matrix(boxes, boxes)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(m, expected)
