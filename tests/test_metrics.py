import numpy as np
import pytest
from numpy.testing import assert_allclose

from stackseg import DataError, UsageError
from stackseg.metrics import EvalAccumulator


def test_confusion_matrix_layout_rows_truth_cols_pred():
    acc = EvalAccumulator(2)
    truth = np.array([[0, 0, 1], [1, 0, 1]])
    pred = np.array([[0, 1, 1], [0, 0, 1]])
    acc.update(truth, pred)
    assert acc.matrix.tolist() == [[2, 1], [1, 2]]


def test_uint8_maps_count_like_int64_at_21_classes():
    # t * c + p wraps in uint8 from 17 classes on unless widened first
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 21, (8, 9))
    truth[0, :3] = [20, 255, 19]
    pred = rng.integers(0, 21, (8, 9))
    pred[0, :3] = [20, 3, 20]
    narrow, wide = EvalAccumulator(21), EvalAccumulator(21)
    narrow.update(truth.astype(np.uint8), pred.astype(np.uint8))
    wide.update(truth, pred)
    assert narrow.matrix.dtype == np.int64
    assert (narrow.matrix == wide.matrix).all()
    assert narrow.matrix.sum() == truth.size - 1
    hand = EvalAccumulator(21)
    hand.update(np.array([[20, 1]], np.uint8), np.array([[20, 1]], np.uint8))
    assert hand.global_accuracy() == 1.0 and hand.matrix[20, 20] == 1


def test_two_class_hand_values():
    # matrix [[3,1],[1,3]]: IoU0 = 3/5, IoU1 = 3/5, accuracy 6/8
    acc = EvalAccumulator(2)
    acc.update(np.array([0, 0, 0, 0, 1, 1, 1, 1]),
               np.array([0, 0, 0, 1, 0, 1, 1, 1]))
    assert acc.mean_iou() == pytest.approx(0.6)
    assert acc.global_accuracy() == pytest.approx(0.75)
    assert_allclose(acc.per_class_iou(), [0.6, 0.6])


def test_three_class_hand_values():
    # [[2,1,0],[0,3,1],[1,0,2]]
    # IoU: 2/4, 3/5, 2/4 -> mean 8/15; accuracy 7/10
    acc = EvalAccumulator(3)
    truth = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
    pred = np.array([0, 0, 1, 1, 1, 1, 2, 0, 2, 2])
    acc.update(truth, pred)
    assert acc.mean_iou() == pytest.approx(8 / 15)
    assert acc.global_accuracy() == pytest.approx(0.7)


def test_ignore_pixels_dropped():
    acc = EvalAccumulator(2)
    truth = np.array([0, 255, 1, 255])
    pred = np.array([0, 1, 1, 0])  # predictions under ignore are irrelevant
    acc.update(truth, pred)
    assert acc.matrix.sum() == 2
    assert acc.global_accuracy() == 1.0


def test_absent_class_excluded_from_mean():
    acc = EvalAccumulator(3)
    acc.update(np.array([0, 0, 1]), np.array([0, 0, 1]))
    ious = acc.per_class_iou()
    assert np.isnan(ious[2]) and ious[0] == 1.0
    assert acc.mean_iou() == 1.0
    assert acc.excluded_classes() == [2]


def test_accumulation_over_batches():
    whole = EvalAccumulator(2)
    split = EvalAccumulator(2)
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, size=100)
    pred = rng.integers(0, 2, size=100)
    whole.update(truth, pred)
    split.update(truth[:37], pred[:37])
    split.update(truth[37:], pred[37:])
    assert (whole.matrix == split.matrix).all()


def test_summary_keys():
    acc = EvalAccumulator(2)
    acc.update(np.array([0, 1]), np.array([0, 1]))
    s = acc.summary()
    assert s["mean_iou"] == 1.0 and s["global_accuracy"] == 1.0
    assert s["per_class_iou"] == [1.0, 1.0]


@pytest.mark.parametrize("side", ["truth", "predicted"])
def test_float_label_maps_raise_data_error(side):
    maps = {"truth": np.array([[[0, 1]]]), "predicted": np.array([[[0, 1]]])}
    maps[side] = np.array([[[0.5, 1.0]]])
    with pytest.raises(DataError, match=side):
        EvalAccumulator(2).update(maps["truth"], maps["predicted"])


def test_errors():
    acc = EvalAccumulator(2)
    with pytest.raises(DataError):
        acc.update(np.array([0, 2]), np.array([0, 0]))  # label out of range
    with pytest.raises(DataError):
        acc.update(np.array([0]), np.array([0, 0]))  # shape mismatch
    with pytest.raises(UsageError):
        EvalAccumulator(3).mean_iou()  # nothing accumulated
    with pytest.raises(DataError):
        EvalAccumulator(1)
