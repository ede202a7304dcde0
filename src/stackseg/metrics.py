"""Segmentation quality metrics over a streaming confusion matrix."""
from __future__ import annotations

import numpy as np

from .data import IGNORE_INDEX
from .errors import DataError, UsageError


class EvalAccumulator:
    """Confusion matrix fed batch by batch; row = truth, column = predicted.
    Pixels labelled IGNORE_INDEX are not counted."""

    def __init__(self, num_classes):
        if num_classes < 2:
            raise DataError(f"num_classes={num_classes}, need >= 2")
        self.num_classes = num_classes
        self.matrix = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, truth, predicted):
        truth = np.asarray(truth)
        predicted = np.asarray(predicted)
        if truth.shape != predicted.shape:
            raise DataError(f"shape mismatch: truth {truth.shape} vs "
                            f"predicted {predicted.shape}")
        for name, a in (("truth", truth), ("predicted", predicted)):
            if not np.can_cast(a.dtype, np.intp, "same_kind"):
                raise DataError(f"{name} labels must be integers, not "
                                f"{a.dtype}")
        keep = truth != IGNORE_INDEX
        t = truth[keep].ravel()
        p = predicted[keep].ravel()
        c = self.num_classes
        if t.size and (t.min() < 0 or t.max() >= c):
            raise DataError(f"truth labels outside [0, {c})")
        if p.size and (p.min() < 0 or p.max() >= c):
            raise DataError(f"predicted labels outside [0, {c})")
        # widened first: t * c + p wraps in uint8 from 17 classes on
        index = (t.astype(np.intp, casting="same_kind") * c
                 + p.astype(np.intp, casting="same_kind"))
        self.matrix += np.bincount(index, minlength=c * c).reshape(c, c)

    def _require_pixels(self):
        if self.matrix.sum() == 0:
            raise UsageError("no pixels accumulated yet")

    def global_accuracy(self):
        """Correct pixels over all counted pixels."""
        self._require_pixels()
        return float(np.trace(self.matrix) / self.matrix.sum())

    def per_class_iou(self):
        """IoU per class; nan where a class never occurs on either side."""
        self._require_pixels()
        m = self.matrix.astype(np.float64)
        tp = np.diag(m)
        denom = m.sum(axis=1) + m.sum(axis=0) - tp
        with np.errstate(invalid="ignore"):
            return np.where(denom > 0, tp / denom, np.nan)

    def mean_iou(self):
        """Mean IoU over classes that occur; absent classes are excluded."""
        iou = self.per_class_iou()
        present = ~np.isnan(iou)
        if not present.any():
            raise UsageError("every class is empty; nothing to average")
        return float(iou[present].mean())

    def excluded_classes(self):
        self._require_pixels()
        return [int(i) for i in np.flatnonzero(np.isnan(self.per_class_iou()))]

    def summary(self):
        iou = self.per_class_iou()
        return {
            "mean_iou": self.mean_iou(),
            "global_accuracy": self.global_accuracy(),
            "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
            "excluded_classes": self.excluded_classes(),
        }
