"""Scoring a network's plain predictions, for the tests that train one."""
from __future__ import annotations

from stackseg.errors import DataError
from stackseg.metrics import EvalAccumulator


def evaluate(net, samples):
    """Score plain single-scale predictions against sample labels."""
    acc = EvalAccumulator(net.config.num_classes)
    for s in samples:
        if not s.labeled:
            raise DataError(f"sample {s.name} has no labels to score against")
        acc.update(s.labels, net.predict(s.image[None])[0])
    return acc
