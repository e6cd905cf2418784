"""Training objectives: Huber-based coordinate losses and cross-entropy, each
returning its analytic gradient, and their weighted total."""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import EmptyForeground, InvalidValue, LabelError, ShapeError

__all__ = [
    "LossWeights",
    "huber",
    "nlc_loss",
    "center_loss",
    "cross_entropy",
    "total_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Weights for the auxiliary loss terms; all default to 1.  Each must be a
    finite number >= 0: a negative weight would train its head to raise its loss."""

    nlc: float = 1.0
    sem2d: float = 1.0
    sem3d: float = 1.0
    ctr: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0):
                raise InvalidValue(
                    f"loss weight {f.name} (lambda_{f.name}) must be a finite number >= 0, got {value}"
                )


def huber(r, delta: float):
    """Huber penalty: r^2/2 for |r| <= delta, delta*(|r| - delta/2) beyond."""
    if not delta > 0:
        raise InvalidValue(f"delta must be positive, got {delta}")
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def _huber_grad(r: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(r, -delta, delta)


def _masked_huber(pred, target, foreground, delta):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    fg = np.asarray(foreground, dtype=bool).reshape(-1)
    if pred.shape != target.shape or pred.shape[0] != fg.shape[0]:
        raise InvalidValue("prediction, target, and mask shapes are inconsistent")
    n_pos = int(fg.sum())
    if n_pos == 0:
        raise EmptyForeground("masked loss undefined with zero foreground points")
    diff = (pred - target)[fg]
    loss = float(huber(diff, delta).sum()) / n_pos
    grad = np.zeros_like(pred)
    grad[fg] = _huber_grad(diff, delta) / n_pos
    return loss, grad


def nlc_loss(pred_nlc, gt_nlc, foreground, delta: float):
    """Foreground-averaged Huber loss on per-point NLC predictions.

    The Huber penalty applies component-wise and sums over the three NLC
    channels; background points contribute nothing and receive zero
    gradient.  Returns (loss, grad w.r.t. predictions).
    """
    return _masked_huber(pred_nlc, gt_nlc, foreground, delta)


def center_loss(pred_offsets, gt_offsets, foreground, delta: float):
    """Foreground-averaged Huber loss on point-to-center offset predictions (m)."""
    return _masked_huber(pred_offsets, gt_offsets, foreground, delta)


def cross_entropy(logits, labels):
    """Mean cross-entropy over rows of (M, K) logits, one label per row.

    Numerically stabilized by max-subtraction.  Returns (loss, grad) with
    grad = (softmax - one_hot) / M.  Logits that are not 2-D, or a label
    count other than M, raise ShapeError.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (M, K), got shape {logits.shape}")
    m, k = logits.shape
    if len(labels) != m:
        raise ShapeError(f"need one label per row: {len(labels)} labels for {m} rows")
    if k < 2:
        raise InvalidValue("need at least 2 classes")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    # the row max and the row sum column by column: with few classes this
    # is faster than an axis-1 reduction, and adds in the same order
    row_max = logits[:, 0].copy()
    for j in range(1, k):
        np.maximum(row_max, logits[:, j], out=row_max)
    shifted = logits - row_max[:, None]
    exp = np.exp(shifted)
    row_sum = exp[:, 0].copy()
    for j in range(1, k):
        row_sum += exp[:, j]
    log_z = np.log(row_sum)
    loss = float(np.mean(log_z - shifted[np.arange(m), labels]))
    softmax = np.exp(shifted - log_z[:, None])
    grad = softmax
    grad[np.arange(m), labels] -= 1.0
    return loss, grad / m


def total_loss(losses: Mapping[str, float], weights: LossWeights = LossWeights()) -> float:
    """Sum of ``weights.<c> * losses[c]`` over the ``LossWeights`` fields that
    ``losses`` holds (at least one), added in field order from the first term;
    other keys are ignored."""
    terms = (getattr(weights, f.name) * losses[f.name] for f in fields(LossWeights) if f.name in losses)
    return reduce(operator.add, terms)
