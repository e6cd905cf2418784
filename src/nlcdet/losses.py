"""Training objectives: Huber-based coordinate losses and cross-entropy, each
returning its analytic gradient, and their weighted total."""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import EmptyForeground, InvalidValue, LabelError, ShapeError
from .geometry import _is_finite_real

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
            if not (_is_finite_real(value) and value >= 0):
                raise InvalidValue(
                    f"loss weight {f.name} (lambda_{f.name}) must be a finite number >= 0, got {value}"
                )


def _require_delta(delta) -> None:
    if not (_is_finite_real(delta) and delta > 0):
        raise InvalidValue(f"delta must be positive and finite, got {delta!r}")


def huber(r, delta: float):
    """Huber penalty: r^2/2 for |r| <= delta, delta*(|r| - delta/2) beyond.

    Computed as c * (|r| - c/2) with c = min(|r|, delta): below delta,
    |r| - |r|/2 is exactly |r|/2, so every value has the bits of the
    two-branch formula, and none overflows unless its penalty does.
    """
    _require_delta(delta)
    a = np.abs(np.asarray(r, dtype=float))
    c = np.minimum(a, delta)
    return c * (a - 0.5 * c)


def _new_arrays(rows: int):
    """Buffers for a public loss call: a new (rows, cols) array per request."""
    return lambda name, cols: np.empty((rows, cols))


def _masked_huber(pred, target, fg, count: int, delta: float, take):
    """Kernel of the masked Huber losses: ``pred`` and ``target`` are (N, C)
    float rows, ``fg`` the (N*C,) bool mask of their foreground elements and
    ``count`` the foreground rows.  The residual, and then the clipped step
    of the foreground, go into ``take``'s ``diff`` buffer and the gradient
    into its ``grad`` buffer; the loss sums the foreground residuals'
    :func:`huber` terms in row order.

    The foreground run and its Huber terms are new arrays: a boolean take
    into a new array is faster here than ``np.compress`` into a buffer.
    """
    if count == 0:
        raise EmptyForeground("masked loss undefined with zero foreground points")
    cols = pred.shape[1]
    diff = np.subtract(pred, target, out=take("diff", cols))
    r = diff.reshape(-1)[fg]
    loss = float(huber(r, delta).sum()) / count
    # the gradient clip(r, -delta, delta) / count; two ufuncs run faster than np.clip
    step = np.maximum(r, -delta, out=diff.reshape(-1)[: len(r)])
    np.minimum(step, delta, out=step)
    step /= count
    grad = take("grad", cols)
    grad.fill(0.0)
    grad.reshape(-1)[fg] = step
    return loss, grad


def _foreground(foreground) -> np.ndarray:
    """A mask as a flat bool array: entries must be bools, or numbers 0 or 1."""
    fg = np.asarray(foreground).reshape(-1)
    if fg.dtype != bool:
        if fg.dtype.kind not in "iuf" or not ((fg == 0) | (fg == 1)).all():
            raise InvalidValue("foreground mask entries must be bool, 0 or 1")
        fg = fg == 1
    return fg


def _masked_loss(pred, target, foreground, delta):
    _require_delta(delta)
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    fg = _foreground(foreground)
    if pred.ndim == 0 or pred.shape != target.shape or pred.shape[0] != fg.shape[0]:
        raise InvalidValue("prediction, target, and mask shapes are inconsistent")
    rows = (len(fg), math.prod(pred.shape[1:]))
    loss, grad = _masked_huber(pred.reshape(rows), target.reshape(rows), np.repeat(fg, rows[1]),
                               int(fg.sum()), delta, _new_arrays(rows[0]))
    return loss, grad.reshape(pred.shape)


def nlc_loss(pred_nlc, gt_nlc, foreground, delta: float):
    """Foreground-averaged Huber loss on per-point NLC predictions.

    The Huber penalty applies component-wise and sums over the three NLC
    channels; background points contribute nothing and receive zero
    gradient.  ``foreground`` holds one bool, 0 or 1 per point, and
    ``delta`` is a finite positive number, else ``InvalidValue``.  Returns
    (loss, grad w.r.t. predictions).
    """
    return _masked_loss(pred_nlc, gt_nlc, foreground, delta)


def center_loss(pred_offsets, gt_offsets, foreground, delta: float):
    """Foreground-averaged Huber loss on point-to-center offset predictions
    (m), with the inputs of :func:`nlc_loss`."""
    return _masked_loss(pred_offsets, gt_offsets, foreground, delta)


def _class_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels`` as class indices in [0, k): bools, integers, or finite
    integral floats, else LabelError."""
    if labels.dtype.kind == "f":
        if not (np.isfinite(labels).all() and (np.floor(labels) == labels).all()):
            raise LabelError("labels must be integers, got a non-integral or non-finite value")
    elif labels.dtype.kind not in "biu":
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    return labels.astype(np.intp)


def _cross_entropy(logits, labels, take):
    """Kernel of :func:`cross_entropy` on (M, K) float logits, K >= 2, and M
    bool or integer labels in [0, K).  The row max and log-partition, the shifted
    logits and the gradient are ``take``'s ``row_max``, ``log_z``,
    ``shifted`` and ``grad`` buffers.  The label positions are read and
    written through the flat index arange(M)*K + label; the index and the M
    logits read through it are the two new arrays."""
    m, k = logits.shape
    # the row max, the row sum and the shifts column by column: with few
    # classes this is faster than an axis-1 reduction or a broadcast, and
    # computes the same values
    row_max = np.maximum(logits[:, 0], logits[:, 1], out=take("row_max", 1)[:, 0])
    for j in range(2, k):
        np.maximum(row_max, logits[:, j], out=row_max)
    shifted = take("shifted", k)
    for j in range(k):
        np.subtract(logits[:, j], row_max, out=shifted[:, j])
    grad = np.exp(shifted, out=take("grad", k))
    log_z = np.add(grad[:, 0], grad[:, 1], out=take("log_z", 1)[:, 0])
    for j in range(2, k):
        log_z += grad[:, j]
    np.log(log_z, out=log_z)
    index = np.arange(0, m * k, k)
    index += labels
    picked = shifted.reshape(-1)[index]
    loss = float(np.subtract(log_z, picked, out=picked).sum()) / m
    for j in range(k):
        np.subtract(shifted[:, j], log_z, out=grad[:, j])
    np.exp(grad, out=grad)
    np.subtract.at(grad.reshape(-1), index, 1.0)
    grad /= m
    return loss, grad


def cross_entropy(logits, labels):
    """Mean cross-entropy over rows of (M, K) logits, one label per row.

    Numerically stabilized by max-subtraction.  Returns (loss, grad) with
    grad = (softmax - one_hot) / M.  Logits that are not 2-D, no rows, or a
    label count other than M raise ShapeError; labels must be bools,
    integers or finite integral floats in [0, K), else LabelError.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels).reshape(-1)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (M, K), got shape {logits.shape}")
    m, k = logits.shape
    if m == 0:
        raise ShapeError("need at least one row of logits")
    if len(labels) != m:
        raise ShapeError(f"need one label per row: {len(labels)} labels for {m} rows")
    if k < 2:
        raise InvalidValue("need at least 2 classes")
    return _cross_entropy(logits, _class_labels(labels, k), _new_arrays(m))


def total_loss(losses: Mapping[str, float], weights: LossWeights = LossWeights()) -> float:
    """Sum of ``weights.<c> * losses[c]`` over the ``LossWeights`` fields that
    ``losses`` holds (at least one), added in field order from the first term;
    other keys are ignored."""
    terms = (getattr(weights, f.name) * losses[f.name] for f in fields(LossWeights) if f.name in losses)
    return reduce(operator.add, terms)
