"""Training objectives: Huber-based coordinate losses, cross-entropy, and the
weighted total, each returning its analytic gradient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyForeground, LabelError

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
    """Weights for the auxiliary loss terms; all default to 1."""

    nlc: float = 1.0
    sem2d: float = 1.0
    sem3d: float = 1.0
    ctr: float = 1.0


def huber(r, delta: float = 1.0):
    """Huber penalty: r^2/2 for |r| <= delta, delta*(|r| - delta/2) beyond."""
    if delta <= 0:
        raise ValueError("delta must be positive")
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
        raise ValueError("prediction, target, and mask shapes are inconsistent")
    n_pos = int(fg.sum())
    if n_pos == 0:
        raise EmptyForeground("masked loss undefined with zero foreground points")
    diff = pred - target
    loss = float(huber(diff[fg], delta).sum()) / n_pos
    grad = np.zeros_like(pred)
    grad[fg] = _huber_grad(diff[fg], delta) / n_pos
    return loss, grad


def nlc_loss(pred_nlc, gt_nlc, foreground, delta: float = 1.0):
    """Foreground-averaged Huber loss on per-point NLC predictions.

    The Huber penalty applies component-wise and sums over the three NLC
    channels; background points contribute nothing and receive zero
    gradient.  Returns (loss, grad w.r.t. predictions).
    """
    return _masked_huber(pred_nlc, gt_nlc, foreground, delta)


def center_loss(pred_offsets, gt_offsets, foreground, delta: float = 1.0):
    """Foreground-averaged Huber loss on point-to-center offset predictions (m)."""
    return _masked_huber(pred_offsets, gt_offsets, foreground, delta)


def cross_entropy(logits, labels):
    """Mean cross-entropy over rows of (M, K) logits.

    Numerically stabilized by max-subtraction.  Returns (loss, grad) with
    grad = (softmax - one_hot) / M.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    m, k = logits.shape
    if k < 2:
        raise ValueError("need at least 2 classes")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(m), labels]))
    softmax = np.exp(shifted - log_z[:, None])
    grad = softmax
    grad[np.arange(m), labels] -= 1.0
    return loss, grad / m


def total_loss(
    l_nlc: float,
    l_sem2d: float,
    l_sem3d: float,
    l_ctr: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """Weighted sum of the four auxiliary objectives."""
    return (
        weights.nlc * l_nlc
        + weights.sem2d * l_sem2d
        + weights.sem3d * l_sem3d
        + weights.ctr * l_ctr
    )
