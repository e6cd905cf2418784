"""The toy network's layers, each with its analytic backward: the dense
layer, the ReLU, and the fusion blocks on (M, C) rows, pixel rows (H*W, C)
for point-to-pixel fusion and point rows for image-to-point fusion.

The dense layer, the ReLU and the fusion blocks write into arrays the caller
passes, so that a training run can reuse one workspace: ``out`` for the
first two, and for a fusion block ``buffers``, a callable
``(name, cols[, dtype]) -> (M, cols) array`` that hands out the same array
for the same name on every call.  Without buffers a fusion block returns
new arrays.  A fusion forward writes ``pre1``, ``hidden``, ``pre2`` and
``out``, which hold its cache and output until the matching backward reads
them; a backward writes ``mask``, ``masked``, ``d_hidden``, ``d_main`` and
``d_aux``, the last two the gradients it returns.  No fusion array is wider
than the widest layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "DenseLayer", "FusionCache", "linear", "linear_backward", "param_grad", "relu",
    "relu_backward", "fuse_p2i", "fuse_p2i_backward", "fuse_i2p", "fuse_i2p_backward",
]


@dataclass(frozen=True)
class DenseLayer:
    """Shared per-point linear map / 1x1 convolution: y = W x + b.  Frozen, so
    arrays that view a larger parameter vector stay bound to it.  ``weights``
    may be a transposed view: the toy network stores them (in, out), the
    layout the forward product runs fastest on."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]


def linear(layer: DenseLayer, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply the layer to (M, C_in) rows, into ``out``."""
    if x.shape[1] != layer.in_channels:
        raise ShapeError(f"layer expects {layer.in_channels} channels, got {x.shape[1]}")
    y = np.matmul(x, layer.weights.T, out=out)
    y += layer.bias
    return y


_ones = np.ones(0)
_ones.flags.writeable = False


def _bias_grad(d_out: np.ndarray, grad: DenseLayer) -> None:
    """Write the column sums of ``d_out`` into ``grad.bias``: one product with
    a ones vector, several times faster than ``d_out.sum(axis=0)``.  The
    vector is the leading part of one read-only module vector that grows to
    the longest ``d_out`` seen, so a call allocates nothing once it has."""
    global _ones
    ones = _ones  # this call's own reference, whatever another thread stores
    if len(ones) < len(d_out):
        ones = _ones = np.ones(len(d_out))
        ones.flags.writeable = False
    np.matmul(ones[: len(d_out)], d_out, out=grad.bias)


def param_grad(x: np.ndarray, d_out: np.ndarray, grad: DenseLayer) -> None:
    """Write the parameter gradients of :func:`linear` into ``grad``'s arrays."""
    np.matmul(x.T, d_out, out=grad.weights.T)
    _bias_grad(d_out, grad)


def linear_backward(layer: DenseLayer, x: np.ndarray, d_out: np.ndarray, grad: DenseLayer,
                    out: np.ndarray) -> np.ndarray:
    """Gradient of :func:`linear` w.r.t. its input rows, into ``out``; the
    parameter gradients are written into ``grad``, a layer shaped like
    ``layer``.

    The input gradient reads a C-contiguous (out, in) copy of the weights: on
    these shapes BLAS runs that product about twice as fast as on the
    transposed view of (in, out) storage, and the copy is a few hundred values.
    """
    param_grad(x, d_out, grad)
    return np.matmul(d_out, np.ascontiguousarray(layer.weights), out=out)


def relu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _fresh(rows: int):
    """Buffers for a call given none: a new (rows, cols) array per request."""
    return lambda name, cols, dtype=float: np.empty((rows, cols), dtype)


def relu_backward(d_out: np.ndarray, pre: np.ndarray, take) -> np.ndarray:
    """``d_out * (pre > 0)``, the gradient through ``relu(pre)``, written into
    ``take``'s ``mask`` and ``masked`` buffers."""
    mask = np.greater(pre, 0.0, out=take("mask", pre.shape[1], bool))
    return np.multiply(d_out, mask, out=take("masked", pre.shape[1]))


@dataclass(frozen=True)
class FusionCache:
    """What a fusion block's backward needs from its forward, as (M, C) rows.
    The two inputs are held by reference, so the caller keeps them unchanged
    until the backward has run."""

    x_aux: np.ndarray
    x_main: np.ndarray
    pre1: np.ndarray  # pre-activation of the first layer
    hidden: np.ndarray  # relu(pre1), the first part of the second layer's input
    pre2: np.ndarray  # pre-activation of the second layer
    layers: tuple[DenseLayer, DenseLayer]


def _fuse_forward(x_aux: np.ndarray, x_main: np.ndarray, layers, buffers=None):
    """Shared fusion core on (M, C) rows: relu(L2(cat(relu(L1(aux)), main))).

    The concatenation is never built: the second layer is one product per
    part of its input, ``hidden @ W2[:k] + main @ W2[k:] + b2`` over row
    blocks of its (in, out) weights, where ``hidden = relu(pre1)`` has k
    columns.  The second product lands in ``out`` before the ReLU does.
    """
    if x_aux.shape[0] != x_main.shape[0]:
        raise ShapeError(f"{x_aux.shape[0]} auxiliary rows for {x_main.shape[0]} main rows")
    take = buffers or _fresh(len(x_main))
    l1, l2 = layers
    k = l1.out_channels
    if k + x_main.shape[1] != l2.in_channels:
        raise ShapeError(f"second layer expects {l2.in_channels} channels, "
                         f"got {k} + {x_main.shape[1]}")
    pre1 = linear(l1, x_aux, take("pre1", k))
    hidden = relu(pre1, take("hidden", k))
    w2 = l2.weights.T  # (in, out)
    out = take("out", l2.out_channels)
    pre2 = np.matmul(hidden, w2[:k], out=take("pre2", l2.out_channels))
    pre2 += np.matmul(x_main, w2[k:], out=out)
    pre2 += l2.bias
    relu(pre2, out)
    return out, FusionCache(x_aux, x_main, pre1, hidden, pre2, layers)


def _fuse_backward(grad_out: np.ndarray, cache: FusionCache, grads, buffers=None):
    """Gradients of :func:`_fuse_forward` w.r.t. (aux, main); each weight
    gradient of the second layer is written into its own row block of
    ``grads[1]``, and each input gradient of that layer is one product with
    a C-contiguous copy of its column block of the weights."""
    take = buffers or _fresh(len(grad_out))
    l1, l2 = cache.layers
    g1, g2 = grads
    k = l1.out_channels
    d_pre2 = relu_backward(grad_out, cache.pre2, take)
    g2_weights = g2.weights.T  # (in, out)
    np.matmul(cache.hidden.T, d_pre2, out=g2_weights[:k])
    np.matmul(cache.x_main.T, d_pre2, out=g2_weights[k:])
    _bias_grad(d_pre2, g2)
    w2 = l2.weights  # (out, in)
    d_hidden = np.matmul(d_pre2, np.ascontiguousarray(w2[:, :k]), out=take("d_hidden", k))
    d_main = np.matmul(d_pre2, np.ascontiguousarray(w2[:, k:]),
                       out=take("d_main", cache.x_main.shape[1]))
    d_aux = linear_backward(l1, cache.x_aux, relu_backward(d_hidden, cache.pre1, take), g1,
                            take("d_aux", l1.in_channels))
    return d_aux, d_main


def fuse_p2i(
    scattered: np.ndarray, image: np.ndarray, layers: tuple[DenseLayer, DenseLayer], buffers=None
):
    """Refine scattered point features and merge them with image features.

    Both inputs are (H*W, C) pixel rows; the merge is pixel-wise:
    relu(L2(cat(relu(L1(scattered)), image))).  Returns (output, cache) for
    the matching backward, both written into ``buffers`` when given.
    """
    return _fuse_forward(scattered, image, layers, buffers)


def fuse_p2i_backward(grad_out: np.ndarray, cache: FusionCache, grads, buffers=None):
    """Gradients of fuse_p2i w.r.t. (scattered, image), written into
    ``buffers`` when given.

    The layer parameter gradients are written into ``grads``, a pair of
    layers shaped like the block's.
    """
    return _fuse_backward(grad_out, cache, grads, buffers)


def fuse_i2p(
    gathered: np.ndarray, points: np.ndarray, layers: tuple[DenseLayer, DenseLayer], buffers=None
):
    """Point-wise analogue of :func:`fuse_p2i` on (N, C) features."""
    return _fuse_forward(gathered, points, layers, buffers)


def fuse_i2p_backward(grad_out: np.ndarray, cache: FusionCache, grads, buffers=None):
    """Gradients of fuse_i2p w.r.t. (gathered, points); the layer parameter
    gradients are written into ``grads`` as in :func:`fuse_p2i_backward`."""
    return _fuse_backward(grad_out, cache, grads, buffers)
