"""Bidirectional point/pixel feature propagation with analytic backward passes.

Grid features are (C, H, W) arrays; point features are (N, C); the fusion
blocks take (M, C) rows on both sides, pixel rows (H*W, C) for
point-to-pixel fusion and point rows for image-to-point fusion.  Projected
coordinates are continuous (u, v) pixels: the scatter direction bins by
floor(u), floor(v) with the pixel-binning rule of :mod:`nlcdet.geometry`
(the same rule the ground-truth NLC map and the synthetic depth image use);
the gather direction samples grid values located at integer (u, v) positions
with bilinear weights and zero padding outside the image.  Points with NaN,
infinite or huge coordinates fall outside in both directions; so do points
behind the camera, which :func:`nlcdet.geometry.project_points` gives NaN
coordinates.

:class:`ProjectionPlan` is the one implementation of both directions: for a
fixed set of coordinates it keeps, per direction, the pixels the points
touch and one sparse matrix over those pixels only, each built on its first
use, and its methods are deterministic for a fixed point order.  Both
directions store that matrix as a (points x pixels) CSR, the gather matrix
and the transpose of the scatter-average matrix, written straight from the
binning and sampling rules with no COO matrix or sort; the products in the
other orientation apply its CSC transpose view.  Products
that read a grid take just the touched rows of its (H*W, C) view, not a copy
of the whole grid, and products that write one place their rows into zeros.
Each one-shot function is one method of a plan built over its coordinates.

The dense layer, the ReLU and the fusion blocks write into arrays the caller
passes, so that a training run can reuse one workspace: ``out=`` for the
first two, and for a fusion block ``buffers``, a callable
``(name, cols[, dtype]) -> (M, cols) array`` that hands out the same array
for the same name on every call.  Without buffers each call returns new
arrays.  A fusion forward writes ``pre1``, ``hidden``, ``pre2`` and
``out``, which hold its cache and output until the matching backward reads
them; a backward writes ``mask``, ``masked``, ``d_hidden``, ``d_main`` and
``d_aux``, the last two the gradients it returns.  No fusion array is wider
than the widest layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .geometry import _float_rows, _pixel_cells, _require_image_size

__all__ = [
    "DenseLayer",
    "ProjectionPlan",
    "FusionCache",
    "point_to_pixel",
    "point_to_pixel_backward",
    "pixel_to_point",
    "pixel_to_point_backward",
    "fuse_p2i",
    "fuse_p2i_backward",
    "fuse_i2p",
    "fuse_i2p_backward",
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


def _linear(layer: DenseLayer, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the layer to (M, C_in) rows, into ``out`` when it is given."""
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"layer expects {layer.in_channels} channels, got {x.shape[1]}"
        )
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


def _param_grad(x: np.ndarray, d_out: np.ndarray, grad: DenseLayer) -> None:
    """Write the parameter gradients of :func:`_linear` into ``grad``'s arrays."""
    np.matmul(x.T, d_out, out=grad.weights.T)
    _bias_grad(d_out, grad)


def _linear_backward(layer: DenseLayer, x: np.ndarray, d_out: np.ndarray, grad: DenseLayer,
                     out: np.ndarray | None = None):
    """Gradient of :func:`_linear` w.r.t. its input rows, into ``out`` when it
    is given; the parameter gradients are written into ``grad``, a layer
    shaped like ``layer``.

    The input gradient reads a C-contiguous (out, in) copy of the weights: on
    these shapes BLAS runs that product about twice as fast as on the
    transposed view of (in, out) storage, and the copy is a few hundred values.
    """
    _param_grad(x, d_out, grad)
    return np.matmul(d_out, np.ascontiguousarray(layer.weights), out=out)


def _bilinear_corners(uv: np.ndarray, height: int, width: int):
    """The points of zero-padded bilinear sampling, and their four neighbors.

    Returns the rows of the points with a bilinear neighbor in the image,
    u in [-1, W) and v in [-1, H), and for each neighbor in the order 00,
    01, 10, 11 (row offset, then column offset) a mask over those rows of
    the ones that have it inside the image, with its flat cells and weights
    there.  The order is ascending in cell for each point.  Only those
    points reach the int cast, so NaN, +-inf and huge coordinates sample
    nothing; their floors lie in [-1, W) x [-1, H), so one bound per axis
    decides whether a neighbor is inside.
    """
    u, v = uv[:, 0], uv[:, 1]
    near = np.nonzero((u >= -1) & (u < width) & (v >= -1) & (v < height))[0]
    u, v = u[near], v[near]
    x0 = np.floor(u).astype(int)
    y0 = np.floor(v).astype(int)
    fx, fy = u - x0, v - y0
    gx, gy = 1 - fx, 1 - fy
    in_x, in_y = (x0 >= 0, x0 < width - 1), (y0 >= 0, y0 < height - 1)
    base = y0 * width + x0
    corners = []
    for dy, dx, wgt in ((0, 0, gx * gy), (0, 1, fx * gy), (1, 0, gx * fy), (1, 1, fx * fy)):
        inside = in_y[dy] & in_x[dx]
        corners.append((inside, base[inside] + (dy * width + dx), wgt[inside]))
    return near, corners


def _index_dtype(count: int, size: int):
    """The index dtype of the matrices of a plan over ``count`` points and
    ``size`` pixels: int32, as SciPy picks for them, unless one of them could
    reach 2**31 rows, columns or entries; each has at most 4 entries a row."""
    return np.int32 if max(4 * count, size) < 2**31 else np.int64


def _touched(size: int, dtype, *cells: np.ndarray):
    """The distinct values of the ``cells`` arrays (flat cells below
    ``size``), sorted, and for each array its entries' indices among them,
    of ``dtype``.

    A mark over all cells and an index lookup, not a sort: at KITTI size
    (466k cells, 162k entries) this is about 2 ms, less than ``np.unique``.
    """
    mark = np.zeros(size, dtype=bool)
    for c in cells:
        mark[c] = True
    pixels = np.flatnonzero(mark)
    lookup = np.empty(size, dtype=dtype)
    lookup[pixels] = np.arange(len(pixels), dtype=dtype)
    return pixels, [lookup[c] for c in cells]


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, columns: int):
    """The CSR matrix of these arrays, which are in canonical order: each
    row's columns ascending, none twice."""
    from scipy import sparse

    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, columns))


def _rows(grid: np.ndarray) -> np.ndarray:
    """(C, H, W) grid as (H*W, C) rows, a view where the grid's layout allows."""
    return grid.reshape(grid.shape[0], -1).T


def _grid(rows: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`_rows`: (H*W, C) rows as a (C, H, W) grid, a view."""
    return rows.T.reshape(-1, height, width)


class _Operator(NamedTuple):
    """One direction of a plan."""

    pixels: np.ndarray  # (K,) flat cells its points touch, sorted
    matrix: object  # (points x K) CSR, over those K pixels only
    matrix_t: object  # its transpose, a CSC view that shares its arrays


class ProjectionPlan:
    """Sparse operators for a fixed set of projected coordinates.

    For each direction the plan keeps the pixels its points touch, sorted,
    and one sparse matrix over those pixels only, so repeated propagation
    through the same scene costs one sparse product per call instead of
    re-binning every call.  Both directions store a (points x pixels) CSR
    matrix and its transpose, a CSC view that shares its arrays: for the
    gather direction that CSR is the bilinear gather matrix, and for the
    scatter direction it is the transpose of the scatter-average matrix, so
    ``scatter`` applies the view and ``scatter_grad`` the CSR.  Each
    backward thus applies the transpose of its forward matrix, and the
    adjoint identity holds by construction.

    Each CSR is written straight from the binning or sampling rule in
    canonical order, with int32 indices (int64 only where a matrix could
    outgrow them), as SciPy's COO path would leave it but without its copies
    and sort: a scatter row holds at most one entry, the point's pixel, and
    a gather row its in-image neighbors in the order 00, 01, 10, 11, which
    is ascending in pixel.  Each output row of a product therefore sums its
    terms in ascending point or pixel order.

    The reading products (``gather``, ``scatter_grad``) index the touched
    rows of the grid's (H*W, C) view: a product with the whole view would
    make SciPy copy all of it to C order, though on a KITTI frame the points
    touch a small share of the pixels.  The writing products (``scatter``,
    ``gather_grad``) place their rows into a zero (H*W, C) array and return
    it as a (C, H, W) view, the layout of a grid made from pixel rows.  Each
    direction is built on first use and then kept (a new transposed view per
    call costs more than the product on a training scene), so a plan that
    only scatters never builds the gather operator; the plan keeps its own
    copy of the coordinates they are built from.  ``height`` and ``width``
    are integers of at least 1, else InvalidValue.  Point inputs must hold
    ``count`` rows and grids H*W pixels; any other size raises ShapeError.
    """

    def __init__(self, coords: np.ndarray, height: int, width: int):
        _require_image_size(height, width)
        self.uv = _float_rows(coords, 2, "coordinates").copy()
        self.height, self.width, self.count = height, width, len(self.uv)

    @cached_property
    def _scatter(self) -> _Operator:
        size = self.height * self.width
        dtype = _index_dtype(self.count, size)
        cells, valid = _pixel_cells(self.uv[:, 0], self.uv[:, 1], self.height, self.width)
        pixels, (index,) = _touched(size, dtype, cells[np.flatnonzero(valid)])
        counts = np.bincount(index, minlength=len(pixels)).astype(float)
        indptr = np.zeros(self.count + 1, dtype)
        np.cumsum(valid, out=indptr[1:])
        matrix = _csr(1.0 / counts[index], index, indptr, len(pixels))
        return _Operator(pixels, matrix, matrix.T)

    @cached_property
    def _gather(self) -> _Operator:
        size = self.height * self.width
        dtype = _index_dtype(self.count, size)
        near, corners = _bilinear_corners(self.uv, self.height, self.width)
        pixels, indices = _touched(size, dtype, *(cells for _, cells, _ in corners))
        # each near point's entry count, then each corner's entries at their
        # rows' next free positions: one 1-D pass per corner
        indptr = np.zeros(self.count + 1, dtype)
        indptr[near + 1] = sum(inside for inside, _, _ in corners)
        np.cumsum(indptr, out=indptr)
        at = indptr[near]
        data, columns = np.empty(indptr[-1]), np.empty(indptr[-1], dtype)
        for (inside, _, weights), index in zip(corners, indices):
            here = at[inside]
            data[here] = weights
            columns[here] = index
            at += inside
        matrix = _csr(data, columns, indptr, len(pixels))
        return _Operator(pixels, matrix, matrix.T)

    def _read(self, grid: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """The (K, C) rows of a (C, H, W) grid at ``pixels``.  Indexing, not
        ``np.take``: take copies a strided input whole first."""
        rows = _rows(grid)
        if len(rows) != self.height * self.width:
            raise ShapeError(
                f"grid of {len(rows)} pixels for a {self.height}x{self.width} plan"
            )
        return rows[pixels]

    def _write(self, rows: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """(K, C) rows at ``pixels`` as a (C, H, W) view of zero (H*W, C) rows."""
        out = np.zeros((self.height * self.width,) + rows.shape[1:], dtype=rows.dtype)
        out[pixels] = rows
        return _grid(out, self.height, self.width)

    def _check_count(self, count: int) -> None:
        if count != self.count:
            raise ShapeError(f"{count} point rows for a plan over {self.count} points")

    def scatter(self, features: np.ndarray) -> np.ndarray:
        self._check_count(len(features))
        op = self._scatter
        return self._write(op.matrix_t @ features, op.pixels)

    def scatter_grad(self, grad_output: np.ndarray) -> np.ndarray:
        op = self._scatter
        return op.matrix @ self._read(grad_output, op.pixels)

    def gather(self, grid: np.ndarray) -> np.ndarray:
        op = self._gather
        return op.matrix @ self._read(grid, op.pixels)

    def gather_grad(self, grad_points: np.ndarray) -> np.ndarray:
        self._check_count(len(grad_points))
        op = self._gather
        return self._write(op.matrix_t @ grad_points, op.pixels)


def point_to_pixel(
    features: np.ndarray, coords: np.ndarray, height: int, width: int
) -> np.ndarray:
    """Scatter-average point features onto a pixel grid.

    Pixel (r, c) receives the mean feature of all points with
    floor(v) == r, floor(u) == c; empty pixels are exactly zero.  Points
    projecting outside the grid are ignored.
    """
    return ProjectionPlan(coords, height, width).scatter(np.asarray(features, dtype=float))


def point_to_pixel_backward(
    grad_output: np.ndarray, coords: np.ndarray, num_points: int
) -> np.ndarray:
    """Backward of :func:`point_to_pixel` w.r.t. the point features.

    A point landing in pixel (r, c) shared by n points receives
    grad_output[:, r, c] / n; out-of-grid points receive zero.
    """
    go = np.asarray(grad_output, dtype=float)
    plan = ProjectionPlan(coords, *go.shape[1:])
    plan._check_count(num_points)
    return plan.scatter_grad(go)


def pixel_to_point(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Bilinear gather of grid features at continuous point projections."""
    f = np.asarray(grid, dtype=float)
    return ProjectionPlan(coords, *f.shape[1:]).gather(f)


def pixel_to_point_backward(
    grad_points: np.ndarray, coords: np.ndarray, height: int, width: int
) -> np.ndarray:
    """Backward of :func:`pixel_to_point` w.r.t. the grid features."""
    return ProjectionPlan(coords, height, width).gather_grad(np.asarray(grad_points, dtype=float))


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _fresh(rows: int):
    """Buffers for a call given none: a new (rows, cols) array per request."""
    return lambda name, cols, dtype=float: np.empty((rows, cols), dtype)


def _relu_backward(d_out: np.ndarray, pre: np.ndarray, take) -> np.ndarray:
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
        raise ShapeError(
            f"second layer expects {l2.in_channels} channels, got {k} + {x_main.shape[1]}"
        )
    pre1 = _linear(l1, x_aux, take("pre1", k))
    hidden = _relu(pre1, take("hidden", k))
    w2 = l2.weights.T  # (in, out)
    out = take("out", l2.out_channels)
    pre2 = np.matmul(hidden, w2[:k], out=take("pre2", l2.out_channels))
    pre2 += np.matmul(x_main, w2[k:], out=out)
    pre2 += l2.bias
    _relu(pre2, out)
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
    d_pre2 = _relu_backward(grad_out, cache.pre2, take)
    g2_weights = g2.weights.T  # (in, out)
    np.matmul(cache.hidden.T, d_pre2, out=g2_weights[:k])
    np.matmul(cache.x_main.T, d_pre2, out=g2_weights[k:])
    _bias_grad(d_pre2, g2)
    w2 = l2.weights  # (out, in)
    d_hidden = np.matmul(d_pre2, np.ascontiguousarray(w2[:, :k]), out=take("d_hidden", k))
    d_main = np.matmul(d_pre2, np.ascontiguousarray(w2[:, k:]),
                       out=take("d_main", cache.x_main.shape[1]))
    d_aux = _linear_backward(l1, cache.x_aux, _relu_backward(d_hidden, cache.pre1, take), g1,
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
