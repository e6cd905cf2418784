"""Bidirectional point/pixel feature propagation with analytic backward passes.

Grid features are (C, H, W) arrays; point features are (N, C).  Projected
coordinates are continuous (u, v) pixels: the scatter direction bins by
floor(u), floor(v) with the pixel-binning rule of :mod:`nlcdet.geometry`
(the same rule the ground-truth NLC map and the synthetic depth image use);
the gather direction samples grid values located at integer (u, v) positions
with bilinear weights and zero padding outside the image.  Points with NaN,
infinite or huge coordinates fall outside in both directions.

:class:`ProjectionPlan` is the one implementation of both directions: it
holds them as sparse matrices over a fixed set of coordinates, and its
methods are deterministic for a fixed point order.  The one-shot functions
build a plan per call.  The two that sum over points (:func:`point_to_pixel`
and :func:`pixel_to_point_backward`) first sort the points canonically, so
their results are bit-identical under permutation of the input points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import _pixel_cells

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


@dataclass
class DenseLayer:
    """Shared per-point linear map / 1x1 convolution: y = W x + b."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def init(in_channels: int, out_channels: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_channels)
        return DenseLayer(
            weights=rng.normal(0.0, scale, size=(out_channels, in_channels)),
            bias=np.zeros(out_channels),
        )


def _linear(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """Apply the layer to (M, C_in) rows."""
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"layer expects {layer.in_channels} channels, got {x.shape[1]}"
        )
    return x @ layer.weights.T + layer.bias


def _linear_backward(layer: DenseLayer, x: np.ndarray, d_out: np.ndarray):
    """Gradients of :func:`_linear` w.r.t. its input rows and its parameters."""
    grad = DenseLayer(weights=d_out.T @ x, bias=d_out.sum(axis=0))
    return d_out @ layer.weights, grad


def _bilinear_weights(coords: np.ndarray, height: int, width: int):
    """Point rows, flat cells and weights of zero-padded bilinear sampling.

    Only points with a neighbor in the image, u in [-1, W) and v in [-1, H),
    reach the int cast, so NaN, +-inf and huge coordinates sample nothing.
    """
    uv = np.asarray(coords, dtype=float).reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    near = np.nonzero((u >= -1) & (u < width) & (v >= -1) & (v < height))[0]
    u, v = u[near], v[near]
    x0 = np.floor(u).astype(int)
    y0 = np.floor(v).astype(int)
    fx, fy = u - x0, v - y0
    rows, cells, weights = [], [], []
    for dy, dx, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (0, 1, fx * (1 - fy)),
        (1, 0, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xs, ys = x0 + dx, y0 + dy
        inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        rows.append(near[inside])
        cells.append(ys[inside] * width + xs[inside])
        weights.append(wgt[inside])
    return np.concatenate(rows), np.concatenate(cells), np.concatenate(weights)


class ProjectionPlan:
    """Precomputed sparse operators for a fixed set of projected coordinates.

    Caches the scatter-average matrix (pixels x points) and the bilinear
    gather matrix (points x pixels) so repeated propagation through the same
    scene costs two CSR products instead of re-binning every call.  Both
    backwards are exact transposes, so the adjoint identity holds by
    construction.
    """

    def __init__(self, coords: np.ndarray, height: int, width: int):
        from scipy import sparse

        uv = np.asarray(coords, dtype=float).reshape(-1, 2)
        n = len(uv)
        self.height, self.width, self.count = height, width, n

        cells, valid = _pixel_cells(uv[:, 0], uv[:, 1], height, width)
        cells = cells[valid]
        counts = np.bincount(cells, minlength=height * width).astype(float)
        idx = np.nonzero(valid)[0]
        self.scatter_matrix = sparse.csr_matrix(
            (1.0 / counts[cells], (cells, idx)), shape=(height * width, n)
        )
        self.scatter_matrix_t = self.scatter_matrix.T.tocsr()

        rows, cells, weights = _bilinear_weights(uv, height, width)
        self.gather_matrix = sparse.csr_matrix(
            (weights, (rows, cells)), shape=(n, height * width)
        )
        self.gather_matrix_t = self.gather_matrix.T.tocsr()

    def scatter(self, features: np.ndarray) -> np.ndarray:
        out = self.scatter_matrix @ features
        return out.T.reshape(-1, self.height, self.width)

    def scatter_grad(self, grad_output: np.ndarray) -> np.ndarray:
        c = grad_output.shape[0]
        return self.scatter_matrix_t @ grad_output.reshape(c, -1).T

    def gather(self, grid: np.ndarray) -> np.ndarray:
        c = grid.shape[0]
        return self.gather_matrix @ grid.reshape(c, -1).T

    def gather_grad(self, grad_points: np.ndarray) -> np.ndarray:
        out = self.gather_matrix_t @ grad_points
        return out.T.reshape(-1, self.height, self.width)


def _canonical_order(coords: np.ndarray, payload: np.ndarray, height: int, width: int):
    """Points and their payload rows in a deterministic total order.

    The order itself is arbitrary (raw byte order of each point's cell,
    coordinates and payload), but it is a pure function of each row's
    content, which makes every downstream sum bit-exact under permutation of
    the input points.
    """
    cells, _ = _pixel_cells(coords[:, 0], coords[:, 1], height, width)
    rows = np.ascontiguousarray(np.column_stack([cells.astype(float), coords, payload]))
    view = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    order = np.argsort(view.ravel(), kind="stable")
    return coords[order], payload[order]


def _uv(coords: np.ndarray, count: int) -> np.ndarray:
    uv = np.asarray(coords, dtype=float).reshape(-1, 2)
    if len(uv) != count:
        raise ShapeError(f"{len(uv)} coordinates for {count} points")
    return uv


def point_to_pixel(
    features: np.ndarray, coords: np.ndarray, height: int, width: int
) -> np.ndarray:
    """Scatter-average point features onto a pixel grid.

    Pixel (r, c) receives the mean feature of all points with
    floor(v) == r, floor(u) == c; empty pixels are exactly zero.  Points
    projecting outside the grid are ignored.
    """
    g = np.asarray(features, dtype=float)
    uv = _uv(coords, len(g))
    uv, g = _canonical_order(uv, g, height, width)
    return ProjectionPlan(uv, height, width).scatter(g)


def point_to_pixel_backward(
    grad_output: np.ndarray, coords: np.ndarray, num_points: int
) -> np.ndarray:
    """Backward of :func:`point_to_pixel` w.r.t. the point features.

    A point landing in pixel (r, c) shared by n points receives
    grad_output[:, r, c] / n; out-of-grid points receive zero.
    """
    go = np.asarray(grad_output, dtype=float)
    uv = _uv(coords, num_points)
    return ProjectionPlan(uv, *go.shape[1:]).scatter_grad(go)


def pixel_to_point(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Bilinear gather of grid features at continuous point projections."""
    f = np.asarray(grid, dtype=float)
    return ProjectionPlan(coords, *f.shape[1:]).gather(f)


def pixel_to_point_backward(
    grad_points: np.ndarray, coords: np.ndarray, height: int, width: int
) -> np.ndarray:
    """Backward of :func:`pixel_to_point` w.r.t. the grid features."""
    gp = np.asarray(grad_points, dtype=float)
    uv = _uv(coords, len(gp))
    uv, gp = _canonical_order(uv, gp, height, width)
    return ProjectionPlan(uv, height, width).gather_grad(gp)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _rows(grid: np.ndarray) -> np.ndarray:
    """(C, H, W) grid as (H*W, C) rows."""
    return grid.reshape(grid.shape[0], -1).T


def _grid(rows: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`_rows`."""
    return rows.T.reshape(-1, height, width)


@dataclass(frozen=True)
class FusionCache:
    """What a fusion block's backward needs from its forward, as (M, C) rows."""

    x_aux: np.ndarray
    pre1: np.ndarray  # pre-activation of the first layer
    cat: np.ndarray  # input of the second layer: relu(pre1) next to the main input
    pre2: np.ndarray  # pre-activation of the second layer
    layers: tuple[DenseLayer, DenseLayer]


def _fuse_forward(x_aux: np.ndarray, x_main: np.ndarray, layers):
    """Shared fusion core on row-major features: relu(L2(cat(relu(L1(aux)), main)))."""
    l1, l2 = layers
    pre1 = _linear(l1, x_aux)
    cat = np.concatenate([_relu(pre1), x_main], axis=1)
    pre2 = _linear(l2, cat)
    return _relu(pre2), FusionCache(x_aux, pre1, cat, pre2, layers)


def _fuse_backward(grad_out: np.ndarray, cache: FusionCache):
    l1, l2 = cache.layers
    d_cat, g_l2 = _linear_backward(l2, cache.cat, grad_out * (cache.pre2 > 0))
    k = l1.out_channels
    d_aux, g_l1 = _linear_backward(l1, cache.x_aux, d_cat[:, :k] * (cache.pre1 > 0))
    return d_aux, d_cat[:, k:], (g_l1, g_l2)


def fuse_p2i(
    scattered: np.ndarray, image: np.ndarray, layers: tuple[DenseLayer, DenseLayer]
):
    """Refine a scattered point-feature map and merge it with image features.

    Both inputs are (C, H, W); the merge is pixel-wise:
    relu(L2(cat(relu(L1(scattered)), image))).  Returns (output, cache) for
    the matching backward.
    """
    if scattered.shape[1:] != image.shape[1:]:
        raise ShapeError("grids must share spatial dimensions")
    out, cache = _fuse_forward(_rows(scattered), _rows(image), layers)
    return _grid(out, *image.shape[1:]), cache


def fuse_p2i_backward(grad_out: np.ndarray, cache: FusionCache):
    """Gradients of fuse_p2i w.r.t. (scattered, image, layer parameters)."""
    h, w = grad_out.shape[1:]
    d_aux, d_main, g_layers = _fuse_backward(_rows(grad_out), cache)
    return _grid(d_aux, h, w), _grid(d_main, h, w), g_layers


def fuse_i2p(
    gathered: np.ndarray, points: np.ndarray, layers: tuple[DenseLayer, DenseLayer]
):
    """Point-wise analogue of :func:`fuse_p2i` on (N, C) features."""
    if gathered.shape[0] != points.shape[0]:
        raise ShapeError("point counts must match")
    return _fuse_forward(gathered, points, layers)


def fuse_i2p_backward(grad_out: np.ndarray, cache: FusionCache):
    """Gradients of fuse_i2p w.r.t. (gathered, points, layer parameters)."""
    return _fuse_backward(grad_out, cache)
