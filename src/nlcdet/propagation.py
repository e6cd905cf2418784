"""Bidirectional point/pixel feature propagation with analytic backward passes.

Grid features are (C, H, W) arrays and point features (N, C) rows;
:func:`to_rows` and :func:`to_grid` turn a grid into its (H*W, C) pixel rows
and back.  Projected coordinates are continuous (u, v) pixels: the scatter
direction bins by floor(u), floor(v) with the pixel-binning rule of
:mod:`nlcdet.geometry` (the same rule the ground-truth NLC map and the
synthetic depth image use); the gather direction samples grid values
located at integer (u, v) positions with bilinear weights and zero padding
outside the image.  Points with NaN, infinite or huge coordinates fall
outside in both directions; so do points behind the camera, which
:func:`nlcdet.geometry.project_points` gives NaN coordinates.

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
The fusion blocks that consume projected features are :mod:`nlcdet.layers`'s.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .geometry import _float_rows, _pixel_cells, _require_image_size

# the one re-export: ``perfbench/tracing.py``'s SPANS name the fusion blocks
# ``propagation.fuse_*``, a need that ROADMAP item 1b's library follow-up removes
from .layers import fuse_i2p, fuse_i2p_backward, fuse_p2i, fuse_p2i_backward

__all__ = [
    "ProjectionPlan", "to_rows", "to_grid", "point_to_pixel", "point_to_pixel_backward",
    "pixel_to_point", "pixel_to_point_backward",
    "fuse_p2i", "fuse_p2i_backward", "fuse_i2p", "fuse_i2p_backward",  # the re-export above
]


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


def to_rows(grid: np.ndarray) -> np.ndarray:
    """(C, H, W) grid as (H*W, C) rows, a view where the grid's layout allows."""
    return grid.reshape(grid.shape[0], -1).T


def to_grid(rows: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`to_rows`: (H*W, C) rows as a (C, H, W) grid, a view."""
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
        rows = to_rows(grid)
        if len(rows) != self.height * self.width:
            raise ShapeError(
                f"grid of {len(rows)} pixels for a {self.height}x{self.width} plan"
            )
        return rows[pixels]

    def _write(self, rows: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """(K, C) rows at ``pixels`` as a (C, H, W) view of zero (H*W, C) rows."""
        out = np.zeros((self.height * self.width,) + rows.shape[1:], dtype=rows.dtype)
        out[pixels] = rows
        return to_grid(out, self.height, self.width)

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
