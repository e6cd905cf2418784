"""Point/pixel propagation operators, fusion blocks, and their backwards."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlcdet import (
    Calibration,
    DenseLayer,
    InvalidValue,
    ShapeError,
    fuse_i2p,
    fuse_p2i,
    pixel_to_point,
    pixel_to_point_backward,
    point_to_pixel,
    point_to_pixel_backward,
    project_points,
)
from nlcdet import geometry, kitti_io, propagation
from nlcdet.propagation import (
    ProjectionPlan, _bias_grad, _fuse_backward, _fuse_forward, _grid,
    _linear_backward, _rows, fuse_i2p_backward, fuse_p2i_backward,
)


class TestPointToPixel:
    def test_two_points_average(self):
        feats = np.array([[1.0], [3.0]])
        coords = np.array([[2.2, 3.7], [2.9, 3.1]])  # both bin to pixel (3, 2)
        out = point_to_pixel(feats, coords, 5, 5)
        assert out[0, 3, 2] == 2.0
        assert np.sum(out != 0) == 1

    def test_out_of_grid_ignored(self):
        feats = np.array([[5.0]])
        out = point_to_pixel(feats, np.array([[-0.5, 1.0]]), 4, 4)
        assert np.all(out == 0)

    def test_matches_bruteforce(self, rng):
        n, c, h, w = 100, 3, 8, 8
        feats = rng.normal(size=(n, c))
        coords = np.column_stack(
            [rng.uniform(-1, w + 1, size=n), rng.uniform(-1, h + 1, size=n)]
        )
        out = point_to_pixel(feats, coords, h, w)
        expected = np.zeros((c, h, w))
        for r in range(h):
            for col in range(w):
                sel = (np.floor(coords[:, 0]).astype(int) == col) & (
                    np.floor(coords[:, 1]).astype(int) == r
                )
                if sel.any():
                    expected[:, r, col] = feats[sel].mean(axis=0)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_zero_input_zero_output(self, rng):
        coords = rng.uniform(0, 5, size=(10, 2))
        assert np.all(point_to_pixel(np.zeros((10, 2)), coords, 5, 5) == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            point_to_pixel(np.zeros((3, 2)), np.zeros((4, 2)), 5, 5)


class TestPointToPixelBackward:
    def test_single_point_passthrough(self):
        go = np.zeros((2, 4, 4))
        go[:, 1, 2] = [3.0, -1.0]
        grad = point_to_pixel_backward(go, np.array([[2.5, 1.5]]), 1)
        assert np.array_equal(grad[0], [3.0, -1.0])

    def test_shared_pixel_splits_gradient(self):
        go = np.zeros((1, 4, 4))
        go[0, 1, 2] = 1.0
        coords = np.array([[2.1, 1.1], [2.9, 1.9]])
        grad = point_to_pixel_backward(go, coords, 2)
        assert np.array_equal(grad, [[0.5], [0.5]])

    def test_adjoint_identity(self, rng):
        for _ in range(50):
            n, c, h, w = 20, 3, 5, 6
            g = rng.normal(size=(n, c))
            coords = np.column_stack(
                [rng.uniform(-1, w + 1, size=n), rng.uniform(-1, h + 1, size=n)]
            )
            t = rng.normal(size=(c, h, w))
            lhs = float(np.sum(point_to_pixel(g, coords, h, w) * t))
            rhs = float(np.sum(g * point_to_pixel_backward(t, coords, n)))
            assert abs(lhs - rhs) < 1e-10


class TestPixelToPoint:
    def test_point_at_pixel_center(self):
        grid = np.arange(12, dtype=float).reshape(1, 3, 4)
        out = pixel_to_point(grid, np.array([[2.0, 1.0]]))
        assert out[0, 0] == grid[0, 1, 2]

    def test_midpoint_of_four_pixels(self):
        grid = np.array([[[0.0, 2.0], [4.0, 6.0]]])
        out = pixel_to_point(grid, np.array([[0.5, 0.5]]))
        assert out[0, 0] == 3.0

    def test_matches_bruteforce(self, rng):
        c, h, w = 3, 6, 7
        grid = rng.normal(size=(c, h, w))
        coords = np.column_stack(
            [rng.uniform(-1, w + 1, size=40), rng.uniform(-1, h + 1, size=40)]
        )
        out = pixel_to_point(grid, coords)
        for i, (u, v) in enumerate(coords):
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            fx, fy = u - x0, v - y0
            expected = np.zeros(c)
            for dy, dx, wgt in (
                (0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                (1, 0, (1 - fx) * fy), (1, 1, fx * fy),
            ):
                y, x = y0 + dy, x0 + dx
                if 0 <= x < w and 0 <= y < h:
                    expected += wgt * grid[:, y, x]
            assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_permutation_equivariance(self, rng):
        grid = rng.normal(size=(2, 5, 5))
        coords = rng.uniform(0, 5, size=(30, 2))
        base = pixel_to_point(grid, coords)
        p = rng.permutation(30)
        assert np.array_equal(base[p], pixel_to_point(grid, coords[p]))

    def test_zero_grid_zero_output(self, rng):
        out = pixel_to_point(np.zeros((2, 4, 4)), rng.uniform(0, 4, size=(10, 2)))
        assert np.all(out == 0)


class TestPixelToPointBackward:
    def test_pixel_center_gradient(self):
        grad = pixel_to_point_backward(np.array([[1.0]]), np.array([[2.0, 1.0]]), 3, 4)
        assert grad[0, 1, 2] == 1.0
        assert np.sum(grad != 0) == 1

    def test_midpoint_gradient_quarters(self):
        grad = pixel_to_point_backward(np.array([[1.0]]), np.array([[0.5, 0.5]]), 2, 2)
        assert np.array_equal(grad[0], [[0.25, 0.25], [0.25, 0.25]])

    def test_adjoint_identity(self, rng):
        for _ in range(50):
            c, h, w = 3, 5, 6
            grid = rng.normal(size=(c, h, w))
            coords = np.column_stack(
                [rng.uniform(-1, w + 1, size=20), rng.uniform(-1, h + 1, size=20)]
            )
            t = rng.normal(size=(20, c))
            lhs = float(np.sum(pixel_to_point(grid, coords) * t))
            rhs = float(np.sum(grid * pixel_to_point_backward(t, coords, h, w)))
            assert abs(lhs - rhs) < 1e-10


class TestProjectionPlan:
    def test_matches_public_operators(self, rng):
        n, c, h, w = 50, 4, 6, 8
        coords = np.column_stack(
            [rng.uniform(-1, w + 1, size=n), rng.uniform(-1, h + 1, size=n)]
        )
        plan = ProjectionPlan(coords, h, w)
        feats = rng.normal(size=(n, c))
        grid = rng.normal(size=(c, h, w))
        t_grid = rng.normal(size=(c, h, w))
        t_pts = rng.normal(size=(n, c))
        assert np.array_equal(plan.scatter(feats), point_to_pixel(feats, coords, h, w))
        assert np.array_equal(
            plan.gather_grad(t_pts), pixel_to_point_backward(t_pts, coords, h, w)
        )
        assert np.array_equal(plan.gather(grid), pixel_to_point(grid, coords))
        assert np.array_equal(
            plan.scatter_grad(t_grid), point_to_pixel_backward(t_grid, coords, n)
        )

    def test_non_finite_coordinates_fall_outside(self, rng):
        n, c, h, w = 20, 3, 5, 6
        coords = np.column_stack(
            [rng.uniform(-1, w + 1, size=n), rng.uniform(-1, h + 1, size=n)]
        )
        rows = [0, 3, 5, 8, 11, 14]
        bad = coords.copy()
        bad[rows] = [
            [np.nan, 1.0], [2.0, np.inf], [-np.inf, 3.0],
            [1e300, 2.0], [1.0, -1e300], [np.nan, np.nan],
        ]
        far = coords.copy()
        far[rows] = -5.0
        plan, expected = ProjectionPlan(bad, h, w), ProjectionPlan(far, h, w)
        feats = rng.normal(size=(n, c))
        grid = rng.normal(size=(c, h, w))
        assert np.array_equal(plan.scatter(feats), expected.scatter(feats))
        assert np.array_equal(plan.scatter_grad(grid), expected.scatter_grad(grid))
        assert np.array_equal(plan.gather(grid), expected.gather(grid))
        assert np.array_equal(plan.gather_grad(feats), expected.gather_grad(feats))
        assert np.array_equal(
            point_to_pixel(feats, bad, h, w), point_to_pixel(feats, far, h, w)
        )
        assert np.array_equal(
            pixel_to_point_backward(feats, bad, h, w),
            pixel_to_point_backward(feats, far, h, w),
        )

    def test_adjoints_exact(self, rng):
        n, c, h, w = 30, 3, 5, 5
        coords = rng.uniform(0, 5, size=(n, 2))
        plan = ProjectionPlan(coords, h, w)
        g = rng.normal(size=(n, c))
        t = rng.normal(size=(c, h, w))
        lhs = float(np.sum(plan.scatter(g) * t))
        rhs = float(np.sum(g * plan.scatter_grad(t)))
        assert abs(lhs - rhs) < 1e-10


    def test_matrices_built_on_first_use(self, rng):
        coords = rng.uniform(0, 5, size=(20, 2))
        plan = ProjectionPlan(coords, 5, 5)
        assert _kept_sparse(plan) == []
        # the plan keeps its own coordinates, so a later change to the
        # caller's array cannot reach a matrix built after it
        coords[:] = -10.0
        out = plan.scatter(np.ones((20, 1)))
        assert np.sum(out) > 0
        assert {name for name, _ in _kept_sparse(plan)} == {"_scatter"}
        plan.gather_grad(np.ones((20, 1)))
        plan.scatter_grad(np.ones((1, 5, 5)))
        # each direction keeps its matrix and the transposed view its backward
        # applies, which shares all its arrays with that matrix and none with
        # the other direction's
        directions = {"_scatter", "_gather"}
        kept = _kept_sparse(plan)
        assert {name for name, _ in kept} == directions
        for name, obj in kept:
            (other,) = directions - {name}
            own, foreign = vars(plan)[name].matrix, vars(plan)[other].matrix
            for a in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(obj, a), getattr(own, a)), (name, a)
                assert not np.shares_memory(getattr(obj, a), getattr(foreign, a)), (name, a)

    @pytest.mark.parametrize("layout", ["c_contiguous", "rows_view"])
    def test_few_points_in_a_corner_of_a_large_grid(self, rng, layout):
        n, c, h, w = 12, 3, 300, 400
        coords = np.column_stack([rng.uniform(-1.5, 6, size=n), rng.uniform(-1.5, 4, size=n)])
        coords[:2] = [[-0.5, 2.25], [3.0, -0.75]]  # outside, with a bilinear neighbor inside
        far = np.full((n, 2), -5.0)
        for uv in (coords, far):
            plan = ProjectionPlan(uv, h, w)
            feats = rng.normal(size=(n, c))
            grid = rng.normal(size=(c, h, w))
            if layout == "rows_view":  # the training path's grids view (H*W, C) rows
                grid = _grid(np.ascontiguousarray(_rows(grid)), h, w)
            for method, payload in (("scatter", feats), ("scatter_grad", grid),
                                    ("gather", grid), ("gather_grad", feats)):
                out = getattr(plan, method)(payload)
                expected = reference_method(uv, h, w, method, payload)
                assert out.shape == expected.shape and out.strides == expected.strides, method
                assert np.array_equal(out, expected), method
            # each direction holds only the pixels its points touch
            assert len(plan._scatter.pixels) <= n and len(plan._gather.pixels) <= 4 * n
            assert plan._gather.matrix.shape == (n, len(plan._gather.pixels))

    def test_point_rows_of_another_count_rejected(self, rng):
        # one shape rule for point inputs, as for grids: a row count other
        # than the plan's is a ShapeError, not SciPy's dimension mismatch
        plan = ProjectionPlan(rng.uniform(0, 4, size=(6, 2)), 5, 5)
        for rows in (np.ones((5, 2)), np.ones((7, 2))):
            with pytest.raises(ShapeError):
                plan.scatter(rows)
            with pytest.raises(ShapeError):
                plan.gather_grad(rows)
        with pytest.raises(ShapeError):
            point_to_pixel_backward(np.ones((2, 5, 5)), plan.uv, 7)

    def test_grid_of_another_size_rejected(self, rng):
        # the reading products index the grid's rows, so a larger grid would
        # otherwise be read silently
        plan = ProjectionPlan(rng.uniform(0, 4, size=(6, 2)), 5, 5)
        for grid in (np.ones((2, 5, 6)), np.ones((2, 4, 5))):
            with pytest.raises(ShapeError):
                plan.gather(grid)
            with pytest.raises(ShapeError):
                plan.scatter_grad(grid)

    @pytest.mark.parametrize("height", [-1, 0, 2.0, True, "3"],
                             ids=["negative", "zero", "float", "bool", "str"])
    def test_size_that_is_not_a_positive_integer_rejected(self, rng, height):
        # the rule of build_gt_nlc_map, checked when the plan is made rather
        # than left to NumPy at the plan's first product
        with pytest.raises(InvalidValue, match="positive integers"):
            ProjectionPlan(rng.uniform(0, 4, size=(6, 2)), height, 5)

    def test_numpy_integer_size_accepted(self, rng):
        plan = ProjectionPlan(rng.uniform(0, 2, size=(6, 2)), np.int64(3), np.int32(3))
        assert plan.gather(np.ones((2, 3, 3))).shape == (6, 2)


def _kept_sparse(plan):
    """(attribute, object) for each sparse object a plan keeps, directly or
    in a per-direction tuple."""
    return [
        (name, obj)
        for name, value in vars(plan).items()
        for obj in (value if isinstance(value, tuple) else (value,))
        if hasattr(obj, "nnz")
    ]


def bilinear_weights(uv, height, width):
    """Point rows, flat cells and weights of zero-padded bilinear sampling,
    the COO triplets of the gather matrix: all in-image 00 neighbors, then
    the 01, 10 and 11 neighbors, each tested against all four image bounds.
    Only points with u in [-1, W) and v in [-1, H) reach the int cast."""
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


def coo_operators(coords, height, width):
    """Each direction's touched pixels and (points x pixels) CSR matrix, as
    SciPy's COO path builds them from the binning and sampling rules: the
    transposed scatter-average matrix, then the bilinear gather matrix."""
    from scipy import sparse

    uv = np.asarray(coords, dtype=float).reshape(-1, 2)
    cells, inside = geometry._pixel_cells(uv[:, 0], uv[:, 1], height, width)
    pixels, index, counts = np.unique(cells[inside], return_inverse=True, return_counts=True)
    scatter = sparse.csr_matrix(
        (1.0 / counts[index], (np.flatnonzero(inside), index)), shape=(len(uv), len(pixels))
    )
    rows, cells, weights = bilinear_weights(uv, height, width)
    gather_pixels, index = np.unique(cells, return_inverse=True)
    gather = sparse.csr_matrix((weights, (rows, index)), shape=(len(uv), len(gather_pixels)))
    return (pixels, scatter), (gather_pixels, gather)


@pytest.mark.parametrize("height, width, n", [(5, 7, 60), (375, 1242, 20_000)])
def test_operators_equal_scipys_coo_path(height, width, n):
    rng = np.random.default_rng(n)
    uv = np.column_stack([rng.uniform(-1.5, width + 0.5, size=n),
                          rng.uniform(-1.5, height + 0.5, size=n)])
    k = n // 10
    uv[:k, 0] = rng.uniform(-1.0, 0.0, size=k)  # margin points: the left neighbors are outside
    uv[k:2 * k:2, 1] = np.nan
    uv[k + 1:2 * k:2, 0] = np.inf
    uv[2 * k:3 * k] = np.floor(uv[2 * k:3 * k])  # integral, so three of the four weights are 0
    uv[3 * k:4 * k] = uv[4 * k:5 * k]  # shared pixels and neighbors
    plan = ProjectionPlan(uv, height, width)
    for name, (pixels, expected) in zip(("_scatter", "_gather"), coo_operators(uv, height, width)):
        op = getattr(plan, name)
        assert np.array_equal(op.pixels, pixels), name
        got = op.matrix
        assert got.format == "csr" and got.shape == expected.shape, name
        assert got.data.dtype == expected.data.dtype and got.data.tobytes() == expected.data.tobytes(), name
        for part in ("indices", "indptr"):
            a, b = getattr(got, part), getattr(expected, part)
            assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b), (name, part)
        assert got.has_sorted_indices and expected.has_sorted_indices, name


def full_grid_operators(coords, height, width):
    """The scatter-average (H*W x N) and bilinear gather (N x H*W) matrices
    over every pixel, built from the binning and sampling rules alone."""
    from scipy import sparse

    uv = np.asarray(coords, dtype=float).reshape(-1, 2)
    size = height * width
    cells, inside = geometry._pixel_cells(uv[:, 0], uv[:, 1], height, width)
    cells = cells[inside]
    counts = np.bincount(cells, minlength=size).astype(float)
    scatter = sparse.csr_matrix(
        (1.0 / counts[cells], (cells, np.flatnonzero(inside))), shape=(size, len(uv))
    )
    rows, cells, weights = bilinear_weights(uv, height, width)
    gather = sparse.csr_matrix((weights, (rows, cells)), shape=(len(uv), size))
    return scatter, gather


def reference_method(coords, height, width, method, payload):
    """A plan method through the full-grid operators; each backward applies
    a CSR copy of its forward matrix's transpose, and grids are read through
    their whole (H*W, C) view."""
    scatter, gather = full_grid_operators(coords, height, width)
    if method in ("scatter_grad", "gather"):
        rows = payload.reshape(payload.shape[0], -1).T
        return (scatter.T.tocsr() if method == "scatter_grad" else gather) @ rows
    out = (scatter if method == "scatter" else gather.T.tocsr()) @ payload
    return out.T.reshape(-1, height, width)


def test_behind_camera_point_does_not_share_its_mirrors_pixel():
    # a point 20 m in front of the camera and its mirror 20 m behind it
    # divide to the same (u, v) = (17.5, 13.5); the mirror has no image position
    calib = Calibration(K=np.array([[10.0, 0.0, 8.0], [0.0, 10.0, 6.0], [0.0, 0.0, 1.0]]))
    p = np.array([19.0, 15.0, 20.0])
    u, v, _ = project_points(np.stack([p, -p]), calib)
    coords = np.column_stack([u, v])
    out = point_to_pixel(np.array([[1.0], [3.0]]), coords, 24, 32)
    assert out[0, 13, 17] == 1.0
    assert np.count_nonzero(out) == 1
    gathered = pixel_to_point(np.ones((1, 24, 32)), coords)
    assert gathered[:, 0].tolist() == [1.0, 0.0]


def _awkward_rows(rng, height, width, channels):
    """Points inside, on the border and outside the image, with payloads."""
    coords = np.column_stack(
        [rng.uniform(-1.5, width + 0.5, size=30), rng.uniform(-1.5, height + 0.5, size=30)]
    )
    special = np.array([
        # non-finite and huge
        [np.nan, 1.0], [2.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [1e300, 2.0], [2.0, -1e300],
        # border: u or v in [-1, 0) still reaches the image through a bilinear neighbor
        [-0.5, 1.5], [1.5, -0.25], [-1.0, -1.0], [-1.0, 2.0], [width - 0.5, -0.75],
        # differing only in the sign of zero
        [0.0, 1.25], [-0.0, 1.25], [2.5, 0.0], [2.5, -0.0], [-0.0, -0.0],
    ])
    coords = np.vstack([coords, special, coords[:8], coords[:8], [[3.25, 2.5]] * 2])
    feats = rng.normal(size=(len(coords), channels))
    feats[-18:-10] = feats[:8]  # exact duplicate rows
    feats[-2:] = [[0.0] + [1.0] * (channels - 1), [-0.0] + [1.0] * (channels - 1)]
    return coords, feats


@pytest.mark.parametrize("seed", range(4))
def test_one_shots_are_plan_calls(seed):
    rng = np.random.default_rng(seed)
    h, w = 5, 7
    coords, feats = _awkward_rows(rng, h, w, 3)
    grid = rng.normal(size=(3, h, w))
    for p in (np.arange(len(coords)), rng.permutation(len(coords))):
        c, f = coords[p], feats[p]
        plan = ProjectionPlan(c, h, w)
        for one_shot, expected in (
            (point_to_pixel(f, c, h, w), plan.scatter(f)),
            (point_to_pixel_backward(grid, c, len(c)), plan.scatter_grad(grid)),
            (pixel_to_point(grid, c), plan.gather(grid)),
            (pixel_to_point_backward(f, c, h, w), plan.gather_grad(f)),
        ):
            assert one_shot.strides == expected.strides
            assert np.array_equal(one_shot, expected)


def _assert_backwards_match_reference(plan, rng, channels):
    grid = rng.normal(size=(channels, plan.height, plan.width))
    points = rng.normal(size=(plan.count, channels))
    args = (plan.uv, plan.height, plan.width)
    # twice on one plan: the first call builds the kept view, the second reuses it
    for _ in range(2):
        assert np.array_equal(plan.scatter_grad(grid), reference_method(*args, "scatter_grad", grid))
        assert np.array_equal(plan.gather_grad(points), reference_method(*args, "gather_grad", points))


class TestTransposeViewReference:
    """The backwards apply a kept CSC view of the forward matrix over the
    touched pixels; no bit may change against a CSR copy of the full-grid
    matrix's transpose."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_and_awkward_rows(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 5, 7
        coords = np.column_stack(
            [rng.uniform(-1, w + 1, size=60), rng.uniform(-1, h + 1, size=60)]
        )
        _assert_backwards_match_reference(ProjectionPlan(coords, h, w), rng, 3)
        # border, NaN, +-inf and huge rows, signed zeros and exact duplicates
        coords, _ = _awkward_rows(rng, h, w, 3)
        for p in [np.arange(len(coords)), rng.permutation(len(coords))]:
            _assert_backwards_match_reference(ProjectionPlan(coords[p], h, w), rng, 3)

    def test_kitti_frame(self, rng, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
        spec = importlib.util.spec_from_file_location("perfbench_synth", path)
        synth = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, synth)  # its dataclasses look it up
        spec.loader.exec_module(synth)
        p2, r0, tr = synth.kitti_camera(0)
        calib = kitti_io.to_calibration(kitti_io.KittiCalib(P2=p2, R0_rect=r0, Tr_velo_to_cam=tr))
        xyz = synth.kitti_frame(0, 0).points[:, :3].astype(float)
        u, v, _ = geometry.project_points(xyz, calib)
        plan = ProjectionPlan(np.column_stack([u, v]), synth.IMG_H, synth.IMG_W)
        _assert_backwards_match_reference(plan, rng, 2)


def test_import_leaves_scipy_sparse_unloaded(src_env):
    # scipy.sparse costs about 20 MB of resident memory; only a plan needs it
    code = "import sys, nlcdet, nlcdet.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def composition_gradient_check(rng):
    """FD check of the scatter-then-gather composition."""
    n, c, h, w = 15, 2, 4, 5
    feats = rng.normal(size=(n, c))
    coords = rng.uniform(0, 4.5, size=(n, 2))
    cot = rng.normal(size=(n, c))

    def f(x):
        return float(np.sum(pixel_to_point(point_to_pixel(x, coords, h, w), coords) * cot))

    analytic = point_to_pixel_backward(
        pixel_to_point_backward(cot, coords, h, w), coords, n
    )
    eps = 1e-6
    fd = np.zeros_like(feats)
    for i in range(feats.size):
        up, dn = feats.copy(), feats.copy()
        up.flat[i] += eps
        dn.flat[i] -= eps
        fd.flat[i] = (f(up) - f(dn)) / (2 * eps)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / denom


def test_composition_gradient(rng):
    assert composition_gradient_check(rng) < 1e-6


def nan_layers(*layers):
    """Gradient layers shaped like ``layers``, filled with NaN so that an entry
    a backward does not write shows."""
    return tuple(
        DenseLayer(np.full(l.weights.shape, np.nan), np.full(l.bias.shape, np.nan))
        for l in layers
    )


class TestDenseLayer:
    @pytest.mark.parametrize("rows, c_in, c_out", [(768, 16, 16), (1000, 16, 3)])
    def test_bias_gradient_is_the_column_sum(self, rng, rows, c_in, c_out):
        # the bias gradient is one product with a ones vector, not d_out.sum(axis=0)
        layer = DenseLayer(weights=rng.normal(size=(c_out, c_in)), bias=rng.normal(size=c_out))
        x, d_out = rng.normal(size=(rows, c_in)), rng.normal(size=(rows, c_out))
        (grad,) = nan_layers(layer)
        d_x = _linear_backward(layer, x, d_out, grad)
        assert np.allclose(grad.bias, d_out.sum(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(grad.weights, d_out.T @ x, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_x, d_out @ layer.weights, rtol=1e-12, atol=1e-12)

    def test_bias_gradient_ones_grow_and_stay_read_only(self, rng):
        # the ones vector grows to the longest d_out seen; a shorter one reads its head
        longest = len(propagation._ones) + 5
        for rows in (3, longest, 7):
            d_out = rng.normal(size=(rows, 4))
            (grad,) = nan_layers(DenseLayer(np.zeros((4, 2)), np.zeros(4)))
            _bias_grad(d_out, grad)
            assert np.allclose(grad.bias, d_out.sum(axis=0), rtol=1e-12, atol=1e-12)
        assert len(propagation._ones) == longest
        assert not propagation._ones.flags.writeable

    def test_fusion_gradients_written_into_given_layers(self, rng):
        c, rows = 3, 20
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(weights=rng.normal(size=(c, 2 * c)), bias=rng.normal(size=c))
        aux, main = rng.normal(size=(rows, c)), rng.normal(size=(rows, c))
        _, cache = fuse_p2i(aux, main, (l1, l2))
        cot = rng.normal(size=(rows, c))
        given = nan_layers(l1, l2)
        d_aux, d_main = fuse_p2i_backward(cot, cache, given)
        # the direct products on the second layer's concatenated input: each
        # layer's output gradient, then d_out.T @ x and the column sums of d_out
        cat = np.concatenate([np.maximum(cache.pre1, 0.0), main], axis=1)
        d2 = cot * (cache.pre2 > 0)
        d_cat = d2 @ l2.weights
        d1 = d_cat[:, :c] * (cache.pre1 > 0)
        for g, x, d_out in zip(given, (aux, cat), (d1, d2)):
            assert np.all(np.isfinite(g.weights)) and np.all(np.isfinite(g.bias))
            assert np.allclose(g.weights, d_out.T @ x, rtol=1e-12, atol=1e-12)
            assert np.allclose(g.bias, d_out.sum(axis=0), rtol=1e-12, atol=1e-12)
        assert np.allclose(d_aux, d1 @ l1.weights, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_main, d_cat[:, c:], rtol=1e-12, atol=1e-12)


def _stored_layer(rng, c_in, c_out):
    """A layer whose weights are the (out, in) view of (in, out) storage, as
    the toy network keeps them."""
    return DenseLayer(rng.normal(0.0, np.sqrt(2.0 / c_in), size=(c_in, c_out)).T,
                      rng.normal(0.0, 0.1, size=c_out))


@pytest.mark.parametrize("rows", [2026, 768], ids=["point_rows", "pixel_rows"])
def test_fusion_matches_a_concatenated_reference(rng, rows):
    # the block as first written: the second layer applied to the concatenation
    c = 16
    l1, l2 = _stored_layer(rng, c, c), _stored_layer(rng, 2 * c, c)
    aux, main, cot = (rng.normal(size=(rows, c)) for _ in range(3))
    pre1 = aux @ l1.weights.T + l1.bias
    cat = np.concatenate([np.maximum(pre1, 0.0), main], axis=1)
    pre2 = cat @ l2.weights.T + l2.bias
    d2 = cot * (pre2 > 0)
    d_cat = d2 @ l2.weights
    d1 = d_cat[:, :c] * (pre1 > 0)
    reference = [np.maximum(pre2, 0.0), d1 @ l1.weights, d_cat[:, c:],
                 d1.T @ aux, d1.sum(axis=0), d2.T @ cat, d2.sum(axis=0)]

    out, cache = _fuse_forward(aux, main, (l1, l2))
    grads = nan_layers(l1, l2)
    d_aux, d_main = _fuse_backward(cot, cache, grads)
    got = [out, d_aux, d_main] + [a for g in grads for a in (g.weights, g.bias)]
    for name, a, b in zip(["out", "d_aux", "d_main", "w1", "b1", "w2", "b2"], got, reference):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


class TestFusion:
    def test_constant_bias_configuration(self):
        # zero both layers' weights: the output is relu of the second bias
        c, pixels = 2, 9
        l1 = DenseLayer(weights=np.zeros((c, c)), bias=np.zeros(c))
        l2 = DenseLayer(weights=np.zeros((c, 2 * c)), bias=np.array([1.5, -2.0]))
        out, _ = fuse_p2i(np.ones((pixels, c)), np.ones((pixels, c)), (l1, l2))
        assert out.shape == (pixels, c)
        assert np.all(out[:, 0] == 1.5)
        assert np.all(out[:, 1] == 0.0)

    def test_passthrough_of_main_input(self, rng):
        # L2 = [0 | I] ignores the refined auxiliary path entirely
        c = 3
        main = np.abs(rng.normal(size=(8, c))) + 0.1
        aux = rng.normal(size=(8, c))
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(
            weights=np.hstack([np.zeros((c, c)), np.eye(c)]), bias=np.zeros(c)
        )
        out, _ = fuse_i2p(aux, main, (l1, l2))
        assert np.array_equal(out, main)

    def test_shape_guards(self, rng):
        l = DenseLayer(weights=np.zeros((2, 2)), bias=np.zeros(2))
        # equal channels, unequal pixel counts
        with pytest.raises(ShapeError):
            fuse_p2i(np.zeros((9, 2)), np.zeros((16, 2)), (l, l))
        with pytest.raises(ShapeError):
            fuse_i2p(np.zeros((3, 2)), np.zeros((4, 2)), (l, l))
        # equal row counts, a channel count the first layer does not take
        with pytest.raises(ShapeError):
            fuse_p2i(np.zeros((4, 3)), np.zeros((4, 2)), (l, l))
        # a main input that does not fill the second layer's input
        l2 = DenseLayer(weights=np.zeros((2, 4)), bias=np.zeros(2))
        with pytest.raises(ShapeError, match="second layer"):
            fuse_i2p(np.zeros((4, 2)), np.zeros((4, 3)), (l, l2))

    def test_backward_layer_gradient_shapes(self, rng):
        c_aux, c_mid, c_main, c_out = 3, 4, 3, 4
        l1 = DenseLayer(weights=rng.normal(size=(c_mid, c_aux)), bias=rng.normal(size=c_mid))
        l2 = DenseLayer(
            weights=rng.normal(size=(c_out, c_mid + c_main)), bias=rng.normal(size=c_out)
        )
        aux, main = rng.normal(size=(10, c_aux)), rng.normal(size=(10, c_main))
        out, cache = fuse_i2p(aux, main, (l1, l2))
        d_aux, d_main = fuse_i2p_backward(np.ones_like(out), cache, nan_layers(l1, l2))
        assert d_aux.shape == aux.shape
        assert d_main.shape == main.shape

    def test_p2i_and_i2p_agree_on_the_same_rows(self, rng):
        c, rows = 3, 20
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(weights=rng.normal(size=(c, 2 * c)), bias=rng.normal(size=c))
        aux = rng.normal(size=(rows, c))
        main = rng.normal(size=(rows, c))
        p2i_out, p2i_cache = fuse_p2i(aux, main, (l1, l2))
        i2p_out, i2p_cache = fuse_i2p(aux, main, (l1, l2))
        assert np.array_equal(p2i_out, i2p_out)
        cot = rng.normal(size=(rows, c))
        g_p2i_layers, g_i2p_layers = nan_layers(l1, l2), nan_layers(l1, l2)
        d_p2i = fuse_p2i_backward(cot, p2i_cache, g_p2i_layers)
        d_i2p = fuse_i2p_backward(cot, i2p_cache, g_i2p_layers)
        assert np.array_equal(d_p2i[0], d_i2p[0]) and np.array_equal(d_p2i[1], d_i2p[1])
        assert d_p2i[0].shape == aux.shape and d_p2i[1].shape == main.shape
        for g_p2i, g_i2p in zip(g_p2i_layers, g_i2p_layers):
            assert np.array_equal(g_p2i.weights, g_i2p.weights)
            assert np.array_equal(g_p2i.bias, g_i2p.bias)
