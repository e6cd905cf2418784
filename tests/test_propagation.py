"""Point/pixel propagation operators, fusion blocks, and their backwards."""

import subprocess
import sys

import numpy as np
import pytest

from nlcdet import (
    DenseLayer,
    ShapeError,
    fuse_i2p,
    fuse_p2i,
    pixel_to_point,
    pixel_to_point_backward,
    point_to_pixel,
    point_to_pixel_backward,
)
from nlcdet.propagation import ProjectionPlan, fuse_i2p_backward, fuse_p2i_backward


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

    def test_permutation_invariance_bit_exact(self, rng):
        coords = rng.uniform(0, 6, size=(60, 2))
        # exact duplicates tie on coordinates, so their payload sets the order
        coords = np.vstack([coords, coords[:15]])
        n = len(coords)
        feats = rng.normal(size=(n, 4))
        base = point_to_pixel(feats, coords, 6, 6)
        for _ in range(5):
            p = rng.permutation(n)
            assert np.array_equal(base, point_to_pixel(feats[p], coords[p], 6, 6))

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

    def test_bit_determinism_under_permutation(self, rng):
        coords = rng.uniform(0, 5, size=(40, 2))
        coords = np.vstack([coords, coords[:10]])  # exact duplicates
        n = len(coords)
        gp = rng.normal(size=(n, 3))
        base = pixel_to_point_backward(gp, coords, 5, 5)
        for _ in range(5):
            p = rng.permutation(n)
            assert np.array_equal(base, pixel_to_point_backward(gp[p], coords[p], 5, 5))


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
        # the one-shot sums run over canonically sorted points, so they may
        # differ in rounding; gather and scatter_grad sum in the same order
        scattered = point_to_pixel(feats, coords, h, w)
        assert np.max(np.abs(plan.scatter(feats) - scattered)) <= 1e-12
        gathered_grad = pixel_to_point_backward(t_pts, coords, h, w)
        assert np.max(np.abs(plan.gather_grad(t_pts) - gathered_grad)) <= 1e-12
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


class TestFusion:
    def test_constant_bias_configuration(self):
        # zero both layers' weights: the output is relu of the second bias
        c, h, w = 2, 3, 3
        l1 = DenseLayer(weights=np.zeros((c, c)), bias=np.zeros(c))
        l2 = DenseLayer(weights=np.zeros((c, 2 * c)), bias=np.array([1.5, -2.0]))
        out, _ = fuse_p2i(np.ones((c, h, w)), np.ones((c, h, w)), (l1, l2))
        assert np.all(out[0] == 1.5)
        assert np.all(out[1] == 0.0)

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
        with pytest.raises(ShapeError):
            fuse_p2i(np.zeros((2, 3, 3)), np.zeros((2, 4, 4)), (l, l))
        with pytest.raises(ShapeError):
            fuse_i2p(np.zeros((3, 2)), np.zeros((4, 2)), (l, l))

    def test_backward_layer_gradient_shapes(self, rng):
        c_aux, c_mid, c_main, c_out = 3, 4, 3, 4
        l1 = DenseLayer(weights=rng.normal(size=(c_mid, c_aux)), bias=rng.normal(size=c_mid))
        l2 = DenseLayer(
            weights=rng.normal(size=(c_out, c_mid + c_main)), bias=rng.normal(size=c_out)
        )
        aux, main = rng.normal(size=(10, c_aux)), rng.normal(size=(10, c_main))
        out, cache = fuse_i2p(aux, main, (l1, l2))
        d_aux, d_main, (g1, g2) = fuse_i2p_backward(np.ones_like(out), cache)
        assert d_aux.shape == aux.shape
        assert d_main.shape == main.shape
        assert g1.weights.shape == l1.weights.shape
        assert g2.bias.shape == l2.bias.shape

    def test_grid_and_row_variants_agree(self, rng):
        c, h, w = 3, 4, 5
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(weights=rng.normal(size=(c, 2 * c)), bias=rng.normal(size=c))
        aux = rng.normal(size=(c, h, w))
        main = rng.normal(size=(c, h, w))
        grid_out, grid_cache = fuse_p2i(aux, main, (l1, l2))
        rows_out, _ = fuse_i2p(
            aux.reshape(c, -1).T, main.reshape(c, -1).T, (l1, l2)
        )
        assert np.array_equal(grid_out, rows_out.T.reshape(c, h, w))
        cot = rng.normal(size=(c, h, w))
        d_aux, d_main, _ = fuse_p2i_backward(cot, grid_cache)
        assert d_aux.shape == aux.shape and d_main.shape == main.shape
