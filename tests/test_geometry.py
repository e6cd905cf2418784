"""Frames, projection, box containment, rotated-box IoU, and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet import (
    BehindCamera,
    Box3D,
    Calibration,
    augment_global,
    box_corners,
    iou_3d,
    normalize_angle,
    points_in_box,
    project_point,
    project_points,
    rot_z,
)

from conftest import random_box


def boxes_equal(xs, ys):
    return len(xs) == len(ys) and all(
        np.array_equal(a.center, b.center)
        and (a.l, a.w, a.h, a.yaw) == (b.l, b.w, b.h, b.yaw)
        for a, b in zip(xs, ys)
    )


def identity_calib():
    return Calibration(K=np.eye(3))


class TestProjection:
    def test_identity_calibration(self):
        u, v, d = project_point(np.array([0.5, 0.25, 2.0]), identity_calib())
        assert (u, v, d) == (0.25, 0.125, 2.0)

    def test_pure_translation(self):
        calib = Calibration(K=np.eye(3), T=np.array([0.0, 0.0, 1.0]))
        u, v, d = project_point(np.array([0.0, 0.0, 1.0]), calib)
        assert (u, v, d) == (0.0, 0.0, 2.0)

    def test_kitti_style_worked_example(self):
        K = np.array([[700.0, 0.0, 600.0], [0.0, 700.0, 180.0], [0.0, 0.0, 1.0]])
        u, v, d = project_point(np.array([1.0, 0.0, 10.0]), Calibration(K=K))
        assert abs(u - 670.0) < 1e-9
        assert abs(v - 180.0) < 1e-9
        assert abs(d - 10.0) < 1e-9

    def test_projection_linearity_identity_calib(self, rng):
        pts = rng.uniform([-5, -5, 0.1], [5, 5, 30], size=(500, 3))
        u, v, d = project_points(pts, identity_calib())
        assert np.allclose(u, pts[:, 0] / pts[:, 2])
        assert np.allclose(v, pts[:, 1] / pts[:, 2])
        assert np.array_equal(d, pts[:, 2])

    def test_behind_camera_gets_nan(self):
        # a point and its mirror through the camera center divide to the same
        # (u, v); only the one in front has an image position
        calib = Calibration(K=np.array([[10.0, 0.0, 8.0], [0.0, 10.0, 6.0], [0.0, 0.0, 1.0]]))
        p = np.array([19.0, 15.0, 20.0])
        u, v, d = project_points(np.stack([p, -p, [1.0, 1.0, 0.0]]), calib)
        assert (u[0], v[0], d[0]) == (17.5, 13.5, 20.0)
        assert np.isnan(u[1:]).all() and np.isnan(v[1:]).all()
        assert d[1:].tolist() == [-20.0, 0.0]

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCamera):
            project_point(np.array([0.0, 0.0, -1.0]), identity_calib())
        with pytest.raises(BehindCamera):
            project_point(np.array([1.0, 1.0, 0.0]), identity_calib())

    def test_batch_matches_single(self, rng):
        calib = Calibration(
            K=np.array([[500.0, 0.0, 320.0], [0.0, 510.0, 240.0], [0.0, 0.0, 1.0]]),
            R=rot_z(0.3),
            T=np.array([0.1, -0.2, 0.3]),
        )
        pts = rng.uniform([-5, -5, 1], [5, 5, 30], size=(50, 3))
        u, v, d = project_points(pts, calib)
        for i in range(len(pts)):
            ui, vi, di = project_point(pts[i], calib)
            assert np.allclose([ui, vi, di], [u[i], v[i], d[i]], rtol=1e-12, atol=0)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            Calibration(K=np.array([[1.0, 0, 0], [1.0, 1, 0], [0, 0, 1]]))
        with pytest.raises(ValueError):
            Calibration(K=np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            Calibration(K=np.eye(3), R=2 * np.eye(3))


class TestBox:
    def test_unit_cube_corners(self):
        box = Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=0.0)
        corners = box_corners(box)
        expected = {(-0.5, -0.5, -0.5), (0.5, -0.5, -0.5), (0.5, 0.5, -0.5),
                    (-0.5, 0.5, -0.5), (-0.5, -0.5, 0.5), (0.5, -0.5, 0.5),
                    (0.5, 0.5, 0.5), (-0.5, 0.5, 0.5)}
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_corner_example(self):
        box = Box3D(center=np.zeros(3), l=4, w=2, h=1, yaw=0.0)
        corners = box_corners(box)
        assert any(np.allclose(c, [2.0, 1.0, 0.5]) for c in corners)

    def test_square_footprint_rotation_symmetry(self):
        a = Box3D(center=np.zeros(3), l=2, w=2, h=2, yaw=0.0)
        b = Box3D(center=np.zeros(3), l=2, w=2, h=2, yaw=np.pi / 2)
        sa = {tuple(np.round(c, 9)) for c in box_corners(a)}
        sb = {tuple(np.round(c, 9)) for c in box_corners(b)}
        assert sa == sb

    def test_yaw_normalized_on_construction(self):
        box = Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=3 * np.pi)
        assert -np.pi < box.yaw <= np.pi
        assert np.isclose(box.yaw, np.pi)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Box3D(center=np.zeros(3), l=0.0, w=1, h=1, yaw=0)
        with pytest.raises(ValueError):
            Box3D(center=np.array([np.nan, 0, 0]), l=1, w=1, h=1, yaw=0)

    @given(theta=st.floats(-50.0, 50.0))
    def test_normalize_angle_range_and_equivalence(self, theta):
        out = normalize_angle(theta)
        assert -np.pi < out <= np.pi
        assert np.isclose(np.cos(out), np.cos(theta), atol=1e-9)
        assert np.isclose(np.sin(out), np.sin(theta), atol=1e-9)


class TestPointsInBox:
    def test_center_always_included(self, rng):
        for _ in range(20):
            box = random_box(rng)
            assert 0 in points_in_box(box.center.reshape(1, 3), box, margin=0.0)
            assert 0 in points_in_box(box.center.reshape(1, 3), box, margin=2.0)

    def test_far_point_excluded(self):
        box = Box3D(center=np.zeros(3), l=2, w=1, h=1, yaw=0.3)
        p = box.center + 2 * box.l * rot_z(box.yaw)[:, 0]
        # at 2l along the heading the normalized offset is 2, i.e. margin 1.5
        assert len(points_in_box(p.reshape(1, 3), box, margin=1.4)) == 0

    def test_matches_half_space_oracle(self, rng):
        for _ in range(5):
            box = random_box(rng)
            pts = rng.uniform(-25, 25, size=(1000, 3))
            got = set(points_in_box(pts, box, margin=0.0))
            # oracle: test each face half-space in the corner frame directly
            rot = rot_z(box.yaw)
            expected = set()
            for i, p in enumerate(pts):
                local = rot.T @ (p - box.center)
                if np.all(np.abs(local) <= box.dims / 2):
                    expected.add(i)
            assert got == expected

    def test_corners_inside_with_tiny_margin(self, rng):
        for _ in range(20):
            box = random_box(rng)
            idx = points_in_box(box_corners(box), box, margin=1e-9)
            assert len(idx) == 8

    def test_negative_margin_rejected(self):
        box = Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=0)
        with pytest.raises(ValueError):
            points_in_box(np.zeros((1, 3)), box, margin=-0.1)


def mc_iou(a, b, samples, rng):
    """Monte-Carlo IoU oracle: sample uniformly inside box a, count hits in b."""
    nlc = rng.uniform(0.0, 1.0, size=(samples, 3))
    pts = a.center + ((nlc - 0.5) * a.dims) @ rot_z(a.yaw).T
    local = (pts - b.center) @ rot_z(b.yaw)
    inside = np.all(np.abs(local) <= b.dims / 2, axis=1)
    inter = inside.mean() * a.volume
    return inter / (a.volume + b.volume - inter)


class TestIou:
    def test_identical_boxes(self, rng):
        for _ in range(20):
            box = random_box(rng)
            assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        a = Box3D(center=np.zeros(3), l=2, w=2, h=2, yaw=0.4)
        b = Box3D(center=np.array([10.0, 0, 0]), l=2, w=2, h=2, yaw=1.1)
        assert iou_3d(a, b) == 0.0

    def test_offset_unit_cubes(self):
        a = Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=0.0)
        b = Box3D(center=np.array([0.5, 0.0, 0.0]), l=1, w=1, h=1, yaw=0.0)
        assert abs(iou_3d(a, b) - 1.0 / 3.0) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(200):
            a = random_box(rng, center_scale=3.0)
            b = random_box(rng, center_scale=3.0)
            assert abs(iou_3d(a, b) - iou_3d(b, a)) < 1e-12

    def test_range(self, rng):
        for _ in range(200):
            a = random_box(rng, center_scale=2.0)
            b = random_box(rng, center_scale=2.0)
            assert 0.0 <= iou_3d(a, b) <= 1.0

    def test_against_monte_carlo_oracle(self, rng):
        for _ in range(25):
            a = random_box(rng, center_scale=1.5, dim_lo=1.0, dim_hi=4.0)
            b = random_box(rng, center_scale=1.5, dim_lo=1.0, dim_hi=4.0)
            est = mc_iou(a, b, 200_000, rng)
            assert abs(iou_3d(a, b) - est) < 2e-2

    def test_coincident_edges_along_heading(self, rng):
        # a shift along the shared heading leaves two pairs of edges collinear
        for _ in range(2000):
            yaw = rng.uniform(-np.pi, np.pi)
            center = rng.uniform(-20.0, 20.0, size=3)
            s = rng.uniform(-1.0, 1.0)
            a = Box3D(center=center, l=4.0, w=2.0, h=1.5, yaw=yaw)
            shift = s * np.array([np.cos(yaw), np.sin(yaw), 0.0])
            b = Box3D(center=center + shift, l=4.0, w=2.0, h=1.5, yaw=yaw)
            assert abs(iou_3d(a, b) - (4.0 - abs(s)) / (4.0 + abs(s))) < 1e-12

    def test_rotation_of_both_boxes_is_invariant(self, rng):
        a = random_box(rng, center_scale=1.0)
        b = random_box(rng, center_scale=1.0)
        base = iou_3d(a, b)
        for phi in (0.3, 1.2, -2.0):
            rot = rot_z(phi)
            ar = Box3D(center=rot @ a.center, l=a.l, w=a.w, h=a.h, yaw=a.yaw + phi)
            br = Box3D(center=rot @ b.center, l=b.l, w=b.w, h=b.h, yaw=b.yaw + phi)
            assert abs(iou_3d(ar, br) - base) < 1e-9


class TestAugmentGlobal:
    def _scene(self, rng):
        boxes = [random_box(rng, center_scale=10.0) for _ in range(3)]
        pts = np.vstack(
            [
                b.center
                + ((rng.uniform(0.05, 0.95, size=(40, 3)) - 0.5) * b.dims)
                @ rot_z(b.yaw).T
                for b in boxes
            ]
        )
        return pts, boxes

    def test_identity_record_returns_exact_input(self, rng):
        pts, boxes = self._scene(rng)
        # seed 3 draws all three gate probabilities above their thresholds
        for seed in range(200):
            out_pts, out_boxes, record = augment_global(pts, boxes, seed=seed)
            if not record["flip"] and record["scale"] is None and record["rotation"] is None:
                assert np.array_equal(out_pts, pts)
                assert boxes_equal(out_boxes, boxes)
                return
        pytest.fail("no identity draw in 200 seeds")

    def test_flip_algebra(self, rng):
        pts = np.array([[1.0, 2.0, 3.0]])
        boxes = [Box3D(center=np.array([4.0, 5.0, 6.0]), l=2, w=1, h=1, yaw=0.7)]
        for seed in range(200):
            out_pts, out_boxes, record = augment_global(pts, boxes, seed=seed, flip_prob=1.0)
            if record["scale"] is None and record["rotation"] is None:
                assert record["flip"]
                assert np.array_equal(out_pts[0], [1.0, -2.0, 3.0])
                assert np.allclose(out_boxes[0].center, [4.0, -5.0, 6.0])
                assert np.isclose(out_boxes[0].yaw, -0.7)
                return
        pytest.fail("no flip-only draw in 200 seeds")

    def test_containment_preserved(self, rng):
        for trial in range(50):
            pts, boxes = self._scene(rng)
            out_pts, out_boxes, _ = augment_global(pts, boxes, seed=trial)
            offset = 0
            for box in out_boxes:
                idx = points_in_box(out_pts[offset : offset + 40], box, margin=1e-9)
                assert len(idx) == 40
                offset += 40

    def test_seeded_reproducibility(self, rng):
        pts, boxes = self._scene(rng)
        a = augment_global(pts, boxes, seed=17)
        b = augment_global(pts, boxes, seed=17)
        assert np.array_equal(a[0], b[0])
        assert boxes_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_bad_ranges_rejected(self, rng):
        pts, boxes = self._scene(rng)
        with pytest.raises(ValueError):
            augment_global(pts, boxes, seed=0, scale_range=(1.1, 0.9))
