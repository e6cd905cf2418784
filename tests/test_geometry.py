"""Frames, projection, box containment, and rotated-box IoU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet import (
    BehindCamera,
    Box3D,
    Calibration,
    InvalidValue,
    ShapeError,
    box_corners,
    dof_analysis,
    iou_3d,
    lidar_to_nlc,
    nlc_to_lidar,
    normalize_angle,
    points_in_box,
    project_point,
    project_points,
    rot_z,
    solve_box,
)
from nlcdet import geometry
from nlcdet.propagation import ProjectionPlan

from conftest import random_box


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e101])
    def test_point_beyond_range_rejected(self, value):
        with pytest.raises(InvalidValue, match="point coordinates"):
            project_point(np.array([1.0, value, 2.0]), identity_calib())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e101])
    def test_batch_point_beyond_range_rejected(self, value):
        pts = np.array([[1.0, 0.5, 2.0], [0.0, 0.0, 1.0]])
        pts[1, 0] = value
        with pytest.raises(InvalidValue, match="point coordinates"):
            project_points(pts, identity_calib())

    def test_tiny_positive_depth_projects_as_the_batch_does(self):
        # a point just in front of the camera plane has an image position
        p = np.array([1e-10, -2e-10, 1e-10])
        u, v, d = project_points(p.reshape(1, 3), identity_calib())
        assert project_point(p, identity_calib()) == (u[0], v[0], d[0]) == (1.0, -2.0, 1e-10)

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

    @pytest.mark.parametrize("entry", ["K00", "K01", "K22", "T0", "T2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e101])
    def test_non_finite_or_huge_calibration_rejected(self, entry, value):
        K, T = np.array([[700.0, 0.0, 600.0], [0.0, 700.0, 180.0], [0.0, 0.0, 1.0]]), np.zeros(3)
        if entry[0] == "K":
            K[int(entry[1]), int(entry[2])] = value
        else:
            T[int(entry[1])] = value
        with pytest.raises(InvalidValue):
            Calibration(K=K, T=T)

    def test_rotation_checked_to_1e9_on_the_diagonal_too(self):
        # R @ R.T and det are off by about 1e-5 here, all of it on the diagonal
        with pytest.raises(ValueError, match="orthonormal"):
            Calibration(K=np.eye(3), R=np.diag([1.0 + 4.9e-6, 1.0, 1.0]))
        Calibration(K=np.eye(3), R=np.diag([1.0 + 4e-10, 1.0, 1.0]))


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

    @pytest.mark.parametrize("field, value", [
        ("l", np.inf), ("w", np.inf), ("h", np.inf), ("yaw", np.nan), ("yaw", np.inf),
        ("yaw", -np.inf),
    ])
    def test_non_finite_size_or_yaw_rejected(self, field, value):
        fields = {"center": np.zeros(3), "l": 1.0, "w": 1.0, "h": 1.0, "yaw": 0.0}
        with pytest.raises(ValueError):
            Box3D(**{**fields, field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, value):
        with pytest.raises(InvalidValue):
            Box3D(center=np.array([0.0, value, 0.0]), l=1.0, w=1.0, h=1.0, yaw=0.0)

    def test_center_is_a_read_only_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        box = Box3D(center=source, l=4.0, w=2.0, h=1.5, yaw=0.3)
        source[:] = 0.0
        assert box.center.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            box.center[0] = 5.0
        assert box.center.tolist() == [1.0, 2.0, 3.0]

    def test_cached_footprint_changes_no_result(self, rng):
        for _ in range(20):
            a, b = random_box(rng, center_scale=2.0), random_box(rng, center_scale=2.0)
            corners, iou = box_corners(a), iou_3d(a, b)
            fresh = (Box3D(center=a.center, l=a.l, w=a.w, h=a.h, yaw=a.yaw),
                     Box3D(center=b.center, l=b.l, w=b.w, h=b.h, yaw=b.yaw))
            footprint = a._bev_corners  # filled here if iou_3d did not read it
            assert np.array_equal(box_corners(a), corners)
            assert np.array_equal(footprint, corners[:4, :2])
            assert iou_3d(a, b) == iou_3d(b, a) == iou_3d(*fresh) == iou
            with pytest.raises(ValueError):
                footprint[0, 0] = 0.0

    def test_angle_just_above_pi_wraps_to_pi(self):
        # (pi - theta) % 2 pi rounds up to 2 pi here, which would give -pi
        theta = np.nextafter(np.pi, 4.0)
        assert normalize_angle(theta) == np.pi
        assert Box3D(center=np.zeros(3), l=1.0, w=1.0, h=1.0, yaw=theta).yaw == np.pi

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
            assert 0 in points_in_box(box.center.reshape(1, 3), box)

    def test_far_point_excluded(self):
        box = Box3D(center=np.zeros(3), l=2, w=1, h=1, yaw=0.3)
        p = box.center + 2 * box.l * rot_z(box.yaw)[:, 0]
        # at 2l along the heading the normalized coordinate is 2.5
        assert len(points_in_box(p.reshape(1, 3), box)) == 0

    def test_matches_half_space_oracle(self, rng):
        for _ in range(5):
            box = random_box(rng)
            pts = rng.uniform(-25, 25, size=(1000, 3))
            got = set(points_in_box(pts, box))
            # oracle: test each face half-space in the corner frame directly
            rot = rot_z(box.yaw)
            expected = set()
            for i, p in enumerate(pts):
                local = rot.T @ (p - box.center)
                if np.all(np.abs(local) <= box.dims / 2):
                    expected.add(i)
            assert got == expected


def five_key_nearest(xyz, u, v, d, height, width):
    """The z-buffer as one five-key sort: candidates ordered by (cell, depth,
    x, y, z), the first of each cell kept."""
    cells, inside = geometry._pixel_cells(u, v, height, width)
    idx = np.nonzero(inside & (d > 0) & (d < np.inf))[0]
    order = np.lexsort((xyz[idx, 2], xyz[idx, 1], xyz[idx, 0], d[idx], cells[idx]))
    idx, cells = idx[order], cells[idx[order]]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    return idx[first], cells[first]


def _cloud(seed, ties, duplicates, height=6, width=8):
    """A seeded cloud over a (height, width) image with the camera looking
    along +z, so a point's depth is its z: points in front and behind the
    camera, ``ties`` copies of points moved sideways by one ulp (equal
    depth, same pixel as a rule), ``duplicates`` exact copies, all in a
    shuffled order, then NaN written into a few rows of (u, v, d).  Only the
    copies give two points one depth."""
    rng = np.random.default_rng(seed)
    calib = Calibration(K=np.array([[4.0, 0.0, width / 2], [0.0, 4.0, height / 2], [0.0, 0.0, 1.0]]))
    z = np.where(rng.uniform(size=200) < 0.1, -3.0, rng.uniform(2.0, 5.0, size=200))
    xyz = np.column_stack([rng.uniform(-1, 1, size=(200, 2)) * np.abs(z)[:, None], z])
    moved = xyz[rng.integers(0, 200, size=ties)]
    moved[:, 0] = np.nextafter(moved[:, 0], np.inf)
    xyz = np.vstack([xyz, moved, xyz[rng.integers(0, 200, size=duplicates)]])
    xyz = xyz[rng.permutation(len(xyz))]
    u, v, d = project_points(xyz, calib)
    for arr in (u, v, d):
        arr[rng.integers(0, len(xyz), size=5)] = np.nan
    return xyz, u, v, d, height, width


def _nearest_depth_shared(xyz, u, v, d, height, width):
    """Whether some pixel's nearest depth belongs to two of its candidates."""
    win, cells = five_key_nearest(xyz, u, v, d, height, width)
    all_cells, inside = geometry._pixel_cells(u, v, height, width)
    ok = inside & (d > 0) & (d < np.inf)
    return any(np.sum(ok & (all_cells == c) & (d == d[w])) > 1 for w, c in zip(win, cells))


class TestNearestPerPixel:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties, duplicates", [(0, 0), (40, 0), (0, 40), (40, 40)])
    def test_matches_five_key_sort(self, seed, ties, duplicates):
        cloud = _cloud(seed, ties, duplicates)
        # with copies, some pixel's nearest depth is shared and the
        # tie-breaking sort runs; without, the first sort decides alone
        assert _nearest_depth_shared(*cloud) == bool(ties or duplicates)
        win, cells = geometry._nearest_per_pixel(*cloud)
        ref_win, ref_cells = five_key_nearest(*cloud)
        assert np.array_equal(win, ref_win) and win.dtype == ref_win.dtype
        assert np.array_equal(cells, ref_cells) and cells.dtype == ref_cells.dtype
        assert len(win) > 0

    def test_winners_do_not_depend_on_input_order(self):
        xyz, u, v, d, h, w = _cloud(0, 40, 40)
        perm = np.random.default_rng(1).permutation(len(xyz))
        win, cells = geometry._nearest_per_pixel(xyz, u, v, d, h, w)
        pwin, pcells = geometry._nearest_per_pixel(xyz[perm], u[perm], v[perm], d[perm], h, w)
        assert np.array_equal(cells, pcells)
        assert np.array_equal(xyz[win], xyz[perm][pwin])

    @pytest.mark.parametrize("rows", [0, 3])
    def test_no_candidates(self, rows):
        # no points at all, or only NaN and behind-camera rows
        xyz = np.tile([[0.0, 0.0, -1.0]], (rows, 1))
        u, v, d = np.full(rows, np.nan), np.full(rows, np.nan), np.array([-1.0, np.nan, 2.0][:rows])
        win, cells = geometry._nearest_per_pixel(xyz, u, v, d, 6, 8)
        ref_win, ref_cells = five_key_nearest(xyz, u, v, d, 6, 8)
        assert len(win) == len(cells) == 0
        assert win.dtype == ref_win.dtype and cells.dtype == ref_cells.dtype


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


def reference_clip_polygon(subject, clip):
    """Sutherland-Hodgman on NumPy rows: the arithmetic ``_clip_polygon``
    must reproduce bit for bit."""
    output = subject
    m = len(clip)
    for i in range(m):
        if len(output) == 0:
            break
        a, b = clip[i], clip[(i + 1) % m]
        edge = b - a
        inp = output
        output = []
        prev = inp[-1]
        s_prev = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in inp:
            s_cur = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if (s_cur >= 0) != (s_prev >= 0):
                output.append(prev + s_prev / (s_prev - s_cur) * (cur - prev))
            if s_cur >= 0:
                output.append(cur)
            prev, s_prev = cur, s_cur
        output = np.asarray(output).reshape(-1, 2)
    return np.asarray(output).reshape(-1, 2)


def reference_shoelace_area(poly):
    """The shoelace formula with each coordinate's successor by ``np.roll``:
    the arithmetic ``_shoelace_area`` must reproduce bit for bit."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def reference_iou(a, b):
    """``iou_3d`` with no prefilter: every pair is clipped, the smaller
    footprint by the larger."""
    def key(box):
        l, w = float(box.l), float(box.w)
        return (l * w, l, w, box.yaw, float(box.center[0]), float(box.center[1]))

    small, large = (a, b) if key(a) <= key(b) else (b, a)
    with np.errstate(all="ignore"):
        footprints = (box_corners(small)[:4, :2], box_corners(large)[:4, :2])
        area = reference_shoelace_area(reference_clip_polygon(*footprints))
        if area < 1e-12:
            return 0.0
        dz = min(a.center[2] + a.h / 2, b.center[2] + b.h / 2) - max(
            a.center[2] - a.h / 2, b.center[2] - b.h / 2)
        if dz <= 0:
            return 0.0
        inter = area * dz
        return float(min(max(inter / (a.volume + b.volume - inter), 0.0), 1.0))


def _placed(center, dims, yaw):
    return Box3D(center=np.asarray(center, dtype=float), l=dims[0], w=dims[1], h=dims[2], yaw=yaw)


def _heading(phi):
    return np.array([np.cos(phi), np.sin(phi), 0.0])


_yaws = st.floats(-np.pi, np.pi)
_sizes = st.floats(0.05, 8.0)
_scales = st.integers(-3, 13).map(lambda k: 10.0**k)


@st.composite
def _nearby_pairs(draw):
    xy = st.floats(-6.0, 6.0)
    return tuple(
        _placed([draw(xy), draw(xy), draw(st.floats(-1.0, 1.0))],
                [draw(_sizes) for _ in range(3)], draw(_yaws))
        for _ in range(2)
    )


@st.composite
def _corner_touching_pairs(draw):
    """Two boxes with one heading, placed so that corners (or edges) meet."""
    yaw, scale = draw(_yaws), draw(_scales)
    da, db = ([scale * draw(_sizes) for _ in range(3)] for _ in range(2))
    sx, sy = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 0, 1]))
    ca = np.array([draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)), 0.0])
    offset = rot_z(yaw) @ [sx * (da[0] + db[0]) / 2, sy * (da[1] + db[1]) / 2, 0.0]
    return _placed(ca, da, yaw), _placed(ca + offset, db, yaw)


def _at_reach(phi, da, db, ulps):
    """Boxes turned so that a corner of each points at the other along the
    heading ``phi``, with the center distance equal to the prefilter's reach
    times (1 + ulps * eps)."""
    reach = (np.hypot(da[0], da[1]) + np.hypot(db[0], db[1])) / 2
    dist = reach * (1.0 + ulps * np.finfo(float).eps)
    a = _placed([0.0, 0.0, 0.0], da, phi - np.arctan2(da[1], da[0]))
    b = _placed(dist * _heading(phi), db, phi + np.pi - np.arctan2(db[1], db[0]))
    return a, b


@st.composite
def _pairs_at_reach(draw):
    phi, scale = draw(_yaws), draw(_scales)
    da, db = ([scale * draw(_sizes) for _ in range(3)] for _ in range(2))
    if draw(st.booleans()):  # squares, turned 45 degrees to the center line
        da[1], db[1] = da[0], db[0]
    return _at_reach(phi, da, db, draw(st.integers(-4, 4)))


# Pairs one ulp beyond the reach whose rounded corners still overlap, so the
# full clip finds a sliver (found by a random search of _at_reach cases)
_SLIVERS_BEYOND_REACH = [
    (-3.128459667838821, [676244995451.128, 7779397888834.73, 1323674479645.978],
     [460746381508.38135, 1802906054777.9805, 1060862376299.0934]),
    (0.38705710657070513, [465124845391.1908, 52610404717.22573, 311955145746.2647],
     [36835934400.50468, 760853145631.5156, 117562316445.03894]),
    (0.1309357121182706, [4484126728819.481, 704483395861.6688, 2118218681545.3145],
     [7306065902955.231, 700343181679.4484, 441136239180.7633]),
    (2.9523985816062046, [448809556181.37317, 93226254271.32526, 68137715807.11005],
     [74661541029.24733, 180005101803.86237, 731100785956.0027]),
    (1.4755531622994411, [8409946.250676548, 21316198.010232948, 64229224.473119535],
     [71261237.71430485, 24400250.807106312, 59520290.65930264]),
]


@st.composite
def _huge_pairs(draw):
    """A 4 x 2 x 1.5 m box near or inside one that is 1e300 m long and maybe
    as wide."""
    small = _placed([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)), 0.0],
                    [4.0, 2.0, 1.5], draw(_yaws))
    w = draw(st.sampled_from([4.0, 1e150, 1e300]))
    huge = _placed([draw(st.sampled_from([0.0, 1e299, -3e299])), 0.0, 0.0],
                   [1e300, w, draw(st.sampled_from([1.5, 1e300]))], draw(_yaws))
    return (small, huge) if draw(st.booleans()) else (huge, small)


class TestIouReference:
    """``iou_3d`` against ``reference_iou``, value for value, in both orders."""

    @staticmethod
    def _check(pair):
        a, b = pair
        want = reference_iou(a, b)
        assert iou_3d(a, b) == want and iou_3d(b, a) == want, (a, b)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_nearby_pairs())
    def test_nearby(self, pair):
        self._check(pair)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_corner_touching_pairs())
    def test_corner_touching(self, pair):
        self._check(pair)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_pairs_at_reach())
    def test_at_reach(self, pair):
        self._check(pair)

    @pytest.mark.parametrize("phi, da, db", _SLIVERS_BEYOND_REACH)
    def test_sliver_one_ulp_beyond_reach(self, phi, da, db):
        a, b = _at_reach(phi, da, db, 1)
        assert reference_iou(a, b) > 0.0  # the pad is what keeps these clipped
        self._check((a, b))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_huge_pairs())
    def test_huge(self, pair):
        self._check(pair)

    def test_small_box_inside_huge_one(self):
        small = _placed([0.0, 0.0, 0.0], [4.0, 2.0, 1.5], 0.3)
        for yaw in (0.0, 0.7):
            huge = _placed([0.0, 0.0, 0.0], [1e150, 4.0, 1.5], yaw)
            assert iou_3d(small, huge) == iou_3d(huge, small) == pytest.approx(2e-150, rel=1e-12)



_ROW_BOX = Box3D(center=np.array([10.0, 1.0, 0.0]), l=4.0, w=2.0, h=1.5, yaw=0.3)

# each entry point that reads rows of a fixed width, and that width
_ROW_READERS = {
    "solve_box": (lambda a: solve_box(a), 6),
    "dof_analysis": (lambda a: dof_analysis(a, at=_ROW_BOX), 6),
    "lidar_to_nlc": (lambda a: lidar_to_nlc(a, _ROW_BOX), 3),
    "nlc_to_lidar": (lambda a: nlc_to_lidar(a, _ROW_BOX), 3),
    "points_in_box": (lambda a: points_in_box(a, _ROW_BOX), 3),
    "project_points": (lambda a: project_points(a, identity_calib()), 3),
    "ProjectionPlan": (lambda a: ProjectionPlan(a, 4, 5), 2),
}


class TestRowWidth:
    """An array of another width raises ShapeError instead of being read as
    rows of the expected width."""

    @pytest.mark.parametrize("reader, shape", [
        ("solve_box", (12, 3)),
        ("dof_analysis", (12, 3)),
        ("lidar_to_nlc", (3, 2)),
        ("nlc_to_lidar", (3, 2)),
        ("points_in_box", (3, 2)),
        ("project_points", (3, 2)),
        ("project_points", (4, 2)),
        ("ProjectionPlan", (3, 4)),
        ("ProjectionPlan", (2, 3, 2)),
    ])
    def test_wrong_width_rejected(self, reader, shape):
        call, width = _ROW_READERS[reader]
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 10
        with pytest.raises(ShapeError, match=rf"must be \(N, {width}\), got shape"):
            call(values)

    @pytest.mark.parametrize("reader", sorted(_ROW_READERS))
    def test_rows_and_one_row_accepted(self, reader):
        call, width = _ROW_READERS[reader]
        nlc = np.random.default_rng(0).uniform(0.1, 0.9, size=(4, 3))
        pts = nlc_to_lidar(nlc, _ROW_BOX)
        rows = {6: np.hstack([pts, nlc]), 3: pts, 2: nlc[:, :2]}[width]
        call(rows)
        if reader != "solve_box":  # which needs three rows
            call(rows[0])

    def test_single_point_keeps_its_shape(self):
        p = np.array([10.5, 1.2, 0.1])
        assert lidar_to_nlc(p, _ROW_BOX).shape == (3,)
        assert nlc_to_lidar(p, _ROW_BOX).shape == (3,)
        assert np.array_equal(lidar_to_nlc(p, _ROW_BOX), lidar_to_nlc(p[None], _ROW_BOX)[0])

    @pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 3))], ids=["list", "1d", "2d"])
    def test_no_points_give_no_rows(self, empty):
        assert lidar_to_nlc(empty, _ROW_BOX).shape == (0, 3)
        assert nlc_to_lidar(empty, _ROW_BOX).shape == (0, 3)
        assert len(points_in_box(empty, _ROW_BOX)) == 0

    @pytest.mark.parametrize("make, values, what", [
        (lambda a: Box3D(center=a, l=4.0, w=2.0, h=1.5, yaw=0.0), [1.0, 2.0], "box center"),
        (lambda a: Box3D(center=a, l=4.0, w=2.0, h=1.5, yaw=0.0), np.ones((2, 3)), "box center"),
        (lambda a: Calibration(K=a), np.eye(2), "K"),
        (lambda a: Calibration(K=np.eye(3), R=a), np.eye(2), "R"),
        (lambda a: Calibration(K=np.eye(3), T=a), [0.0, 0.0], "T"),
        (lambda a: project_point(a, identity_calib()), np.ones((2, 3)), "point"),
    ], ids=["center-2", "center-6", "K-2x2", "R-2x2", "T-2", "project_point-2x3"])
    def test_wrong_value_count_rejected(self, make, values, what):
        # a typed error, not NumPy's ValueError from a reshape
        with pytest.raises(ShapeError, match=rf"^{what} must hold \d+ values, got shape"):
            make(values)
