"""NLC transform, ground-truth map construction, mMAE, and the binary format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet import (
    Box3D,
    Calibration,
    NlcMap,
    ParseError,
    build_gt_nlc_map,
    lidar_to_nlc,
    mmae,
    nlc_map_to_csv,
    nlc_to_lidar,
    points_in_box,
    read_nlc_map,
    write_nlc_map,
)
from nlcdet.geometry import project_points
from nlcdet.nlc import object_pixel_sets

from conftest import random_box


class TestTransform:
    def test_center_maps_to_half(self, rng):
        for _ in range(10):
            box = random_box(rng)
            assert np.allclose(lidar_to_nlc(box.center, box), [0.5, 0.5, 0.5])

    def test_corner_example(self):
        box = Box3D(center=np.zeros(3), l=4, w=2, h=1, yaw=0.0)
        assert np.allclose(lidar_to_nlc(np.array([2.0, 1.0, 0.5]), box), [1, 1, 1])

    def test_inverse_examples(self):
        box = Box3D(center=np.zeros(3), l=4, w=2, h=1, yaw=0.0)
        assert np.allclose(nlc_to_lidar(np.array([0.5, 0.5, 0.5]), box), box.center)
        assert np.allclose(nlc_to_lidar(np.array([1.0, 0.5, 0.5]), box), [2, 0, 0])

    def test_round_trip(self, rng):
        for _ in range(100):
            box = random_box(rng)
            n = rng.uniform(0, 1, size=(50, 3))
            back = lidar_to_nlc(nlc_to_lidar(n, box), box)
            assert np.max(np.abs(back - n)) < 1e-12

    def test_containment_equivalence(self, rng):
        for _ in range(10):
            box = random_box(rng)
            pts = box.center + rng.uniform(-1.2, 1.2, size=(300, 3)) * box.dims
            inside = np.zeros(len(pts), dtype=bool)
            inside[points_in_box(pts, box)] = True
            n = lidar_to_nlc(pts, box)
            by_nlc = np.all((n >= -1e-9) & (n <= 1 + 1e-9), axis=1)
            # agree except within 1e-9 of the faces
            boundary = np.any(np.abs(n - np.round(n)) < 1e-9, axis=1)
            assert np.array_equal(inside[~boundary], by_nlc[~boundary])

    def test_scale_invariance(self, rng):
        for _ in range(20):
            box = random_box(rng)
            offset = rng.uniform(-1, 1, size=3) * box.dims
            s = rng.uniform(0.2, 5.0)
            scaled = Box3D(
                center=box.center, l=box.l * s, w=box.w * s, h=box.h * s, yaw=box.yaw
            )
            a = lidar_to_nlc(box.center + offset, box)
            b = lidar_to_nlc(box.center + s * offset, scaled)
            assert np.max(np.abs(a - b)) < 1e-12

    @given(
        nx=st.floats(0, 1), ny=st.floats(0, 1), nz=st.floats(0, 1),
        yaw=st.floats(-3.14, 3.14),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, nx, ny, nz, yaw):
        box = Box3D(center=np.array([3.0, -2.0, 1.0]), l=4.1, w=1.7, h=1.5, yaw=yaw)
        n = np.array([nx, ny, nz])
        assert np.max(np.abs(lidar_to_nlc(nlc_to_lidar(n, box), box) - n)) < 1e-12


def simple_calib():
    K = np.array([[100.0, 0, 32.0], [0, 100.0, 24.0], [0, 0, 1.0]])
    # LiDAR x-forward to camera z-forward
    R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    return Calibration(K=K, R=R, T=np.zeros(3))


class TestGtMap:
    def test_empty_cloud(self):
        m = build_gt_nlc_map(np.zeros((0, 3)), [], simple_calib(), 10, 12)
        assert not m.mask.any()
        assert np.all(m.values == 0.0)
        assert np.all(np.isinf(m.depth))

    def test_single_interior_point(self):
        box = Box3D(center=np.array([10.0, 0, 0]), l=4, w=4, h=4, yaw=0.0)
        p = np.array([[10.0, 0.5, 0.5]])
        m = build_gt_nlc_map(p, [box], simple_calib(), 48, 64)
        assert m.mask.sum() == 1
        r, c = np.argwhere(m.mask)[0]
        assert np.allclose(m.values[r, c], lidar_to_nlc(p[0], box))
        assert np.isclose(m.depth[r, c], 10.0)

    def test_nearest_depth_wins_either_order(self):
        box = Box3D(center=np.array([7.0, 0, 0]), l=8, w=2, h=2, yaw=0.0)
        near = np.array([5.0, 0.0, 0.0])
        far = np.array([8.0, 0.0, 0.0])
        m1 = build_gt_nlc_map(np.vstack([near, far]), [box], simple_calib(), 48, 64)
        m2 = build_gt_nlc_map(np.vstack([far, near]), [box], simple_calib(), 48, 64)
        r, c = np.argwhere(m1.mask)[0]
        assert np.allclose(m1.values[r, c], lidar_to_nlc(near, box))
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(m1.depth, m2.depth)

    def test_point_order_independence(self, rng):
        boxes = [
            Box3D(center=np.array([12.0, -1.0, 0.0]), l=4, w=2, h=2, yaw=0.5),
            Box3D(center=np.array([18.0, 2.0, 0.0]), l=4, w=2, h=2, yaw=-0.8),
        ]
        pts = np.vstack(
            [nlc_to_lidar(rng.uniform(0, 1, size=(200, 3)), b) for b in boxes]
        )
        base = build_gt_nlc_map(pts, boxes, simple_calib(), 48, 64)
        perm = build_gt_nlc_map(pts[rng.permutation(len(pts))], boxes, simple_calib(), 48, 64)
        assert np.array_equal(base.values, perm.values)
        assert np.array_equal(base.mask, perm.mask)
        assert np.array_equal(base.depth, perm.depth)

    def test_mask_false_pixels_are_sentinel(self, rng):
        box = Box3D(center=np.array([12.0, 0, 0]), l=4, w=2, h=2, yaw=0.0)
        pts = nlc_to_lidar(rng.uniform(0, 1, size=(100, 3)), box)
        m = build_gt_nlc_map(pts, [box], simple_calib(), 48, 64)
        assert np.all(m.values[~m.mask] == 0.0)
        assert np.all(np.isinf(m.depth[~m.mask]))
        assert np.all(np.isfinite(m.values[m.mask]))

    def test_multi_box_ownership_by_nearest_center(self):
        # two overlapping boxes; a point inside both belongs to the closer center
        a = Box3D(center=np.array([10.0, 0, 0]), l=6, w=6, h=4, yaw=0.0)
        b = Box3D(center=np.array([12.0, 0, 0]), l=6, w=6, h=4, yaw=0.0)
        p = np.array([[11.8, 0.2, 0.1]])
        _, obj = build_gt_nlc_map(p, [a, b], simple_calib(), 48, 64, return_object_ids=True)
        claimed = obj[obj >= 0]
        assert list(claimed) == [1]


def reference_gt_map(xyz, boxes, calib, height, width):
    """The per-point loop the vectorized map must reproduce bit for bit."""
    values = np.zeros((height, width, 3))
    mask = np.zeros((height, width), dtype=bool)
    depth = np.full((height, width), np.inf)
    obj_ids = np.full((height, width), -1, dtype=int)
    owner = np.full(len(xyz), -1, dtype=int)
    owner_dist = np.full(len(xyz), np.inf)
    for bi, box in enumerate(boxes):
        idx = points_in_box(xyz, box, margin=0.0)
        d = np.linalg.norm(xyz[idx] - box.center, axis=1)
        better = d < owner_dist[idx]
        owner[idx[better]] = bi
        owner_dist[idx[better]] = d[better]
    fg = np.nonzero(owner >= 0)[0]
    u, v, d = project_points(xyz[fg], calib)
    ok = (d > 0) & (u >= 0) & (u < width) & (v >= 0) & (v < height)
    fg, u, v, d = fg[ok], u[ok], v[ok], d[ok]
    rows = np.floor(v).astype(int)
    cols = np.floor(u).astype(int)
    order = np.lexsort((xyz[fg, 2], xyz[fg, 1], xyz[fg, 0], d, rows * width + cols))
    for k in order:
        r, c = rows[k], cols[k]
        if d[k] < depth[r, c]:
            i = fg[k]
            depth[r, c] = d[k]
            values[r, c] = lidar_to_nlc(xyz[i], boxes[owner[i]])
            mask[r, c] = True
            obj_ids[r, c] = owner[i]
    return values, mask, depth, obj_ids


def _lattice_cloud(rng, box, count):
    """Points on a lattice inside the box, coarse along x and fine across it,
    so that many points share a pixel at equal depth."""
    steps = np.array([8, 64, 64])
    return nlc_to_lidar(rng.integers(1, steps, size=(count, 3)) / steps, box)


def _gt_case(name, rng):
    front = Box3D(center=np.array([10.0, 0.0, 0.0]), l=4, w=3, h=2, yaw=0.0)
    if name == "depth_ties":
        # yaw 0: depth is x, so each lattice plane is one depth
        return _lattice_cloud(rng, front, 400), [front]
    if name == "duplicates":
        pts = nlc_to_lidar(rng.uniform(0, 1, size=(150, 3)), front)
        return pts[rng.integers(0, 150, size=400)], [front]
    if name == "overlapping_boxes":
        other = Box3D(center=np.array([11.0, 0.5, 0.3]), l=4, w=3, h=2, yaw=0.4)
        pts = np.vstack([_lattice_cloud(rng, b, 300) for b in (front, other)])
        return pts, [front, other]
    if name == "behind_camera":
        # the mirror of the front box: its points project into the image
        # with negative depth and must not claim pixels
        behind = Box3D(center=np.array([-10.0, 0.0, 0.0]), l=4, w=3, h=2, yaw=0.0)
        pts = np.vstack([_lattice_cloud(rng, b, 300) for b in (front, behind)])
        return pts[rng.permutation(len(pts))], [front, behind]
    if name == "no_foreground":
        pts = front.center + rng.uniform(3.0, 6.0, size=(300, 3)) * rng.choice([-1, 1], size=(300, 3))
        return pts, [front]
    raise ValueError(name)


class TestGtMapReference:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "case",
        ["depth_ties", "duplicates", "overlapping_boxes", "behind_camera", "no_foreground"],
    )
    def test_matches_per_point_loop(self, case, seed):
        pts, boxes = _gt_case(case, np.random.default_rng(seed))
        m, obj = build_gt_nlc_map(pts, boxes, simple_calib(), 48, 64, return_object_ids=True)
        values, mask, depth, obj_ids = reference_gt_map(pts, boxes, simple_calib(), 48, 64)
        assert np.array_equal(m.values, values)
        assert np.array_equal(m.mask, mask)
        assert np.array_equal(m.depth, depth)
        assert np.array_equal(obj, obj_ids)
        assert mask.any() == (case != "no_foreground")


class TestMmae:
    def _setup(self, rng):
        boxes = [
            Box3D(center=np.array([12.0, -1.0, 0.0]), l=4, w=2, h=2, yaw=0.4),
            Box3D(center=np.array([20.0, 2.0, 0.0]), l=4, w=2, h=2, yaw=-0.4),
        ]
        pts = np.vstack(
            [nlc_to_lidar(rng.uniform(0, 1, size=(300, 3)), b) for b in boxes]
        )
        gt, obj = build_gt_nlc_map(pts, boxes, simple_calib(), 48, 64, return_object_ids=True)
        pix = object_pixel_sets(obj, len(boxes))
        return gt, pix

    def test_perfect_prediction(self, rng):
        gt, pix = self._setup(rng)
        (vals, skipped) = mmae(gt, gt.values, pix)
        assert np.array_equal(vals, [0.0, 0.0, 0.0])
        assert skipped == 0

    def test_constant_offset(self, rng):
        gt, pix = self._setup(rng)
        pred = gt.values.copy()
        pred[:, :, 0] += 0.1
        (vals, _) = mmae(gt, pred, pix)
        assert np.allclose(vals, [0.1, 0.0, 0.0])

    def test_object_order_invariance(self, rng):
        gt, pix = self._setup(rng)
        pred = gt.values + rng.normal(0, 0.05, size=gt.values.shape)
        a, _ = mmae(gt, pred, pix)
        b, _ = mmae(gt, pred, list(reversed(pix)))
        assert np.array_equal(a, b)

    def test_empty_object_skipped(self, rng):
        gt, pix = self._setup(rng)
        (vals, skipped) = mmae(gt, gt.values, pix + [np.zeros((0, 2))])
        assert skipped == 1
        assert np.array_equal(vals, [0.0, 0.0, 0.0])

    def test_shape_mismatch_rejected(self, rng):
        gt, pix = self._setup(rng)
        with pytest.raises(ValueError):
            mmae(gt, gt.values[:-1], pix)


class TestNlcmFormat:
    def _map(self, rng, h=6, w=9):
        values = rng.normal(size=(h, w, 3))
        mask = rng.random((h, w)) < 0.4
        values[~mask] = 0.0
        depth = np.where(mask, rng.uniform(1, 50, size=(h, w)), np.inf)
        # store f32-representable payloads so round trips are bit-exact
        return NlcMap(
            values=values.astype(np.float32).astype(float),
            mask=mask,
            depth=depth.astype(np.float32).astype(float),
        )

    def test_round_trip_bit_exact(self, rng):
        m = self._map(rng)
        back = read_nlc_map(write_nlc_map(m))
        assert np.array_equal(back.values, m.values)
        assert np.array_equal(back.mask, m.mask)
        assert np.array_equal(back.depth, m.depth)

    def test_serialization_deterministic(self, rng):
        m = self._map(rng)
        assert write_nlc_map(m) == write_nlc_map(m)

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            read_nlc_map(b"XXXX" + b"\x00" * 20)

    def test_bad_version(self, rng):
        data = bytearray(write_nlc_map(self._map(rng)))
        data[4] = 9
        with pytest.raises(ParseError):
            read_nlc_map(bytes(data))

    def test_truncated_payload(self, rng):
        data = write_nlc_map(self._map(rng))
        with pytest.raises(ParseError):
            read_nlc_map(data[:-3])
        with pytest.raises(ParseError):
            read_nlc_map(data + b"\x00")

    def test_arbitrary_bytes_never_crash(self, rng):
        for _ in range(500):
            blob = rng.bytes(int(rng.integers(0, 64)))
            try:
                read_nlc_map(blob)
            except ParseError:
                pass

    def test_csv_lists_exactly_valid_pixels(self, rng):
        m = self._map(rng)
        text = nlc_map_to_csv(m)
        lines = text.strip().splitlines()
        assert lines[0] == "row,col,x_nlc,y_nlc,z_nlc,depth"
        assert len(lines) == 1 + int(m.mask.sum())
        for line in lines[1:]:
            r, c, x, y, z, d = line.split(",")
            r, c = int(r), int(c)
            assert m.mask[r, c]
            assert float(x) == m.values[r, c, 0]
            assert float(d) == m.depth[r, c]
