"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of its seed.  Geometry is written out
with its own arithmetic rather than through ``nlcdet`` so that the
references the workloads check against do not share code with the library
under test; only the KITTI file writers come from the library, because
writing the files is what a user of ``nlcdet nlcmap`` does too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# KITTI-sized camera: the intrinsics of KITTI's P2, an exact small
# rectification rotation and the usual LiDAR-to-camera axis permutation.
IMG_H, IMG_W = 375, 1242
_P2 = np.array(
    [
        [721.5377, 0.0, 609.5593, 44.85728],
        [0.0, 721.5377, 172.854, 0.2163791],
        [0.0, 0.0, 1.0, 0.002745884],
    ]
)
_VELO_T = np.array([-0.004069766, -0.07631618, -0.2717806])
_AXES = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
GROUND_Z = -1.73
MIN_GAP = 0.5  # metres of bird's-eye clearance between sampled boxes
# decode instances: correspondences per object, the share of clean objects,
# and the share of NLC targets replaced by noise on the others
CORRS = 30
CLEAN_FRAC = 0.5
OUTLIER_FRAC = 0.1


def _rot(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


def rot_z(yaw: float) -> np.ndarray:
    return _rot(2, yaw)


@dataclass
class Boxes:
    """Oriented boxes as arrays: centers (B, 3), dims (B, 3) as l/w/h, yaws (B,)."""

    centers: np.ndarray
    dims: np.ndarray
    yaws: np.ndarray

    def __len__(self) -> int:
        return len(self.yaws)

    def to_local(self, i: int, pts: np.ndarray) -> np.ndarray:
        """Normalized box coordinates of ``pts`` in box ``i`` ([0, 1]^3 inside)."""
        return (pts - self.centers[i]) @ rot_z(self.yaws[i]) / self.dims[i] + 0.5

    def from_local(self, i: int, nlc: np.ndarray) -> np.ndarray:
        return self.centers[i] + ((nlc - 0.5) * self.dims[i]) @ rot_z(self.yaws[i]).T


def sample_boxes(rng, count, x_range, max_azimuth) -> Boxes:
    """Car-sized boxes on the ground plane, disjoint in bird's-eye view."""
    centers, dims, yaws = [], [], []
    while len(yaws) < count:
        x = rng.uniform(*x_range)
        y = x * np.tan(rng.uniform(-max_azimuth, max_azimuth))
        lwh = np.array([rng.uniform(3.5, 4.8), rng.uniform(1.6, 2.0), rng.uniform(1.4, 1.8)])
        c = np.array([x, y, GROUND_Z + lwh[2] / 2.0])
        reach = np.hypot(lwh[0], lwh[1]) / 2.0
        if all(
            np.hypot(*(c - oc)[:2]) > reach + np.hypot(od[0], od[1]) / 2.0 + MIN_GAP
            for oc, od in zip(centers, dims)
        ):
            centers.append(c)
            dims.append(lwh)
            yaws.append(rng.uniform(-np.pi, np.pi))
    return Boxes(np.array(centers), np.array(dims), np.array(yaws))


def shell_points(rng, boxes: Boxes, i: int, count: int) -> np.ndarray:
    """Points just inside the faces of box ``i``, as a LiDAR return would be."""
    nlc = rng.uniform(0.03, 0.97, size=(count, 3))
    axis = rng.integers(0, 3, size=count)
    nlc[np.arange(count), axis] = np.where(rng.integers(0, 2, size=count) == 0, 0.03, 0.97)
    return boxes.from_local(i, nlc)


# ---------------------------------------------------------------- KITTI frames


def kitti_camera(seed: int):
    """(P2, R0_rect, Tr_velo_to_cam) with a seeded, exactly orthonormal rectification."""
    rng = np.random.default_rng([seed, 7])
    r0 = _rot(0, rng.uniform(-0.005, 0.005)) @ _rot(1, rng.uniform(-0.01, 0.01))
    tr = np.column_stack([_AXES, _VELO_T])
    return _P2.copy(), r0, tr


def project(xyz: np.ndarray, p2, r0, tr):
    """Pixel (u, v) and depth d of LiDAR points through the KITTI chain."""
    k, p4 = p2[:, :3], p2[:, 3]
    rot = r0 @ tr[:, :3]
    trans = r0 @ tr[:, 3] + np.linalg.solve(k, p4)
    hom = (xyz @ rot.T + trans) @ k.T
    d = hom[:, 2]
    return hom[:, 0] / d, hom[:, 1] / d, d


@dataclass
class KittiFrame:
    points: np.ndarray  # (N, 4) float32 as written to the .bin file
    boxes: Boxes
    owner: np.ndarray  # (N,) box index per point, -1 for background


def kitti_frame(seed: int, index: int, total_points=120_000, num_boxes=10,
                fg_points=20_000) -> KittiFrame:
    """One full 360-degree sweep: boxes in the camera's view, background all round.

    About a fifth of the background lies behind the camera, inside the
    mirror image of its field of view; those points project into the image
    with negative depth.
    """
    rng = np.random.default_rng([seed, 11, index])
    boxes = sample_boxes(rng, num_boxes, (8.0, 45.0), np.radians(30.0))
    per_box = np.full(num_boxes, fg_points // num_boxes)
    per_box[: fg_points % num_boxes] += 1
    fg = [shell_points(rng, boxes, i, int(n)) for i, n in enumerate(per_box)]

    n_bg = total_points - fg_points
    bg = np.empty((0, 3))
    while len(bg) < n_bg:
        need = n_bg - len(bg)
        az = rng.uniform(-np.pi, np.pi, size=need)
        ground = rng.random(need) < 0.6
        r = np.where(ground, rng.uniform(3.0, 70.0, need), rng.uniform(5.0, 60.0, need))
        z = np.where(ground, GROUND_Z + rng.normal(0.0, 0.02, need), rng.uniform(-1.7, 2.5, need))
        cand = np.column_stack([r * np.cos(az), r * np.sin(az), z])
        keep = np.ones(need, dtype=bool)
        for i in range(len(boxes)):
            keep &= np.abs(boxes.to_local(i, cand) - 0.5).max(axis=1) > 0.6
        bg = np.vstack([bg, cand[keep]])
    xyz = np.vstack(fg + [bg[:n_bg]])
    owner = np.concatenate([np.full(int(n), i) for i, n in enumerate(per_box)] + [np.full(n_bg, -1)])
    order = rng.permutation(len(xyz))
    points = np.column_stack([xyz, rng.uniform(0.0, 1.0, len(xyz))]).astype("<f4")[order]
    return KittiFrame(points=points, boxes=boxes, owner=owner[order])


def reference_pixel_counts(frame: KittiFrame, camera, height=IMG_H, width=IMG_W):
    """Per-box pixel counts of the ground-truth NLC map, by sort-and-take-first.

    A foreground point in front of the camera and inside the image claims
    its pixel when it is the nearest one there; this is the rule
    ``build_gt_nlc_map`` documents, computed without its per-point loop.
    """
    xyz = frame.points[:, :3].astype(float)
    fg = np.nonzero(frame.owner >= 0)[0]
    u, v, d = project(xyz[fg], *camera)
    ok = (d > 0) & (u >= 0) & (u < width) & (v >= 0) & (v < height)
    fg, u, v, d = fg[ok], u[ok], v[ok], d[ok]
    cells = np.floor(v).astype(int) * width + np.floor(u).astype(int)
    order = np.lexsort((xyz[fg, 2], xyz[fg, 1], xyz[fg, 0], d, cells))
    first = np.ones(len(order), dtype=bool)
    first[1:] = cells[order][1:] != cells[order][:-1]
    winners = frame.owner[fg[order][first]]
    return np.bincount(winners, minlength=len(frame.boxes))


# ------------------------------------------------------------ decode instances


@dataclass
class DecodeFrame:
    gt: Boxes
    instances: list  # (M, 6) correspondences: LiDAR xyz then NLC
    kinds: list  # "clean", "outlier" or "clutter" per instance
    owners: list  # gt index per instance, -1 for clutter


def decode_frames(seed: int, index: int, count=25, objects=10, clutter=2):
    """A sequence of frames of object-level NLC correspondences, as an NLC head would feed the solver.

    A fixed share of objects is clean; the rest have ``OUTLIER_FRAC`` of their
    NLC targets replaced by uniform noise.  Each clutter instance mixes the
    correspondences of two objects, so its fitted box matches nothing.
    """
    rng = np.random.default_rng([seed, 13, index])
    frames = []
    n_clean = int(round(CLEAN_FRAC * objects))
    n_bad = int(round(OUTLIER_FRAC * CORRS))
    for _ in range(count):
        gt = sample_boxes(rng, objects, (5.0, 50.0), np.radians(40.0))
        instances, kinds, owners = [], [], []
        for i in range(objects):
            nlc = rng.uniform(0.0, 1.0, size=(CORRS, 3))
            pts = gt.from_local(i, nlc)
            kind = "clean" if i < n_clean else "outlier"
            if kind == "outlier":
                bad = rng.choice(CORRS, size=n_bad, replace=False)
                nlc[bad] = rng.uniform(0.0, 1.0, size=(n_bad, 3))
            instances.append(np.hstack([pts, nlc]))
            kinds.append(kind)
            owners.append(i)
        for _ in range(clutter):
            a, b = rng.choice(objects, size=2, replace=False)
            half = CORRS // 2
            mixed = [instances[a][:half], instances[b][half:]]
            instances.append(np.vstack(mixed))
            kinds.append("clutter")
            owners.append(-1)
        frames.append(DecodeFrame(gt=gt, instances=instances, kinds=kinds, owners=owners))
    return frames
