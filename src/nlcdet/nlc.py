"""Normalized-local-coordinate transform, ground-truth map construction, and mMAE.

The normalized local coordinate (NLC) of a point expresses its position in
its object's box frame, scaled by the box dimensions and shifted so the box
interior maps to [0, 1]^3.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .geometry import (
    Box3D, Calibration, _nearest_per_pixel, _to_box_frame, points_in_box, project_points, rot_z,
)

__all__ = [
    "NlcMap",
    "lidar_to_nlc",
    "nlc_to_lidar",
    "build_gt_nlc_map",
    "mmae",
    "write_nlc_map",
    "read_nlc_map",
    "nlc_map_to_csv",
]

NLCM_MAGIC = b"NLCM"
NLCM_VERSION = 1


@dataclass
class NlcMap:
    """Image-aligned NLC map: H x W x 3 values, validity mask, per-pixel depth.

    Pixels with ``mask`` false hold exactly (0, 0, 0) and depth +inf.
    """

    values: np.ndarray  # (H, W, 3) float
    mask: np.ndarray  # (H, W) bool
    depth: np.ndarray  # (H, W) float, +inf where mask is false

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def lidar_to_nlc(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Map LiDAR-frame points into the box's normalized local frame.

    Accepts a single (3,) point or an (N, 3) array; returns the same shape.
    Values outside [0, 1]^3 are legal and mean "outside the box".
    """
    pts = np.asarray(points, dtype=float)
    n = _to_box_frame(pts, box)
    return n[0] if pts.ndim == 1 else n


def nlc_to_lidar(nlc: np.ndarray, box: Box3D) -> np.ndarray:
    """Exact inverse of :func:`lidar_to_nlc`."""
    n = np.asarray(nlc, dtype=float)
    single = n.ndim == 1
    n = n.reshape(-1, 3)
    pts = box.center + ((n - 0.5) * box.dims) @ rot_z(box.yaw).T
    return pts[0] if single else pts


def build_gt_nlc_map(
    points: np.ndarray,
    boxes: list[Box3D],
    calib: Calibration,
    height: int,
    width: int,
    return_object_ids: bool = False,
):
    """Construct the ground-truth NLC map by projecting foreground points.

    A point inside some box (zero margin) whose projection lands in
    [0, W) x [0, H) with positive depth writes its NLC at pixel
    (floor(v), floor(u)).  Conflicts resolve deterministically: the
    nearest-depth point wins a pixel (ties broken by lexicographic point
    coordinates), and a point inside several boxes belongs to the box whose
    center is nearest (ties broken by box index).

    With ``return_object_ids`` also returns an (H, W) int array giving the
    claiming box index per mask-true pixel (-1 elsewhere).
    """
    if height <= 0 or width <= 0:
        raise ValueError("map dimensions must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        xyz = pts.reshape(0, 3)
    else:
        xyz = pts.reshape(len(pts), -1)[:, :3]

    values = np.zeros((height, width, 3))
    mask = np.zeros((height, width), dtype=bool)
    depth = np.full((height, width), np.inf)
    obj_ids = np.full((height, width), -1, dtype=int)

    if len(xyz) and boxes:
        # assign each foreground point to its nearest-center containing box
        owner = np.full(len(xyz), -1, dtype=int)
        owner_dist = np.full(len(xyz), np.inf)
        for bi, box in enumerate(boxes):
            idx = points_in_box(xyz, box, margin=0.0)
            if len(idx) == 0:
                continue
            d = np.linalg.norm(xyz[idx] - box.center, axis=1)
            better = d < owner_dist[idx]
            owner[idx[better]] = bi
            owner_dist[idx[better]] = d[better]

        fg = np.nonzero(owner >= 0)[0]
        u, v, d = project_points(xyz[fg], calib)
        win, cells = _nearest_per_pixel(xyz[fg], u, v, d, height, width)
        win_owner = owner[fg[win]]
        depth.flat[cells] = d[win]
        mask.flat[cells] = True
        obj_ids.flat[cells] = win_owner
        for bi in np.unique(win_owner):
            sel = win_owner == bi
            values.reshape(-1, 3)[cells[sel]] = lidar_to_nlc(xyz[fg[win[sel]]], boxes[bi])

    result = NlcMap(values=values, mask=mask, depth=depth)
    return (result, obj_ids) if return_object_ids else result


def mmae(gt: NlcMap, pred: np.ndarray, object_pixels: list[np.ndarray]):
    """Mean-over-objects of the per-object mean absolute NLC error.

    ``object_pixels`` lists, per object, an (n, 2) array of (row, col)
    foreground pixels.  Objects with zero foreground pixels are excluded and
    counted in the returned skip tally.

    Returns ((mmae_x, mmae_y, mmae_z), skipped).
    """
    pred = np.asarray(pred, dtype=float)
    if pred.shape != gt.values.shape:
        raise ValueError("prediction shape must match the ground-truth map")
    per_object = []
    skipped = 0
    for pix in object_pixels:
        pix = np.asarray(pix, dtype=int).reshape(-1, 2)
        if len(pix) == 0:
            skipped += 1
            continue
        r, c = pix[:, 0], pix[:, 1]
        err = np.abs(gt.values[r, c] - pred[r, c])
        per_object.append(err.mean(axis=0))
    if not per_object:
        return (np.zeros(3), skipped)
    return (np.mean(per_object, axis=0), skipped)


def object_pixel_sets(obj_ids: np.ndarray, num_objects: int) -> list[np.ndarray]:
    """Split an object-id map into per-object (row, col) pixel arrays."""
    return [
        np.argwhere(obj_ids == i).reshape(-1, 2) for i in range(num_objects)
    ]


def write_nlc_map(m: NlcMap) -> bytes:
    """Serialize to the NLCM binary format (bit-exact, little-endian)."""
    h, w = m.height, m.width
    buf = io.BytesIO()
    buf.write(NLCM_MAGIC)
    buf.write(struct.pack("<III", NLCM_VERSION, h, w))
    for ch in range(3):
        buf.write(np.ascontiguousarray(m.values[:, :, ch], dtype="<f4").tobytes())
    buf.write(m.mask.astype(np.uint8).tobytes())
    depth = np.where(m.mask, m.depth, np.inf)
    buf.write(np.ascontiguousarray(depth, dtype="<f4").tobytes())
    return buf.getvalue()


def read_nlc_map(data: bytes) -> NlcMap:
    """Parse the NLCM binary format; raises ParseError on malformed input."""
    if len(data) < 16 or data[:4] != NLCM_MAGIC:
        raise ParseError("not an NLCM file (bad magic)")
    version, h, w = struct.unpack("<III", data[4:16])
    if version != NLCM_VERSION:
        raise ParseError(f"unsupported NLCM version {version}")
    n = h * w
    expected = 16 + 3 * 4 * n + n + 4 * n
    if len(data) != expected:
        raise ParseError(
            f"NLCM payload length {len(data)} != expected {expected} for {h}x{w}"
        )
    off = 16
    channels = []
    for _ in range(3):
        channels.append(
            np.frombuffer(data, dtype="<f4", count=n, offset=off)
            .astype(float)
            .reshape(h, w)
        )
        off += 4 * n
    mask = np.frombuffer(data, dtype=np.uint8, count=n, offset=off).reshape(h, w) != 0
    off += n
    depth = (
        np.frombuffer(data, dtype="<f4", count=n, offset=off)
        .astype(float)
        .reshape(h, w)
    )
    return NlcMap(values=np.stack(channels, axis=-1), mask=mask, depth=depth)


def nlc_map_to_csv(m: NlcMap) -> str:
    """CSV export: one ``row,col,x_nlc,y_nlc,z_nlc,depth`` line per valid pixel."""
    lines = ["row,col,x_nlc,y_nlc,z_nlc,depth"]
    for r, c in np.argwhere(m.mask):
        x, y, z = (float(t) for t in m.values[r, c])
        lines.append(f"{r},{c},{x!r},{y!r},{z!r},{float(m.depth[r, c])!r}")
    return "\n".join(lines) + "\n"
