"""Normalized-local-coordinate transform, ground-truth map construction, and mMAE.

The normalized local coordinate (NLC) of a point expresses its position in
its object's box frame, scaled by the box dimensions and shifted so the box
interior maps to [0, 1]^3.

The ground truth of an image is its foreground pixels: the flat cells that
foreground points claim, each with its NLC triple, depth and owning box.
:func:`build_gt_nlc_map` builds the dense map from them, and one writer
streams the NLCM planes from them, so ``nlcdet nlcmap`` writes a map and its
CSV without a dense map or a file-sized buffer.

NLCM, the binary form of a map, is little-endian: a 16-byte header (magic
``NLCM``, then uint32 version 1, H and W), then (H, W) row-major planes: the
x, y and z NLC values as float32, the mask as uint8 (0 or 1), and the depth
as float32; where the mask is 0 the values are 0 and the depth is +inf.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidValue, ParseError, ShapeError
from .geometry import (
    Box3D, Calibration, _from_box_frame, _nearest_per_pixel, _point_rows, _require_image_size,
    _to_box_frame, points_in_box, project_points,
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
# the NLCM planes after the header: (dtype, plane count, value at masked-off
# pixels) of the values, mask and depth
_NLCM_PLANES = (("<f4", 3, 0.0), ("u1", 1, 0), ("<f4", 1, np.inf))


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
    n = _to_box_frame(points, box)
    return n[0] if np.shape(points) == (3,) else n


def nlc_to_lidar(nlc: np.ndarray, box: Box3D) -> np.ndarray:
    """Exact inverse of :func:`lidar_to_nlc`."""
    pts = _from_box_frame(nlc, box)
    return pts[0] if np.shape(nlc) == (3,) else pts


def _foreground(points, boxes: list[Box3D], calib: Calibration, height: int, width: int):
    """The ground truth of :func:`build_gt_nlc_map` as its foreground pixels.

    Returns the claimed flat cells ``row * width + col``, ascending, and for
    each its NLC triple (K, 3), depth (K,) and owning box index (K,).  Points
    are (N, >=3), only the first three columns read, or empty; any other
    shape raises ShapeError, and a height or width that is not an integer of
    at least 1 InvalidValue.  Only the coordinates a test reads are converted
    to float64: x of every point, y of the points whose x passes the owner
    prefilter, then xyz of the points that pass it.
    """
    _require_image_size(height, width)
    pts = _point_rows(points)
    if pts.size == 0 or not boxes:
        return np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int)

    # assign each foreground point to its nearest-center containing box; a
    # point inside a box lies within half the box's bird's-eye diagonal of
    # its center along x and along y (padded against rounding), so only the
    # points that pass both tests are transformed.  A point with an infinite
    # z can pass them: its box-frame coordinates are NaN, outside every box.
    owner = np.full(len(pts), -1, dtype=int)
    owner_dist = np.full(len(pts), np.inf)
    x = pts[:, 0].astype(float)
    with np.errstate(invalid="ignore"):
        for bi, box in enumerate(boxes):
            r = 0.5 * np.hypot(box.l, box.w) * (1.0 + 1e-9)
            cx, cy = box.center[:2]
            near = np.flatnonzero(np.abs(x - cx) <= r)
            near = near[np.abs(pts[near, 1].astype(float, copy=False) - cy) <= r]
            xyz = pts[near, :3].astype(float, copy=False)
            inside = points_in_box(xyz, box)
            if len(inside) == 0:
                continue
            idx = near[inside]
            d = np.linalg.norm(xyz[inside] - box.center, axis=1)
            better = d < owner_dist[idx]
            owner[idx[better]] = bi
            owner_dist[idx[better]] = d[better]

    fg = np.flatnonzero(owner >= 0)
    xyz = pts[fg, :3].astype(float, copy=False)
    u, v, d = project_points(xyz, calib)
    win, cells = _nearest_per_pixel(xyz, u, v, d, height, width)
    win_owner = owner[fg[win]]
    nlc = np.empty((len(win), 3))
    for bi in np.unique(win_owner).tolist():
        sel = win_owner == bi
        nlc[sel] = lidar_to_nlc(xyz[win[sel]], boxes[bi])
    return cells, nlc, d[win], win_owner


def build_gt_nlc_map(
    points: np.ndarray,
    boxes: list[Box3D],
    calib: Calibration,
    height: int,
    width: int,
) -> tuple[NlcMap, np.ndarray]:
    """Construct the ground-truth NLC map by projecting foreground points.

    A point inside some box whose projection lands in
    [0, W) x [0, H) with positive depth writes its NLC at pixel
    (floor(v), floor(u)).  Conflicts resolve deterministically: the
    nearest-depth point wins a pixel (ties broken by lexicographic point
    coordinates), and a point inside several boxes belongs to the box whose
    center is nearest (ties broken by box index).

    ``points`` is (N, >=3), its first three columns xyz, or empty, else
    ShapeError; ``height`` and ``width`` are integers of at least 1, else
    InvalidValue.  Returns the map and an (H, W) int array of per-pixel
    object ids: the claiming box index per mask-true pixel, -1 elsewhere.
    """
    cells, nlc, pixel_depth, owner = _foreground(points, boxes, calib, height, width)
    values = np.zeros((height, width, 3))
    mask = np.zeros((height, width), dtype=bool)
    depth = np.full((height, width), np.inf)
    obj_ids = np.full((height, width), -1, dtype=int)
    values.reshape(-1, 3)[cells] = nlc
    mask.flat[cells] = True
    depth.flat[cells] = pixel_depth
    obj_ids.flat[cells] = owner
    return NlcMap(values=values, mask=mask, depth=depth), obj_ids


def mmae(gt: NlcMap, pred: np.ndarray, object_pixels: list[np.ndarray]):
    """Mean-over-objects of the per-object mean absolute NLC error.

    ``object_pixels`` lists, per object, an (n, 2) array of integral (row,
    col) foreground pixels on the map, else InvalidValue.  Objects with zero
    foreground pixels are excluded and counted in the returned skip tally.

    Returns ((mmae_x, mmae_y, mmae_z), skipped).
    """
    pred = np.asarray(pred, dtype=float)
    if pred.shape != gt.values.shape:
        raise InvalidValue("prediction shape must match the ground-truth map")
    per_object = []
    skipped = 0
    for pix in object_pixels:
        pix = np.asarray(pix).reshape(-1, 2)
        if len(pix) == 0:
            skipped += 1
            continue
        if not (np.all(pix == np.floor(pix)) and np.all((pix >= 0) & (pix < (gt.height, gt.width)))):
            raise InvalidValue("object pixels must be integral (row, col) inside the map")
        r, c = pix.astype(int).T
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


def _pixels(m: NlcMap):
    """The masked-on pixels of ``m``, ascending: their rows, columns, NLC
    triples (K, 3) and depths (K,).  ShapeError unless ``values`` is
    (H, W, 3) and ``mask`` and ``depth`` are (H, W)."""
    shape = np.shape(m.mask)
    if len(shape) != 2 or np.shape(m.values) != shape + (3,) or np.shape(m.depth) != shape:
        raise ShapeError(
            f"map arrays must share one (H, W): values {np.shape(m.values)}, "
            f"mask {shape}, depth {np.shape(m.depth)}"
        )
    rows, cols = np.nonzero(m.mask)
    return rows, cols, m.values[rows, cols], m.depth[rows, cols]


def _write_nlcm(sink, height: int, width: int, cells, nlc, depth) -> None:
    """Write the NLCM form of the map whose masked-on pixels are the
    ascending flat ``cells``, with NLC triples ``nlc`` and depths ``depth``,
    into the binary sink: the header, then each plane, its fill with those
    pixels written over it.  All planes are written from one reused buffer,
    so a call allocates one plane, not a file-sized buffer."""
    sink.write(NLCM_MAGIC + struct.pack("<III", NLCM_VERSION, height, width))
    size = height * width
    buffer = np.empty(size, "<f4")
    sources = (np.transpose(nlc), np.ones((1, len(cells)), "u1"), np.reshape(depth, (1, -1)))
    for (dtype, _, fill), group in zip(_NLCM_PLANES, sources):
        plane = buffer.view(dtype)[:size]
        for source in group:
            plane.fill(fill)
            plane[cells] = source
            sink.write(plane)


def write_nlc_map(m: NlcMap) -> bytes:
    """Serialize to the NLCM binary format described in the module docstring;
    masked-off pixels are written as (0, 0, 0) and depth +inf whatever ``m``
    holds there.  The map's arrays must share one (H, W), else ShapeError."""
    rows, cols, nlc, depth = _pixels(m)
    out = io.BytesIO()
    _write_nlcm(out, m.height, m.width, rows * m.width + cols, nlc, depth)
    return out.getvalue()


def read_nlc_map(data: bytes) -> NlcMap:
    """Parse the NLCM binary format; raises ParseError on malformed input."""
    if len(data) < 16 or data[:4] != NLCM_MAGIC:
        raise ParseError("not an NLCM file (bad magic)")
    version, h, w = struct.unpack("<III", data[4:16])
    if version != NLCM_VERSION:
        raise ParseError(f"unsupported NLCM version {version}")
    sizes = [np.dtype(dtype).itemsize * count * h * w for dtype, count, _ in _NLCM_PLANES]
    expected = 16 + sum(sizes)
    if len(data) != expected:
        raise ParseError(
            f"NLCM payload length {len(data)} != expected {expected} for {h}x{w}"
        )
    values, mask, depth = planes = [
        np.frombuffer(data, dtype=dtype, count=count * h * w, offset=offset).reshape(count, h, w)
        for (dtype, count, _), offset in zip(_NLCM_PLANES, accumulate(sizes, initial=16))
    ]
    if mask.max(initial=0) > 1:
        raise ParseError("NLCM mask bytes must be 0 or 1")
    off = mask[0] == 0
    if any(np.any((group != fill) & off) for (_, _, fill), group in zip(_NLCM_PLANES, planes)):
        raise ParseError("NLCM masked-off pixels must hold (0, 0, 0) and depth +inf")
    return NlcMap(
        values=np.stack([plane.astype(float) for plane in values], axis=-1),
        mask=mask[0] != 0,
        depth=depth[0].astype(float),
    )


def _csv_text(rows, cols, nlc, depth) -> str:
    """The CSV export of the masked-on pixels at ``rows``, ``cols``, in order."""
    lines = ["row,col,x_nlc,y_nlc,z_nlc,depth"]
    for r, c, (x, y, z), d in zip(
        rows.tolist(), cols.tolist(),
        np.asarray(nlc, dtype=float).tolist(), np.asarray(depth, dtype=float).tolist(),
    ):
        lines.append(f"{r},{c},{x!r},{y!r},{z!r},{d!r}")
    return "\n".join(lines) + "\n"


def nlc_map_to_csv(m: NlcMap) -> str:
    """CSV export: one ``row,col,x_nlc,y_nlc,z_nlc,depth`` line per valid
    pixel, row-major.  The map's arrays must share one (H, W), else ShapeError."""
    return _csv_text(*_pixels(m))
