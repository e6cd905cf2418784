"""Coordinate frames, oriented boxes, pinhole projection, and rotated-box IoU.

Conventions: LiDAR frame is x-forward, y-left, z-up.  A box heading ``yaw``
is the counter-clockwise angle of the box x-axis measured from the LiDAR
x-axis, normalized to (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BehindCamera

__all__ = [
    "Box3D",
    "Calibration",
    "normalize_angle",
    "rot_z",
    "project_point",
    "project_points",
    "box_corners",
    "points_in_box",
    "iou_3d",
    "augment_global",
]


def normalize_angle(theta: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    return np.pi - (np.pi - theta) % (2.0 * np.pi)


def rot_z(theta: float) -> np.ndarray:
    """Rotation matrix about +z taking box-frame vectors to the LiDAR frame."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Box3D:
    """7-DOF oriented box: center (m), dimensions l/w/h (m), yaw (rad)."""

    center: np.ndarray
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.all(np.isfinite(center)):
            raise ValueError("box center must be finite")
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError("box dimensions must be strictly positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "yaw", float(normalize_angle(self.yaw)))

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.l, self.w, self.h])

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h


@dataclass(frozen=True)
class Calibration:
    """Pinhole model: intrinsics K, LiDAR-to-camera rotation R, translation T."""

    K: np.ndarray
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    T: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float).reshape(3, 3)
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        T = np.asarray(self.T, dtype=float).reshape(3)
        if not (K[1, 0] == 0 and K[2, 0] == 0 and K[2, 1] == 0):
            raise ValueError("K must be upper-triangular")
        if not np.all(np.diag(K) > 0):
            raise ValueError("K diagonal must be positive")
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9) or not np.isclose(
            np.linalg.det(R), 1.0, atol=1e-9
        ):
            raise ValueError("R must be orthonormal with det +1")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)


def project_points(points: np.ndarray, calib: Calibration):
    """Project (N, 3) LiDAR points to pixel coordinates.

    Returns (u, v, d) arrays; d is the camera-frame depth before
    dehomogenization.  No validity filtering is applied here: entries with
    d <= 0 carry meaningless (u, v) and must be masked by the caller.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cam = pts @ calib.R.T + calib.T
    hom = cam @ calib.K.T
    d = hom[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = hom[:, 0] / d
        v = hom[:, 1] / d
    return u, v, d


def _pixel_cells(u: np.ndarray, v: np.ndarray, height: int, width: int):
    """Flat pixel cell ``floor(v) * width + floor(u)`` of each projected point,
    and whether the point lands in [0, width) x [0, height).

    The bounds test runs on the float coordinates before any int cast, so
    NaN, +-inf and values beyond the int64 range are outside; outside points
    get cell 0.
    """
    inside = (u >= 0) & (u < width) & (v >= 0) & (v < height)
    cells = np.zeros(len(u), dtype=int)
    cells[inside] = (
        np.floor(v[inside]).astype(int) * width + np.floor(u[inside]).astype(int)
    )
    return cells, inside


def _nearest_per_pixel(xyz, u, v, d, height: int, width: int):
    """Z-buffer: the point that owns each pixel it lands in.

    Of the points with finite positive depth ``d`` that land in the image,
    each pixel keeps the nearest, ties broken by lexicographic (x, y, z).
    The order is a function of the point values alone, so the result does
    not depend on the order of the input points.  Returns the indices of the
    winning points and their flat cells, sorted by cell.
    """
    cells, inside = _pixel_cells(u, v, height, width)
    idx = np.nonzero(inside & (d > 0) & (d < np.inf))[0]
    order = np.lexsort(
        (xyz[idx, 2], xyz[idx, 1], xyz[idx, 0], d[idx], cells[idx])
    )
    idx, cells = idx[order], cells[idx[order]]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    return idx[first], cells[first]


def project_point(p: np.ndarray, calib: Calibration):
    """Project a single point; raises BehindCamera when depth <= 1e-9."""
    u, v, d = project_points(np.asarray(p, dtype=float).reshape(1, 3), calib)
    if d[0] <= 1e-9:
        raise BehindCamera(f"projection undefined for depth {d[0]:.3g}")
    return float(u[0]), float(v[0]), float(d[0])


def _to_box_frame(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Map LiDAR points to the box-normalized frame ([0,1]^3 inside the box)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    local = (pts - box.center) @ rot_z(box.yaw)
    return local / box.dims + 0.5


# Corner ordering: images of these normalized coordinates, bottom face first,
# counter-clockwise when viewed from +z.
_CORNER_NLC = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [1, 1, 1],
        [0, 1, 1],
    ],
    dtype=float,
)


def box_corners(box: Box3D) -> np.ndarray:
    """Return the 8 box corners, (8, 3), in the documented fixed order."""
    return box.center + ((_CORNER_NLC - 0.5) * box.dims) @ rot_z(box.yaw).T


def points_in_box(points: np.ndarray, box: Box3D, margin: float = 0.0) -> np.ndarray:
    """Indices of points whose normalized box coordinates lie in [-margin, 1+margin]^3.

    ``margin`` is expressed in normalized (box-relative) units.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    n = _to_box_frame(points, box)
    inside = np.all((n >= -margin) & (n <= 1.0 + margin), axis=1)
    return np.nonzero(inside)[0]


def _bev_corners(box: Box3D) -> np.ndarray:
    """Counter-clockwise BEV footprint, (4, 2)."""
    return box_corners(box)[:4, :2]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon."""
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
        # signed side of the clip edge; >= 0 is inside
        s_prev = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in inp:
            s_cur = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if (s_cur >= 0) != (s_prev >= 0):
                # the side value is linear along prev->cur and changes sign,
                # so the denominator is never zero
                output.append(prev + s_prev / (s_prev - s_cur) * (cur - prev))
            if s_cur >= 0:
                output.append(cur)
            prev, s_prev = cur, s_cur
        output = np.asarray(output).reshape(-1, 2)
    return np.asarray(output).reshape(-1, 2)


def _shoelace_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two oriented boxes: BEV polygon clipping times vertical overlap."""
    inter_poly = _clip_polygon(_bev_corners(a), _bev_corners(b))
    area = _shoelace_area(inter_poly)
    if area < 1e-12:
        return 0.0
    z_lo = max(a.center[2] - a.h / 2, b.center[2] - b.h / 2)
    z_hi = min(a.center[2] + a.h / 2, b.center[2] + b.h / 2)
    dz = z_hi - z_lo
    if dz <= 0:
        return 0.0
    inter = area * dz
    return float(min(max(inter / (a.volume + b.volume - inter), 0.0), 1.0))


def augment_global(
    points: np.ndarray,
    boxes: list[Box3D],
    seed: int,
    flip_prob: float = 0.5,
    scale_range: tuple[float, float] = (0.95, 1.05),
    rot_range: tuple[float, float] = (-np.pi / 4, np.pi / 4),
):
    """Global scene augmentation: random flip about the x-z plane, uniform
    scaling, and rotation about +z, applied consistently to points and boxes.

    Flip fires with probability ``flip_prob``; scaling and rotation each fire
    independently with probability 0.5, drawing uniformly from their ranges.
    Deterministic given ``seed``.  Returns (points, boxes, record) where
    ``record`` documents exactly which transforms were applied.
    """
    if not (scale_range[0] <= scale_range[1] and rot_range[0] <= rot_range[1]):
        raise ValueError("ranges must be well-ordered")
    rng = np.random.default_rng(seed)
    pts = np.array(points, dtype=float, copy=True)
    out_boxes = list(boxes)
    record = {"flip": False, "scale": None, "rotation": None}

    if rng.random() < flip_prob:
        record["flip"] = True
        pts[:, 1] = -pts[:, 1]
        out_boxes = [
            replace(b, center=b.center * np.array([1.0, -1.0, 1.0]), yaw=-b.yaw)
            for b in out_boxes
        ]

    if rng.random() < 0.5:
        s = float(rng.uniform(*scale_range))
        record["scale"] = s
        pts[:, :3] *= s
        out_boxes = [
            replace(b, center=b.center * s, l=b.l * s, w=b.w * s, h=b.h * s)
            for b in out_boxes
        ]

    if rng.random() < 0.5:
        phi = float(rng.uniform(*rot_range))
        record["rotation"] = phi
        rot = rot_z(phi)
        pts[:, :3] = pts[:, :3] @ rot.T
        out_boxes = [
            replace(b, center=rot @ b.center, yaw=b.yaw + phi) for b in out_boxes
        ]

    if not record["flip"] and record["scale"] is None and record["rotation"] is None:
        return np.array(points, dtype=float, copy=True), list(boxes), record
    return pts, out_boxes, record
