"""Coordinate frames, oriented boxes, pinhole projection, and rotated-box IoU.

Conventions: LiDAR frame is x-forward, y-left, z-up.  A box heading ``yaw``
is the counter-clockwise angle of the box x-axis measured from the LiDAR
x-axis, normalized to (-pi, pi].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BehindCamera, InvalidValue, ShapeError

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
]


# Largest magnitude of a value the library reads as input: a file entry, a
# calibration entry or a correspondence.  No real value comes close, and the
# bound keeps the squares and products formed from such values finite.
MAX_ABS_VALUE = 1e100


def _require_bounded(values, what: str) -> None:
    """Raise InvalidValue unless every entry of ``values`` is a number within
    +-``MAX_ABS_VALUE``; NaN and +-inf are not."""
    if not np.all(np.abs(values) <= MAX_ABS_VALUE):
        raise InvalidValue(f"{what} must be numbers within +-{MAX_ABS_VALUE:g}")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: a ``numbers.Integral``, NumPy's
    integers included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, NumPy's too, not a bool, and a finite float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _require_integer(value, low: int, what: str) -> None:
    """Raise InvalidValue naming ``what`` unless ``value`` is an integer of at least ``low``."""
    if not (_is_integer(value) and value >= low):
        raise InvalidValue(f"{what} must be an integer of at least {low}, got {value!r}")


def _require_image_size(height, width) -> None:
    """Raise InvalidValue unless ``height`` and ``width`` are integers of at least 1."""
    if not all(_is_integer(size) and size >= 1 for size in (height, width)):
        raise InvalidValue(f"map dimensions must be positive integers, got {height!r}x{width!r}")


def _point_rows(points) -> np.ndarray:
    """``points`` as an array of (N, >=3) rows, x, y and z first, or an empty
    array; any other shape raises ShapeError.  The dtype is left as it is."""
    pts = np.asarray(points)
    if pts.size and (pts.ndim != 2 or pts.shape[1] < 3):
        raise ShapeError(f"points must be (N, >=3), got shape {pts.shape}")
    return pts


def _float_rows(values, width: int, what: str) -> np.ndarray:
    """``values`` as a float (N, ``width``) array: an (N, ``width``) array,
    one (``width``,) row, or an empty array; any other shape raises ShapeError
    rather than being read as rows of another width."""
    rows = np.asarray(values, dtype=float)
    if rows.shape[-1:] == (width,) and rows.ndim <= 2 or rows.size == 0:
        return rows.reshape(-1, width)
    raise ShapeError(f"{what} must be (N, {width}), got shape {rows.shape}")


def _float_shaped(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as a float array of ``shape``, read from an array of any
    shape that holds as many values; another count raises ShapeError."""
    array = np.asarray(values, dtype=float)
    if array.size != math.prod(shape):
        raise ShapeError(f"{what} must hold {math.prod(shape)} values, got shape {array.shape}")
    return array.reshape(shape)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    wrapped = np.pi - (np.pi - theta) % (2.0 * np.pi)
    # for theta just above pi the remainder rounds up to 2 pi, which would give -pi
    return wrapped if wrapped != -np.pi else np.pi


def rot_z(theta: float) -> np.ndarray:
    """Rotation matrix about +z taking box-frame vectors to the LiDAR frame."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Box3D:
    """7-DOF oriented box: center (m), dimensions l/w/h (m), yaw (rad).

    The box keeps a read-only copy of its center, so that a change to the
    array it was made from does not move it; its bird's-eye footprint is
    computed once, when :func:`iou_3d` first reads it.
    """

    center: np.ndarray
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        center = _float_shaped(self.center, (3,), "box center").copy()
        if not all(map(math.isfinite, center.tolist())):
            raise InvalidValue("box center must be finite")
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise InvalidValue("box dimensions must be strictly positive")
        if not (math.isfinite(self.l) and math.isfinite(self.w) and math.isfinite(self.h)):
            raise InvalidValue("box dimensions must be finite")
        if not math.isfinite(self.yaw):
            raise InvalidValue("box yaw must be finite")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "yaw", float(normalize_angle(self.yaw)))

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.l, self.w, self.h])

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    @cached_property
    def _bev_corners(self) -> np.ndarray:
        """Counter-clockwise bird's-eye footprint, (4, 2), read-only."""
        corners = box_corners(self)[:4, :2].copy()
        corners.flags.writeable = False
        return corners


def _is_rotation(R: np.ndarray) -> bool:
    """Whether the 3x3 matrix R is orthonormal with det +1, each to an
    absolute 1e-9."""
    return bool(
        np.allclose(R @ R.T, np.eye(3), rtol=0.0, atol=1e-9)
        and np.isclose(np.linalg.det(R), 1.0, rtol=0.0, atol=1e-9)
    )


@dataclass(frozen=True)
class Calibration:
    """Pinhole model: intrinsics K, LiDAR-to-camera rotation R, translation T."""

    K: np.ndarray
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    T: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        K = _float_shaped(self.K, (3, 3), "K")
        R = _float_shaped(self.R, (3, 3), "R")
        T = _float_shaped(self.T, (3,), "T")
        _require_bounded(K, "K")
        _require_bounded(T, "T")
        if not (K[1, 0] == 0 and K[2, 0] == 0 and K[2, 1] == 0):
            raise InvalidValue("K must be upper-triangular")
        if not np.all(np.diag(K) > 0):
            raise InvalidValue("K diagonal must be positive")
        if not _is_rotation(R):
            raise InvalidValue("R must be orthonormal with det +1")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)


def project_points(points: np.ndarray, calib: Calibration):
    """Project (N, 3) LiDAR points to pixel coordinates.

    Returns (u, v, d) arrays; d is the camera-frame depth before
    dehomogenization.  Points with d <= 0 (behind or on the camera plane)
    have no image position and get NaN (u, v), which every pixel-binning
    and sampling rule treats as outside the image.  A coordinate that is
    NaN, infinite or beyond +-``MAX_ABS_VALUE`` raises InvalidValue.
    """
    pts = _float_rows(points, 3, "points")
    _require_bounded(pts, "point coordinates")
    cam = pts @ calib.R.T + calib.T
    hom = cam @ calib.K.T
    d = hom[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(d > 0, hom[:, 0] / d, np.nan)
        v = np.where(d > 0, hom[:, 1] / d, np.nan)
    return u, v, d


def _pixel_cells(u: np.ndarray, v: np.ndarray, height: int, width: int):
    """Flat pixel cell ``floor(v) * width + floor(u)`` of each projected point,
    and whether the point lands in [0, width) x [0, height).

    The bounds test runs on the float coordinates before any int cast, so
    NaN, +-inf and values beyond the int64 range are outside; outside points
    get cell 0.  The inside points are picked by their indices: on a KITTI
    frame, where a third of the points land inside, that is several times
    faster than indexing with the mask.
    """
    inside = (u >= 0) & (u < width) & (v >= 0) & (v < height)
    at = np.flatnonzero(inside)
    cells = np.zeros(len(u), dtype=int)
    cells[at] = np.floor(v[at]).astype(int) * width + np.floor(u[at]).astype(int)
    return cells, inside


def _nearest_per_pixel(xyz, u, v, d, height: int, width: int):
    """Z-buffer: the point that owns each pixel it lands in.

    Of the points with finite positive depth ``d`` that land in the image,
    each pixel keeps the nearest, ties broken by lexicographic (x, y, z).
    The order is a function of the point values alone, so the result does
    not depend on the order of the input points.  Returns the indices of the
    winning points and their flat cells, sorted by cell.

    One sort by cell and a minimum depth per cell find the winners.  Only
    when some pixel's nearest depth is shared by two of its points does the
    five-key sort (cell, depth, x, y, z) run instead, to break the tie; in
    any other case the nearest point of each pixel is the one it picks.
    """
    cells, inside = _pixel_cells(u, v, height, width)
    idx = np.nonzero(inside & (d > 0) & (d < np.inf))[0]
    depth, cells = d[idx], cells[idx]
    order = np.argsort(cells)
    sorted_cells, sorted_depth = cells[order], depth[order]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = sorted_cells[1:] != sorted_cells[:-1]
    starts = np.flatnonzero(first)
    nearest = np.minimum.reduceat(sorted_depth, starts)
    win = order[sorted_depth == nearest[np.cumsum(first) - 1]]
    if len(win) > len(starts):
        # the five-key order sorts the cells as ``order`` does, so the first
        # entry of each cell keeps its position
        win = np.lexsort((xyz[idx, 2], xyz[idx, 1], xyz[idx, 0], depth, cells))[first]
    return idx[win], cells[win]


def project_point(p: np.ndarray, calib: Calibration):
    """Project a single point as :func:`project_points` does; raises
    BehindCamera where that gives it no finite (u, v)."""
    u, v, d = project_points(_float_shaped(p, (1, 3), "point"), calib)
    if not (np.isfinite(u[0]) and np.isfinite(v[0])):
        raise BehindCamera(f"no finite image position at depth {d[0]:.3g}")
    return float(u[0]), float(v[0]), float(d[0])


def _to_box_frame(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Map LiDAR points, (N, 3) or one (3,) point, to the box-normalized
    frame ([0,1]^3 inside the box), as (N, 3) rows."""
    pts = _float_rows(points, 3, "points")
    local = (pts - box.center) @ rot_z(box.yaw)
    return local / box.dims + 0.5


def _from_box_frame(nlc: np.ndarray, box: Box3D) -> np.ndarray:
    """Inverse of :func:`_to_box_frame`: box-normalized coordinates, (N, 3) or
    one (3,) point, to (N, 3) LiDAR points."""
    n = _float_rows(nlc, 3, "normalized coordinates")
    return box.center + ((n - 0.5) * box.dims) @ rot_z(box.yaw).T


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
    return _from_box_frame(_CORNER_NLC, box)


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Indices of points inside the closed box: normalized box coordinates in [0, 1]^3."""
    n = _to_box_frame(points, box)
    inside = np.all((n >= 0.0) & (n <= 1.0), axis=1)
    return np.nonzero(inside)[0]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon."""
    output = subject.tolist()
    clip = clip.tolist()
    m = len(clip)
    for i in range(m):
        if not output:
            break
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        inp = output
        output = []
        px, py = inp[-1]
        # signed side of the clip edge; >= 0 is inside
        s_prev = ex * (py - ay) - ey * (px - ax)
        for cx, cy in inp:
            s_cur = ex * (cy - ay) - ey * (cx - ax)
            if (s_cur >= 0) != (s_prev >= 0):
                # the side value is linear along prev->cur and changes sign,
                # so the denominator is never zero
                t = s_prev / (s_prev - s_cur)
                output.append([px + t * (cx - px), py + t * (cy - py)])
            if s_cur >= 0:
                output.append([cx, cy])
            px, py, s_prev = cx, cy, s_cur
    return np.array(output, dtype=float).reshape(-1, 2)


def _shoelace_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    # each coordinate's successor around the polygon, the last wrapping to the first
    x_next, y_next = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(np.dot(x, y_next) - np.dot(y, x_next))


def _footprint_key(box: Box3D) -> tuple:
    """Order of :func:`iou_3d`'s clip: bird's-eye area first, then the fields
    that fix the footprint, so equal keys mean equal footprints."""
    l, w = float(box.l), float(box.w)
    return (l * w, l, w, float(box.yaw), *box.center[:2].tolist())


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of two oriented boxes: BEV polygon clipping times vertical overlap.

    Boxes whose bird's-eye circumscribed circles are apart (with a relative
    pad of 1e-9 for rounding) cannot overlap and get 0.0 without clipping.
    The smaller footprint is clipped by the larger, whatever the argument
    order, so the value is symmetric and a small box inside a huge one keeps
    its own corners.
    """
    (ax, ay, _), (bx, by, _) = a.center.tolist(), b.center.tolist()
    reach = (math.hypot(a.l, a.w) + math.hypot(b.l, b.w)) / 2
    if math.hypot(ax - bx, ay - by) > reach * (1 + 1e-9):
        return 0.0
    small, large = (a, b) if _footprint_key(a) <= _footprint_key(b) else (b, a)
    inter_poly = _clip_polygon(small._bev_corners, large._bev_corners)
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

