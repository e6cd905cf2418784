"""Readers and writers for KITTI-format calibration, label, and velodyne files,
plus conversion of camera-frame labels to LiDAR-frame boxes.

All parsers are total: arbitrary byte input yields either a value or a
structured :class:`~nlcdet.errors.KittiIOError`, never an unhandled crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DegenerateCalib,
    InvalidValue,
    KittiIOError,
    MalformedMatrix,
    MissingField,
    ParseError,
    TruncatedFile,
)
from .geometry import (
    MAX_ABS_VALUE, Box3D, Calibration, _is_rotation, _point_rows, _require_bounded,
    _require_integer, normalize_angle,
)

__all__ = [
    "KittiCalib",
    "KittiLabel",
    "parse_calib",
    "emit_calib",
    "parse_labels",
    "emit_labels",
    "read_velodyne",
    "write_velodyne",
    "to_calibration",
    "label_to_lidar_box",
    "lidar_box_to_label",
    "filter_detection_range",
    "downsample",
]

# Appendix-style detection range: x forward, y lateral, z vertical (m),
# intervals closed on both ends.
DETECTION_RANGE = ((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0))


@dataclass
class KittiCalib:
    P2: np.ndarray  # (3, 4)
    R0_rect: np.ndarray  # (3, 3)
    Tr_velo_to_cam: np.ndarray  # (3, 4)


@dataclass
class KittiLabel:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox2d: tuple[float, float, float, float]
    h: float
    w: float
    l: float
    location: tuple[float, float, float]  # camera frame, bottom center
    rotation_y: float

    @property
    def is_dont_care(self) -> bool:
        return self.type == "DontCare"


def _as_text(data) -> str:
    if isinstance(data, bytes):
        return data.decode("latin-1")
    return str(data)


_TOKEN = re.compile(r"\S+")  # \S is the complement of str.isspace, as in str.split()


def _tokens(line: str, start: int = 0) -> list[tuple[int, str]]:
    """The ``str.split()`` tokens of ``line[start:]``, each with its 1-based column in ``line``."""
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line, start)]


def _parse_float(token: str, line_no: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = np.nan
    if not abs(value) <= MAX_ABS_VALUE:
        raise ParseError(
            f"line {line_no}, column {col}: {token!r} is not a number within +-{MAX_ABS_VALUE:g}",
            line=line_no,
            column=col,
        )
    return value


def _parse_int(token: str, line_no: int, col: int) -> int:
    value = _parse_float(token, line_no, col)
    if not value.is_integer():
        raise ParseError(
            f"line {line_no}, column {col}: {token!r} is not an integer", line=line_no, column=col
        )
    return int(value)


_CALIB_SHAPES = {"P2": (3, 4), "R0_rect": (3, 3), "Tr_velo_to_cam": (3, 4)}


def parse_calib(text) -> KittiCalib:
    """Parse a KITTI calibration file; unknown keys are ignored."""
    found = {}
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        if ":" not in line:
            continue
        key = line.partition(":")[0].strip()
        if key not in _CALIB_SHAPES:
            continue
        shape = _CALIB_SHAPES[key]
        tokens = _tokens(line, line.index(":") + 1)
        if len(tokens) != shape[0] * shape[1]:
            raise MalformedMatrix(
                f"line {line_no}: {key} needs {shape[0] * shape[1]} values, "
                f"got {len(tokens)}"
            )
        values = [_parse_float(tok, line_no, col) for col, tok in tokens]
        found[key] = np.array(values).reshape(shape)
    for key in _CALIB_SHAPES:
        if key not in found:
            raise MissingField(f"calibration key {key!r} is missing")
    return KittiCalib(
        P2=found["P2"], R0_rect=found["R0_rect"], Tr_velo_to_cam=found["Tr_velo_to_cam"]
    )


def emit_calib(calib: KittiCalib) -> str:
    """Serialize a calibration; floats use repr so values round-trip exactly."""
    lines = []
    for key in _CALIB_SHAPES:
        mat = getattr(calib, key)
        lines.append(f"{key}: " + " ".join(repr(float(x)) for x in mat.ravel()))
    return "\n".join(lines) + "\n"


# KittiLabel's fields in file order, each with its count of tokens; ``type``
# is the one string and ``occluded`` the one integer
_LABEL_COLUMNS = (
    ("type", 1), ("truncated", 1), ("occluded", 1), ("alpha", 1), ("bbox2d", 4),
    ("h", 1), ("w", 1), ("l", 1), ("location", 3), ("rotation_y", 1),
)
_LABEL_TOKENS = sum(count for _, count in _LABEL_COLUMNS)


def parse_labels(text) -> list[KittiLabel]:
    """Parse a KITTI label file; DontCare entries are retained and flagged."""
    labels = []
    for line_no, line in enumerate(_as_text(text).splitlines(), start=1):
        tokens = _tokens(line)
        if not tokens:
            continue
        if len(tokens) < _LABEL_TOKENS:
            raise ParseError(
                f"line {line_no}: expected {_LABEL_TOKENS} fields, got {len(tokens)}",
                line=line_no,
            )
        fields, rest = {"type": tokens[0][1]}, iter(tokens[1:])
        for name, count in _LABEL_COLUMNS[1:]:
            parse = _parse_int if name == "occluded" else _parse_float
            values = tuple(parse(tok, line_no, col) for col, tok in islice(rest, count))
            fields[name] = values if count > 1 else values[0]
        labels.append(KittiLabel(**fields))
    return labels


def emit_labels(labels: list[KittiLabel]) -> str:
    """Serialize labels; floats use repr so values round-trip exactly."""
    lines = []
    for lb in labels:
        parts = [lb.type]
        for name, _ in _LABEL_COLUMNS[1:]:
            for x in np.ravel(getattr(lb, name)):
                parts.append(str(int(x)) if name == "occluded" else repr(float(x)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


_VELODYNE_RECORD = np.dtype(("<f4", 4))  # x, y, z, reflectance


def read_velodyne(data: bytes) -> np.ndarray:
    """Decode a velodyne .bin payload into an (N, 4) float32 array (xyz + reflectance)."""
    if not isinstance(data, (bytes, bytearray)):
        raise TruncatedFile("velodyne payload must be bytes")
    size = _VELODYNE_RECORD.itemsize
    if len(data) % size != 0:
        raise TruncatedFile(
            f"payload of {len(data)} bytes is not a whole number of {size}-byte records"
        )
    return np.frombuffer(bytes(data), dtype=_VELODYNE_RECORD).copy()


def write_velodyne(points: np.ndarray) -> bytes:
    """Encode (N, 4) points (xyz + reflectance) as a velodyne .bin payload."""
    points = np.ascontiguousarray(points, dtype=_VELODYNE_RECORD.base)
    if points.shape[1:] != _VELODYNE_RECORD.shape:
        raise InvalidValue(f"velodyne points must be (N, 4), got shape {points.shape}")
    return points.tobytes()


def _rectified_frame(calib: KittiCalib):
    """``(R, t)`` taking LiDAR points x to the rectified camera frame,
    ``R x + t``: the frame that the projection and both label functions use.

    R is R0_rect @ Tr_velo_to_cam's rotation block and t is R0_rect @ its
    translation.  KITTI prints these matrices to 7 significant digits, so R
    is orthonormal only to about 5e-8.  An R that fails the
    :class:`~nlcdet.geometry.Calibration` check but lies within 1e-6 of
    orthonormal with det > 0 is replaced by its nearest rotation (the SVD
    polar factor); any other R that is not a rotation raises DegenerateCalib.
    """
    # overflow from huge entries leaves non-finite values, which are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        R = calib.R0_rect @ calib.Tr_velo_to_cam[:, :3]
        t = calib.R0_rect @ calib.Tr_velo_to_cam[:, 3]
        if _is_rotation(R):
            return R, t
        if not (np.allclose(R @ R.T, np.eye(3), rtol=0.0, atol=1e-6) and np.linalg.det(R) > 0):
            raise DegenerateCalib("not a pinhole camera: R must be orthonormal with det +1")
    u, _, vt = np.linalg.svd(R)
    return u @ vt, t


def to_calibration(calib: KittiCalib) -> Calibration:
    """Compose P2, R0_rect, and Tr_velo_to_cam into a single pinhole model.

    P2 = [K | p4]; the composed model is u,v,d = K ([R | T] x) with (R, t)
    the rectified frame of :func:`_rectified_frame` and T = t + K^-1 p4.
    Matrices that do not compose to a valid
    :class:`~nlcdet.geometry.Calibration` raise DegenerateCalib.
    """
    K = calib.P2[:, :3]
    with np.errstate(over="ignore", invalid="ignore"):
        if not abs(np.linalg.det(K)) >= 1e-12:
            raise DegenerateCalib("P2 intrinsic block is singular")
        R, t = _rectified_frame(calib)
        try:
            return Calibration(K=K, R=R, T=t + np.linalg.solve(K, calib.P2[:, 3]))
        except ValueError as exc:
            raise DegenerateCalib(f"not a pinhole camera: {exc}") from None


def label_to_lidar_box(label: KittiLabel, calib: KittiCalib) -> Box3D:
    """Lift a camera-frame KITTI label to a LiDAR-frame box.

    The label location is the bottom center in the rectified camera frame
    (y down); the box center sits h/2 above it.  The heading converts by
    mapping the object's camera-frame x-axis direction into the LiDAR frame.
    A calibration that :func:`to_calibration` rejects for its rotation
    raises DegenerateCalib; a label whose box is not valid, such as one with
    a size that is not positive, raises KittiIOError.
    """
    if label.is_dont_care:
        raise InvalidValue("DontCare labels carry no box")
    R, t = _rectified_frame(calib)
    inv = np.linalg.inv(R)
    bottom = np.asarray(label.location, dtype=float)
    center_cam = bottom + np.array([0.0, -label.h / 2.0, 0.0])
    center = inv @ center_cam - inv @ t
    # object x-axis in the rectified camera frame
    dir_cam = np.array([np.cos(label.rotation_y), 0.0, -np.sin(label.rotation_y)])
    dir_velo = inv @ dir_cam
    yaw = float(np.arctan2(dir_velo[1], dir_velo[0]))
    try:
        return Box3D(center=center, l=label.l, w=label.w, h=label.h, yaw=yaw)
    except ValueError as exc:
        raise KittiIOError(f"{label.type} label gives no box: {exc}") from None


def lidar_box_to_label(
    box: Box3D, calib: KittiCalib, type_name: str = "Car"
) -> KittiLabel:
    """Inverse of :func:`label_to_lidar_box`; auxiliary fields are zeroed."""
    R, t = _rectified_frame(calib)
    bottom = R @ box.center + t + np.array([0.0, box.h / 2.0, 0.0])
    dir_cam = R @ np.array([np.cos(box.yaw), np.sin(box.yaw), 0.0])
    ry = float(normalize_angle(np.arctan2(-dir_cam[2], dir_cam[0])))
    return KittiLabel(
        type=type_name,
        truncated=0.0,
        occluded=0,
        alpha=0.0,
        bbox2d=(0.0, 0.0, 0.0, 0.0),
        h=box.h,
        w=box.w,
        l=box.l,
        location=tuple(float(x) for x in bottom),
        rotation_y=ry,
    )


def filter_detection_range(points: np.ndarray) -> np.ndarray:
    """Keep points inside the closed ``DETECTION_RANGE`` intervals, order
    preserved.  Points are (N, >=3) or empty, else ShapeError."""
    pts = _point_rows(points)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[-1] if pts.ndim > 1 else 4)
    keep = np.ones(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(DETECTION_RANGE):
        keep &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    return pts[keep]


def _farthest_point_indices(xyz: np.ndarray, budget: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(xyz)
    chosen = np.empty(budget, dtype=int)
    chosen[0] = rng.integers(n)
    dist = np.linalg.norm(xyz - xyz[chosen[0]], axis=1)
    for i in range(1, budget):
        chosen[i] = int(np.argmax(dist))
        dist = np.minimum(dist, np.linalg.norm(xyz - xyz[chosen[i]], axis=1))
    return chosen


def downsample(
    points: np.ndarray, budget: int, seed: int, strategy: str = "random"
) -> np.ndarray:
    """Reduce a cloud to at most ``budget`` points.

    ``strategy`` is "random" (seeded uniform choice without replacement) or
    "fps" (farthest-point sampling from a seeded start).  Points are
    (N, >=3) or empty, else ShapeError; ``budget`` is an integer of at least
    1 and ``seed`` one of at least 0, else InvalidValue.  "fps" measures
    distances, so it also raises InvalidValue for a coordinate that is NaN,
    infinite or beyond +-``MAX_ABS_VALUE``.
    """
    pts = _point_rows(points)
    _require_integer(budget, 1, "budget")
    _require_integer(seed, 0, "seed")
    if len(pts) <= budget:
        return pts.copy()
    if strategy == "random":
        idx = np.random.default_rng(seed).choice(len(pts), size=budget, replace=False)
        return pts[np.sort(idx)]
    if strategy == "fps":
        xyz = pts[:, :3].astype(float)
        _require_bounded(xyz, "point coordinates")
        return pts[_farthest_point_indices(xyz, budget, seed)]
    raise InvalidValue(f"unknown strategy {strategy!r}")
