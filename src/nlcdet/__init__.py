"""Geometric and numerical core for cross-modal (LiDAR + camera) 3D detection:
normalized-local-coordinate transforms, 7-DOF box recovery, differentiable
point/pixel propagation, training losses, KITTI-format I/O, and evaluation."""

from .errors import (
    BehindCamera,
    DegenerateCalib,
    EmptyForeground,
    InvalidValue,
    KittiIOError,
    LabelError,
    MalformedMatrix,
    MissingField,
    NlcdetError,
    ParseError,
    ShapeError,
    TruncatedFile,
    Underdetermined,
)
from .geometry import (
    Box3D,
    Calibration,
    box_corners,
    iou_3d,
    normalize_angle,
    points_in_box,
    project_point,
    project_points,
    rot_z,
)
from .layers import DenseLayer, fuse_i2p, fuse_p2i
from .losses import LossWeights, center_loss, cross_entropy, huber, nlc_loss, total_loss
from .metrics import Detection, average_precision, evaluate, match_detections
from .nlc import (
    NlcMap,
    build_gt_nlc_map,
    lidar_to_nlc,
    mmae,
    nlc_map_to_csv,
    nlc_to_lidar,
    read_nlc_map,
    write_nlc_map,
)
from .propagation import (
    pixel_to_point, pixel_to_point_backward, point_to_pixel, point_to_pixel_backward,
)
from .solver import SolveReport, dof_analysis, solve_box

__version__ = "0.1.0"
