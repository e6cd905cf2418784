"""KITTI-format I/O, frame conversion, and detection evaluation.

Calibration and label files round-trip exactly (floats are emitted with repr),
camera-frame labels lift to LiDAR-frame boxes and back, and detections score
against ground truth with rotated-box 3D IoU and interpolated average
precision.
"""

import numpy as np

from nlcdet import Box3D, Detection, average_precision, evaluate, iou_3d
from nlcdet.kitti_io import (
    DETECTION_RANGE,
    downsample,
    emit_calib,
    emit_labels,
    filter_detection_range,
    label_to_lidar_box,
    lidar_box_to_label,
    parse_calib,
    parse_labels,
)

CALIB_TEXT = """\
P2: 721.5377 0.0 609.5593 44.85728 0.0 721.5377 172.854 0.2163791 0.0 0.0 1.0 0.002745884
R0_rect: 0.9999239 0.00983776 -0.007445048 -0.009869795 0.9999421 -0.004278459 0.007402527 0.004351614 0.9999631
Tr_velo_to_cam: 0.007533745 -0.9999714 -0.000616602 -0.004069766 0.01480249 0.0007280733 -0.9998902 -0.07631618 0.9998621 0.00752379 0.01480755 -0.2717806
"""

calib = parse_calib(CALIB_TEXT)
print("parsed calibration; P2 focal lengths:", calib.P2[0, 0], calib.P2[1, 1])
assert parse_calib(emit_calib(calib)).P2.tolist() == calib.P2.tolist()
print("emit -> parse round trip is bit-exact")

label_line = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
label = parse_labels(label_line)[0]
box = label_to_lidar_box(label, calib)
print(f"\nlabel '{label.type}' lifts to LiDAR box: center "
      f"{np.round(box.center, 3)}, yaw {box.yaw:.3f}")
back = label_to_lidar_box(lidar_box_to_label(box, calib), calib)
print(f"box -> label -> box error: {np.abs(back.center - box.center).max():.2e}")
print("label file round trip:", parse_labels(emit_labels([label])) == [label])

# Range filtering and point budgeting.
rng = np.random.default_rng(1)
cloud = rng.uniform([-10, -50, -4, 0], [80, 50, 2, 1], size=(5000, 4))
kept = filter_detection_range(cloud)
print(f"\ndetection range {DETECTION_RANGE}: kept {len(kept)}/{len(cloud)} points")
print(f"random downsample to 512:  {downsample(kept, 512, seed=0).shape}")
print(f"fps downsample to 64:      {downsample(kept, 64, seed=0, strategy='fps').shape}")

# Evaluation: rotated IoU matching plus 40-point interpolated AP.
gts = [
    Box3D(center=np.array([10.0, 0.0, 0.0]), l=4, w=2, h=1.5, yaw=0.2),
    Box3D(center=np.array([20.0, 5.0, 0.0]), l=4, w=2, h=1.5, yaw=-0.4),
]
dets = [
    Detection(box=gts[0], score=0.9),
    Detection(box=Box3D(center=np.array([40.0, 0.0, 0.0]), l=4, w=2, h=1.5, yaw=0.0),
              score=0.8),
    Detection(box=gts[1], score=0.7),
]
print(f"\nIoU(det0, gt0) = {iou_3d(dets[0].box, gts[0]):.3f}")
ap40 = evaluate(dets, gts, iou_thresh=0.7)
ap11 = evaluate(dets, gts, iou_thresh=0.7, recall_positions=11)
print(f"AP (40 recall positions): {ap40:.6f}  (exactly 5/6: {abs(ap40 - 5/6) < 1e-12})")
print(f"AP (11 recall positions): {ap11:.6f}")
print("rank-only scores:", average_precision([True, False, True], [3.0, 2.0, 1.0], 2))
