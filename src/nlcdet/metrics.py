"""Detection evaluation: greedy IoU matching and interpolated average precision."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, ShapeError
from .geometry import Box3D, iou_3d

__all__ = ["Detection", "match_detections", "average_precision", "evaluate"]


@dataclass(frozen=True)
class Detection:
    """A scored box.  A score that is NaN or infinite raises InvalidValue: it
    has no place in the ranking that matching and AP share."""

    box: Box3D
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise InvalidValue("detection score must be finite")


def match_detections(
    detections: list[Detection], gts: list[Box3D], iou_thresh: float
) -> list[tuple[int, int | None]]:
    """Greedy matching by descending score; each ground truth matches at most once.

    Returns (detection index, matched gt index or None) pairs in processing
    order.  Score ties break by detection index; IoU ties by gt index.
    """
    if not (0.0 < iou_thresh <= 1.0):
        raise InvalidValue("iou_thresh must lie in (0, 1]")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = set()
    result = []
    for di in order:
        best_gt, best_iou = None, iou_thresh
        for gi, gt in enumerate(gts):
            if gi in taken:
                continue
            iou = iou_3d(detections[di].box, gt)
            if iou > best_iou or (iou == best_iou and best_gt is None):
                best_gt, best_iou = gi, iou
        if best_gt is not None:
            taken.add(best_gt)
        result.append((di, best_gt))
    return result


def average_precision(
    match_flags, scores, num_gt: int, recall_positions: int = 40
) -> float:
    """Interpolated AP over ``recall_positions`` equally spaced recall points.

    ``match_flags`` marks each detection as true positive; ``scores`` rank
    them.  Precision at recall r is the maximum precision attained at any
    recall >= r.  The 40-point protocol samples {1/40, ..., 40/40} (recall 0
    excluded); the legacy 11-point variant samples {0, 0.1, ..., 1.0}.
    Flags and scores that are not 1-D of one length raise ShapeError, and
    a non-finite score InvalidValue, as in :class:`Detection`.
    """
    if num_gt < 1:
        raise InvalidValue("num_gt must be >= 1")
    flags = np.asarray(match_flags, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    if flags.ndim != 1 or flags.shape != scores.shape:
        raise ShapeError(f"match_flags {flags.shape} and scores {scores.shape} must be 1-D of one length")
    if not np.all(np.isfinite(scores)):
        raise InvalidValue("scores must be finite")
    order = np.lexsort((np.arange(len(scores)), -scores))
    flags = flags[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1)

    if recall_positions == 40:
        sample_points = (np.arange(1, 41)) / 40.0
    elif recall_positions == 11:
        sample_points = np.arange(11) / 10.0
    else:
        raise InvalidValue("recall_positions must be 40 or 11")

    total = 0.0
    for r in sample_points:
        attained = precision[recall >= r - 1e-12]
        total += attained.max() if len(attained) else 0.0
    return total / len(sample_points)


def evaluate(
    detections: list[Detection],
    gts: list[Box3D],
    iou_thresh: float,
    recall_positions: int = 40,
) -> float:
    """Match then score a single-class detection set; returns AP."""
    if not gts:
        raise InvalidValue("need at least one ground-truth box")
    matches = match_detections(detections, gts, iou_thresh)
    by_index = dict(matches)
    flags = [by_index[i] is not None for i in range(len(detections))]
    scores = [d.score for d in detections]
    return average_precision(flags, scores, len(gts), recall_positions)
