"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Time metrics are mean self time per call: a span's duration minus the time
its traced children cover.  Count metrics are per operation and exact for
a given seed, because the runner stops only at pass boundaries.  Every
workload reports every metric; a layer a workload does not reach reads 0.
"""

from __future__ import annotations

import numpy as np

import tracing

STEPS = "work_per_s (steps_per_s) on train and ablation"
FRAME = "op_ms_p50 (frame_ms_p50) on kitti_frame"
EVAL = "op_ms_p50 on decode (eval_s: per-frame matching and pooled AP)"
SOLVES = "work_per_s (solves_per_s) on decode"
SETUP = "setup_s on train and ablation"

# name, unit, better, end-to-end metric it should move
PER_LAYER = [
    ("pipeline.forward_ms", "ms", "lower", STEPS),
    ("pipeline.backward_ms", "ms", "lower", STEPS),
    ("pipeline.train_self_ms", "ms", "lower", STEPS),
    ("pipeline.evaluate_model_s", "s", "lower", STEPS),
    ("pipeline.generate_scene_ms", "ms", "lower", SETUP + "; op_ms_p50 on ablation"),
    ("pipeline.forward_calls", "count", "lower", STEPS),
    ("pipeline.backward_calls", "count", "lower", STEPS),
    ("pipeline.val_metric", "1", "lower", "quality guard on train"),
    ("pipeline.p2i_gain_pct", "%", "higher", "quality guard on ablation"),
    ("propagation.plan_build_ms", "ms", "lower", SETUP + "; " + FRAME),
    ("propagation.scatter_ms", "ms", "lower", STEPS + "; " + FRAME),
    ("propagation.gather_ms", "ms", "lower", STEPS + "; " + FRAME),
    ("propagation.scatter_grad_ms", "ms", "lower", STEPS + "; " + FRAME),
    ("propagation.gather_grad_ms", "ms", "lower", STEPS + "; " + FRAME),
    ("propagation.fuse_p2i_ms", "ms", "lower", STEPS),
    ("propagation.fuse_p2i_backward_ms", "ms", "lower", STEPS),
    ("propagation.fuse_i2p_ms", "ms", "lower", STEPS),
    ("propagation.fuse_i2p_backward_ms", "ms", "lower", STEPS),
    ("propagation.point_to_pixel_ms", "ms", "lower", FRAME),
    ("propagation.pixel_to_point_ms", "ms", "lower", FRAME),
    ("propagation.plan_nnz", "count", "lower", SETUP + "; " + FRAME),
    ("propagation.bytes_moved_computed", "bytes", "lower", STEPS + "; " + FRAME),
    ("propagation.behind_camera_hits", "count", "lower", "correctness on kitti_frame (0 once depth is masked)"),
    ("losses.nlc_loss_ms", "ms", "lower", STEPS),
    ("losses.center_loss_ms", "ms", "lower", STEPS),
    ("losses.cross_entropy_ms", "ms", "lower", STEPS),
    ("nlc.build_gt_nlc_map_ms", "ms", "lower", FRAME + "; setup_s on train"),
    ("nlc.write_nlc_map_ms", "ms", "lower", FRAME),
    ("nlc.mmae_ms", "ms", "lower", STEPS),
    ("nlc.lidar_to_nlc_calls", "count", "lower", FRAME),
    ("nlc.mask_pixels", "count", "higher", "correctness on kitti_frame"),
    ("kitti_io.parse_ms", "ms", "lower", FRAME),
    ("kitti_io.velodyne_mb_per_s", "MB/s", "higher", FRAME),
    ("kitti_io.label_to_lidar_box_ms", "ms", "lower", FRAME),
    ("cli.nlcmap_self_ms", "ms", "lower", FRAME),
    ("geometry.project_points_ms", "ms", "lower", FRAME),
    ("geometry.points_in_box_ms", "ms", "lower", FRAME),
    ("geometry.iou_3d_us", "us", "lower", EVAL),
    ("geometry.iou_3d_calls", "count", "lower", EVAL),
    ("geometry.iou_3d_nonzero_frac", "1", "higher", EVAL),
    ("geometry.iou_3d_nan_frac", "1", "lower", "metrics.ap_r40 on decode"),
    ("solver.solve_box_ms_p50", "ms", "lower", SOLVES),
    ("solver.solve_box_ms_tail", "ms", "lower", SOLVES),
    ("solver.lm_iterations_mean", "count", "lower", SOLVES),
    ("solver.converged_frac", "1", "higher", SOLVES + "; quality on decode"),
    ("solver.degenerate_frac", "1", "lower", SOLVES + "; quality on decode"),
    ("solver.center_err_p90_m", "m", "lower", "quality guard on decode"),
    ("metrics.match_detections_s", "s", "lower", EVAL),
    ("metrics.average_precision_ms", "ms", "lower", EVAL),
    ("metrics.matched_frac", "1", "higher", EVAL),
    ("metrics.ap_r40", "1", "higher", "quality guard on decode"),
    ("trace.self_coverage_pct", "%", "higher", "traced self time / traced op wall time"),
    ("trace.overhead_pct", "%", "lower", "traced vs untraced passes of the same run, per operation"),
    ("trace.work_per_s", "1/s", "higher", "work_per_s under tracing; compare with the untraced run"),
]
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

# metric: (span names whose self time is summed, span whose calls divide it, scale)
_SELF_TIME = {
    "pipeline.forward_ms": (["pipeline.forward"], None, 1e-6),
    "pipeline.backward_ms": (["pipeline.backward"], None, 1e-6),
    "pipeline.train_self_ms": (["pipeline.train"], None, 1e-6),
    "pipeline.evaluate_model_s": (["pipeline.evaluate_model"], None, 1e-9),
    "pipeline.generate_scene_ms": (["pipeline.generate_scene"], None, 1e-6),
    "propagation.plan_build_ms": (["propagation.plan_build"], None, 1e-6),
    "propagation.scatter_ms": (["propagation.scatter"], None, 1e-6),
    "propagation.gather_ms": (["propagation.gather"], None, 1e-6),
    "propagation.scatter_grad_ms": (["propagation.scatter_grad"], None, 1e-6),
    "propagation.gather_grad_ms": (["propagation.gather_grad"], None, 1e-6),
    "propagation.fuse_p2i_ms": (["propagation.fuse_p2i"], None, 1e-6),
    "propagation.fuse_p2i_backward_ms": (["propagation.fuse_p2i_backward"], None, 1e-6),
    "propagation.fuse_i2p_ms": (["propagation.fuse_i2p"], None, 1e-6),
    "propagation.fuse_i2p_backward_ms": (["propagation.fuse_i2p_backward"], None, 1e-6),
    # one-shot operators: forward plus backward, per forward call
    "propagation.point_to_pixel_ms": (
        ["propagation.point_to_pixel", "propagation.point_to_pixel_backward"],
        "propagation.point_to_pixel", 1e-6),
    "propagation.pixel_to_point_ms": (
        ["propagation.pixel_to_point", "propagation.pixel_to_point_backward"],
        "propagation.pixel_to_point", 1e-6),
    "losses.nlc_loss_ms": (["losses.nlc_loss"], None, 1e-6),
    "losses.center_loss_ms": (["losses.center_loss"], None, 1e-6),
    "losses.cross_entropy_ms": (["losses.cross_entropy"], None, 1e-6),
    "nlc.build_gt_nlc_map_ms": (["nlc.build_gt_nlc_map"], None, 1e-6),
    "nlc.write_nlc_map_ms": (["nlc.write_nlc_map"], None, 1e-6),
    "nlc.mmae_ms": (["nlc.mmae"], None, 1e-6),
    # the three KITTI parsers, per velodyne file read
    "kitti_io.parse_ms": (
        ["kitti_io.parse_calib", "kitti_io.parse_labels", "kitti_io.read_velodyne"],
        "kitti_io.read_velodyne", 1e-6),
    "kitti_io.label_to_lidar_box_ms": (["kitti_io.label_to_lidar_box"], None, 1e-6),
    "cli.nlcmap_self_ms": (["cli.main"], None, 1e-6),
    "geometry.project_points_ms": (["geometry.project_points"], None, 1e-6),
    "geometry.points_in_box_ms": (["geometry.points_in_box"], None, 1e-6),
    "geometry.iou_3d_us": (["geometry.iou_3d"], None, 1e-3),
    "metrics.match_detections_s": (["metrics.match_detections"], None, 1e-9),
    "metrics.average_precision_ms": (["metrics.average_precision"], None, 1e-6),
}


def tail(values):
    """The highest percentile with at least ten samples beyond it, and its label.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported and labelled as such.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"p100 (maximum) of n={n}"
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of n={n}"


def compute(tracer, setup_counts, ops, traced, quality):
    """All per-layer metrics of one traced run; ``traced`` flags the traced operations."""
    on = [op for op, t in zip(ops, traced) if t]
    off = [op for op, t in zip(ops, traced) if not t]
    n_ops = len(on)
    calls, self_ns = tracing.self_times(tracer)
    measured = {s[4] for s in tracer.spans if not s[4].startswith("setup")}
    m_calls, m_self = tracing.self_times(tracer, measured)
    counts = tracer.counts
    out = {name: 0.0 for name, *_ in PER_LAYER}

    for metric, (names, per, scale) in _SELF_TIME.items():
        denom = calls[per or names[0]]
        if denom:
            out[metric] = sum(self_ns[n] for n in names) * scale / denom

    out["pipeline.forward_calls"] = m_calls["pipeline.forward"] / n_ops
    out["pipeline.backward_calls"] = m_calls["pipeline.backward"] / n_ops
    builds = calls["propagation.plan_build"]
    if builds:
        out["propagation.plan_nnz"] = (setup_counts["propagation.plan_nnz"] + counts["propagation.plan_nnz"]) / builds
    out["propagation.bytes_moved_computed"] = counts["propagation.bytes_moved_computed"] / n_ops
    out["nlc.lidar_to_nlc_calls"] = counts["nlc.lidar_to_nlc_calls"] / n_ops
    velodyne_ns = self_ns["kitti_io.read_velodyne"]
    if velodyne_ns:
        out["kitti_io.velodyne_mb_per_s"] = (
            (setup_counts["kitti_io.velodyne_bytes"] + counts["kitti_io.velodyne_bytes"]) / 1e6 / (velodyne_ns * 1e-9)
        )
    iou_calls = counts["geometry.iou_3d_calls"]
    out["geometry.iou_3d_calls"] = iou_calls / n_ops
    if iou_calls:
        out["geometry.iou_3d_nonzero_frac"] = counts["geometry.iou_3d_nonzero"] / iou_calls
        out["geometry.iou_3d_nan_frac"] = counts["geometry.iou_3d_nan"] / iou_calls
    solves = [d * 1e-6 for d in tracing.durations(tracer, "solver.solve_box", measured)]
    if solves:
        out["solver.solve_box_ms_p50"] = float(np.median(solves))
        out["solver.solve_box_ms_tail"] = tail(solves)[0]
    out.update(quality)

    wall_on = sum(op.seconds for op in on)
    out["trace.self_coverage_pct"] = 100.0 * sum(m_self.values()) * 1e-9 / wall_on
    scaled_on = sum(op.scaled for op in on)
    scaled_off = sum(op.scaled for op in off)
    out["trace.overhead_pct"] = 100.0 * ((scaled_on / len(on)) / (scaled_off / len(off)) - 1.0)
    out["trace.work_per_s"] = sum(op.work for op in on) / scaled_on
    return out
