"""In-memory spans and counters recorded around calls into ``nlcdet``.

The library has no tracing of its own, so the benchmark wraps the public
functions it wants to see.  A wrapper must sit at every name a caller looks
up: ``nlcdet.pipeline`` imports ``fuse_i2p`` by name, so replacing
``nlcdet.propagation.fuse_i2p`` alone would miss the calls made during
training.  :func:`instrument` therefore rebinds every module attribute of
the ``nlcdet`` package that refers to the wrapped function, and wraps
methods on the class itself.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    """Spans (name, start, end, parent, id) and counters, kept in memory.

    ``group`` is the id the caller gives the spans it starts: one per
    operation or set-up pass, refined by a workload that can see finer
    units (``decode`` gives each frame and solver instance its own).
    :func:`span_ids` refines it further inside ``pipeline.train``, which
    the benchmark cannot enter.  While ``active`` is false, wrappers call
    straight through, so the benchmark's own correctness checks leave no
    spans.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.group = "setup"
        self.active = True
        self._stack: list = []

    def wrap_span(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [idx, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[idx] = (name, start, end, parent, self.group, end - start - frame[1])
            if on_call is not None:
                on_call(self.counts, args, result)
            return result

        return traced

    def wrap_count(self, name, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def paused(self):
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def write_jsonl(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for (name, start, end, parent, *_), span_id in zip(self.spans, span_ids(self.spans)):
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "id": span_id}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def span_ids(spans) -> list:
    """The id of each span: one per training run and step, frame or instance.

    A ``pipeline.train`` span gets ``<group>/run-<r>``, counting the runs
    of its group.  A forward directly under it opens ``<run>/step-<k>``,
    shared by the losses and backward that follow; an ``evaluate_model``
    directly under it gets ``<run>/eval``.  Any other span takes its
    parent's id, or its group at the top level.
    """
    ids, runs, steps, scope = [], Counter(), Counter(), {}
    for idx, (name, _, _, parent, group, _) in enumerate(spans):
        if name == "pipeline.train":
            span_id = scope[idx] = f"{group}/run-{runs[group]}"
            runs[group] += 1
        elif parent >= 0 and spans[parent][0] == "pipeline.train":
            if name == "pipeline.forward":
                scope[parent] = f"{ids[parent]}/step-{steps[parent]}"
                steps[parent] += 1
            elif name == "pipeline.evaluate_model":
                scope[parent] = f"{ids[parent]}/eval"
            span_id = scope[parent]
        else:
            span_id = ids[parent] if parent >= 0 else group
        ids.append(span_id)
    return ids


def _count_bytes(counts, args, result):
    """8 bytes per element of every array argument and of the result."""
    counts["propagation.bytes_moved_computed"] += sum(
        8 * a.size for a in (*args, result) if isinstance(a, np.ndarray)
    )


def _count_plan(counts, args, result):
    plan = args[0]
    counts["propagation.plan_nnz"] += sum(
        v.nnz for v in vars(plan).values() if hasattr(v, "nnz")
    )


def _count_iou(counts, args, result):
    counts["geometry.iou_3d_calls"] += 1
    counts["geometry.iou_3d_nonzero"] += result > 0
    counts["geometry.iou_3d_nan"] += result != result


def _count_velodyne(counts, args, result):
    counts["kitti_io.velodyne_bytes"] += len(args[0])


# target (module.function or module.Class.method), span name, result hook
SPANS = [
    ("pipeline.train", "pipeline.train", None),
    ("pipeline.forward", "pipeline.forward", None),
    ("pipeline.backward", "pipeline.backward", None),
    ("pipeline.evaluate_model", "pipeline.evaluate_model", None),
    ("pipeline.generate_scene", "pipeline.generate_scene", None),
    ("propagation.ProjectionPlan.__init__", "propagation.plan_build", _count_plan),
    ("propagation.ProjectionPlan.scatter", "propagation.scatter", _count_bytes),
    ("propagation.ProjectionPlan.gather", "propagation.gather", _count_bytes),
    ("propagation.ProjectionPlan.scatter_grad", "propagation.scatter_grad", _count_bytes),
    ("propagation.ProjectionPlan.gather_grad", "propagation.gather_grad", _count_bytes),
    ("propagation.fuse_p2i", "propagation.fuse_p2i", None),
    ("propagation.fuse_p2i_backward", "propagation.fuse_p2i_backward", None),
    ("propagation.fuse_i2p", "propagation.fuse_i2p", None),
    ("propagation.fuse_i2p_backward", "propagation.fuse_i2p_backward", None),
    ("propagation.point_to_pixel", "propagation.point_to_pixel", _count_bytes),
    ("propagation.point_to_pixel_backward", "propagation.point_to_pixel_backward", _count_bytes),
    ("propagation.pixel_to_point", "propagation.pixel_to_point", _count_bytes),
    ("propagation.pixel_to_point_backward", "propagation.pixel_to_point_backward", _count_bytes),
    ("losses.nlc_loss", "losses.nlc_loss", None),
    ("losses.center_loss", "losses.center_loss", None),
    ("losses.cross_entropy", "losses.cross_entropy", None),
    ("nlc.build_gt_nlc_map", "nlc.build_gt_nlc_map", None),
    ("nlc.write_nlc_map", "nlc.write_nlc_map", None),
    ("nlc.mmae", "nlc.mmae", None),
    ("kitti_io.parse_calib", "kitti_io.parse_calib", None),
    ("kitti_io.parse_labels", "kitti_io.parse_labels", None),
    ("kitti_io.read_velodyne", "kitti_io.read_velodyne", _count_velodyne),
    ("kitti_io.label_to_lidar_box", "kitti_io.label_to_lidar_box", None),
    ("cli.main", "cli.main", None),
    ("geometry.project_points", "geometry.project_points", None),
    ("geometry.points_in_box", "geometry.points_in_box", None),
    ("geometry.iou_3d", "geometry.iou_3d", _count_iou),
    ("solver.solve_box", "solver.solve_box", None),
    ("metrics.match_detections", "metrics.match_detections", None),
    ("metrics.average_precision", "metrics.average_precision", None),
]
# counted but not timed, so their time stays with the caller's self time
COUNTS = [("nlc.lidar_to_nlc", "nlc.lidar_to_nlc_calls")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import nlcdet
    from nlcdet import cli  # noqa: F401  (loads every module that binds a target)

    modules = [m for n, m in sys.modules.items() if n == "nlcdet" or n.startswith("nlcdet.")]
    undo = []

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        for target, name, hook in SPANS:
            mod, *cls, attr = target.split(".")
            owner = getattr(nlcdet, mod)
            if cls:
                owner = getattr(owner, cls[0])
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap_span(name, original, hook))
            else:
                original = getattr(owner, attr)
                rebind(original, tracer.wrap_span(name, original, hook))
        for target, name in COUNTS:
            mod, attr = target.split(".")
            original = getattr(getattr(nlcdet, mod), attr)
            rebind(original, tracer.wrap_count(name, original))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(tracer: Tracer, groups=None):
    """Per span name: (calls, total self ns), optionally only for some ids."""
    calls, total = Counter(), Counter()
    for name, _, _, _, group, self_ns in tracer.spans:
        if groups is None or group in groups:
            calls[name] += 1
            total[name] += self_ns
    return calls, total


def durations(tracer: Tracer, name: str, groups) -> list:
    """Durations in ns of the spans called ``name`` under the given ids."""
    return [end - start for n, start, end, _, group, _ in tracer.spans if n == name and group in groups]

