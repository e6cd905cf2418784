"""The four benchmark workloads.

Each is a single-process closed loop: the runner issues the next operation
when the previous one has returned.  A workload builds its inputs from the
seed in :meth:`setup`, then :meth:`run_op` times only the calls into
``nlcdet`` and checks their outputs afterwards, with the tracer paused so
that the checks leave no spans.  Operations cycle over a fixed set of
distinct inputs (a *pass*); the runner stops only at a pass boundary, so
every per-operation count is exact for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nlcdet import cli, geometry, kitti_io, metrics, nlc, pipeline, propagation, solver
from nlcdet.geometry import Box3D

import synth

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class OpResult:
    seconds: float  # wall time of the library calls only
    work: int  # work items completed: train steps, frames or box solves
    ok: bool
    problems: list = field(default_factory=list)
    scaled: float = 0.0  # ``seconds`` at the nominal host speed, set by the runner


class Stopwatch:
    """Sums the wall time of the ``with`` blocks it times."""

    def __init__(self):
        self.seconds = 0.0

    @contextlib.contextmanager
    def timing(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


class Workload:
    """A workload's shape; subclasses define setup, run_op and quality.

    Constructors take ``(seed, work_dir, sizes)``; ``sizes`` overrides the
    full-size inputs, which the benchmark's tests use for small runs.
    """

    unit = "operations"  # what one item of work_per_s is
    op_name = "operation"  # what one closed-loop operation is
    ops_per_pass = 1

    def close(self):
        """Remove files the set-up wrote."""


def _load_reference(workload: str, seed: int, config) -> dict | None:
    """The reference recorded for this seed and configuration, or None when there is none."""
    refs = json.loads(REFERENCE_FILE.read_text())[workload]
    if config != pipeline.TrainConfig(**{**refs["config"], "seed": config.seed}):
        return None
    return refs["seeds"].get(str(seed))


def _close(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _warm_scenes(cfg):
    """Scene generation plus one untimed forward pass, which builds each plan."""
    train_scenes, val_scenes = pipeline.make_scenes(cfg)
    model = pipeline.ToyModel.init(0, c_point=cfg.point_channels, c_image=cfg.image_channels)
    for scene in train_scenes + val_scenes:
        pipeline.forward(model, scene, cfg)
    return train_scenes, val_scenes


class Train(Workload):
    """One ``pipeline.train`` run per operation on the default scene set."""

    unit = "train steps"
    op_name = "pipeline.train run"
    epochs = 2

    def __init__(self, seed: int, work_dir: Path, sizes: dict | None = None):
        self.config = pipeline.TrainConfig(**{"seed": seed, "epochs": self.epochs, **(sizes or {})})
        self.epochs = self.config.epochs
        self.first = None
        self.reference = _load_reference("train", seed, self.config)

    def setup(self):
        self.train_scenes, self.val_scenes = _warm_scenes(self.config)

    def run_op(self, index, tracer) -> OpResult:
        start = time.perf_counter()
        _, report = pipeline.train(self.config, self.train_scenes, self.val_scenes)
        seconds = time.perf_counter() - start
        with tracer.paused():
            problems = self.check(report)
        return OpResult(seconds, self.epochs * len(self.train_scenes), not problems, problems)

    def check(self, report) -> list:
        problems = []
        fv = report.final_val
        val = fv["nlc"] + fv["ctr"]
        losses = [e["train_total"] for e in report.epochs] + [fv[k] for k in ("nlc", "sem2d", "sem3d", "ctr")]
        if report.diverged or len(report.epochs) != self.epochs or not np.all(np.isfinite(losses)):
            problems.append("training diverged or produced a non-finite loss")
        if self.first is None:
            self.first = val
        elif val != self.first:
            problems.append(f"val_metric {val!r} differs from the first run's {self.first!r}")
        if self.reference is not None and not _close(val, self.reference["val_metric"]):
            problems.append(f"val_metric {val!r} != reference {self.reference['val_metric']!r}")
        self.val_metric = val
        return problems

    def quality(self) -> dict:
        return {"pipeline.val_metric": self.val_metric}


class Ablation(Workload):
    """One ``pipeline.ablation`` call per operation: rows none/p2i/both x 3 seeds.

    Seed ``s`` trains model seeds 3s, 3s+1 and 3s+2, so seed 0 is the
    acceptance test's (0, 1, 2).
    """

    unit = "train steps"
    op_name = "pipeline.ablation call"
    epochs = 2
    rows = ("none", "p2i", "both")

    def __init__(self, seed: int, work_dir: Path, sizes: dict | None = None):
        self.config = pipeline.TrainConfig(**{"epochs": self.epochs, **(sizes or {})})
        self.epochs = self.config.epochs
        self.model_seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        self.first = None
        self.reference = _load_reference("ablation", seed, self.config)

    def setup(self):
        # ablation() builds its own scenes; this warms the same code paths
        self.train_scenes, _ = _warm_scenes(self.config)

    def run_op(self, index, tracer) -> OpResult:
        start = time.perf_counter()
        report = pipeline.ablation(self.config, seeds=self.model_seeds, rows=self.rows)
        seconds = time.perf_counter() - start
        with tracer.paused():
            problems = self.check(report)
        runs = len(self.rows) * len(self.model_seeds)
        return OpResult(seconds, runs * self.epochs * len(self.train_scenes), not problems, problems)

    def check(self, report) -> list:
        problems = []
        means = {row: report["rows"][row]["mean_metric"] for row in self.rows}
        runs = [run for row in self.rows for run in report["rows"][row]["runs"]]
        if any(run["diverged"] or not np.isfinite(run["metric"]) for run in runs):
            problems.append("an ablation run diverged or produced a non-finite metric")
        if self.first is None:
            self.first = means
        elif means != self.first:
            problems.append(f"row means {means} differ from the first call's {self.first}")
        if self.reference is not None and not all(
            _close(means[row], self.reference["row_means"][row]) for row in self.rows
        ):
            problems.append(f"row means {means} != reference {self.reference['row_means']}")
        self.means = means
        return problems

    def quality(self) -> dict:
        none, p2i = self.means["none"], self.means["p2i"]
        return {"pipeline.p2i_gain_pct": 100.0 * (none - p2i) / none}


def _box3d(boxes: synth.Boxes, i: int) -> Box3D:
    l, w, h = (float(x) for x in boxes.dims[i])
    return Box3D(center=boxes.centers[i], l=l, w=w, h=h, yaw=float(boxes.yaws[i]))


class KittiFrame(Workload):
    """``nlcdet nlcmap`` in-process plus full-resolution propagation, per frame.

    Frames are KITTI-sized 360-degree sweeps.  All projected coordinates go
    to ``ProjectionPlan``, as ``generate_scene`` passes them, including the
    points behind the camera whose mirrored projections land in the image.
    """

    unit = "frames"
    op_name = "frame"
    ops_per_pass = 3
    channels = 16

    def __init__(self, seed: int, work_dir: Path, sizes: dict | None = None):
        self.seed = seed
        self.sizes = sizes or {}
        self.height = self.sizes.get("height", synth.IMG_H)
        self.width = self.sizes.get("width", synth.IMG_W)
        self.dir = work_dir / f"kitti_frame-{seed}"
        self.mask_pixels = []
        self.behind_hits = []

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        camera = synth.kitti_camera(self.seed)
        kcal = kitti_io.KittiCalib(P2=camera[0], R0_rect=camera[1], Tr_velo_to_cam=camera[2])
        self.calibration = kitti_io.to_calibration(kcal)
        frame_sizes = {k: v for k, v in self.sizes.items() if k in ("total_points", "num_boxes", "fg_points")}
        self.frames = []
        for j in range(self.ops_per_pass):
            frame = synth.kitti_frame(self.seed, j, **frame_sizes)
            labels = [kitti_io.lidar_box_to_label(_box3d(frame.boxes, i), kcal) for i in range(len(frame.boxes))]
            paths = {k: self.dir / f"{j:06d}.{k}" for k in ("calib", "label", "velodyne", "nlcm")}
            paths["calib"].write_text(kitti_io.emit_calib(kcal))
            paths["label"].write_text(kitti_io.emit_labels(labels))
            paths["velodyne"].write_bytes(kitti_io.write_velodyne(frame.points))
            counts = synth.reference_pixel_counts(frame, camera, self.height, self.width)
            self.frames.append((frame.points[:, :3].astype(float), paths, counts))
        rng = np.random.default_rng([self.seed, 17])
        n = len(self.frames[0][0])
        self.point_features = rng.normal(size=(n, self.channels))
        self.grid_features = rng.normal(size=(self.channels, self.height, self.width))
        import scipy.sparse  # noqa: F401  (imported lazily by ProjectionPlan, once per process)

    def run_op(self, index, tracer) -> OpResult:
        xyz, paths, ref_counts = self.frames[index]
        h, w, pf, grid = self.height, self.width, self.point_features, self.grid_features
        watch, problems = Stopwatch(), []

        def check(label, ok):
            if not ok:
                problems.append(label)

        stdout = io.StringIO()
        with watch.timing():
            with contextlib.redirect_stdout(stdout):
                rc = cli.main([
                    "nlcmap", "--calib", str(paths["calib"]), "--label", str(paths["label"]),
                    "--velodyne", str(paths["velodyne"]), "--out", str(paths["nlcm"]),
                    "--height", str(h), "--width", str(w),
                ])
            u, v, depth = geometry.project_points(xyz, self.calibration)
            coords = np.column_stack([u, v])
            plan = propagation.ProjectionPlan(coords, h, w)
        with tracer.paused():
            check(f"nlcmap exit code {rc}", rc == 0)
            data = paths["nlcm"].read_bytes()
            nmap = nlc.read_nlc_map(data)
            check("NLCM bytes do not round-trip", nlc.write_nlc_map(nmap) == data)
            printed = [int(line.split()[2]) for line in stdout.getvalue().splitlines()]
            check(f"per-object pixel counts {printed} != reference {ref_counts.tolist()}",
                  printed == ref_counts.tolist())
            mask_pixels = int(nmap.mask.sum())
            check(f"mask pixels {mask_pixels} != reference {int(ref_counts.sum())}",
                  mask_pixels == int(ref_counts.sum()))
            self.mask_pixels.append(mask_pixels)
            ones = np.ones((1, h, w))
            used = (plan.scatter_grad(ones)[:, 0] != 0) | (plan.gather(ones)[:, 0] != 0)
            self.behind_hits.append(int(np.sum(used & (depth <= 0))))

        def agree(label, a, b):
            check(f"{label}: plan and one-shot differ", a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12)

        def adjoint(label, y, x_grad, x, y_grad):
            lhs, rhs = float(np.vdot(y, y_grad)), float(np.vdot(x, x_grad))
            scale = np.linalg.norm(y) * np.linalg.norm(y_grad) + np.linalg.norm(x) * np.linalg.norm(x_grad)
            check(f"{label}: adjoint identity fails", abs(lhs - rhs) <= 1e-10 * scale)

        with watch.timing():
            scattered = plan.scatter(pf)
            one_shot = propagation.point_to_pixel(pf, coords, h, w)
        with tracer.paused():
            agree("scatter", scattered, one_shot)
            del one_shot
        with watch.timing():
            scatter_grad = plan.scatter_grad(grid)
            one_shot = propagation.point_to_pixel_backward(grid, coords, len(coords))
        with tracer.paused():
            agree("scatter_grad", scatter_grad, one_shot)
            adjoint("scatter", scattered, scatter_grad, pf, grid)
            del one_shot, scattered, scatter_grad
        with watch.timing():
            gathered = plan.gather(grid)
            one_shot = propagation.pixel_to_point(grid, coords)
        with tracer.paused():
            agree("gather", gathered, one_shot)
            del one_shot
        with watch.timing():
            gather_grad = plan.gather_grad(pf)
            one_shot = propagation.pixel_to_point_backward(pf, coords, h, w)
        with tracer.paused():
            agree("gather_grad", gather_grad, one_shot)
            adjoint("gather", gathered, gather_grad, grid, pf)
        return OpResult(watch.seconds, 1, not problems, problems)

    def quality(self) -> dict:
        return {
            "nlc.mask_pixels": float(np.mean(self.mask_pixels)),
            "propagation.behind_camera_hits": float(np.mean(self.behind_hits)),
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _wrap_angle(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


class Decode(Workload):
    """Solve, match and score: box recovery from NLC correspondences, then AP.

    One operation decodes a sequence of frames: every instance is solved
    with ``solve_box``, each frame's detections are matched at IoU 0.7, and
    the sequence is pooled into AP R40.  A pass is 16 distinct sequences of
    25 frames: short operations give the tail latency enough samples, and
    the pass is long enough that its solver work, which a clutter instance
    can stretch to 100 iterations, varies little from seed to seed.
    """

    unit = "box solves"
    op_name = "decoded frame sequence"
    ops_per_pass = 16
    iou_threshold = 0.7
    score_scale = 0.05  # rms NLC residual at which a detection's score is 1/e

    def __init__(self, seed: int, work_dir: Path, sizes: dict | None = None):
        self.seed = seed
        self.sizes = sizes or {}
        self.first = {}  # quality values of each sequence's first operation

    def setup(self):
        self.sequences = [synth.decode_frames(self.seed, j, **self.sizes) for j in range(self.ops_per_pass)]
        self.gts = [[[_box3d(f.gt, i) for i in range(len(f.gt))] for f in frames] for frames in self.sequences]

    def run_op(self, index, tracer) -> OpResult:
        frames, all_gts = self.sequences[index], self.gts[index]
        reports, flags, scores = [], [], []
        op_id = tracer.group
        start = time.perf_counter()
        for k, (frame, gts) in enumerate(zip(frames, all_gts)):
            dets = []
            for j, corrs in enumerate(frame.instances):
                tracer.group = f"{op_id}/frame-{k}/inst-{j}"
                report = solver.solve_box(corrs)
                reports.append(report)
                dets.append(metrics.Detection(box=report.box, score=float(np.exp(-report.rms_residual / self.score_scale))))
            tracer.group = f"{op_id}/frame-{k}"
            matches = dict(metrics.match_detections(dets, gts, self.iou_threshold))
            flags += [matches[i] is not None for i in range(len(dets))]
            scores += [d.score for d in dets]
        tracer.group = op_id
        ap = metrics.average_precision(flags, scores, sum(len(g) for g in all_gts), 40)
        seconds = time.perf_counter() - start
        with tracer.paused():
            problems = self.check(index, reports, flags, ap)
        return OpResult(seconds, len(reports), not problems, problems)

    def check(self, index, reports, flags, ap) -> list:
        problems = []
        errors = []
        it = iter(reports)
        for frame, gts in zip(self.sequences[index], self.gts[index]):
            for kind, owner, report in zip(frame.kinds, frame.owners, it):
                if owner < 0:
                    continue
                gt, box = gts[owner], report.box
                errors.append(float(np.linalg.norm(box.center - gt.center)))
                if kind == "clean":
                    dev = max(errors[-1], *np.abs(box.dims - gt.dims), abs(_wrap_angle(box.yaw - gt.yaw)))
                    if not dev <= 1e-6:
                        problems.append(f"clean instance recovered to {dev:.3g}, not 1e-6")
        if not 0.0 <= ap <= 1.0:
            problems.append(f"AP {ap!r} outside [0, 1]")
        quality = {
            "metrics.ap_r40": ap,
            "metrics.matched_frac": float(np.mean(flags)),
            "solver.center_err_p90_m": float(np.percentile(errors, 90)),
            "solver.lm_iterations_mean": float(np.mean([r.iterations for r in reports])),
            "solver.converged_frac": float(np.mean([r.converged for r in reports])),
            "solver.degenerate_frac": float(np.mean([r.degenerate for r in reports])),
        }
        first = self.first.setdefault(index, quality)
        if quality != first:
            problems.append(f"results {quality} differ from the first operation's {first}")
        return problems

    def quality(self) -> dict:
        """Each value as the mean over the sequences of a pass."""
        return {k: float(np.mean([q[k] for q in self.first.values()])) for k in self.first[0]}


WORKLOADS = {"train": Train, "ablation": Ablation, "kitti_frame": KittiFrame, "decode": Decode}
