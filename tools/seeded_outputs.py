"""The seeded outputs of the library, and the one walk over their leaves
that ``fingerprint.py`` hashes and ``max_diff.py`` compares between two
checkouts: one list and one walk for both tools.

This module imports ``nlcdet`` from whatever ``sys.path`` finds first, so
each tool puts the ``src`` of the checkout it measures in front of the path,
and pins BLAS to one thread, before importing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from nlcdet import (
    Box3D, Calibration, Detection, LossWeights, average_precision, cli, dof_analysis, gradcheck,
    iou_3d, match_detections, nlc_to_lidar, project_points, solve_box,
)
from nlcdet.geometry import _nearest_per_pixel
from nlcdet.kitti_io import KittiCalib, emit_calib, emit_labels, lidar_box_to_label, write_velodyne
from nlcdet.propagation import ProjectionPlan
from nlcdet.pipeline import ABLATION_ROWS, TrainConfig, ablation, generate_scene, train

SMALL = TrainConfig(epochs=3, train_scenes=6, val_scenes=3)


def outputs():
    """Yield ``(name, value)`` for every seeded output.

    The ``dof_analysis`` outputs are the Jacobian ranks of a near-coplanar
    family: 8 boxes, each with 8 NLCs whose z is 0.5 plus the spread times a
    standard normal draw.  The ``decode`` output is one sequence decoded as
    the benchmark's ``decode`` workload does it (see :func:`decode`), the
    ``plan`` output a plan's products at KITTI size (see :func:`plan`) and
    the ``zbuffer`` output the z-buffer of a cloud with equal-depth ties
    (see :func:`zbuffer`).  The ``nlcmap`` and ``cli`` outputs are what
    ``cli.main`` writes and prints for each command that reads or writes
    files, with its exit code.
    """
    runs = {f"train/{row}": replace(SMALL, **flags) for row, flags in ABLATION_ROWS.items()}
    runs["train/no_nlc"] = replace(SMALL, epochs=4, weights=LossWeights(nlc=0.0))
    runs["train/no_sem2d"] = replace(SMALL, epochs=4, weights=LossWeights(sem2d=0.0))
    for name, config in runs.items():
        model, report = train(config)
        yield f"{name}/params", model.params
        yield f"{name}/report", report.to_dict()
    # the benchmark's ``train`` operation: the default 50+20 scenes, two epochs
    model, report = train(TrainConfig(seed=0, epochs=2))
    yield "train/default_epochs_2", [model.params, report.to_dict()]
    yield "ablation", ablation(SMALL, seeds=(0, 1))
    yield "gradcheck", gradcheck.run_all(20, 0)
    for seed in range(10):
        yield f"scene/{seed}", generate_scene(seed)
    rng = np.random.default_rng(0)
    for i in range(8):
        box = _car_box(rng)
        nlc = rng.uniform(0.05, 0.95, size=(40, 3))
        pts = nlc_to_lidar(nlc, box) + rng.normal(0.0, 0.02, size=(40, 3))
        yield f"solve_box/{i}", solve_box(np.hstack([pts, nlc])).to_dict()
    family = []
    for seed in range(8):
        rng = np.random.default_rng([seed, 20])
        family.append((_car_box(rng), rng.uniform(0.05, 0.95, size=(8, 3)), rng.standard_normal(8)))
    for spread in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        ranks, reports = [], []
        for box, nlc, z in family:
            nlc[:, 2] = 0.5 + spread * z
            corrs = np.hstack([nlc_to_lidar(nlc, box), nlc])
            ranks.append(int(dof_analysis(corrs, at=box)["jacobian_rank"]))
            reports.append(solve_box(corrs, init=box).to_dict())
        yield f"dof_analysis/z_spread_{spread:.0e}", ranks
        yield f"solve_box/z_spread_{spread:.0e}", reports
    yield "decode", decode()
    yield "plan/375x1242", plan()
    yield "zbuffer/ties", zbuffer()
    yield "nlcmap/375x1242", nlcmap()
    yield "cli/train", cli_train()
    yield "cli/ablation", cli_ablation()
    yield "cli/solve", cli_solve()
    yield "cli/eval", cli_eval()


def leaves(value, path=""):
    """Yield ``(path, leaf)`` for each leaf of ``value``, walking dataclasses
    (by their fields), dicts, lists and tuples in order.  A leaf is an array
    (a float becomes a 0-d array, so that it keeps its exact bits) or, for
    any other value such as an int, a bool, None or a string, its ``repr``.
    A dict key extends the path by ``/key``, a sequence item by ``[i]``."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    elif isinstance(value, (np.ndarray, float, np.floating)):
        yield path, np.asarray(value)
    else:
        yield path, repr(value)


def decode():
    """Solve reports, per-frame det x gt ``iou_3d`` matrices, per-frame
    ``match_detections`` results at IoU 0.7, and the pooled AP R40 of one
    seeded sequence shaped like the benchmark's ``decode`` sequences.

    Each of 25 frames holds 10 car boxes at least 6 m apart in bird's-eye
    view, each with 30 correspondences.  Five of them are clean, the other
    five have 3 of their NLC targets replaced by uniform noise, and each of
    2 clutter instances joins the first 15 correspondences of one object to
    the last 15 of another.  A detection scores ``exp(-rms_residual / 0.05)``.
    """
    rng = np.random.default_rng([0, 25])
    reports, ious, matches, flags, scores, num_gt = [], [], [], [], [], 0
    for _ in range(25):
        gts = []
        while len(gts) < 10:
            box = _car_box(rng)
            if all(np.hypot(*(box.center - g.center)[:2]) > 6.0 for g in gts):
                gts.append(box)
        instances = []
        for i, box in enumerate(gts):
            nlc = rng.uniform(0.0, 1.0, size=(30, 3))
            pts = nlc_to_lidar(nlc, box)
            if i >= 5:
                bad = rng.choice(30, size=3, replace=False)
                nlc[bad] = rng.uniform(0.0, 1.0, size=(3, 3))
            instances.append(np.hstack([pts, nlc]))
        for _ in range(2):
            a, b = rng.choice(10, size=2, replace=False)
            instances.append(np.vstack([instances[a][:15], instances[b][15:]]))
        dets = []
        for instance in instances:
            reports.append(solve_box(instance))
            dets.append(Detection(box=reports[-1].box, score=float(np.exp(-reports[-1].rms_residual / 0.05))))
        ious.append(np.array([[iou_3d(d.box, g) for g in gts] for d in dets]))
        matches.append(match_detections(dets, gts, 0.7))
        by_index = dict(matches[-1])
        flags += [by_index[i] is not None for i in range(len(dets))]
        scores += [d.score for d in dets]
        num_gt += len(gts)
    return [reports, ious, matches, average_precision(flags, scores, num_gt, 40)]


def plan(height=375, width=1242, n=60_000):
    """The four products of a ``ProjectionPlan`` with 2 channels: scatter,
    scatter_grad, gather and gather_grad, in that order.

    The coordinates spread over the image and a margin of two pixels around
    it.  Of each tenth of them, the first has NaN u, the second infinite v,
    the third u in [-1, 0) (a point outside with neighbors inside), the
    fourth integral coordinates, and the fifth repeats the sixth.
    """
    rng = np.random.default_rng([0, 27])
    uv = np.column_stack([rng.uniform(-2.0, width + 2.0, size=n),
                          rng.uniform(-2.0, height + 2.0, size=n)])
    k = n // 10
    uv[:k, 0] = np.nan
    uv[k:2 * k, 1] = np.inf
    uv[2 * k:3 * k, 0] = rng.uniform(-1.0, 0.0, size=k)
    uv[3 * k:4 * k] = np.floor(uv[3 * k:4 * k])
    uv[4 * k:5 * k] = uv[5 * k:6 * k]
    points = rng.normal(size=(n, 2))
    grid = rng.normal(size=(2, height, width))
    p = ProjectionPlan(uv, height, width)
    return [p.scatter(points), p.scatter_grad(grid), p.gather(grid), p.gather_grad(points)]


def zbuffer(height=60, width=80, n=5000):
    """The winning points and cells of the z-buffer over a seeded cloud.

    A tenth of the ``n`` points lie behind the camera.  To them come 600
    copies of points moved by one ulp along x, so at the same depth and as
    a rule in the same pixel, and 300 exact copies; all are shuffled, and
    50 rows each of the projected u, v and depth are set to NaN.
    """
    rng = np.random.default_rng([1, 27])
    calib = Calibration(K=np.array([[40.0, 0.0, width / 2], [0.0, 40.0, height / 2], [0.0, 0.0, 1.0]]))
    z = np.where(rng.uniform(size=n) < 0.1, -3.0, rng.uniform(2.0, 30.0, size=n))
    xyz = np.column_stack([rng.uniform(-1.0, 1.0, size=(n, 2)) * np.abs(z)[:, None], z])
    moved = xyz[rng.integers(0, n, size=600)]
    moved[:, 0] = np.nextafter(moved[:, 0], np.inf)
    xyz = np.vstack([xyz, moved, xyz[rng.integers(0, n, size=300)]])
    xyz = xyz[rng.permutation(len(xyz))]
    u, v, d = project_points(xyz, calib)
    for values in (u, v, d):
        values[rng.integers(0, len(xyz), size=50)] = np.nan
    return list(_nearest_per_pixel(xyz, u, v, d, height, width))


def nlcmap(height=375, width=1242, n=120_000):
    """The NLCM bytes (as uint8), the ``--csv`` text and the printed lines of
    ``nlcdet nlcmap`` on one seeded KITTI-sized frame.

    The camera looks along LiDAR x.  Ten car boxes lie 8-45 m ahead: each
    of the first eight has 2000 points on its faces, the ninth only the
    background points that fall in it, and the tenth is labelled DontCare.
    The rest of the ``n`` points spread all round, behind the camera too.  To them come 300 exact copies
    of points and 300 copies moved by one float32 ulp along y (equal depth,
    as a rule in the same pixel), and of 100 rows one coordinate is NaN or
    +-inf.
    """
    rng = np.random.default_rng([0, 28])
    axes = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    calib = KittiCalib(
        P2=np.array([[721.5, 0.0, width / 2, 0.0], [0.0, 721.5, height / 2, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        R0_rect=np.eye(3), Tr_velo_to_cam=np.column_stack([axes, [0.0, -0.08, -0.27]]),
    )
    boxes = []
    for _ in range(10):
        x = rng.uniform(8.0, 45.0)
        boxes.append(Box3D(center=[x, x * rng.uniform(-0.5, 0.5), -0.9], l=rng.uniform(3.5, 4.8),
                           w=rng.uniform(1.6, 2.0), h=rng.uniform(1.4, 1.8), yaw=rng.uniform(-np.pi, np.pi)))
    parts = []
    for box in boxes[:8]:
        nlc = rng.uniform(0.03, 0.97, size=(2000, 3))
        nlc[np.arange(2000), rng.integers(0, 3, size=2000)] = rng.choice([0.03, 0.97], size=2000)
        parts.append(nlc_to_lidar(nlc, box))
    k = n - 16_000
    azimuth, radius = rng.uniform(-np.pi, np.pi, size=k), rng.uniform(3.0, 60.0, size=k)
    parts.append(np.column_stack([radius * np.cos(azimuth), radius * np.sin(azimuth),
                                  rng.uniform(-1.7, 2.5, size=k)]))
    xyz = np.vstack(parts).astype("<f4")
    moved = xyz[rng.integers(0, 16_000, size=300)]
    moved[:, 1] = np.nextafter(moved[:, 1], np.float32(np.inf))
    xyz = np.vstack([xyz, xyz[rng.integers(0, 16_000, size=300)], moved])
    xyz[rng.integers(0, len(xyz), size=100), rng.integers(0, 3, size=100)] = rng.choice(
        [np.nan, np.inf, -np.inf], size=100)
    points = np.column_stack([xyz, rng.uniform(0.0, 1.0, size=len(xyz))])[rng.permutation(len(xyz))]
    labels = [lidar_box_to_label(box, calib) for box in boxes[:9]]
    labels.insert(4, lidar_box_to_label(boxes[9], calib, type_name="DontCare"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("calib", "label", "velodyne", "nlcm", "csv")}
        paths["calib"].write_text(emit_calib(calib))
        paths["label"].write_text(emit_labels(labels))
        paths["velodyne"].write_bytes(write_velodyne(points))
        code, printed = _main([
            "nlcmap", "--calib", str(paths["calib"]), "--label", str(paths["label"]),
            "--velodyne", str(paths["velodyne"]), "--out", str(paths["nlcm"]),
            "--csv", str(paths["csv"]), "--height", str(height), "--width", str(width),
        ])
        return [code, np.frombuffer(paths["nlcm"].read_bytes(), np.uint8),
                paths["csv"].read_text(), printed]


# a small run that sets one config key of each kind: int, bool and loss weight
CONFIG = "seed = 1\nepochs = 3\ntrain_scenes = 6\nval_scenes = 3\nenable_i2p = false\nlambda_sem2d = 0.5\n"


def cli_train():
    """The exit code, the ``--out`` JSON, the ``--curves`` CSV and the printed
    lines of ``nlcdet train`` on :data:`CONFIG`."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out, curves = (Path(tmp) / name for name in ("config", "report.json", "curves.csv"))
        config.write_text(CONFIG)
        code, printed = _main(["train", "--config", str(config), "--out", str(out), "--curves", str(curves)])
        return [code, out.read_text(), curves.read_text(), printed]


def cli_ablation():
    """The exit code, the ``--out`` JSON and the printed lines of ``nlcdet
    ablation --seeds 0,1`` on :data:`CONFIG`."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config", Path(tmp) / "ablation.json"
        config.write_text(CONFIG)
        code, printed = _main(["ablation", "--config", str(config), "--seeds", "0,1", "--out", str(out)])
        return [code, out.read_text(), printed]


def cli_solve():
    """The exit code and printed JSON of ``nlcdet solve`` on 30 noisy
    correspondences of one car box, then of the same with ``--init`` (the
    box moved) and ``--noise-report``."""
    rng = np.random.default_rng([0, 29])
    box = _car_box(rng)
    nlc = rng.uniform(0.05, 0.95, size=(30, 3))
    pts = nlc_to_lidar(nlc, box) + rng.normal(0.0, 0.02, size=(30, 3))
    init = {"center": (box.center + rng.normal(0.0, 0.2, size=3)).tolist(),
            "l": box.l * 0.9, "w": box.w * 1.1, "h": box.h, "yaw": box.yaw + 0.1}
    with tempfile.TemporaryDirectory() as tmp:
        corrs, start = Path(tmp) / "corrs.csv", Path(tmp) / "init.json"
        corrs.write_text(_csv("x,y,z,x_nlc,y_nlc,z_nlc", np.hstack([pts, nlc])))
        start.write_text(json.dumps(init))
        argv = ["solve", "--corrs", str(corrs)]
        return [_main(argv), _main([*argv, "--init", str(start), "--noise-report"])]


def cli_eval():
    """The exit code and printed JSON of ``nlcdet eval``, then of the same
    with ``--r11``, on detections of 16 ground-truth boxes in classes 0 and 1.

    Each box has a detection moved by a normal draw of 0.15 m per axis; 6
    false positives come on top, one of them in class 2, which has no ground
    truth.  Every score is uniform in [0, 1).
    """
    rng = np.random.default_rng([1, 29])
    gts = [(_car_box(rng), i % 2) for i in range(16)]
    dets = [(Box3D(center=b.center + rng.normal(0.0, 0.15, size=3), l=b.l, w=b.w, h=b.h, yaw=b.yaw),
             rng.uniform(), c) for b, c in gts]
    dets += [(_car_box(rng), rng.uniform(), c) for c in (0, 0, 1, 1, 1, 2)]
    with tempfile.TemporaryDirectory() as tmp:
        det_path, gt_path = Path(tmp) / "dets.csv", Path(tmp) / "gts.csv"
        det_path.write_text(_csv("x,y,z,l,w,h,yaw,score,class", [[*_box_row(b), s, c] for b, s, c in dets]))
        gt_path.write_text(_csv("x,y,z,l,w,h,yaw,class", [[*_box_row(b), c] for b, c in gts]))
        argv = ["eval", "--dets", str(det_path), "--gts", str(gt_path)]
        return [_main(argv), _main([*argv, "--r11"])]


def _main(argv) -> tuple[int, str]:
    """The exit code and the printed lines of ``cli.main(argv)``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _csv(header: str, rows) -> str:
    """``header`` and one line of exact (``repr``) numbers per row."""
    return "\n".join([header, *(",".join(repr(float(x)) for x in r) for r in rows)]) + "\n"


def _box_row(box: Box3D) -> list:
    """A box as the ``x,y,z,l,w,h,yaw`` columns of ``eval``'s CSV files."""
    return [*box.center, box.l, box.w, box.h, box.yaw]


def _car_box(rng) -> Box3D:
    return Box3D(center=rng.uniform(-20, 20, size=3), l=rng.uniform(3, 5),
                 w=rng.uniform(1.5, 2), h=rng.uniform(1.3, 1.8), yaw=rng.uniform(-np.pi, np.pi))
