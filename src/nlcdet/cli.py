"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal check failure.
Diagnostics go to stderr (level set by NLCDET_LOG); data outputs go only to
--out paths or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import KittiIOError, NlcdetError, Underdetermined
from .geometry import Box3D
from .kitti_io import parse_calib, parse_labels, read_velodyne, label_to_lidar_box, to_calibration
from .metrics import Detection, evaluate
from .nlc import build_gt_nlc_map, nlc_map_to_csv, write_nlc_map
from .pipeline import ablation, parse_train_config, train
from .solver import SolveOptions, solve_box
from . import gradcheck as gc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

log = logging.getLogger("nlcdet")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _setup_logging():
    level = os.environ.get("NLCDET_LOG", "warn").lower()
    mapping = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr, level=mapping.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def cmd_nlcmap(args) -> int:
    try:
        calib = parse_calib(Path(args.calib).read_bytes())
        labels = parse_labels(Path(args.label).read_bytes())
        points = read_velodyne(Path(args.velodyne).read_bytes())
    except (OSError, KittiIOError) as exc:
        log.error("input error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    boxes = [
        label_to_lidar_box(lb, calib) for lb in labels if not lb.is_dont_care
    ]
    cal = to_calibration(calib)
    nlc_map, obj_ids = build_gt_nlc_map(
        points, boxes, cal, args.height, args.width, return_object_ids=True
    )
    with open(args.out, "wb") as fh:
        fh.write(write_nlc_map(nlc_map))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(nlc_map_to_csv(nlc_map))
    for bi in range(len(boxes)):
        count = int(np.sum(obj_ids == bi))
        print(f"object {bi}: {count} foreground pixels")
    return EXIT_OK


def _read_corrs_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip().lower() in ("x", "x_l"):
                continue
            if len(row) != 6:
                raise KittiIOError(f"line {line_no}: expected 6 columns")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise KittiIOError(f"line {line_no}: {exc}") from None
    return np.array(rows).reshape(-1, 6)


def cmd_solve(args) -> int:
    try:
        corrs = _read_corrs_csv(args.corrs)
    except (OSError, KittiIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    init = None
    if args.init:
        try:
            spec = json.loads(Path(args.init).read_text())
            init = Box3D(
                center=np.array(spec["center"]),
                l=spec["l"], w=spec["w"], h=spec["h"], yaw=spec["yaw"],
            )
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: bad init file: {exc}", file=sys.stderr)
            return EXIT_DATA
    try:
        report = solve_box(corrs, init=init, opts=SolveOptions())
    except Underdetermined as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    out = report.to_dict()
    if args.noise_report:
        out["noise_sweep"] = _noise_sweep(corrs, args.seed)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _noise_sweep(corrs: np.ndarray, seed: int, sigmas=(0.005, 0.01, 0.02, 0.05), trials=50):
    rng = np.random.default_rng(seed)
    sweep = []
    base = solve_box(corrs).box
    for sigma in sigmas:
        errs = []
        for _ in range(trials):
            noisy = corrs.copy()
            noisy[:, 3:] += rng.normal(0.0, sigma, size=(len(corrs), 3))
            rep = solve_box(noisy, init=base)
            errs.append(float(np.linalg.norm(rep.box.center - base.center)))
        sweep.append(
            {"sigma": sigma, "median_center_error": float(np.median(errs))}
        )
    return sweep


def cmd_gradcheck(args) -> int:
    if args.trials <= 0:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_USAGE
    results = gc.run_all(args.trials, args.seed, perturb=args.self_test_perturb)
    op_map = {
        "p2i": ("point_to_pixel", "adjoint_point_to_pixel"),
        "point_to_pixel": ("point_to_pixel", "adjoint_point_to_pixel"),
        "i2p": ("pixel_to_point", "adjoint_pixel_to_point"),
        "pixel_to_point": ("pixel_to_point", "adjoint_pixel_to_point"),
        "fuse": ("fuse_p2i", "fuse_i2p"),
        "losses": ("losses",),
        "model": ("full_model",),
    }
    selected = results if args.op == "all" else {
        k: results[k] for k in op_map[args.op]
    }
    failed = False
    for name, err in selected.items():
        status = "ok" if err < gc.THRESHOLDS[name] else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{name}: max error {err:.3e} [{status}]")
    return EXIT_CHECK if failed else EXIT_OK


def _write_curves_csv(path: str, epochs: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "train_total", "point_grad_norm", "image_grad_norm",
             "image_to_point_grad_norm"]
        )
        for row in epochs:
            writer.writerow(
                [row["epoch"], repr(row["train_total"]), repr(row["point_grad_norm"]),
                 repr(row["image_grad_norm"]), repr(row["image_to_point_grad_norm"])]
            )


def _load_config(path: str):
    try:
        return parse_train_config(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return None


def cmd_train(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_DATA
    _, report = train(config)
    if args.curves:
        _write_curves_csv(args.curves, report.epochs)
    out = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    else:
        print(json.dumps(out, indent=2))
    if report.diverged:
        print("error: training diverged (non-finite loss)", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_ablation(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_DATA
    seeds = tuple(int(s) for s in args.seeds.split(","))
    report = ablation(config, seeds=seeds)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    if any(
        run["diverged"] for row in report["rows"].values() for run in row["runs"]
    ):
        print("error: at least one ablation run diverged", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _read_boxes_csv(path: str, with_score: bool):
    out = []
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip().lower() == "x":
                continue
            want = 9 if with_score else 8
            if len(row) != want:
                raise KittiIOError(
                    f"line {line_no}: expected {want} columns, got {len(row)}"
                )
            try:
                vals = [float(x) for x in row[: want - 1]]
                cls = int(float(row[want - 1]))
            except ValueError as exc:
                raise KittiIOError(f"line {line_no}: {exc}") from None
            box = Box3D(center=np.array(vals[:3]), l=vals[3], w=vals[4], h=vals[5], yaw=vals[6])
            if with_score:
                out.append(Detection(box=box, score=vals[7], class_id=cls))
            else:
                out.append((box, cls))
    return out


def cmd_eval(args) -> int:
    try:
        dets = _read_boxes_csv(args.dets, with_score=True)
        gts = _read_boxes_csv(args.gts, with_score=False)
    except (OSError, KittiIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    recall_positions = 11 if args.r11 else 40
    classes = sorted({d.class_id for d in dets} | {c for _, c in gts})
    result = {}
    for cls in classes:
        cls_dets = [d for d in dets if d.class_id == cls]
        cls_gts = [b for b, c in gts if c == cls]
        if not cls_gts:
            result[str(cls)] = None
            continue
        result[str(cls)] = evaluate(cls_dets, cls_gts, args.iou, recall_positions)
    print(json.dumps({"iou_threshold": args.iou, "ap": result}, indent=2))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nlcdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nlcmap", help="build a ground-truth NLC map from KITTI files")
    p.add_argument("--calib", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--velodyne", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--height", type=int, default=375)
    p.add_argument("--width", type=int, default=1242)
    p.set_defaults(func=cmd_nlcmap)

    p = sub.add_parser("solve", help="recover a 7-DOF box from correspondences")
    p.add_argument("--corrs", required=True, help="CSV: x,y,z,x_nlc,y_nlc,z_nlc")
    p.add_argument("--init", default=None, help="JSON with center/l/w/h/yaw")
    p.add_argument("--noise-report", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradcheck", help="finite-difference verification of backward passes")
    p.add_argument(
        "--op", default="all",
        choices=["all", "p2i", "i2p", "fuse", "losses", "model", "point_to_pixel", "pixel_to_point"],
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self-test-perturb", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the synthetic-scene toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--curves", default=None, help="per-epoch CSV output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablation", help="run the fusion ablation experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("eval", help="average precision on detection/gt CSVs")
    p.add_argument("--dets", required=True, help="CSV: x,y,z,l,w,h,yaw,score,class")
    p.add_argument("--gts", required=True, help="CSV: x,y,z,l,w,h,yaw,class")
    p.add_argument("--iou", type=float, default=0.7)
    p.add_argument("--r11", action="store_true", help="legacy 11-point protocol")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NlcdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
