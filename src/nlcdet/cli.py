"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 data error or a file that cannot be
read or written, 3 internal check failure.
Diagnostics go to stderr; data outputs go only to --out paths or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InvalidValue, NlcdetError, ParseError
from .geometry import Box3D, _require_bounded
from .kitti_io import (
    label_to_lidar_box, parse_calib, parse_labels, read_velodyne, to_calibration,
)
from .metrics import Detection, evaluate
from .nlc import _csv_text, _foreground, _write_nlcm
from .pipeline import ablation, parse_train_config, train
from .solver import solve_box
from . import gradcheck as gc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_json(obj, path=None):
    """Write ``obj`` as indented JSON to ``path``, or print it when no path is
    given; NaN and infinities, which JSON lacks, are written as null."""
    standard = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    text = json.dumps(standard, indent=2, allow_nan=False)
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _numbers(values) -> list[float]:
    """``values`` as floats, or ValueError unless each is a number within
    +-``geometry.MAX_ABS_VALUE``."""
    vals = [float(x) for x in values]
    _require_bounded(vals, "values")
    return vals


def _class_id(value: float) -> int:
    """``value`` as an int, or InvalidValue unless it is integral."""
    if not value.is_integer():
        raise InvalidValue(f"class {value!r} is not an integer")
    return int(value)


def _read_init(path: str) -> Box3D:
    """The box of a ``solve --init`` file, JSON keyed by the ``Box3D`` field names as in
    ``solve``'s output, ``{"center": [x, y, z], "l", "w", "h", "yaw"}``, with numbers within
    +-``geometry.MAX_ABS_VALUE`` and positive sizes; anything else raises ParseError."""
    try:
        spec = json.loads(Path(path).read_text())
        center = list(spec["center"])
        if len(center) != 3:
            raise InvalidValue(f"center must hold 3 values, not {len(center)}")
        values = center + [spec[f.name] for f in fields(Box3D)[1:]]  # l, w, h, yaw
        if not all(type(v) in (int, float) for v in values):  # no strings or booleans
            raise InvalidValue("values must be JSON numbers")
        return _box(_numbers(values))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad init file: {exc}") from None


def _read_csv(path: str, columns: int, header: tuple[str, ...], parse) -> list:
    """``parse`` applied to the values of every data row of a UTF-8 numeric CSV file.

    Blank lines, ``#`` comments and a header row (first field in ``header``)
    are skipped.  Every other row must hold ``columns`` numbers within
    +-``geometry.MAX_ABS_VALUE`` that ``parse`` accepts; a bad row, or bytes that are
    not UTF-8, raise ParseError with their line number.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line_no}: not UTF-8 text", line=line_no) from None
    out = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            line_no = reader.line_num
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip().lower() in header:
                continue
            if len(row) != columns:
                raise ParseError(
                    f"line {line_no}: expected {columns} columns, got {len(row)}", line=line_no
                )
            try:
                out.append(parse(_numbers(row)))
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}", line=line_no) from None
    except csv.Error as exc:  # such as a field over the csv module's size limit
        line_no = reader.line_num
        raise ParseError(f"line {line_no}: {exc}", line=line_no) from None
    return out


def cmd_nlcmap(args) -> int:
    """The ground truth as its foreground pixels, streamed plane by plane into
    ``--out`` and formatted for ``--csv``: no dense map and no file-sized
    buffer is built."""
    calib = parse_calib(Path(args.calib).read_bytes())
    labels = parse_labels(Path(args.label).read_bytes())
    points = read_velodyne(Path(args.velodyne).read_bytes())
    cal = to_calibration(calib)
    boxes = [
        label_to_lidar_box(lb, calib) for lb in labels if not lb.is_dont_care
    ]
    cells, nlc, depth, owner = _foreground(points, boxes, cal, args.height, args.width)
    with open(args.out, "wb") as fh:
        _write_nlcm(fh, args.height, args.width, cells, nlc, depth)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(_csv_text(*np.divmod(cells, args.width), nlc, depth))
    counts = np.bincount(owner, minlength=len(boxes))
    for bi, count in enumerate(counts.tolist()):
        print(f"object {bi}: {count} foreground pixels")
    return EXIT_OK


def cmd_solve(args) -> int:
    corrs = np.array(_read_csv(args.corrs, 6, ("x", "x_l"), list)).reshape(-1, 6)
    init = _read_init(args.init) if args.init else None
    fit = solve_box(corrs, init=init)
    out = fit.to_dict()
    if args.noise_report:
        out["noise_sweep"] = _noise_sweep(corrs, fit.box, args.seed)
    _emit_json(out)
    return EXIT_OK


# ``solve --noise-report``: the NLC noise levels swept, and the solves at each
NOISE_SIGMAS = (0.005, 0.01, 0.02, 0.05)
NOISE_TRIALS = 50


def _noise_sweep(corrs: np.ndarray, base: Box3D, seed: int):
    """Median center error of solves on noisy NLCs, each started from ``base``,
    the fit the command reports."""
    rng = np.random.default_rng(seed)
    sweep = []
    for sigma in NOISE_SIGMAS:
        errs = []
        for _ in range(NOISE_TRIALS):
            noisy = corrs.copy()
            noisy[:, 3:] += rng.normal(0.0, sigma, size=(len(corrs), 3))
            rep = solve_box(noisy, init=base)
            errs.append(float(np.linalg.norm(rep.box.center - base.center)))
        sweep.append(
            {"sigma": sigma, "median_center_error": float(np.median(errs))}
        )
    return sweep


def cmd_gradcheck(args) -> int:
    failed = False
    for name, err in gc.run_all(args.trials, args.seed).items():
        ok = err < gc.THRESHOLDS[name]
        failed |= not ok
        print(f"{name}: max error {err:.3e} [{'ok' if ok else 'FAIL'}]")
    return EXIT_CHECK if failed else EXIT_OK


def _write_curves_csv(path: str, epochs: list[dict]):
    columns = ("train_total", "point_grad_norm", "image_grad_norm", "image_to_point_grad_norm")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *columns])
        for row in epochs:
            writer.writerow([row["epoch"], *(repr(row[c]) for c in columns)])


def _load_config(path: str):
    try:
        return parse_train_config(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"bad config: {exc}") from None


def cmd_train(args) -> int:
    config = _load_config(args.config)
    _, report = train(config)
    if args.curves:
        _write_curves_csv(args.curves, report.epochs)
    _emit_json(report.to_dict(), args.out)
    if report.diverged:
        print("error: training diverged (non-finite loss or gradient)", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_ablation(args) -> int:
    config = _load_config(args.config)
    report = ablation(config, seeds=args.seeds)
    _emit_json(report, args.out)
    if any(
        run["diverged"] for row in report["rows"].values() for run in row["runs"]
    ):
        print("error: at least one ablation run diverged", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _box(vals: list[float]) -> Box3D:
    return Box3D(center=np.array(vals[:3]), l=vals[3], w=vals[4], h=vals[5], yaw=vals[6])


def cmd_eval(args) -> int:
    dets = _read_csv(
        args.dets, 9, ("x",),
        lambda v: Detection(box=_box(v), score=v[7], class_id=_class_id(v[8])),
    )
    gts = _read_csv(args.gts, 8, ("x",), lambda v: (_box(v), _class_id(v[7])))
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
    _emit_json({"iou_threshold": args.iou, "ap": result})
    return EXIT_OK


def _iou_threshold(text: str) -> float:
    """argparse type for ``--iou``: a number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1]")
    return value


def _int_at_least(low: int):
    """argparse type for an integer flag whose value must be at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {low}")
        return value

    return integer


_positive_int, _non_negative_int = _int_at_least(1), _int_at_least(0)


def _seed_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--seeds``: at least two comma-separated non-negative integers."""
    seeds = tuple(_non_negative_int(s) for s in text.split(","))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} must hold at least two non-negative seeds")
    return seeds


def build_parser() -> _Parser:
    parser = _Parser(prog="nlcdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nlcmap", help="build a ground-truth NLC map from KITTI files")
    p.add_argument("--calib", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--velodyne", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--height", type=_positive_int, default=375)
    p.add_argument("--width", type=_positive_int, default=1242)
    p.set_defaults(func=cmd_nlcmap)

    p = sub.add_parser("solve", help="recover a 7-DOF box from correspondences")
    p.add_argument("--corrs", required=True, help="CSV: x,y,z,x_nlc,y_nlc,z_nlc")
    p.add_argument("--init", default=None, help="JSON with center/l/w/h/yaw")
    p.add_argument("--noise-report", action="store_true")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradcheck", help="finite-difference verification of backward passes")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the synthetic-scene toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--curves", default=None, help="per-epoch CSV output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablation", help="run the fusion ablation experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_seed_list, default="0,1,2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("eval", help="average precision on detection/gt CSVs")
    p.add_argument("--dets", required=True, help="CSV: x,y,z,l,w,h,yaw,score,class")
    p.add_argument("--gts", required=True, help="CSV: x,y,z,l,w,h,yaw,class")
    p.add_argument("--iou", type=_iou_threshold, default=0.7)
    p.add_argument("--r11", action="store_true", help="legacy 11-point protocol")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NlcdetError, OSError) as exc:  # bad data, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
