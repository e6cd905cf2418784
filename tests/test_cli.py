"""The nlcdet command-line front door: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet import (
    Box3D, build_gt_nlc_map, nlc_map_to_csv, nlc_to_lidar, read_nlc_map, solve_box, write_nlc_map,
)
from nlcdet import gradcheck as gc
from nlcdet.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, _emit_json, main
from nlcdet.kitti_io import (
    KittiCalib, emit_calib, emit_labels, label_to_lidar_box, lidar_box_to_label, parse_calib,
    parse_labels, read_velodyne, to_calibration, write_velodyne,
)
from nlcdet.propagation import ProjectionPlan


def make_fixture(tmp_path, rng):
    """A consistent calib/label/velodyne triple with one box and its points."""
    tr = np.array(
        [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    p2 = np.hstack([
        np.array([[100.0, 0.0, 64.0], [0.0, 100.0, 48.0], [0.0, 0.0, 1.0]]),
        np.zeros((3, 1)),
    ])
    calib = KittiCalib(P2=p2, R0_rect=np.eye(3), Tr_velo_to_cam=tr)
    box = Box3D(center=np.array([20.0, 0.0, 0.0]), l=4.0, w=2.0, h=1.6, yaw=0.4)
    pts = nlc_to_lidar(rng.uniform(0.05, 0.95, size=(200, 3)), box)
    cloud = np.column_stack([pts, rng.uniform(0, 1, size=200)]).astype(np.float32)

    calib_path = tmp_path / "calib.txt"
    label_path = tmp_path / "label.txt"
    velo_path = tmp_path / "points.bin"
    calib_path.write_text(emit_calib(calib))
    label_path.write_text(emit_labels([lidar_box_to_label(box, calib)]))
    velo_path.write_bytes(write_velodyne(cloud))
    return calib_path, label_path, velo_path, box


class TestNlcmap:
    def test_builds_readable_map(self, tmp_path, rng, capsys):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        out = tmp_path / "map.nlcm"
        csv_out = tmp_path / "map.csv"
        code = main([
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--out", str(out), "--csv", str(csv_out),
            "--height", "96", "--width", "128",
        ])
        assert code == EXIT_OK
        m = read_nlc_map(out.read_bytes())
        assert m.mask.sum() > 0
        assert "object 0:" in capsys.readouterr().out
        assert csv_out.read_text().startswith("row,col,")

    def test_counts_printed_per_object_with_an_empty_one(self, tmp_path, rng, capsys):
        # a second box, beside the first, holds no points: its line reads 0
        calib, label, velo, box = make_fixture(tmp_path, rng)
        empty = Box3D(center=np.array([20.0, 6.0, 0.0]), l=4.0, w=2.0, h=1.6, yaw=0.0)
        kcal = parse_calib(calib.read_text())
        label.write_text(emit_labels([lidar_box_to_label(b, kcal) for b in (box, empty)]))
        out = tmp_path / "map.nlcm"
        code = main([
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--out", str(out), "--height", "96", "--width", "128",
        ])
        assert code == EXIT_OK
        mask_pixels = int(read_nlc_map(out.read_bytes()).mask.sum())
        assert mask_pixels > 0
        assert capsys.readouterr().out.splitlines() == [
            f"object 0: {mask_pixels} foreground pixels", "object 1: 0 foreground pixels",
        ]

    def test_idempotent(self, tmp_path, rng):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        args = [
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--height", "96", "--width", "128",
        ]
        out1, out2 = tmp_path / "a.nlcm", tmp_path / "b.nlcm"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_calib_key_exit_2(self, tmp_path, rng, capsys):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        broken = tmp_path / "broken.txt"
        broken.write_text("P2: " + "0 " * 12 + "\n")
        code = main([
            "nlcmap", "--calib", str(broken), "--label", str(label),
            "--velodyne", str(velo), "--out", str(tmp_path / "x.nlcm"),
        ])
        assert code == EXIT_DATA
        assert "R0_rect" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, rng):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        code = main([
            "nlcmap", "--calib", str(tmp_path / "nope.txt"), "--label", str(label),
            "--velodyne", str(velo), "--out", str(tmp_path / "x.nlcm"),
        ])
        assert code == EXIT_DATA


def _kitti_printed_fixture(tmp_path, rng, scale=1.0):
    """The fixture with a rotated rectification, every calibration
    entry printed to 7 significant digits as KITTI prints them."""
    calib_path, label_path, velo_path, box = make_fixture(tmp_path, rng)
    calib = parse_calib(calib_path.read_text())
    a, b = 0.1, 0.2
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(a), -np.sin(a)], [0.0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]])
    calib.R0_rect = rx @ ry
    # the label comes from the rotation; only the calibration file is scaled
    label_path.write_text(emit_labels([lidar_box_to_label(box, calib)]))
    calib.R0_rect = calib.R0_rect * scale
    calib_path.write_text("".join(
        f"{key}: " + " ".join(f"{x:.6e}" for x in getattr(calib, key).ravel()) + "\n"
        for key in ("P2", "R0_rect", "Tr_velo_to_cam")
    ))
    return calib_path, label_path, velo_path


class TestKittiPrintedCalibration:
    def _nlcmap(self, tmp_path, paths):
        calib, label, velo = paths
        return main([
            "nlcmap", "--calib", str(calib), "--label", str(label), "--velodyne", str(velo),
            "--out", str(tmp_path / "m.nlcm"), "--height", "96", "--width", "128",
        ])

    def test_seven_digit_rotation_accepted(self, tmp_path, rng, capsys):
        paths = _kitti_printed_fixture(tmp_path, rng)
        calib = parse_calib(paths[0].read_text())
        rot = calib.R0_rect @ calib.Tr_velo_to_cam[:, :3]
        off_diagonal = (rot @ rot.T)[~np.eye(3, dtype=bool)]
        assert np.abs(off_diagonal).max() > 1e-8  # beyond Calibration's 1e-9
        assert self._nlcmap(tmp_path, paths) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("object 0: ") and not out.startswith("object 0: 0 ")

    def test_rotation_off_by_1e_4_exit_2(self, tmp_path, rng, capsys):
        paths = _kitti_printed_fixture(tmp_path, rng, scale=1.0 + 1e-4)
        assert self._nlcmap(tmp_path, paths) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: not a pinhole camera: R must be")


def _cross_path_frame(tmp_path, rng, case):
    """The fixture's files, changed for one case of the cross-path test; the
    camera looks along LiDAR x, so a point's depth is its x."""
    calib_path, label_path, velo_path, box = make_fixture(tmp_path, rng)
    kcal = parse_calib(calib_path.read_text())
    cloud = read_velodyne(velo_path.read_bytes())
    boxes, types = [box], ["Car"]
    if case == "dont_care_only":
        types = ["DontCare"]
    elif case == "box_without_points":
        boxes.append(Box3D(center=np.array([20.0, 6.0, 0.0]), l=4.0, w=2.0, h=1.6, yaw=0.0))
        types.append("Car")
    elif case == "behind_camera":
        # the mirror of the fixture's box: its points are foreground, at negative depth
        boxes.append(Box3D(center=np.array([-20.0, 0.0, 0.0]), l=4.0, w=2.0, h=1.6, yaw=0.4))
        types.append("Car")
        pts = nlc_to_lidar(rng.uniform(0.05, 0.95, size=(200, 3)), boxes[-1])
        cloud = np.vstack([cloud, np.column_stack([pts, np.zeros(200)])])
    elif case == "equal_depth_pair":
        # two points of a box ahead of the fixture's, both in pixel (48, 90) at depth 11.5
        boxes.append(Box3D(center=np.array([12.0, -3.0, 0.0]), l=2.0, w=2.0, h=2.0, yaw=0.0))
        types.append("Car")
        cloud = np.vstack([cloud, [[11.5, -3.0, 0.0, 0.5], [11.5, -3.004, 0.0, 0.5]]])
    elif case == "non_finite_rows":
        # NaN and +-inf in each column, among them an infinite z under the box
        for row, column, value in [(0, 0, np.nan), (1, 1, np.inf), (2, 2, -np.inf), (3, 2, np.inf),
                                   (4, 0, -np.inf), (5, 2, np.nan), (6, 3, np.nan), (7, 3, np.inf)]:
            cloud[row, column] = value
    label_path.write_text(emit_labels(
        [lidar_box_to_label(b, kcal, type_name=t) for b, t in zip(boxes, types)]
    ))
    velo_path.write_bytes(write_velodyne(cloud))
    return calib_path, label_path, velo_path


class TestNlcmapCrossPath:
    """``nlcmap`` writes, formats and counts what the library's dense map of
    the same files gives."""

    @pytest.mark.parametrize("case", [
        "dont_care_only", "box_without_points", "behind_camera", "equal_depth_pair",
        "non_finite_rows",
    ])
    def test_outputs_equal_the_dense_maps(self, tmp_path, rng, capsys, case):
        calib, label, velo = _cross_path_frame(tmp_path, rng, case)
        out, csv_out = tmp_path / "m.nlcm", tmp_path / "m.csv"
        assert main([
            "nlcmap", "--calib", str(calib), "--label", str(label), "--velodyne", str(velo),
            "--out", str(out), "--csv", str(csv_out), "--height", "96", "--width", "128",
        ]) == EXIT_OK
        printed = capsys.readouterr().out

        kcal = parse_calib(calib.read_bytes())
        boxes = [
            label_to_lidar_box(lb, kcal) for lb in parse_labels(label.read_bytes()) if not lb.is_dont_care
        ]
        m, obj = build_gt_nlc_map(read_velodyne(velo.read_bytes()), boxes, to_calibration(kcal), 96, 128)
        counts = np.bincount(obj[m.mask], minlength=len(boxes)).tolist()
        assert out.read_bytes() == write_nlc_map(m)
        assert csv_out.read_text() == nlc_map_to_csv(m)
        assert printed == "".join(f"object {i}: {c} foreground pixels\n" for i, c in enumerate(counts))
        expected = {
            "dont_care_only": lambda: counts == [] and not m.mask.any(),
            "box_without_points": lambda: counts[0] > 0 and counts[1] == 0,
            "behind_camera": lambda: counts[0] > 0 and counts[1] == 0,
            "equal_depth_pair": lambda: counts[1] == 1 and m.depth[48, 90] == 11.5,
            "non_finite_rows": lambda: counts[0] > 0 and np.isfinite(m.values[m.mask]).all(),
        }[case]
        assert expected()


class TestOutputPaths:
    @pytest.mark.parametrize("command, flag", [
        ("nlcmap", "--out"), ("nlcmap", "--csv"),
        ("train", "--out"), ("train", "--curves"), ("ablation", "--out"),
    ])
    def test_missing_directory_exit_2(self, tmp_path, rng, capsys, command, flag):
        missing = str(tmp_path / "missing" / "file")
        if command == "nlcmap":
            calib, label, velo, _ = make_fixture(tmp_path, rng)
            argv = ["nlcmap", "--calib", str(calib), "--label", str(label),
                    "--velodyne", str(velo), "--height", "96", "--width", "128"]
            if flag != "--out":
                argv += ["--out", str(tmp_path / "m.nlcm")]
        else:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(TestTrainAndAblation.CONFIG)
            argv = [command, "--config", str(cfg)] + (["--seeds", "0,1"] if command == "ablation" else [])
        assert main(argv + [flag, missing]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "missing" in err


class TestSolve:
    def _corrs_csv(self, tmp_path, rng, box, n=12):
        nlc = rng.uniform(0.05, 0.95, size=(n, 3))
        pts = nlc_to_lidar(nlc, box)
        path = tmp_path / "corrs.csv"
        lines = ["x,y,z,x_nlc,y_nlc,z_nlc"]
        for p, t in zip(pts, nlc):
            lines.append(",".join(repr(float(v)) for v in (*p, *t)))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_recovers_box(self, tmp_path, rng, capsys):
        box = Box3D(center=np.array([10.0, -3.0, 0.5]), l=4.2, w=1.8, h=1.5, yaw=0.8)
        path = self._corrs_csv(tmp_path, rng, box)
        assert main(["solve", "--corrs", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"]
        assert np.allclose(report["box"]["center"], box.center, atol=1e-6)
        assert abs(report["box"]["yaw"] - box.yaw) < 1e-6

    def test_with_init_and_noise_report(self, tmp_path, rng, capsys):
        box = Box3D(center=np.array([10.0, -3.0, 0.5]), l=4.2, w=1.8, h=1.5, yaw=0.8)
        path = self._corrs_csv(tmp_path, rng, box, n=30)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"center": [10.1, -2.9, 0.4], "l": 4.0, "w": 2.0, "h": 1.4, "yaw": 0.7}
        ))
        code = main([
            "solve", "--corrs", str(path), "--init", str(init),
            "--noise-report", "--seed", "5",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        sweep = report["noise_sweep"]
        assert [s["sigma"] for s in sweep] == [0.005, 0.01, 0.02, 0.05]
        assert all(np.isfinite(s["median_center_error"]) for s in sweep)

    def test_init_outside_the_size_clip(self, tmp_path, rng, capsys):
        box = Box3D(center=np.array([10.0, -3.0, 0.5]), l=4.2, w=1.8, h=1.5, yaw=0.8)
        path = self._corrs_csv(tmp_path, rng, box)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"center": [10.1, -2.9, 0.4], "l": 1e-300, "w": 2.0, "h": 1.4, "yaw": 0.7}
        ))
        assert main(["solve", "--corrs", str(path), "--init", str(init)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["rms_residual"] is not None and np.isfinite(report["rms_residual"])
        sizes = [report["box"][k] for k in ("l", "w", "h")]
        assert all(np.exp(-30.0) <= v <= np.exp(30.0) for v in sizes)

    def test_noise_sweep_starts_from_the_printed_fit(self, tmp_path, rng, capsys, monkeypatch):
        import nlcdet.cli as cli

        box = Box3D(center=np.array([10.0, -3.0, 0.5]), l=4.2, w=1.8, h=1.5, yaw=0.8)
        path = self._corrs_csv(tmp_path, rng, box, n=30)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"center": [10.1, -2.9, 0.4], "l": 4.0, "w": 2.0, "h": 1.4, "yaw": 0.7}
        ))
        starts = []

        def recording_solve(corrs, init=None):
            starts.append(init)
            return solve_box(corrs, init=init)

        monkeypatch.setattr(cli, "solve_box", recording_solve)
        code = main(["solve", "--corrs", str(path), "--init", str(init), "--noise-report"])
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)["box"]
        # one solve for the fit, then one per noisy trial, no second base solve
        assert len(starts) == 1 + len(cli.NOISE_SIGMAS) * cli.NOISE_TRIALS
        assert starts[0] is not None
        for start in starts[1:]:
            assert start.center.tolist() == printed["center"]
            assert [start.l, start.w, start.h, start.yaw] == [printed[k] for k in ("l", "w", "h", "yaw")]

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"center": [10, -3, 0.5], "l": "x", "w": 2, "h": 1.4, "yaw": 0.7}',
        '{"center": [10, -3, 0.5], "l": "4", "w": true, "h": 1.4, "yaw": 0.7}',
        '{"center": [10, -3, 0.5], "l": 1e400, "w": 2, "h": 1.4, "yaw": 0.7}',
        '{"center": [10, -3, 0.5], "l": 1%s, "w": 2, "h": 1.4, "yaw": 0.7}' % ("0" * 400),
        '{"center": [10, -3], "l": 4, "w": 2, "h": 1.4, "yaw": 0.7}',
    ])
    def test_bad_init_exit_2(self, tmp_path, capsys, text):
        (tmp_path / "init.json").write_text(text)
        inputs = ["--corrs", str(tmp_path / "corrs.csv"), "--init", str(tmp_path / "init.json")]
        (tmp_path / "corrs.csv").write_text(_corrs_text())
        assert main(["solve", *inputs]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: bad init file: ")

    def test_too_few_rows_exit_2(self, tmp_path, rng):
        box = Box3D(center=np.zeros(3), l=4, w=2, h=1.5, yaw=0.0)
        path = self._corrs_csv(tmp_path, rng, box, n=2)
        assert main(["solve", "--corrs", str(path)]) == EXIT_DATA

    def test_malformed_csv_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        assert main(["solve", "--corrs", str(path)]) == EXIT_DATA

    def test_rank_deficient_fit_prints_null_condition(self, tmp_path, capsys):
        # five correspondences at the box center leave the Jacobian rank
        # deficient, so the condition estimate is infinite
        path = tmp_path / "corrs.csv"
        path.write_text("10,-3,0.5,0.5,0.5,0.5\n" * 5)
        assert main(["solve", "--corrs", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["degenerate"] and report["condition_estimate"] is None


class TestGradcheckCommand:
    def test_healthy_run(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--seed", "0"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(gc.THRESHOLDS)
        assert all(line.endswith("[ok]") for line in lines)

    def test_zero_trials_usage_error(self):
        assert main(["gradcheck", "--trials", "0"]) == EXIT_USAGE

    def test_perturbed_backward_exit_3(self, capsys, monkeypatch):
        # a plan backward off by a factor of two fails its own check and,
        # through the cross-modal path, the full-model check
        for method in ("scatter_grad", "gather_grad"):
            true_grad = getattr(ProjectionPlan, method)
            with monkeypatch.context() as patch:
                patch.setattr(ProjectionPlan, method, lambda plan, g, f=true_grad: 2.0 * f(plan, g))
                code = main(["gradcheck", "--trials", "2"])
            status = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            assert code == EXIT_CHECK and status["full_model"].endswith("[FAIL]"), method

    @pytest.mark.parametrize("op", ["point_to_pixel", "pixel_to_point", "all", "losses", "model"])
    def test_removed_op_names_usage_error(self, op):
        assert main(["gradcheck", "--op", op]) == EXIT_USAGE


def _reject_constant(token):
    raise ValueError(f"{token} is not standard JSON")


def test_non_finite_floats_written_as_null(tmp_path):
    out = tmp_path / "report.json"
    _emit_json({"a": [np.nan, np.inf, 1.5], "b": {"c": -np.inf}, "d": (2.0, float("nan"))}, out)
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report == {"a": [None, None, 1.5], "b": {"c": None}, "d": [2.0, None]}


class TestTrainAndAblation:
    CONFIG = (
        "epochs = 2\ntrain_scenes = 2\nval_scenes = 1\n"
        "point_channels = 4\nimage_channels = 4\n"
    )
    DIVERGING = "learning_rate = 10\nepochs = 3\ntrain_scenes = 3\nval_scenes = 2\n"

    def test_train_writes_report_and_curves(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "report.json"
        curves = tmp_path / "curves.csv"
        code = main([
            "train", "--config", str(cfg), "--out", str(out), "--curves", str(curves)
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["epochs"]) == 2
        lines = curves.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3

    def test_train_deterministic(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA

    def test_removed_point_only_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(self.CONFIG + "point_only = true\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "unknown key 'point_only'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("train", "train_scenes = 0"),
        ("train", "point_channels = 0"),
        ("train", "huber_delta = 0"),
        ("train", "epochs = -3"),
        ("train", "learning_rate = -0.05"),
        ("train", "epochs = 1.5"),
        ("ablation", "val_scenes = 0"),
        ("ablation", "lambda_nlc = -1"),
    ])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.CONFIG + line + "\n")
        assert main([command, "--config", str(cfg)]) == EXIT_DATA
        assert "error: bad config:" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "a,b", "0,-1", "0,,1"])
    def test_bad_seeds_usage_error(self, tmp_path, seeds):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        assert main(["ablation", "--config", str(cfg), "--seeds", seeds]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["train", "ablation"])
    def test_diverging_run_exit_3_with_one_error_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(self.DIVERGING)
        out = tmp_path / "report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        json.loads(out.read_text(), parse_constant=_reject_constant)

    def test_ablation_report(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "ablation.json"
        code = main(["ablation", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report["rows"]) == {"none", "p2i", "i2p", "both"}


class TestEvalCommand:
    def test_hand_case(self, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        gts = tmp_path / "gts.csv"
        dets.write_text(
            "x,y,z,l,w,h,yaw,score,class\n"
            "10,0,0,4,2,1.5,0,0.9,0\n"
            "40,0,0,4,2,1.5,0,0.8,0\n"
            "20,0,0,4,2,1.5,0,0.7,0\n"
        )
        gts.write_text("x,y,z,l,w,h,yaw,class\n10,0,0,4,2,1.5,0,0\n20,0,0,4,2,1.5,0,0\n")
        assert main(["eval", "--dets", str(dets), "--gts", str(gts)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert abs(result["ap"]["0"] - 5.0 / 6.0) < 1e-12

    def test_malformed_rows_exit_2(self, tmp_path):
        dets = tmp_path / "dets.csv"
        gts = tmp_path / "gts.csv"
        dets.write_text("1,2,3\n")
        gts.write_text("10,0,0,4,2,1.5,0,0\n")
        assert main(["eval", "--dets", str(dets), "--gts", str(gts)]) == EXIT_DATA


def _corrs_text(n=12):
    """A header, a comment and ``n`` exact correspondences of one box: lines 1 to n + 2."""
    box = Box3D(center=np.array([10.0, -3.0, 0.5]), l=4.2, w=1.8, h=1.5, yaw=0.8)
    nlc = np.random.default_rng(7).uniform(0.05, 0.95, size=(n, 3))
    rows = [",".join(repr(float(v)) for v in r) for r in np.hstack([nlc_to_lidar(nlc, box), nlc])]
    return "x_l,y_l,z_l,x_nlc,y_nlc,z_nlc\n# lidar point, then its NLC\n" + "\n".join(rows) + "\n"


DETS = "x,y,z,l,w,h,yaw,score,class\n# one detection\n\n10,0,0,4,2,1.5,0,0.9,0\n"
GTS = "x,y,z,l,w,h,yaw,class\n10,0,0,4,2,1.5,0,0\n"


def _run_on_csvs(tmp_path, inputs):
    """Write each input to ``<name>.csv`` and run ``solve`` on corrs, else ``eval``."""
    argv = ["solve" if "corrs" in inputs else "eval"]
    for name, text in inputs.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    return main(argv)


class TestCsvInputs:
    def test_headers_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        assert _run_on_csvs(tmp_path, {"dets": DETS, "gts": GTS}) == EXIT_OK
        assert _run_on_csvs(tmp_path, {"corrs": _corrs_text()}) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, row, line", [
        ("dets", "1,2,3", 5),
        ("gts", "1,2,3", 3),
        ("corrs", "1,2,3", 15),
        ("gts", "20,0,0,-1,2,1.5,0,0", 3),
        ("dets", "nan,0,0,4,2,1.5,0,0.8,0", 5),
        ("dets", "20,0,0,4,2,1.5,0,0.8,inf", 5),
        ("corrs", "10,-3,nan,0.5,0.5,0.5", 15),
        ("dets", "10,0,0,4,2,1.5,0,0.8,1.7", 5),
        ("gts", "20,0,0,4,2,1.5,0,0.5", 3),
    ])
    def test_bad_row_exit_2_naming_its_line(self, tmp_path, capsys, name, row, line):
        inputs = {"corrs": _corrs_text()} if name == "corrs" else {"dets": DETS, "gts": GTS}
        inputs[name] += row + "\n"
        assert _run_on_csvs(tmp_path, inputs) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: line {line}: ")


class TestInputBytes:
    def test_csv_not_utf8_exit_2_naming_its_line(self, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        dets.write_bytes(DETS.encode() + b"\xff\xfe1,2\n")
        (tmp_path / "gts.csv").write_text(GTS)
        code = main(["eval", "--dets", str(dets), "--gts", str(tmp_path / "gts.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 5: ")

    def test_csv_field_over_size_limit_exit_2(self, tmp_path, capsys):
        inputs = {"corrs": _corrs_text() + "1" * 200_000 + ",0,0,0,0,0\n"}
        assert _run_on_csvs(tmp_path, inputs) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: line 15: ")

    @pytest.mark.parametrize("value", ["1e101", "-1e300"])
    def test_csv_value_beyond_range_exit_2(self, tmp_path, capsys, value):
        inputs = {"corrs": _corrs_text() + f"10,-3,{value},0.5,0.5,0.5\n"}
        assert _run_on_csvs(tmp_path, inputs) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: line 15: ")

    def test_calibration_that_is_not_a_pinhole_exit_2(self, tmp_path, rng, capsys):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        # a nonzero below-diagonal intrinsic
        calib.write_text(calib.read_text().replace("0.0 100.0 48.0", "7.0 100.0 48.0", 1))
        code = main([
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--out", str(tmp_path / "m.nlcm"),
        ])
        assert code == EXIT_DATA
        assert "upper-triangular" in capsys.readouterr().err

    def test_label_with_negative_size_exit_2(self, tmp_path, rng, capsys):
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        label.write_text("Car 0 0 0 0 0 0 0 1.5 -1.8 4 0 1 10 0\n")
        code = main([
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--out", str(tmp_path / "m.nlcm"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: Car label gives no box")


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["solve", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("iou", ["0", "-0.5", "1.01", "nan", "x"])
    def test_iou_outside_unit_interval(self, tmp_path, capsys, iou):
        argv = ["eval", "--dets", str(tmp_path / "d.csv"), "--gts", str(tmp_path / "g.csv")]
        assert main(argv + ["--iou", iou]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_iou_of_one_accepted(self, tmp_path, capsys):
        assert _run_on_csvs(tmp_path, {"dets": DETS, "gts": GTS}) == EXIT_OK
        argv = ["eval", "--dets", str(tmp_path / "dets.csv"), "--gts", str(tmp_path / "gts.csv")]
        assert main(argv + ["--iou", "1"]) == EXIT_OK

    @pytest.mark.parametrize("command, flags", [
        ("nlcmap", ["--height", "0"]),
        ("nlcmap", ["--height", "-5"]),
        ("nlcmap", ["--width", "0"]),
        ("gradcheck", ["--seed", "-1"]),
        ("gradcheck", ["--trials", "0"]),
        ("solve", ["--noise-report", "--seed", "-1"]),
    ])
    def test_numeric_flag_out_of_range(self, tmp_path, rng, capsys, command, flags):
        # real input files, so only the flag value can make the run fail
        calib, label, velo, _ = make_fixture(tmp_path, rng)
        inputs = {
            "nlcmap": ["--calib", str(calib), "--label", str(label), "--velodyne", str(velo),
                       "--out", str(tmp_path / "map.nlcm")],
            "gradcheck": [],
            "solve": ["--corrs", str(tmp_path / "corrs.csv")],
        }
        (tmp_path / "corrs.csv").write_text(_corrs_text())
        assert main([command, *inputs[command], *flags]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_available(self, capsys):
        for cmd in ("nlcmap", "solve", "gradcheck", "train", "ablation", "eval"):
            assert main([cmd, "--help"]) == EXIT_OK
            assert "usage" in capsys.readouterr().out.lower()


# Numbers as they come in real files, plus the extremes that break arithmetic.
_NUMBERS = st.one_of(
    st.floats(-100.0, 100.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e100, -1e100, 1e300, -1e300, 1e308,
                     np.nan, np.inf, -np.inf]),
)
_FIELDS = st.one_of(
    _NUMBERS.map(repr), st.sampled_from(["", "x", "#", "1e", " 1 ", "0x10", "é", '"1"'])
)


def _csv_bytes(columns, box_rows=False):
    """A CSV file: rows of mostly ``columns`` fields, or arbitrary bytes.

    With ``box_rows``, rows may also be boxes with positive sizes, so that
    whole files of valid boxes are common.
    """
    rows = [
        st.lists(st.floats(-100.0, 100.0).map(repr), min_size=columns, max_size=columns),
        st.lists(_NUMBERS.map(repr), min_size=columns, max_size=columns),
        st.lists(_FIELDS, max_size=columns + 2),
    ]
    if box_rows:
        rows.insert(0, st.tuples(
            st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
            st.lists(st.floats(0.1, 6.0), min_size=3, max_size=3),
            st.lists(st.floats(-4.0, 4.0), min_size=columns - 6, max_size=columns - 6),
        ).map(lambda t: [repr(v) for v in t[0] + t[1] + t[2]]))
    lines = st.one_of(
        st.lists(st.one_of(*rows).map(",".join), max_size=12),
        st.lists(rows[0].map(",".join), min_size=3, max_size=12),
    )
    text = lines.map("\n".join)
    return st.one_of(text.map(str.encode), st.binary(max_size=64))


def _kitti_bytes():
    """A calib/label/velodyne triple, each a file with some values replaced or arbitrary bytes."""
    calib = KittiCalib(
        P2=np.array([[100.0, 0, 16, 0], [0, 100.0, 12, 0], [0, 0, 1, 0]]),
        R0_rect=np.eye(3),
        Tr_velo_to_cam=np.array([[0.0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]]),
    )
    base = np.concatenate([calib.P2.ravel(), calib.R0_rect.ravel(), calib.Tr_velo_to_cam.ravel()])

    def calib_text(edits):
        vals = base.copy()
        vals[list(edits)] = list(edits.values())
        return emit_calib(KittiCalib(vals[:12].reshape(3, 4), vals[12:21].reshape(3, 3),
                                     vals[21:].reshape(3, 4))).encode()

    label = st.tuples(
        st.sampled_from(["Car", "DontCare"]), st.lists(_NUMBERS, min_size=14, max_size=14)
    ).map(lambda t: " ".join([t[0], *(repr(v) for v in t[1])]))
    box_label = st.tuples(
        st.floats(0.5, 5.0), st.floats(0.5, 5.0), st.floats(0.5, 5.0),
        st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(1.0, 40.0), st.floats(-4.0, 4.0),
    ).map(lambda t: "Car 0 0 0 0 0 0 0 " + " ".join(repr(v) for v in t))
    float32 = st.one_of(
        st.floats(-50.0, 50.0, width=32),
        st.sampled_from([0.0, -0.0, 1e-45, 3.4e38, -3.4e38, np.nan, np.inf, -np.inf]),
    )
    points = st.lists(float32, max_size=240).map(
        lambda v: np.asarray(v[: len(v) // 4 * 4], dtype="<f4").tobytes()
    )
    box_points = st.integers(0, 2**32 - 1).map(lambda s: write_velodyne(
        np.random.default_rng(s).uniform([2, -5, -3, 0], [40, 5, 3, 1], size=(300, 4))
    ))
    return st.tuples(
        st.one_of(st.dictionaries(st.integers(0, 32), _NUMBERS, max_size=3).map(calib_text),
                  st.binary(max_size=64)),
        st.one_of(st.lists(st.one_of(label, box_label), max_size=4).map("\n".join).map(str.encode),
                  st.binary(max_size=64)),
        st.one_of(points, box_points, st.binary(max_size=64)),
    )


def _init_bytes():
    """A ``solve --init`` file: a box with some entries replaced or missing, other JSON, or bytes."""
    bad = st.sampled_from([
        "1e400", "-1e400", "NaN", "Infinity", "0", "-1.5", "true", "null", '"x"', '"4"', "[1, 2]",
        "[1e400, 0, 0]", "{}", "1" + "0" * 400,
    ])
    size = st.floats(0.1, 6.0).map(repr)
    fields = st.fixed_dictionaries({
        "center": st.lists(st.floats(-50.0, 50.0).map(repr), min_size=3, max_size=3).map(
            lambda v: "[" + ", ".join(v) + "]"
        ),
        "l": size, "w": size, "h": size, "yaw": st.floats(-4.0, 4.0).map(repr),
    })
    edits = st.one_of(st.just({}), st.dictionaries(
        st.sampled_from(["center", "l", "w", "h", "yaw"]), st.one_of(bad, st.none()), max_size=2
    ))
    box = st.tuples(fields, edits).map(lambda t: "{" + ", ".join(
        f'"{k}": {t[1].get(k, v)}' for k, v in t[0].items() if t[1].get(k, v) is not None
    ) + "}")
    return st.one_of(st.one_of(box, bad).map(str.encode), st.binary(max_size=32))


_COMMANDS = st.one_of(
    st.tuples(st.just("solve"), st.fixed_dictionaries({"corrs": _csv_bytes(6)})),
    st.tuples(st.just("solve"), st.fixed_dictionaries(
        {"corrs": st.just(_corrs_text().encode()), "init": _init_bytes()})),
    st.tuples(st.just("eval"), st.fixed_dictionaries(
        {"dets": _csv_bytes(9, box_rows=True), "gts": _csv_bytes(8, box_rows=True)})),
    st.tuples(st.just("nlcmap"), _kitti_bytes().map(
        lambda t: {"calib": t[0], "label": t[1], "velodyne": t[2]})),
)


class TestCommandFuzz:
    """``main`` on generated input files ends in exit 0 or 2, never an uncaught exception."""

    @given(command=_COMMANDS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_0_or_2(self, command):
        name, files = command
        with tempfile.TemporaryDirectory() as tmp:
            argv = [name]
            for flag, data in files.items():
                path = Path(tmp) / flag
                path.write_bytes(data)
                argv += [f"--{flag}", str(path)]
            if name == "nlcmap":
                argv += ["--out", str(Path(tmp) / "map.nlcm"), "--height", "24", "--width", "32"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
            if code == EXIT_DATA:
                assert len(err.getvalue().splitlines()) == 1
                assert err.getvalue().startswith("error: ")
            elif name == "nlcmap":
                read_nlc_map((Path(tmp) / "map.nlcm").read_bytes())
            else:
                json.loads(out.getvalue(), parse_constant=_reject_constant)
