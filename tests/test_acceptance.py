"""Acceptance suite: ten end-to-end criteria, each printing one PASS/FAIL line.

These are the binding checks for the package: exact geometric identities,
finite-difference verification of every backward pass, solver recovery,
oracle-checked IoU and AP, parser totality, the fusion-ablation direction on
synthetic scenes, and bit-exact determinism of the command-line tools.
"""

import contextlib
import io
import time

import numpy as np

from nlcdet import (
    Box3D,
    Calibration,
    KittiIOError,
    ParseError,
    average_precision,
    gradcheck,
    iou_3d,
    lidar_to_nlc,
    mmae,
    nlc_to_lidar,
    points_in_box,
    project_point,
    read_nlc_map,
    rot_z,
    solve_box,
    dof_analysis,
)
from nlcdet.cli import main
from nlcdet.kitti_io import (
    KittiCalib,
    emit_calib,
    emit_labels,
    parse_calib,
    parse_labels,
    read_velodyne,
    write_velodyne,
)
from nlcdet.nlc import build_gt_nlc_map, object_pixel_sets
from nlcdet.pipeline import TrainConfig, ablation, default_calibration

from conftest import random_box


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {tag}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_nlc_round_trip():
    rng = np.random.default_rng(101)
    start = time.time()
    worst_rt = 0.0
    containment_ok = True
    for _ in range(100):
        box = random_box(rng)
        n = rng.uniform(0.0, 1.0, size=(1000, 3))
        back = lidar_to_nlc(nlc_to_lidar(n, box), box)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - n))))

        pts = box.center + rng.uniform(-1.3, 1.3, size=(200, 3)) * box.dims
        inside = np.zeros(len(pts), dtype=bool)
        inside[points_in_box(pts, box)] = True
        nv = lidar_to_nlc(pts, box)
        by_nlc = np.all((nv >= -1e-9) & (nv <= 1.0 + 1e-9), axis=1)
        near_face = np.any(np.abs(nv - np.round(nv)) < 1e-9, axis=1)
        if not np.array_equal(inside[~near_face], by_nlc[~near_face]):
            containment_ok = False
    elapsed = time.time() - start
    report(
        "1 nlc-round-trip",
        worst_rt < 1e-12 and containment_ok and elapsed < 5.0,
        f"max err {worst_rt:.2e}, containment {'ok' if containment_ok else 'BAD'}, {elapsed:.2f}s",
    )


def test_criterion_2_projection():
    u, v, d = project_point(np.array([0.5, 0.25, 2.0]), Calibration(K=np.eye(3)))
    identity_ok = (u, v, d) == (0.25, 0.125, 2.0)
    K = np.array([[700.0, 0, 600.0], [0, 700.0, 180.0], [0, 0, 1.0]])
    u2, v2, d2 = project_point(np.array([1.0, 0.0, 10.0]), Calibration(K=K))
    worked_ok = max(abs(u2 - 670.0), abs(v2 - 180.0), abs(d2 - 10.0)) < 1e-9
    report(
        "2 projection",
        identity_ok and worked_ok,
        f"identity {identity_ok}, worked-example {worked_ok}",
    )


def test_criterion_3_gradient_checks():
    start = time.time()
    results = gradcheck.run_all(trials=100, seed=202)
    elapsed = time.time() - start
    ok = all(err < gradcheck.THRESHOLDS[name] for name, err in results.items())
    worst = max(results, key=lambda k: results[k] / gradcheck.THRESHOLDS[k])
    report(
        "3 gradient-checks",
        ok and elapsed < 60.0,
        f"worst {worst}={results[worst]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_box_solver():
    rng = np.random.default_rng(303)
    start = time.time()
    worst = 0.0
    failures = 0
    for _ in range(1000):
        box = random_box(rng, dim_lo=1.0)
        n_pts = int(rng.integers(4, 20))
        nlc = rng.uniform(0.05, 0.95, size=(n_pts, 3))
        corrs = np.hstack([nlc_to_lidar(nlc, box), nlc])
        init = Box3D(
            center=box.center + rng.uniform(-0.2, 0.2, size=3),
            l=box.l * (1 + rng.uniform(-0.1, 0.1)),
            w=box.w * (1 + rng.uniform(-0.1, 0.1)),
            h=box.h * (1 + rng.uniform(-0.1, 0.1)),
            yaw=box.yaw + rng.uniform(-0.1, 0.1),
        )
        rep = solve_box(corrs, init=init)
        err = max(
            float(np.max(np.abs(rep.box.center - box.center))),
            abs(rep.box.l - box.l), abs(rep.box.w - box.w), abs(rep.box.h - box.h),
            abs(np.angle(np.exp(1j * (rep.box.yaw - box.yaw)))),
        )
        worst = max(worst, err)
        if err > 1e-6:
            failures += 1
    elapsed = time.time() - start

    box = random_box(rng, dim_lo=1.0)
    nlc3 = rng.uniform(0.05, 0.95, size=(3, 3))
    generic = dof_analysis(np.hstack([nlc_to_lidar(nlc3, box), nlc3]), at=box)
    nlc7 = rng.uniform(0.05, 0.95, size=(7, 3))
    nlc7[:, 2] = 0.5
    coplanar = dof_analysis(np.hstack([nlc_to_lidar(nlc7, box), nlc7]), at=box)
    ranks_ok = generic["jacobian_rank"] == 7 and coplanar["jacobian_rank"] <= 6
    report(
        "4 box-solver",
        failures == 0 and ranks_ok and elapsed < 60.0,
        f"{failures}/1000 failures, worst {worst:.2e}, ranks {generic['jacobian_rank']}/{coplanar['jacobian_rank']}, {elapsed:.1f}s",
    )


def test_criterion_5_iou_oracle():
    rng = np.random.default_rng(404)
    worst_mc = 0.0
    worst_sym = 0.0
    for _ in range(200):
        a = random_box(rng, center_scale=1.5, dim_lo=1.0, dim_hi=4.0)
        b = random_box(rng, center_scale=1.5, dim_lo=1.0, dim_hi=4.0)
        iou = iou_3d(a, b)
        worst_sym = max(worst_sym, abs(iou - iou_3d(b, a)))
        # volume oracle: 1e6 uniform samples inside box a
        n = rng.uniform(0.0, 1.0, size=(1_000_000, 3))
        pts = a.center + ((n - 0.5) * a.dims) @ rot_z(a.yaw).T
        local = (pts - b.center) @ rot_z(b.yaw)
        inter = np.all(np.abs(local) <= b.dims / 2, axis=1).mean() * a.volume
        mc = inter / (a.volume + b.volume - inter)
        worst_mc = max(worst_mc, abs(iou - mc))

    cube = Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=0.0)
    shifted = Box3D(center=np.array([0.5, 0, 0]), l=1, w=1, h=1, yaw=0.0)
    third_err = abs(iou_3d(cube, shifted) - 1.0 / 3.0)
    report(
        "5 iou",
        worst_mc < 1e-2 and worst_sym < 1e-12 and third_err < 1e-9,
        f"MC {worst_mc:.2e}, symmetry {worst_sym:.2e}, cube {third_err:.2e}",
    )


def test_criterion_6_metrics():
    perfect = average_precision([True] * 5, [0.9, 0.8, 0.7, 0.6, 0.5], 5)
    zero = average_precision([False, False], [0.9, 0.8], 2)
    hand = average_precision([True, False, True], [0.9, 0.8, 0.7], 2)
    rng = np.random.default_rng(505)
    flags = rng.random(30) < 0.5
    scores = rng.random(30)
    rescale_ok = average_precision(flags, scores, 17) == average_precision(
        flags, 4.2 * scores, 17
    )
    report(
        "6 metrics",
        perfect == 1.0 and zero == 0.0 and abs(hand - 5.0 / 6.0) < 1e-12 and rescale_ok,
        f"perfect {perfect}, zero {zero}, hand err {abs(hand - 5/6):.1e}",
    )


def test_criterion_7_parsers():
    rng = np.random.default_rng(606)
    round_trips_ok = True
    for _ in range(1000):
        calib = KittiCalib(
            P2=rng.normal(size=(3, 4)),
            R0_rect=rng.normal(size=(3, 3)),
            Tr_velo_to_cam=rng.normal(size=(3, 4)),
        )
        back = parse_calib(emit_calib(calib))
        if not (
            np.array_equal(back.P2, calib.P2)
            and np.array_equal(back.R0_rect, calib.R0_rect)
            and np.array_equal(back.Tr_velo_to_cam, calib.Tr_velo_to_cam)
        ):
            round_trips_ok = False

        labels = parse_labels(
            "Car 0.00 0 -1.58 587 178 603 191 1.48 1.60 3.69 2.77 1.55 8.41 -1.56"
        )
        labels[0].location = tuple(float(x) for x in rng.normal(size=3))
        labels[0].rotation_y = float(rng.uniform(-np.pi, np.pi))
        if parse_labels(emit_labels(labels)) != labels:
            round_trips_ok = False

        cloud = rng.normal(size=(int(rng.integers(0, 30)), 4)).astype(np.float32)
        data = write_velodyne(cloud)
        if write_velodyne(read_velodyne(data)) != data:
            round_trips_ok = False

    crashes = 0
    parsers = (parse_calib, parse_labels, read_velodyne, read_nlc_map)
    for i in range(100_000):
        blob = rng.bytes(int(rng.integers(0, 40)))
        parser = parsers[i % len(parsers)]
        try:
            parser(blob)
        except (KittiIOError, ParseError):
            pass
        except Exception:
            crashes += 1
    report(
        "7 parsers",
        round_trips_ok and crashes == 0,
        f"round trips {'ok' if round_trips_ok else 'BAD'}, {crashes} crashes in 1e5 fuzz inputs",
    )


def test_criterion_8_ablation_direction():
    start = time.time()
    result = ablation(TrainConfig(), seeds=(0, 1, 2), rows=("none", "p2i", "both"))
    elapsed = time.time() - start
    none = result["rows"]["none"]["mean_metric"]
    p2i = result["rows"]["p2i"]["mean_metric"]
    both = result["rows"]["both"]["mean_metric"]
    improvement = (none - p2i) / none
    ordered = both <= p2i <= none
    report(
        "8 ablation-direction",
        ordered and improvement >= 0.02 and elapsed < 600.0,
        f"none {none:.4f} >= p2i {p2i:.4f} >= both {both:.4f}, "
        f"p2i gain {100 * improvement:.1f}%, {elapsed / 60:.1f} min",
    )


def test_criterion_9_mmae():
    rng = np.random.default_rng(707)
    boxes = [
        Box3D(center=np.array([15.0, -2.0, 0.0]), l=4, w=2, h=1.6, yaw=0.3),
        Box3D(center=np.array([25.0, 3.0, 0.0]), l=4, w=2, h=1.6, yaw=-0.9),
    ]
    pts = np.vstack([nlc_to_lidar(rng.uniform(0, 1, size=(400, 3)), b) for b in boxes])
    calib = default_calibration()
    gt, obj = build_gt_nlc_map(pts, boxes, calib, 24, 32)
    pix = object_pixel_sets(obj, len(boxes))

    zero_vals, _ = mmae(gt, gt.values, pix)
    offset = gt.values.copy()
    offset[:, :, 1] += 0.07
    off_vals, _ = mmae(gt, offset, pix)
    pred = gt.values + rng.normal(0, 0.05, size=gt.values.shape)
    fwd, _ = mmae(gt, pred, pix)
    rev, _ = mmae(gt, pred, list(reversed(pix)))
    report(
        "9 mmae",
        np.array_equal(zero_vals, [0, 0, 0])
        and np.allclose(off_vals, [0.0, 0.07, 0.0])
        and np.array_equal(fwd, rev),
        f"zero {zero_vals}, offset {off_vals}",
    )


def test_criterion_10_determinism(tmp_path):
    from test_cli import make_fixture

    rng = np.random.default_rng(808)
    calib, label, velo, box = make_fixture(tmp_path, rng)

    outputs = []
    for run in range(2):
        d = tmp_path / f"run{run}"
        d.mkdir()
        files = {}

        nlcm = d / "map.nlcm"
        main([
            "nlcmap", "--calib", str(calib), "--label", str(label),
            "--velodyne", str(velo), "--out", str(nlcm),
            "--height", "96", "--width", "128",
        ])
        files["nlcmap"] = nlcm.read_bytes()

        corrs = d / "corrs.csv"
        nlc = np.random.default_rng(9).uniform(0.1, 0.9, size=(10, 3))
        rows = [",".join(repr(float(v)) for v in (*p, *t))
                for p, t in zip(nlc_to_lidar(nlc, box), nlc)]
        corrs.write_text("\n".join(rows) + "\n")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["solve", "--corrs", str(corrs), "--noise-report", "--seed", "3"])
        files["solve"] = buf.getvalue()

        cfg = d / "train.cfg"
        cfg.write_text("epochs = 2\ntrain_scenes = 2\nval_scenes = 1\n"
                       "point_channels = 4\nimage_channels = 4\n")
        rep = d / "train.json"
        curves = d / "curves.csv"
        main(["train", "--config", str(cfg), "--out", str(rep), "--curves", str(curves)])
        files["train"] = rep.read_bytes()
        files["curves"] = curves.read_bytes()

        abl = d / "ablation.json"
        main(["ablation", "--config", str(cfg), "--seeds", "0,1", "--out", str(abl)])
        files["ablation"] = abl.read_bytes()

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["gradcheck", "--trials", "2", "--seed", "1"])
        files["gradcheck"] = buf.getvalue()
        outputs.append(files)

    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    report(
        "10 determinism",
        not mismatched,
        "all commands bit-identical" if not mismatched else f"mismatch: {mismatched}",
    )
