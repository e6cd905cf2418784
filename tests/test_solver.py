"""7-DOF box recovery from (point, NLC) correspondences."""

import json

import numpy as np
import pytest

from nlcdet import (
    Box3D,
    SolveOptions,
    Underdetermined,
    dof_analysis,
    lidar_to_nlc,
    nlc_to_lidar,
    normalize_angle,
    solve_box,
)

from conftest import random_box


def make_instance(rng, box, n_points):
    nlc = rng.uniform(0.05, 0.95, size=(n_points, 3))
    pts = nlc_to_lidar(nlc, box)
    return np.hstack([pts, nlc])


def perturbed(box, rng, pos=0.2, ang=0.1, dim_frac=0.1):
    return Box3D(
        center=box.center + rng.uniform(-pos, pos, size=3),
        l=box.l * (1 + rng.uniform(-dim_frac, dim_frac)),
        w=box.w * (1 + rng.uniform(-dim_frac, dim_frac)),
        h=box.h * (1 + rng.uniform(-dim_frac, dim_frac)),
        yaw=box.yaw + rng.uniform(-ang, ang),
    )


def param_error(a, b):
    dyaw = abs(normalize_angle(a.yaw - b.yaw))
    return max(
        float(np.max(np.abs(a.center - b.center))),
        abs(a.l - b.l), abs(a.w - b.w), abs(a.h - b.h), dyaw,
    )


class TestExactRecovery:
    def test_eight_points_noise_free(self, rng):
        for _ in range(50):
            box = random_box(rng, dim_lo=1.0)
            corrs = make_instance(rng, box, 8)
            report = solve_box(corrs, init=perturbed(box, rng))
            assert report.converged
            assert not report.degenerate
            assert report.rms_residual < 1e-9
            assert param_error(report.box, box) < 1e-6

    def test_three_points_generic(self, rng):
        for _ in range(20):
            box = random_box(rng, dim_lo=1.0)
            corrs = make_instance(rng, box, 3)
            report = solve_box(corrs, init=perturbed(box, rng, pos=0.05, ang=0.05))
            assert report.rms_residual < 1e-9

    def test_default_initializer(self, rng):
        # elongated boxes keep the PCA heading estimate inside the basin
        for _ in range(20):
            box = Box3D(
                center=rng.uniform(-20, 20, size=3),
                l=rng.uniform(3.5, 5.0),
                w=rng.uniform(1.5, 2.0),
                h=rng.uniform(1.2, 2.0),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            corrs = make_instance(rng, box, 40)
            report = solve_box(corrs)
            assert report.converged
            # the PCA axis may point either way along the length; both are exact fits
            err_direct = param_error(report.box, box)
            flipped = Box3D(
                center=box.center, l=box.l, w=box.w, h=box.h,
                yaw=normalize_angle(box.yaw + np.pi),
            )
            assert min(err_direct, param_error(report.box, flipped)) < 1e-6

    def test_noise_resilience(self, rng):
        # 50 points, NLC noise sigma = 0.01 per axis, 4 m box
        errs = []
        for _ in range(100):
            box = Box3D(
                center=rng.uniform(-10, 10, size=3), l=4.0, w=1.8, h=1.5,
                yaw=rng.uniform(-np.pi, np.pi),
            )
            corrs = make_instance(rng, box, 50)
            corrs[:, 3:] += rng.normal(0, 0.01, size=(50, 3))
            report = solve_box(corrs, init=perturbed(box, rng))
            errs.append(float(np.linalg.norm(report.box.center - box.center)))
        assert np.median(errs) < 0.05


class TestRobustness:
    def test_too_few_correspondences(self, rng):
        box = random_box(rng)
        corrs = make_instance(rng, box, 2)
        with pytest.raises(Underdetermined):
            solve_box(corrs)

    def test_all_points_at_center_degenerate(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = np.hstack([np.tile(box.center, (5, 1)), np.full((5, 3), 0.5)])
        report = solve_box(corrs, init=box)
        assert report.degenerate
        assert not report.converged

    def test_report_of_rank_deficient_fit_is_json(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = np.hstack([np.tile(box.center, (5, 1)), np.full((5, 3), 0.5)])
        report = solve_box(corrs, init=box)
        assert report.condition_estimate == np.inf
        d = report.to_dict()
        assert d["condition_estimate"] is None
        json.loads(json.dumps(d), parse_constant=lambda name: pytest.fail(f"{name} in JSON"))

    def test_relabeling_invariance(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = make_instance(rng, box, 12)
        init = perturbed(box, rng)
        a = solve_box(corrs, init=init)
        b = solve_box(corrs[rng.permutation(len(corrs))], init=init)
        assert np.array_equal(a.box.center, b.box.center)
        assert (a.box.l, a.box.w, a.box.h, a.box.yaw) == (b.box.l, b.box.w, b.box.h, b.box.yaw)
        assert a.rms_residual == b.rms_residual
        assert a.iterations == b.iterations

    def test_yaw_in_canonical_range(self, rng):
        for _ in range(20):
            box = random_box(rng, dim_lo=1.0)
            report = solve_box(make_instance(rng, box, 10), init=perturbed(box, rng))
            assert -np.pi < report.box.yaw <= np.pi

    def test_residual_monotone_wrt_init(self, rng):
        # the accepted solution never has larger residual than its start
        box = random_box(rng, dim_lo=1.0)
        corrs = make_instance(rng, box, 20)
        corrs[:, 3:] += rng.normal(0, 0.05, size=(20, 3))
        init = perturbed(box, rng)
        pts, nlcs = corrs[:, :3], corrs[:, 3:]
        init_rms = float(
            np.sqrt(np.mean((lidar_to_nlc(pts, init) - nlcs) ** 2))
        )
        report = solve_box(corrs, init=init)
        assert report.rms_residual <= init_rms + 1e-15

    def test_report_serializes(self, rng):
        box = random_box(rng, dim_lo=1.0)
        report = solve_box(make_instance(rng, box, 8), init=perturbed(box, rng))
        d = report.to_dict()
        assert set(d) == {
            "box", "rms_residual", "iterations", "condition_estimate",
            "converged", "degenerate",
        }
        assert isinstance(d["box"]["center"], list)

    def test_max_iterations_respected(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = make_instance(rng, box, 10)
        opts = SolveOptions(max_iterations=2)
        report = solve_box(corrs, init=perturbed(box, rng, pos=1.0, ang=0.5), opts=opts)
        assert report.iterations <= 2


class TestDofAnalysis:
    def test_single_correspondence(self, rng):
        box = random_box(rng)
        corrs = make_instance(rng, box, 1)
        out = dof_analysis(corrs, at=box)
        assert out["equations"] == 3
        assert out["unknowns"] == 7
        assert out["jacobian_rank"] <= 3

    def test_three_generic_points_full_rank(self, rng):
        for _ in range(10):
            box = random_box(rng, dim_lo=1.0)
            corrs = make_instance(rng, box, 3)
            out = dof_analysis(corrs, at=box)
            assert out["equations"] == 9
            assert out["jacobian_rank"] == 7

    def test_coplanar_points_rank_deficient(self, rng):
        # seven points in the box's own z = center plane: h is unobservable
        box = random_box(rng, dim_lo=1.0)
        nlc = rng.uniform(0.05, 0.95, size=(7, 3))
        nlc[:, 2] = 0.5
        pts = nlc_to_lidar(nlc, box)
        out = dof_analysis(np.hstack([pts, nlc]), at=box)
        assert out["equations"] == 21
        assert out["jacobian_rank"] <= 6

    def test_empty_rejected(self):
        with pytest.raises(Underdetermined):
            dof_analysis(np.zeros((0, 6)))
