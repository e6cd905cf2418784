"""7-DOF box recovery from (point, NLC) correspondences."""


import numpy as np
import pytest

from nlcdet import (
    Box3D,
    InvalidValue,
    NlcdetError,
    SolveReport,
    Underdetermined,
    dof_analysis,
    lidar_to_nlc,
    nlc_to_lidar,
    normalize_angle,
    rot_z,
    solve_box,
)
from nlcdet.solver import (
    _LM_DAMPING_INIT, _MAX_ITERATIONS, _TOL, _box_from_params, _default_init, _params_from_box,
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

    def test_start_alone_exact_on_three_points(self, rng):
        # the minimum: 9 equations, non-collinear (n_x, n_y), distinct n_z
        for _ in range(20):
            box = random_box(rng, dim_lo=1.0)
            corrs = make_instance(rng, box, 3)
            assert param_error(_default_init(corrs[:, :3], corrs[:, 3:]), box) < 1e-9

    def test_default_initializer(self, rng):
        # elongated and near-square footprints; the closed-form start has no
        # sign ambiguity, so only the box itself fits
        for i in range(40):
            l = rng.uniform(3.5, 5.0)
            box = Box3D(
                center=rng.uniform(-20, 20, size=3),
                l=l,
                w=rng.uniform(1.5, 2.0) if i % 2 else l * rng.uniform(0.98, 1.02),
                h=rng.uniform(1.2, 2.0),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            corrs = make_instance(rng, box, 40)
            report = solve_box(corrs)
            assert report.converged
            assert param_error(report.box, box) < 1e-6

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

    @pytest.mark.parametrize("column", [0, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, -1.0000000000000002e100])
    def test_non_finite_or_huge_correspondence_rejected(self, rng, value, column):
        box = random_box(rng, dim_lo=1.0)
        corrs = make_instance(rng, box, 12)
        corrs[5, column] = value
        with pytest.raises(InvalidValue) as info:
            solve_box(corrs)
        assert isinstance(info.value, NlcdetError) and isinstance(info.value, ValueError)
        with pytest.raises(InvalidValue):
            dof_analysis(corrs, at=box)

    @pytest.mark.parametrize("value", [1e100, -1e100])
    def test_correspondence_at_the_bound_solves(self, rng, value):
        corrs = make_instance(rng, random_box(rng, dim_lo=1.0), 12)
        corrs[5, 0] = value
        assert np.isfinite(solve_box(corrs).rms_residual)

    def test_all_points_at_center_degenerate(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = np.hstack([np.tile(box.center, (5, 1)), np.full((5, 3), 0.5)])
        report = solve_box(corrs, init=box)
        assert report.degenerate
        assert not report.converged

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [
        "collinear_nxy", "constant_nz", "constant_nlc", "points_at_one_place",
        "mirrored_nx", "mirrored_nz", "mirrored_all", "huge_nlc",
    ])
    def test_degenerate_input_gives_finite_report(self, rng, case):
        box = random_box(rng, dim_lo=1.0)
        nlc = rng.uniform(0.05, 0.95, size=(20, 3))
        pts = nlc_to_lidar(nlc, box)
        if case == "collinear_nxy":
            nlc[:, 1] = 0.3 * nlc[:, 0] + 0.2
            pts = nlc_to_lidar(nlc, box)
        elif case == "constant_nz":
            nlc[:, 2] = 0.37
            pts = nlc_to_lidar(nlc, box)
        elif case == "constant_nlc":
            nlc[:] = 0.37
        elif case == "points_at_one_place":
            pts = np.tile(box.center, (20, 1))
        elif case == "mirrored_nx":
            nlc[:, 0] = 1.0 - nlc[:, 0]
        elif case == "mirrored_nz":
            nlc[:, 2] = 1.0 - nlc[:, 2]
        elif case == "mirrored_all":
            nlc = 1.0 - nlc
        else:
            nlc[3, 0], nlc[4, 2] = 1e100, -1e100
        report = solve_box(np.hstack([pts, nlc]))
        b = report.box
        assert np.all(np.isfinite(b.center)) and np.isfinite([b.l, b.w, b.h, b.yaw]).all()
        assert min(b.l, b.w, b.h) > 0
        assert np.isfinite(report.rms_residual)

    def test_relabeling_invariance(self, rng):
        box = random_box(rng, dim_lo=1.0)
        corrs = make_instance(rng, box, 12)
        corrs[:, 3:] += rng.normal(0, 0.02, size=(12, 3))
        for init in (perturbed(box, rng), None):
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
            dof_analysis(np.zeros((0, 6)), at=Box3D(center=np.zeros(3), l=1, w=1, h=1, yaw=0))

    @pytest.mark.parametrize("spread", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    @pytest.mark.parametrize("seed", range(8))
    def test_degenerate_is_rank_below_seven(self, seed, spread):
        # 8 correspondences whose NLC z lies within about `spread` of 0.5: the
        # condition estimate runs from about 1e6 to 1e10 across the spreads
        rng = np.random.default_rng([seed, 20])
        box = random_box(rng, dim_lo=1.0)
        nlc = rng.uniform(0.05, 0.95, size=(8, 3))
        nlc[:, 2] = 0.5 + spread * rng.standard_normal(8)
        corrs = np.hstack([nlc_to_lidar(nlc, box), nlc])
        report = solve_box(corrs, init=box)
        assert report.degenerate == (dof_analysis(corrs, at=box)["jacobian_rank"] < 7)


def _reference_residuals_and_jacobian(q, pts, nlcs):
    """The one-pass residual and Jacobian evaluation ``solve_box`` must match."""
    c = q[:3]
    dims = np.exp(q[3:6])
    theta = q[6]
    rot = rot_z(theta)
    d = pts - c
    local = d @ rot
    n = local / dims + 0.5
    res = (n - nlcs).ravel()
    npts = len(pts)
    jac = np.zeros((npts, 3, 7))
    jac[:, :, :3] = -(rot.T / dims[:, None])[None, :, :]
    for k in range(3):
        jac[:, k, 3 + k] = -(n[:, k] - 0.5)
    ct, st = np.cos(theta), np.sin(theta)
    jac[:, 0, 6] = (-st * d[:, 0] + ct * d[:, 1]) / dims[0]
    jac[:, 1, 6] = (-ct * d[:, 0] - st * d[:, 1]) / dims[1]
    return res, jac.reshape(3 * npts, 7)


def reference_solve_box(correspondences, init=None):
    """The Levenberg-Marquardt loop ``solve_box`` must reproduce bit for bit:
    a Jacobian on every trial step, an explicit damping matrix and a
    per-axis loop."""
    corrs = np.asarray(correspondences, dtype=float).reshape(-1, 6)
    order = np.lexsort(tuple(corrs[:, k] for k in range(5, -1, -1)))
    corrs = corrs[order]
    pts, nlcs = corrs[:, :3], corrs[:, 3:]
    q = _params_from_box(init if init is not None else _default_init(pts, nlcs))
    res, jac = _reference_residuals_and_jacobian(q, pts, nlcs)
    cost = float(res @ res)
    lam = _LM_DAMPING_INIT
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ res
        scale = np.diag(jtj) + 1e-12 * max(np.diag(jtj).max(), 1.0)
        try:
            step = np.linalg.solve(jtj + lam * np.diag(scale), -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        q_new = q + step
        q_new[3:6] = np.clip(q_new[3:6], -30.0, 30.0)
        res_new, jac_new = _reference_residuals_and_jacobian(q_new, pts, nlcs)
        cost_new = float(res_new @ res_new)
        if cost_new <= cost:
            rms_old = np.sqrt(cost / len(res))
            rms_new = np.sqrt(cost_new / len(res))
            q, res, jac, cost = q_new, res_new, jac_new, cost_new
            lam *= 0.5
            if rms_old - rms_new < _TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    sv = np.linalg.svd(jac, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    degenerate = condition > 1e8
    if degenerate:
        converged = False
    q[6] = normalize_angle(q[6])
    return SolveReport(
        box=_box_from_params(q),
        rms_residual=float(np.sqrt(cost / len(res))),
        iterations=iterations,
        condition_estimate=condition,
        converged=converged,
        degenerate=degenerate,
    )


def _report_fields(report):
    b = report.box
    return [b.center, b.l, b.w, b.h, b.yaw, report.rms_residual, report.iterations,
            report.condition_estimate, report.converged, report.degenerate]


def _with_outliers(rng, corrs, frac):
    corrs = corrs.copy()
    bad = rng.choice(len(corrs), size=int(round(frac * len(corrs))), replace=False)
    corrs[bad, 3:] = rng.uniform(0.0, 1.0, size=(len(bad), 3))
    return corrs


def _clutter(rng):
    a, b = (make_instance(rng, random_box(rng, dim_lo=1.0), 30) for _ in range(2))
    return np.vstack([a[:15], b[15:]])


def _at_center(rng):
    box = random_box(rng, dim_lo=1.0)
    return np.hstack([np.tile(box.center, (5, 1)), np.full((5, 3), 0.5)])


class TestReferenceLoop:
    CASES = {
        "clean": lambda rng: (make_instance(rng, random_box(rng, dim_lo=1.0), 30), None),
        "outliers_10pct": lambda rng: (
            _with_outliers(rng, make_instance(rng, random_box(rng, dim_lo=1.0), 30), 0.1), None),
        "clutter": lambda rng: (_clutter(rng), None),
        "three_points": lambda rng: (make_instance(rng, random_box(rng, dim_lo=1.0), 3), None),
        "rank_deficient": lambda rng: (_at_center(rng), None),
        "rank_deficient_init": lambda rng: (
            (c := _at_center(rng)), Box3D(center=c[0, :3], l=2.0, w=1.5, h=1.0, yaw=0.3)),
        "given_init": lambda rng: (
            make_instance(rng, box := random_box(rng, dim_lo=1.0), 20),
            perturbed(box, rng, pos=1.0, ang=0.5)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_field_matches_reference(self, case):
        for seed in range(12):
            rng = np.random.default_rng([seed, 8])
            corrs, init = self.CASES[case](rng)
            got = _report_fields(solve_box(corrs, init=init))
            want = _report_fields(reference_solve_box(corrs, init=init))
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.array_equal(g, w), (case, seed, got, want)
