"""Recovery of a 7-DOF box from (global point, NLC) correspondences.

Each correspondence contributes three scalar residuals, so three generic
points already give nine equations for the seven unknowns; use
:func:`dof_analysis` to audit observability of a particular configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidValue, Underdetermined
from .geometry import Box3D, _float_rows, _require_bounded, normalize_angle

__all__ = ["SolveReport", "solve_box", "dof_analysis"]

# Levenberg-Marquardt: iteration cap, RMS-decrease convergence test, initial damping
_MAX_ITERATIONS = 100
_TOL = 1e-10
_LM_DAMPING_INIT = 1e-3
_MAX_CONDITION = 1e8  # see _observability
_MAX_LOG_DIM = 30.0  # see _clip_log_dims
# closed-form start: the smallest divisor, and the ridge added to the trace-scaled moments
_TINY = np.finfo(float).tiny
_RIDGE = 1e-15


@dataclass
class SolveReport:
    """A fit is ``degenerate`` when its final Jacobian's rank, by the rule of
    :func:`dof_analysis`, is below 7; it is then never ``converged``.
    ``condition_estimate`` is that Jacobian's sigma_max / sigma_min (inf at 0)."""

    box: Box3D
    rms_residual: float
    iterations: int
    condition_estimate: float
    converged: bool
    degenerate: bool

    def to_dict(self) -> dict:
        """The fields of the report and its box as plain values, the center a list;
        an infinite condition estimate stays inf (the CLI writes it as JSON null)."""
        out = asdict(self)
        out["box"]["center"] = self.box.center.tolist()
        return out


def _correspondences(correspondences, floor: int) -> np.ndarray:
    """``correspondences`` as a float (N, 6) array; ShapeError for another
    width, Underdetermined for fewer than ``floor`` rows, InvalidValue for an
    unbounded value (see solve_box)."""
    corrs = _float_rows(correspondences, 6, "correspondences")
    if len(corrs) < floor:
        raise Underdetermined(f"need at least {floor} correspondences, got {len(corrs)}")
    _require_bounded(corrs, "correspondences")
    return corrs


def _observability(jac: np.ndarray) -> tuple[float, int]:
    """sigma_max / sigma_min of ``jac`` (inf when sigma_min is 0) and its rank:
    the count of singular values within ``_MAX_CONDITION`` of sigma_max."""
    sv = np.linalg.svd(jac, compute_uv=False).tolist()
    top = sv[0]
    condition = top / sv[-1] if sv[-1] > 0 else math.inf
    return condition, sum(1 for s in sv if s > 0 and top / s <= _MAX_CONDITION)


def _params_from_box(b: Box3D) -> np.ndarray:
    return np.concatenate([b.center, np.log([b.l, b.w, b.h]), [b.yaw]])


def _box_from_params(q: np.ndarray) -> Box3D:
    l, w, h = np.exp(q[3:6]).tolist()
    return Box3D(center=q[:3], l=l, w=w, h=h, yaw=float(q[6]))


def _clip_log_dims(q: np.ndarray) -> None:
    """Clip q's log-dimensions to [-30, 30] in place: beyond this range the
    dimensions overflow or vanish, and the fit is hopeless."""
    log_dims = q[3:6]
    if any(abs(v) > _MAX_LOG_DIM for v in log_dims.tolist()):  # NaN stays NaN
        np.maximum(log_dims, -_MAX_LOG_DIM, out=log_dims)
        np.minimum(log_dims, _MAX_LOG_DIM, out=log_dims)


class _Fit:
    """One solve's arrays, made once: ``residuals(q)`` writes r = nlc(p; box) - n
    at q = (cx, cy, cz, log l, log w, log h, yaw), with the offsets ``d`` and
    box-frame ``n`` that ``jacobian()`` reads to write the analytic (3N, 7)
    Jacobian into one (N, 3, 7) array, zero where the Jacobian always is."""

    def __init__(self, pts: np.ndarray, nlcs: np.ndarray):
        npts = len(pts)
        self.pts, self.nlcs, self.res = pts, nlcs, np.empty(3 * npts)
        self.d, self.n, self.dn = np.empty((npts, 3)), np.empty((npts, 3)), np.empty((npts, 3))
        self.res_rows, self.d_x, self.d_y = self.res.reshape(npts, 3), self.d[:, 0], self.d[:, 1]
        self.dims, self.rot, self.block = np.empty(3), np.zeros((3, 3)), np.empty((3, 3))
        self.rot[2, 2] = 1.0
        self.rot_t, self.dims_col, self.dims_xy = self.rot.T, self.dims[:, None], self.dims[:2, None]
        # (dR/dtheta)^T d by rows, turn_x * d_x + turn_y * d_y: a + (-b) is a - b, bit for bit
        self.turn, self.yaw, self.yaw_y = np.empty(4), np.empty((2, npts)), np.empty((2, npts))
        self.turn_x, self.turn_y = self.turn[:2, None], self.turn[2:, None]
        jac = np.zeros((npts, 3, 7))
        self.jac = jac.reshape(3 * npts, 7)
        self.jac_t = self.jac.T
        # the written parts: centre block, log-size diagonal and yaw columns
        self.j_center, self.j_log_dims = jac[:, :, :3], jac.reshape(npts, 21)[:, 3::8]
        self.j_yaw = jac[:, :2, 6].T
        self.jtj, self.damped = np.empty((7, 7)), np.empty((7, 7))
        self.jtj_diag, self.damped_diag = self.jtj.diagonal(), self.damped.reshape(49)[::8]
        self.neg_jtr, self.scale, self.damping = np.empty(7), np.empty(7), np.empty(7)

    def residuals(self, q: np.ndarray) -> np.ndarray:
        rot, d, n = self.rot, self.d, self.n
        np.exp(q[3:6], out=self.dims)
        c, s = np.cos(q[6]), np.sin(q[6])
        rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c  # rot_z(q[6])
        np.subtract(self.pts, q[:3], out=d)
        np.matmul(d, rot, out=n)  # R^T d
        n /= self.dims
        n += 0.5
        np.subtract(n, self.nlcs, out=self.res_rows)
        return self.res

    def jacobian(self) -> np.ndarray:
        block, dn, yaw, rot = self.block, self.dn, self.yaw, self.rot
        # d n / d c = -(1/dims) * R^T
        self.j_center[...] = np.negative(np.divide(self.rot_t, self.dims_col, out=block), out=block)
        # d n_k / d log(dim_k) = -(n_k - 0.5)
        self.j_log_dims[...] = np.negative(np.subtract(self.n, 0.5, out=dn), out=dn)
        # d local / d theta = (dR/dtheta)^T d = (-s d_x + c d_y, -c d_x - s d_y)
        c, s = rot[0, 0], rot[1, 0]
        self.turn[0], self.turn[1], self.turn[2], self.turn[3] = -s, -c, c, -s
        np.multiply(self.turn_x, self.d_x, out=yaw)
        np.add(yaw, np.multiply(self.turn_y, self.d_y, out=self.yaw_y), out=yaw)
        np.divide(yaw, self.dims_xy, out=self.j_yaw)
        return self.jac

    def normal_equations(self) -> None:
        """The undamped J^T J and -J^T r, and the Marquardt scale of the damping:
        J^T J's diagonal, floored so unobservable parameters stay damped."""
        np.matmul(self.jac_t, self.jac, out=self.jtj)
        np.negative(np.matmul(self.jac_t, self.res, out=self.neg_jtr), out=self.neg_jtr)
        diag = self.jtj_diag
        np.add(diag, 1e-12 * np.maximum.reduce(diag, initial=1.0), out=self.scale)

    def step(self, lam: float) -> np.ndarray:
        """The step with ``lam * scale`` added to a copy's diagonal (LinAlgError if singular)."""
        np.copyto(self.damped, self.jtj)
        self.damped_diag += np.multiply(lam, self.scale, out=self.damping)
        return np.linalg.solve(self.damped, self.neg_jtr)


def _start(pts: np.ndarray, nlcs: np.ndarray) -> np.ndarray:
    """Closed-form least-squares fit of ``p = c + R(yaw) diag(l, w, h) (n - 0.5)``,
    as the parameter vector ``(cx, cy, cz, log l, log w, log h, yaw)``.

    With points and NLCs centred, the bird's-eye part is linear:
    ``M = R(yaw) diag(l, w)`` solves the 2x2 normal equations of ``(p_x, p_y)``
    on ``(n_x, n_y)``, and ``h`` is the slope of ``p_z`` on ``n_z``.  ``l`` and
    ``w`` are the column norms of ``M``, and ``yaw`` is the mean angle of its
    columns, the second turned back by 90 degrees.  The fit is exact on
    noise-free input with non-collinear ``(n_x, n_y)`` and two distinct
    ``n_z``.  A ridge of 1e-15 of the moments' trace keeps singular input
    (collinear or constant NLCs, all points at one place) finite, with the
    unobservable part of ``M`` or ``h`` near 0; dimensions are floored at 0.1,
    and a start that is not finite raises InvalidValue, as a Box3D would.
    """
    # the column means as np.mean computes them: the column sums over the count
    p_mean, n_mean = np.add.reduce(pts) / len(pts), np.add.reduce(nlcs) / len(nlcs)
    p, n = pts - p_mean, nlcs - n_mean
    # moments S = n^T n and C = n^T p, scaled by S's trace so no product overflows
    (sxx, sxy, _), (_, syy, _), (_, _, szz) = (n.T @ n).tolist()
    (cxx, cxy, _), (cyx, cyy, _), (_, _, czz) = (n.T @ p).tolist()
    k = 1.0 / max(sxx + syy + szz, _TINY)
    sxx, sxy, syy, szz = sxx * k + _RIDGE, sxy * k, syy * k + _RIDGE, szz * k + _RIDGE
    cxx, cxy, cyx, cyy, czz = cxx * k, cxy * k, cyx * k, cyy * k, czz * k
    # M^T = S^-1 C on the xy block; the floor is the ridged determinant of
    # collinear (n_x, n_y), which rounding could otherwise drive to 0 or below
    det = max(sxx * syy - sxy * sxy, _RIDGE * (sxx + syy))
    m00, m10 = (syy * cxx - sxy * cyx) / det, (syy * cxy - sxy * cyy) / det
    m01, m11 = (sxx * cyx - sxy * cxx) / det, (sxx * cyy - sxy * cxy) / det
    h = czz / szz
    # mean direction of the two columns, the second turned back by 90 degrees
    l, w = math.hypot(m00, m10), math.hypot(m01, m11)
    ul, uw = max(l, _TINY), max(w, _TINY)
    theta = math.atan2(m10 / ul - m01 / uw, m00 / ul + m11 / uw)
    (ox, oy, oz), (px, py, pz) = (n_mean - 0.5).tolist(), p_mean.tolist()
    center = [px - (m00 * ox + m01 * oy), py - (m10 * ox + m11 * oy), pz - h * oz]
    log_dims = np.log([max(l, 0.1), max(w, 0.1), max(abs(h), 0.1)]).tolist()
    q = [*center, *log_dims, normalize_angle(theta)]
    if not all(map(math.isfinite, q)):
        raise InvalidValue("the closed-form start must be finite")
    return np.array(q)


def solve_box(correspondences: np.ndarray, init: Box3D | None = None) -> SolveReport:
    """Least-squares fit of a 7-DOF box to (point, NLC) correspondences.

    ``correspondences`` is (N, 6): LiDAR xyz followed by the NLC triple.
    Minimizes the summed squared NLC residual by Levenberg-Marquardt with an
    analytic Jacobian, starting from ``init`` or, without it, from the
    closed-form least-squares fit of the box model (``_start``);
    dimensions stay positive through a log parameterization.  Accepted steps
    never increase the residual.  The fit stops after 100 iterations, or as
    converged once an accepted step lowers the RMS residual by less than 1e-10.
    Fewer than 3 correspondences raise Underdetermined; a value that is NaN,
    infinite or beyond +-``geometry.MAX_ABS_VALUE`` raises InvalidValue.
    """
    corrs = _correspondences(correspondences, 3)
    # canonical input order: the result is invariant to relabeling
    order = np.lexsort(corrs.T[::-1])  # column 0 first, column 5 last
    pts, nlcs = corrs[order, :3], corrs[order, 3:]

    q = _params_from_box(init) if init is not None else _start(pts, nlcs)
    _clip_log_dims(q)
    # every trial writes its parameters into q_new and its residuals into the
    # fit's arrays; every accepted step writes its Jacobian there and swaps q
    fit, q_new = _Fit(pts, nlcs), np.empty(7)
    res = fit.residuals(q)
    fit.jacobian()
    cost = float(res @ res)
    # the normal equations of the last accepted step: a rejected step damps a copy
    fit.normal_equations()
    lam = _LM_DAMPING_INIT
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        try:
            step = fit.step(lam)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        _clip_log_dims(np.add(q, step, out=q_new))
        res = fit.residuals(q_new)
        cost_new = float(res @ res)
        if cost_new <= cost:
            rms_old = math.sqrt(cost / len(res))
            rms_new = math.sqrt(cost_new / len(res))
            q, q_new, cost = q_new, q, cost_new
            fit.jacobian()
            lam *= 0.5
            if rms_old - rms_new < _TOL:
                converged = True
                break
            fit.normal_equations()
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    condition, rank = _observability(fit.jac)
    return SolveReport(
        box=_box_from_params(q),
        rms_residual=math.sqrt(cost / len(res)),
        iterations=iterations,
        condition_estimate=condition,
        converged=converged and rank == 7,
        degenerate=rank < 7,
    )


def dof_analysis(correspondences: np.ndarray, at: Box3D) -> dict:
    """Observability audit: equation count and the rank of the Jacobian at
    ``at``, the count of singular values within a factor 1e8 of sigma_max (the
    rule by which :func:`solve_box` calls a fit degenerate).  At least one
    correspondence is needed; values are checked as in :func:`solve_box`."""
    corrs = _correspondences(correspondences, 1)
    fit = _Fit(corrs[:, :3], corrs[:, 3:])
    fit.residuals(_params_from_box(at))
    _, rank = _observability(fit.jacobian())
    return {"equations": 3 * len(corrs), "unknowns": 7, "jacobian_rank": rank}
