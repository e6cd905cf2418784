"""Recovery of a 7-DOF box from (global point, NLC) correspondences.

Each correspondence contributes three scalar residuals, so three generic
points already give nine equations for the seven unknowns; use
:func:`dof_analysis` to audit observability of a particular configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import Underdetermined
from .geometry import Box3D, _require_bounded, rot_z

__all__ = ["SolveReport", "solve_box", "dof_analysis"]

# Levenberg-Marquardt: iteration cap, RMS-decrease convergence test, initial damping
_MAX_ITERATIONS = 100
_TOL = 1e-10
_LM_DAMPING_INIT = 1e-3
_MAX_CONDITION = 1e8  # see _observability
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
    """``correspondences`` as a float (N, 6) array; Underdetermined for fewer
    than ``floor`` rows, InvalidValue for an unbounded value (see solve_box)."""
    corrs = np.asarray(correspondences, dtype=float).reshape(-1, 6)
    if len(corrs) < floor:
        raise Underdetermined(f"need at least {floor} correspondences, got {len(corrs)}")
    _require_bounded(corrs, "correspondences")
    return corrs


def _observability(jac: np.ndarray) -> tuple[float, int]:
    """sigma_max / sigma_min of ``jac`` (inf when sigma_min is 0) and its rank:
    the count of singular values within ``_MAX_CONDITION`` of sigma_max."""
    sv = np.linalg.svd(jac, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = sv[0] / sv
    condition = float(ratios[-1]) if sv[-1] > 0 else np.inf
    return condition, int(np.count_nonzero(ratios <= _MAX_CONDITION))


def _params_from_box(b: Box3D) -> np.ndarray:
    return np.concatenate(
        [b.center, np.log([b.l, b.w, b.h]), [b.yaw]]
    )


def _box_from_params(q: np.ndarray) -> Box3D:
    l, w, h = (float(np.exp(v)) for v in q[3:6])
    return Box3D(center=q[:3], l=l, w=w, h=h, yaw=float(q[6]))


def _residuals(q: np.ndarray, pts: np.ndarray, nlcs: np.ndarray):
    """Stacked residuals r = nlc(p; box) - n, and the intermediate values
    :func:`_jacobian` needs.

    Parameters are (cx, cy, cz, log l, log w, log h, yaw).
    """
    dims = np.exp(q[3:6])
    rot = rot_z(q[6])
    d = pts - q[:3]  # (N, 3)
    local = d @ rot  # R^T d
    n = local / dims + 0.5
    return (n - nlcs).ravel(), (rot, dims, d, n)


def _jacobian(parts) -> np.ndarray:
    """The analytic (3N, 7) Jacobian of :func:`_residuals` at the same q."""
    rot, dims, d, n = parts
    npts = len(d)
    jac = np.zeros((npts, 3, 7))
    # d n / d c = -(1/dims) * R^T
    jac[:, :, :3] = -(rot.T / dims[:, None])[None, :, :]
    # d n_k / d log(dim_k) = -(n_k - 0.5)
    jac.reshape(npts, 21)[:, 3::8] = -(n - 0.5)
    # d local / d theta = (dR/dtheta)^T d
    ct, st = rot[0, 0], rot[1, 0]
    jac[:, 0, 6] = (-st * d[:, 0] + ct * d[:, 1]) / dims[0]
    jac[:, 1, 6] = (-ct * d[:, 0] - st * d[:, 1]) / dims[1]
    return jac.reshape(3 * npts, 7)


def _default_init(pts: np.ndarray, nlcs: np.ndarray) -> Box3D:
    """Closed-form least-squares fit of ``p = c + R(yaw) diag(l, w, h) (n - 0.5)``.

    With points and NLCs centred, the bird's-eye part is linear:
    ``M = R(yaw) diag(l, w)`` solves the 2x2 normal equations of ``(p_x, p_y)``
    on ``(n_x, n_y)``, and ``h`` is the slope of ``p_z`` on ``n_z``.  ``l`` and
    ``w`` are the column norms of ``M``, and ``yaw`` is the mean angle of its
    columns, the second turned back by 90 degrees.  The fit is exact on
    noise-free input with non-collinear ``(n_x, n_y)`` and two distinct
    ``n_z``.  A ridge of 1e-15 of the moments' trace keeps singular input
    (collinear or constant NLCs, all points at one place) finite, with the
    unobservable part of ``M`` or ``h`` near 0; dimensions are floored at 0.1.
    """
    p_mean, n_mean = pts.mean(axis=0), nlcs.mean(axis=0)
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
    offset = n_mean - 0.5
    center = p_mean - [
        m00 * offset[0] + m01 * offset[1], m10 * offset[0] + m11 * offset[1], h * offset[2],
    ]
    return Box3D(center=center, l=max(l, 0.1), w=max(w, 0.1), h=max(abs(h), 0.1), yaw=theta)


def solve_box(correspondences: np.ndarray, init: Box3D | None = None) -> SolveReport:
    """Least-squares fit of a 7-DOF box to (point, NLC) correspondences.

    ``correspondences`` is (N, 6): LiDAR xyz followed by the NLC triple.
    Minimizes the summed squared NLC residual by Levenberg-Marquardt with an
    analytic Jacobian, starting from ``init`` or, without it, from the
    closed-form least-squares fit of the box model (``_default_init``);
    dimensions stay positive through a log parameterization.  Accepted steps
    never increase the residual.  The fit stops after 100 iterations, or as
    converged once an accepted step lowers the RMS residual by less than 1e-10.
    Fewer than 3 correspondences raise Underdetermined; a value that is NaN,
    infinite or beyond +-``geometry.MAX_ABS_VALUE`` raises InvalidValue.
    """
    corrs = _correspondences(correspondences, 3)
    # canonical input order: the result is invariant to relabeling
    order = np.lexsort(tuple(corrs[:, k] for k in range(5, -1, -1)))
    corrs = corrs[order]
    pts, nlcs = corrs[:, :3], corrs[:, 3:]

    q = _params_from_box(init if init is not None else _default_init(pts, nlcs))
    res, parts = _residuals(q, pts, nlcs)
    jac = _jacobian(parts)
    cost = float(res @ res)
    lam = _LM_DAMPING_INIT
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ res
        # Marquardt scaling, floored so unobservable parameters stay damped
        diag = jtj.diagonal()
        scale = diag + 1e-12 * max(diag.max(), 1.0)
        jtj.ravel()[::8] += lam * scale  # damp the diagonal in place
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        q_new = q + step
        # keep dimensions representable; beyond this range the fit is hopeless
        log_dims = q_new[3:6]
        np.maximum(log_dims, -30.0, out=log_dims)
        np.minimum(log_dims, 30.0, out=log_dims)
        res_new, parts = _residuals(q_new, pts, nlcs)
        cost_new = float(res_new @ res_new)
        if cost_new <= cost:
            rms_old = np.sqrt(cost / len(res))
            rms_new = np.sqrt(cost_new / len(res))
            q, res, jac, cost = q_new, res_new, _jacobian(parts), cost_new
            lam *= 0.5
            if rms_old - rms_new < _TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    condition, rank = _observability(jac)
    return SolveReport(
        box=_box_from_params(q),
        rms_residual=float(np.sqrt(cost / len(res))),
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
    _, parts = _residuals(_params_from_box(at), corrs[:, :3], corrs[:, 3:])
    _, rank = _observability(_jacobian(parts))
    return {"equations": 3 * len(corrs), "unknowns": 7, "jacobian_rank": rank}
