"""Finite-difference verification of every analytic backward pass.

Central differences in double precision; fusion-block instances are resampled
until all pre-activations sit safely away from the ReLU kink.
"""

from __future__ import annotations

import numpy as np

from .losses import center_loss, cross_entropy, nlc_loss
from .pipeline import SceneParams, ToyModel, TrainConfig, backward, compute_losses, forward, generate_scene
from .propagation import (
    DenseLayer,
    FusionCache,
    ProjectionPlan,
    fuse_i2p,
    fuse_i2p_backward,
    fuse_p2i,
    fuse_p2i_backward,
)

__all__ = [
    "check_point_to_pixel",
    "check_pixel_to_point",
    "check_adjoint_point_to_pixel",
    "check_adjoint_pixel_to_point",
    "check_fuse_p2i",
    "check_fuse_i2p",
    "check_losses",
    "check_full_model",
    "run_all",
]

_EPS = 1e-6


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def _random_instance(rng, n=7, c=3, h=5, w=6):
    """Point features and the plan over their coordinates, some outside the grid."""
    feats = rng.normal(size=(n, c))
    coords = np.column_stack(
        [rng.uniform(-1.5, w + 1.5, size=n), rng.uniform(-1.5, h + 1.5, size=n)]
    )
    return feats, ProjectionPlan(coords, h, w)


def _fd_grad(f, x: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Central differences of <f(x), cotangent> w.r.t. every entry of x."""
    fd = np.zeros_like(x)
    for i in range(x.size):
        for sign in (1.0, -1.0):
            pert = x.copy()
            pert.flat[i] += sign * _EPS
            fd.flat[i] += sign * float(np.sum(f(pert) * cotangent))
    return fd / (2 * _EPS)


def check_point_to_pixel(rng: np.random.Generator) -> float:
    """FD check of the scatter-average backward w.r.t. point features."""
    feats, plan = _random_instance(rng)
    cotangent = rng.normal(size=(feats.shape[1], plan.height, plan.width))
    analytic = plan.scatter_grad(cotangent)
    return _rel_err(analytic, _fd_grad(plan.scatter, feats, cotangent))


def check_pixel_to_point(rng: np.random.Generator) -> float:
    """FD check of the bilinear-gather backward w.r.t. grid features."""
    feats, plan = _random_instance(rng)
    grid = rng.normal(size=(feats.shape[1], plan.height, plan.width))
    cotangent = rng.normal(size=(plan.count, grid.shape[0]))
    analytic = plan.gather_grad(cotangent)
    return _rel_err(analytic, _fd_grad(plan.gather, grid, cotangent))


def check_adjoint_point_to_pixel(rng: np.random.Generator) -> float:
    """<scatter(g), t> must equal <g, scatter_backward(t)> (transpose identity)."""
    feats, plan = _random_instance(rng)
    t = rng.normal(size=(feats.shape[1], plan.height, plan.width))
    lhs = float(np.sum(plan.scatter(feats) * t))
    rhs = float(np.sum(feats * plan.scatter_grad(t)))
    return abs(lhs - rhs)


def check_adjoint_pixel_to_point(rng: np.random.Generator) -> float:
    feats, plan = _random_instance(rng)
    grid = rng.normal(size=(feats.shape[1], plan.height, plan.width))
    t = rng.normal(size=(plan.count, grid.shape[0]))
    lhs = float(np.sum(plan.gather(grid) * t))
    rhs = float(np.sum(grid * plan.gather_grad(t)))
    return abs(lhs - rhs)


def _random_fuse_layers(rng, c_aux, c_mid, c_main, c_out):
    l1 = DenseLayer(
        weights=rng.normal(size=(c_mid, c_aux)), bias=rng.normal(size=c_mid)
    )
    l2 = DenseLayer(
        weights=rng.normal(size=(c_out, c_mid + c_main)), bias=rng.normal(size=c_out)
    )
    return l1, l2


def _kink_safe(cache: FusionCache, threshold=1e-4):
    return min(np.abs(cache.pre1).min(), np.abs(cache.pre2).min()) > threshold


def _check_fuse(rng, forward_fn, backward_fn, aux_shape, main_shape) -> float:
    """FD check of a fusion block w.r.t. its two inputs and both layers."""
    for _ in range(50):
        c_aux, c_mid, c_main, c_out = 3, 4, 3, 4
        aux = rng.normal(size=aux_shape)
        main = rng.normal(size=main_shape)
        layers = _random_fuse_layers(rng, c_aux, c_mid, c_main, c_out)
        out, cache = forward_fn(aux, main, layers)
        if not _kink_safe(cache):
            continue
        cot = rng.normal(size=out.shape)
        d_aux, d_main, (g1, g2) = backward_fn(cot, cache)
        blocks = [aux, main, layers[0].weights, layers[0].bias, layers[1].weights, layers[1].bias]
        ends = np.cumsum([b.size for b in blocks])[:-1]

        def fused(flat):
            a, m, w1, b1, w2, b2 = (
                part.reshape(b.shape) for part, b in zip(np.split(flat, ends), blocks)
            )
            return forward_fn(a, m, (DenseLayer(w1, b1), DenseLayer(w2, b2)))[0]

        flat = np.concatenate([b.ravel() for b in blocks])
        analytic = np.concatenate(
            [g.ravel() for g in (d_aux, d_main, g1.weights, g1.bias, g2.weights, g2.bias)]
        )
        return _rel_err(analytic, _fd_grad(fused, flat, cot))
    raise RuntimeError("could not sample a kink-safe fusion instance")


def check_fuse_p2i(rng: np.random.Generator) -> float:
    return _check_fuse(rng, fuse_p2i, fuse_p2i_backward, (3, 3, 4), (3, 3, 4))


def check_fuse_i2p(rng: np.random.Generator) -> float:
    return _check_fuse(rng, fuse_i2p, fuse_i2p_backward, (10, 3), (10, 3))


def check_losses(rng: np.random.Generator) -> float:
    """FD check of the coordinate-loss and cross-entropy gradients."""
    n = 12
    worst = 0.0

    fg = rng.random(n) < 0.6
    fg[0] = True
    delta = 0.7
    for loss_fn in (nlc_loss, center_loss):
        pred = rng.normal(size=(n, 3))
        target = rng.normal(size=(n, 3))
        # keep residuals off the Huber C1 seam for clean differences
        diff = pred - target
        seam = np.abs(np.abs(diff) - delta) < 1e-3
        pred[seam] += 5e-3
        _, grad = loss_fn(pred, target, fg, delta)
        fd = _fd_grad(lambda p: loss_fn(p, target, fg, delta)[0], pred, 1.0)
        worst = max(worst, _rel_err(grad, fd))

    logits = rng.normal(size=(n, 4))
    labels = rng.integers(0, 4, size=n)
    _, grad = cross_entropy(logits, labels)
    fd = _fd_grad(lambda x: cross_entropy(x, labels)[0], logits, 1.0)
    return max(worst, _rel_err(grad, fd))


def _min_preactivation(cache) -> float:
    vals = []
    for st in cache["stages"]:
        pres = [st.pre_points, st.pre_image]
        for fusion in (st.i2p, st.p2i):
            if fusion is not None:
                pres += [fusion.pre1, fusion.pre2]
        vals += [np.abs(p).min() for p in pres if p is not None]
    return min(vals) if vals else np.inf


def check_full_model(rng: np.random.Generator, directions: int = 5) -> float:
    """Directional FD check of the end-to-end toy-model loss gradient."""
    scene = generate_scene(
        int(rng.integers(1 << 31)),
        SceneParams(max_boxes=1, min_points_per_box=20, max_points_per_box=30,
                    background_points=20, image_height=6, image_width=8),
    )
    config = TrainConfig(point_channels=4, image_channels=4)
    # resample until every pre-activation is clear of the ReLU kink
    for _ in range(50):
        model = ToyModel.init(int(rng.integers(1 << 31)), c_point=4, c_image=4)
        # zero-initialized biases would pin empty-pixel pre-activations to the
        # ReLU kink; randomize them for the check
        for layer in model.layers.values():
            layer.bias = rng.normal(0.0, 0.3, size=layer.bias.shape)
        _, probe_cache = forward(model, scene, config)
        if _min_preactivation(probe_cache) > 1e-4:
            break
    else:
        raise RuntimeError("could not sample a kink-safe model instance")

    def loss_at(vec):
        model.unpack(vec)
        outputs, _ = forward(model, scene, config)
        losses, _ = compute_losses(outputs, scene, config)
        return losses["total"]

    base = model.pack()
    outputs, cache = forward(model, scene, config)
    _, head_grads = compute_losses(outputs, scene, config)
    grads = backward(model, scene, config, cache, head_grads)
    flat_model = ToyModel(layers=grads)
    grad_vec = flat_model.pack()

    worst = 0.0
    for _ in range(directions):
        d = rng.normal(size=base.size)
        d /= np.linalg.norm(d)
        step = 1e-6
        f_plus = loss_at(base + step * d)
        f_minus = loss_at(base - step * d)
        fd = (f_plus - f_minus) / (2 * step)
        analytic = float(grad_vec @ d)
        worst = max(
            worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-10)
        )
    model.unpack(base)
    return worst


def run_all(trials: int, seed: int, perturb: bool = False) -> dict[str, float]:
    """Run every operator check ``trials`` times; returns max error per check.

    ``perturb`` deliberately corrupts one backward result (negative control
    for the verification harness itself).
    """
    rng = np.random.default_rng(seed)
    results = {}
    checks = {
        "point_to_pixel": check_point_to_pixel,
        "pixel_to_point": check_pixel_to_point,
        "adjoint_point_to_pixel": check_adjoint_point_to_pixel,
        "adjoint_pixel_to_point": check_adjoint_pixel_to_point,
        "fuse_p2i": check_fuse_p2i,
        "fuse_i2p": check_fuse_i2p,
        "losses": check_losses,
    }
    for name, fn in checks.items():
        results[name] = max(fn(rng) for _ in range(trials))
    results["full_model"] = max(
        check_full_model(rng) for _ in range(max(1, trials // 20))
    )
    if perturb:
        results["point_to_pixel"] += 1.0
    return results


THRESHOLDS = {
    "point_to_pixel": 1e-6,
    "pixel_to_point": 1e-6,
    "adjoint_point_to_pixel": 1e-10,
    "adjoint_pixel_to_point": 1e-10,
    "fuse_p2i": 1e-6,
    "fuse_i2p": 1e-6,
    "losses": 1e-6,
    "full_model": 1e-5,
}
