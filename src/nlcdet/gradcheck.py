"""Finite-difference verification of every analytic backward pass.

Central differences in double precision; fusion-block and model instances are
resampled until all pre-activations sit safely away from the ReLU kink.
"""

from __future__ import annotations

import numpy as np

from .losses import center_loss, cross_entropy, nlc_loss, total_loss
from .pipeline import (
    _HEADS, SceneParams, ToyModel, TrainConfig, Workspace, _step, compute_losses, forward,
    generate_scene,
)
from .propagation import (
    DenseLayer,
    ProjectionPlan,
    fuse_i2p,
    fuse_i2p_backward,
    fuse_p2i,
    fuse_p2i_backward,
)

__all__ = ["check_losses", "check_full_model", "run_all"]

_EPS = 1e-6
# least |pre-activation| at which a finite difference is taken clear of the ReLU kink
_KINK_GAP = 1e-4


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def _fd_grad(f, x: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Central differences of <f(x), cotangent> w.r.t. every entry of x."""
    fd = np.zeros_like(x)
    for i in range(x.size):
        for sign in (1.0, -1.0):
            pert = x.copy()
            pert.flat[i] += sign * _EPS
            fd.flat[i] += sign * float(np.sum(f(pert) * cotangent))
    return fd / (2 * _EPS)


def _kink_safe(pre_activations) -> bool:
    return min(np.abs(p).min() for p in pre_activations) > _KINK_GAP


def _random_operator(rng, op: str):
    """Input, forward, backward and output cotangent of the plan operator ``op``
    ("scatter" or "gather") on a random plan over 7 points, some outside a 5x6 grid."""
    n, c, h, w = 7, 3, 5, 6
    feats = rng.normal(size=(n, c))
    coords = np.column_stack(
        [rng.uniform(-1.5, w + 1.5, size=n), rng.uniform(-1.5, h + 1.5, size=n)]
    )
    plan = ProjectionPlan(coords, h, w)
    if op == "scatter":
        x, out_shape = feats, (c, h, w)
    else:
        x, out_shape = rng.normal(size=(c, h, w)), (plan.count, c)
    return x, getattr(plan, op), getattr(plan, op + "_grad"), rng.normal(size=out_shape)


def _check_plan_fd(rng, op: str) -> float:
    """FD check of a plan operator's backward w.r.t. its input."""
    x, forward_fn, backward_fn, cotangent = _random_operator(rng, op)
    return _rel_err(backward_fn(cotangent), _fd_grad(forward_fn, x, cotangent))


def _check_plan_adjoint(rng, op: str) -> float:
    """<op(x), t> must equal <x, op_grad(t)> (transpose identity)."""
    x, forward_fn, backward_fn, t = _random_operator(rng, op)
    return abs(float(np.sum(forward_fn(x) * t)) - float(np.sum(x * backward_fn(t))))


def _random_fuse_layers(rng, c_aux, c_mid, c_main, c_out):
    l1 = DenseLayer(
        weights=rng.normal(size=(c_mid, c_aux)), bias=rng.normal(size=c_mid)
    )
    l2 = DenseLayer(
        weights=rng.normal(size=(c_out, c_mid + c_main)), bias=rng.normal(size=c_out)
    )
    return l1, l2


def _check_fuse(rng, forward_fn, backward_fn, aux_shape, main_shape) -> float:
    """FD check of a fusion block w.r.t. its two inputs and both layers."""
    for _ in range(50):
        c_aux, c_mid, c_main, c_out = 3, 4, 3, 4
        aux = rng.normal(size=aux_shape)
        main = rng.normal(size=main_shape)
        layers = _random_fuse_layers(rng, c_aux, c_mid, c_main, c_out)
        out, cache = forward_fn(aux, main, layers)
        if not _kink_safe((cache.pre1, cache.pre2)):
            continue
        cot = rng.normal(size=out.shape)
        g1, g2 = (
            DenseLayer(np.empty_like(layer.weights), np.empty_like(layer.bias)) for layer in layers
        )
        d_aux, d_main = backward_fn(cot, cache, (g1, g2))
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


# small enough for finite differences; the camera follows the image size
_FULL_MODEL_SCENE = SceneParams(max_boxes=1, min_points_per_box=20, max_points_per_box=30,
                                background_points=20, image_height=6, image_width=8)


def check_full_model(rng: np.random.Generator) -> float:
    """Directional FD check of the end-to-end toy-model loss gradient along
    five random unit directions."""
    config = TrainConfig(point_channels=4, image_channels=4)
    return _check_model_gradient(rng, config, _HEADS)


def _check_model_gradient(rng: np.random.Generator, config: TrainConfig, heads: tuple[str, ...]) -> float:
    """``check_full_model``'s procedure for the weighted sum of the ``heads``
    losses, backpropagated from those heads' gradients alone."""
    scene = generate_scene(int(rng.integers(1 << 31)), _FULL_MODEL_SCENE)
    # resample until every pre-activation is clear of the ReLU kink
    for _ in range(50):
        model = ToyModel.init(int(rng.integers(1 << 31)), config.point_channels, config.image_channels)
        # zero-initialized biases would pin empty-pixel pre-activations to the
        # ReLU kink; randomize them for the check
        for layer in model.layers.values():
            layer.bias[...] = rng.normal(0.0, 0.3, size=layer.bias.shape)
        stages = forward(model, scene, config)[1]["stages"]
        fusions = [f for st in stages for f in (st.i2p, st.p2i) if f is not None]
        if _kink_safe([p for st in stages for p in (st.pre_points, st.pre_image)]
                      + [p for f in fusions for p in (f.pre1, f.pre2)]):
            break
    else:
        raise RuntimeError("could not sample a kink-safe model instance")

    def loss_at(vec):
        model.params[...] = vec
        outputs, _ = forward(model, scene, config)
        losses, _ = compute_losses(outputs, scene, config)
        return total_loss({c: losses[c] for c in heads}, config.weights)

    base = model.params.copy()
    grad_vec = _step(model, scene, config, heads, Workspace([scene]))[1].params

    worst = 0.0
    for _ in range(5):
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
    model.params[...] = base
    return worst


# name -> (check drawing one random instance, largest error that passes)
_CHECKS = {
    "point_to_pixel": (lambda rng: _check_plan_fd(rng, "scatter"), 1e-6),
    "pixel_to_point": (lambda rng: _check_plan_fd(rng, "gather"), 1e-6),
    "adjoint_point_to_pixel": (lambda rng: _check_plan_adjoint(rng, "scatter"), 1e-10),
    "adjoint_pixel_to_point": (lambda rng: _check_plan_adjoint(rng, "gather"), 1e-10),
    "fuse_p2i": (lambda rng: _check_fuse(rng, fuse_p2i, fuse_p2i_backward, (12, 3), (12, 3)), 1e-6),
    "fuse_i2p": (lambda rng: _check_fuse(rng, fuse_i2p, fuse_i2p_backward, (10, 3), (10, 3)), 1e-6),
    "losses": (check_losses, 1e-6),
    "full_model": (check_full_model, 1e-5),
}
THRESHOLDS = {name: threshold for name, (_, threshold) in _CHECKS.items()}


def run_all(trials: int, seed: int) -> dict[str, float]:
    """Run every check ``trials`` times, the full-model check ``trials // 20``
    times but at least once, all from one generator; returns the max error per check."""
    rng = np.random.default_rng(seed)
    results = {}
    for name, (check, _) in _CHECKS.items():
        runs = max(1, trials // 20) if name == "full_model" else trials
        results[name] = max(check(rng) for _ in range(runs))
    return results
