"""Synthetic scenes, a two-branch toy network with bidirectional propagation,
a deterministic training loop, and the fusion ablation experiment.

The network is deliberately tiny: two per-point stages, two pixel-wise image
stages, one bidirectional propagation block per stage, and four heads
(image-side NLC map and 2-class semantics, point-side 2-class semantics and
center offsets).  Both branches always run; the ablation's ``none`` row, with
no fusion, is the LiDAR-only control.  Everything runs in double precision with
hand-written backward passes so the whole model is finite-difference checkable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from .errors import InvalidValue, ShapeError
from .geometry import (
    Box3D, Calibration, _is_finite_real, _nearest_per_pixel, _require_integer, _to_box_frame,
    project_points,
)
from .layers import (
    DenseLayer, FusionCache, fuse_i2p, fuse_i2p_backward, fuse_p2i, fuse_p2i_backward, linear,
    linear_backward, param_grad, relu, relu_backward,
)
from .losses import LossWeights, center_loss, cross_entropy, nlc_loss, total_loss
from .nlc import NlcMap, build_gt_nlc_map, lidar_to_nlc, mmae, nlc_to_lidar, object_pixel_sets
from .propagation import ProjectionPlan, to_grid, to_rows

__all__ = [
    "SceneParams",
    "SyntheticScene",
    "TrainConfig",
    "ToyModel",
    "Workspace",
    "generate_scene",
    "forward",
    "train",
    "ablation",
    "parse_train_config",
]

# synthetic camera: LiDAR x-forward maps to the optical axis
_IMG_H, _IMG_W = 24, 32
_FOCAL = 30.0
_CAM_R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
_DEPTH_NORM = 50.0
_GROUND_Z = -1.7


def _require_at_least(config, lows) -> None:
    """Raise InvalidValue naming the first ``(field, low)`` of ``lows`` whose
    value in ``config`` is not an integer of at least ``low``."""
    for name, low in lows:
        _require_integer(getattr(config, name), low, name)


@dataclass(frozen=True)
class SceneParams:
    """Sizes of a synthetic scene; the image size also sets its camera."""

    max_boxes: int = 4
    min_points_per_box: int = 50
    max_points_per_box: int = 500
    background_points: int = 300
    image_height: int = _IMG_H
    image_width: int = _IMG_W

    def __post_init__(self):
        _require_at_least(self, (("max_boxes", 1), ("min_points_per_box", 0),
                                 ("max_points_per_box", self.min_points_per_box),
                                 ("background_points", 0), ("image_height", 1), ("image_width", 1)))


def default_calibration(params: SceneParams = SceneParams()) -> Calibration:
    """The camera of scenes drawn with ``params``, centred on their image."""
    w, h = params.image_width, params.image_height
    K = np.array([[_FOCAL, 0.0, w / 2.0], [0.0, _FOCAL, h / 2.0], [0.0, 0.0, 1.0]])
    return Calibration(K=K, R=_CAM_R, T=np.zeros(3))


@dataclass
class SyntheticScene:
    points: np.ndarray  # (N, 4) xyz + reflectance
    boxes: list[Box3D]
    calib: Calibration
    coords: np.ndarray  # (N, 2) projected (u, v)
    image: np.ndarray  # (2, H, W): normalized depth, foreground indicator
    gt_nlc_map: NlcMap
    object_ids: np.ndarray  # (H, W) claiming box per pixel, -1 otherwise
    fg_mask: np.ndarray  # (N,) bool
    point_owner: np.ndarray  # (N,) containing box index, -1 for background
    gt_nlc_points: np.ndarray  # (N, 3), zeros for background
    gt_centers: np.ndarray  # (N, 3) offsets to owning box center, zeros for bg

    @cached_property
    def point_inputs(self) -> np.ndarray:
        """Normalized per-point network input: scaled xyz plus reflectance,
        computed once."""
        p = self.points
        return np.column_stack(
            [p[:, 0] / 70.0, p[:, 1] / 40.0, (p[:, 2] + 1.0) / 2.0, p[:, 3]]
        )

    @cached_property
    def plan(self) -> ProjectionPlan:
        """Scatter/gather operators over ``coords`` and the image grid."""
        return ProjectionPlan(self.coords, *self.image.shape[1:])


def _sample_boxes(rng: np.random.Generator, params: SceneParams) -> list[Box3D]:
    n_boxes = int(rng.integers(1, params.max_boxes + 1))
    boxes: list[Box3D] = []
    attempts = 0
    while len(boxes) < n_boxes and attempts < 200:
        attempts += 1
        x = rng.uniform(10.0, 40.0)
        half_width = x * (params.image_width / 2.0 - 3.0) / _FOCAL
        y = rng.uniform(-0.6, 0.6) * half_width
        h = rng.uniform(1.3, 1.8)
        # objects stand on a common ground plane, as road scenes do
        box = Box3D(
            center=np.array([x, y, _GROUND_Z + h / 2.0]),
            l=rng.uniform(3.0, 4.5),
            w=rng.uniform(1.5, 2.0),
            h=h,
            yaw=rng.uniform(-np.pi, np.pi),
        )
        diag = np.hypot(box.l, box.w)
        ok = True
        for other in boxes:
            if np.linalg.norm((box.center - other.center)[:2]) < (
                diag + np.hypot(other.l, other.w)
            ) / 2.0 + 0.5:
                ok = False
                break
        if ok:
            boxes.append(box)
    return boxes


def _sample_surface_points(
    rng: np.random.Generator, box: Box3D, count: int
) -> np.ndarray:
    """Points just inside the box surface, mimicking a LiDAR sweep of a shell."""
    nlc = rng.uniform(0.03, 0.97, size=(count, 3))
    axis = rng.integers(0, 3, size=count)
    side = rng.integers(0, 2, size=count)
    nlc[np.arange(count), axis] = np.where(side == 0, 0.03, 0.97)
    return nlc_to_lidar(nlc, box)


def generate_scene(seed: int, params: SceneParams = SceneParams()) -> SyntheticScene:
    """Deterministically generate one synthetic scene with exact ground truth."""
    rng = np.random.default_rng(seed)
    calib = default_calibration(params)
    h, w = params.image_height, params.image_width
    boxes = _sample_boxes(rng, params)

    xyz_parts, owner_parts = [], []
    for bi, box in enumerate(boxes):
        count = int(
            rng.integers(params.min_points_per_box, params.max_points_per_box + 1)
        )
        xyz_parts.append(_sample_surface_points(rng, box, count))
        owner_parts.append(np.full(count, bi))

    # background clutter, rejected from box interiors
    bg = np.empty((0, 3))
    while len(bg) < params.background_points:
        need = params.background_points - len(bg)
        x = rng.uniform(5.0, 60.0, size=need)
        y = rng.uniform(-0.9, 0.9, size=need) * x * (params.image_width / 2.0 - 1.0) / _FOCAL
        z = rng.uniform(-2.5, 0.8, size=need)
        cand = np.column_stack([x, y, z])
        keep = np.full(need, True)
        for box in boxes:
            keep &= np.max(np.abs(_to_box_frame(cand, box) - 0.5), axis=1) > 0.55
        bg = np.vstack([bg, cand[keep]])
    bg = bg[: params.background_points]

    xyz = np.vstack(xyz_parts + [bg])
    owner = np.concatenate(owner_parts + [np.full(len(bg), -1)])
    reflectance = rng.uniform(0.0, 1.0, size=len(xyz))
    points = np.column_stack([xyz, reflectance])

    fg_mask = owner >= 0
    gt_nlc_points = np.zeros((len(xyz), 3))
    gt_centers = np.zeros((len(xyz), 3))
    for bi, box in enumerate(boxes):
        sel = owner == bi
        gt_nlc_points[sel] = lidar_to_nlc(xyz[sel], box)
        gt_centers[sel] = box.center - xyz[sel]

    u, v, d = project_points(xyz, calib)
    coords = np.column_stack([u, v])
    gt_map, obj_ids = build_gt_nlc_map(points, boxes, calib, h, w)

    depth_plane = np.zeros(h * w)
    nearest, cells = _nearest_per_pixel(xyz, u, v, d, h, w)
    depth_plane[cells] = d[nearest] / _DEPTH_NORM
    image = np.stack(
        [depth_plane.reshape(h, w), gt_map.mask.astype(float)], axis=0
    )

    return SyntheticScene(
        points=points,
        boxes=boxes,
        calib=calib,
        coords=coords,
        image=image,
        gt_nlc_map=gt_map,
        object_ids=obj_ids,
        fg_mask=fg_mask,
        point_owner=owner,
        gt_nlc_points=gt_nlc_points,
        gt_centers=gt_centers,
    )


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 200
    learning_rate: float = 0.05
    huber_delta: float = 1.0
    weights: LossWeights = field(default_factory=LossWeights)
    enable_p2i: bool = True
    enable_i2p: bool = True
    train_scenes: int = 50
    val_scenes: int = 20
    data_seed: int = 1234
    point_channels: int = 16
    image_channels: int = 16

    def __post_init__(self):
        _require_at_least(self, (("seed", 0), ("data_seed", 0), ("epochs", 0), ("train_scenes", 1),
                                 ("val_scenes", 1), ("point_channels", 1), ("image_channels", 1)))
        if not (_is_finite_real(self.huber_delta) and self.huber_delta > 0):
            raise InvalidValue(f"huber_delta must be a positive number, got {self.huber_delta}")
        if not (_is_finite_real(self.learning_rate) and self.learning_rate >= 0):
            raise InvalidValue(f"learning_rate must be a finite number >= 0, got {self.learning_rate}")


# each TrainConfig field by the type of its default, and the loss weights
_CONFIG_KEYS = {
    **{f.name: type(f.default) for f in fields(TrainConfig) if f.name != "weights"},
    **{f"lambda_{f.name}": float for f in fields(LossWeights)},
}


def parse_train_config(text: str) -> TrainConfig:
    """Parse a flat ``key = value`` configuration file."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"config line {line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise InvalidValue(f"config line {line_no}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind is bool:
            if val.lower() not in ("true", "false"):
                raise InvalidValue(f"config line {line_no}: {key} must be true/false")
            values[key] = val.lower() == "true"
        else:
            try:
                values[key] = kind(val)
            except ValueError:
                raise InvalidValue(f"config line {line_no}: {key} must be {kind.__name__}") from None
    weights = LossWeights(**{
        key[len("lambda_"):]: values.pop(key) for key in list(values) if key.startswith("lambda_")
    })
    return TrainConfig(weights=weights, **values)


def _layer_shapes(cp: int, ci: int) -> dict[str, tuple[str, int, int]]:
    """Branch fed and (in, out) channels of every layer, in packing order; the
    loss that ``LossWeights.<c>`` weights trains the layer ``head_<c>``."""
    return {
        "point1": ("point", 4, cp),
        "point2": ("point", cp, cp),
        "image1": ("image", 2, ci),
        "image2": ("image", ci, ci),
        "i2p1a": ("point", ci, cp),
        "i2p1b": ("point", 2 * cp, cp),
        "i2p2a": ("point", ci, cp),
        "i2p2b": ("point", 2 * cp, cp),
        "p2i1a": ("image", cp, ci),
        "p2i1b": ("image", 2 * ci, ci),
        "p2i2a": ("image", cp, ci),
        "p2i2b": ("image", 2 * ci, ci),
        "head_nlc": ("image", ci, 3),
        "head_sem2d": ("image", ci, 2),
        "head_sem3d": ("point", cp, 2),
        "head_ctr": ("point", cp, 3),
    }


_LAYERS = _layer_shapes(1, 1)  # the names and branches do not depend on the widths
POINT_BRANCH_LAYERS = tuple(n for n, (branch, _, _) in _LAYERS.items() if branch == "point")
IMAGE_BRANCH_LAYERS = tuple(n for n, (branch, _, _) in _LAYERS.items() if branch == "image")
_HEADS = tuple(f.name for f in fields(LossWeights))
IMAGE_HEADS = tuple(c for c in _HEADS if _LAYERS[f"head_{c}"][0] == "image")


class ToyModel:
    """All layers of the two-branch toy network, keyed by name: views into the
    one float64 vector ``params`` (zeros when new), each layer's weights then
    bias in packing order, so updating ``params`` in place updates every layer.
    ``slices`` holds each layer's part of ``params``, in the same order.

    Each layer's weights are stored (in, out), the layout the dense products
    run fastest on; ``DenseLayer.weights`` is the (out, in) transposed view.
    """

    def __init__(self, c_point: int, c_image: int):
        shapes = _layer_shapes(c_point, c_image)
        self.c_point, self.c_image = c_point, c_image
        self.params = np.zeros(sum((i + 1) * o for _, i, o in shapes.values()))
        self.layers, self.slices, off = {}, {}, 0
        for name, (_, i, o) in shapes.items():
            part = self.slices[name] = slice(off, off + (i + 1) * o)
            packed = self.params[part]
            self.layers[name] = DenseLayer(packed[: o * i].reshape(i, o).T, packed[o * i :])
            off = part.stop

    @staticmethod
    def init(seed: int, c_point: int, c_image: int) -> "ToyModel":
        """He-normal weights drawn layer by layer in packing order, zero biases."""
        rng = np.random.default_rng(seed)
        model = ToyModel(c_point, c_image)
        for layer in model.layers.values():
            scale = np.sqrt(2.0 / layer.in_channels)
            layer.weights[...] = rng.normal(0.0, scale, size=layer.weights.shape)
        return model


# per stage: point layer, image layer, i2p fusion layers, p2i fusion layers
_STAGES = (
    ("point1", "image1", ("i2p1a", "i2p1b"), ("p2i1a", "p2i1b")),
    ("point2", "image2", ("i2p2a", "i2p2b"), ("p2i2a", "p2i2b")),
)


class Workspace:
    """Every array a training step writes, made once per run and reused by
    each step: the stage activations, the fusion caches, the ReLU masks, the
    head and backward gradients, and the gradient :class:`ToyModel`.

    Each array lives on one side: point-side arrays have a row per point of
    the largest of ``scenes``, image-side arrays a row per pixel of the largest
    image.  A step on a smaller scene takes leading rows, which are
    C-contiguous like a new array.  Arrays are made on first use, so the
    workspace holds only what its steps write; a scene larger than the
    workspace raises ShapeError.  ``scenes`` must be non-empty.
    """

    def __init__(self, scenes):
        if not scenes:
            raise InvalidValue("a workspace needs at least one scene")
        self.capacity = {
            "point": max(len(scene.points) for scene in scenes),
            "image": max(scene.image.shape[1] * scene.image.shape[2] for scene in scenes),
        }
        self._arrays: dict = {}
        self._grads: dict = {}

    def take(self, side: str, rows: int, prefix: str, name: str, cols: int, dtype=float) -> np.ndarray:
        """The leading ``rows`` rows of the (side capacity, ``cols``) array
        named ``prefix``/``name``; the same storage on every call."""
        key = (side, prefix, name, cols, dtype)
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.empty((self.capacity[side], cols), dtype)
        return array[:rows]

    def sides(self, scene: SyntheticScene):
        """``take`` bound to ``scene``'s point rows and to its pixel rows, each
        called as ``(prefix, name, cols[, dtype])``."""
        n, (h, w) = len(scene.points), scene.image.shape[1:]
        if n > self.capacity["point"] or h * w > self.capacity["image"]:
            raise ShapeError(
                f"scene of {n} points and {h * w} pixels for a workspace of "
                f"{self.capacity['point']} points and {self.capacity['image']} pixels"
            )
        return partial(self.take, "point", n), partial(self.take, "image", h * w)

    def gradients(self, model: ToyModel) -> ToyModel:
        """A model shaped like ``model`` with every parameter +0.0; the same
        one, zeroed again, on every call."""
        widths = (model.c_point, model.c_image)
        grads = self._grads.get(widths)
        if grads is None:
            grads = self._grads[widths] = ToyModel(*widths)
        else:
            grads.params.fill(0.0)
        return grads


@dataclass
class StageCache:
    """What one stage's backward needs from its forward; image entries are (H*W, C) rows."""

    points_in: np.ndarray
    pre_points: np.ndarray
    image_in: np.ndarray
    pre_image: np.ndarray
    i2p: FusionCache | None = None
    p2i: FusionCache | None = None


def forward(model: ToyModel, scene: SyntheticScene, config: TrainConfig,
            workspace: Workspace | None = None):
    """Run the toy network; returns (head outputs dict, cache for backward).

    Each stage applies the point and image dense layers, then fuses
    image-to-point (gather) and point-to-image (scatter) where enabled.

    The outputs and the cache are written into ``workspace``, and the next
    forward given it overwrites them; without one they are written into a
    fresh workspace sized to ``scene``, so the caller owns them.
    """
    ws = Workspace([scene]) if workspace is None else workspace
    at_points, at_pixels = ws.sides(scene)
    L = model.layers

    def dense(name, x, take):
        return linear(L[name], x, take(name, "out", L[name].out_channels))

    h, w = scene.image.shape[1:]
    plan = scene.plan
    g = scene.point_inputs
    f = to_rows(scene.image)
    stages = []
    for point, image, i2p, p2i in _STAGES:
        st = StageCache(points_in=g, pre_points=dense(point, g, at_points),
                        image_in=f, pre_image=dense(image, f, at_pixels))
        g = relu(st.pre_points, at_points(point, "relu", st.pre_points.shape[1]))
        f = relu(st.pre_image, at_pixels(image, "relu", st.pre_image.shape[1]))
        g_out = g
        if config.enable_i2p:
            gathered = plan.gather(to_grid(f, h, w))
            g_out, st.i2p = fuse_i2p(gathered, g, (L[i2p[0]], L[i2p[1]]), partial(at_points, i2p[0]))
        if config.enable_p2i:
            scattered = to_rows(plan.scatter(g))
            f, st.p2i = fuse_p2i(scattered, f, (L[p2i[0]], L[p2i[1]]), partial(at_pixels, p2i[0]))
        g = g_out
        stages.append(st)

    outputs = {
        "sem3d_logits": dense("head_sem3d", g, at_points),
        "ctr_pred": dense("head_ctr", g, at_points),
        "nlc_map": to_grid(dense("head_nlc", f, at_pixels), h, w),
        "sem2d_logits": dense("head_sem2d", f, at_pixels),
    }
    outputs["nlc_at_points"] = plan.gather(outputs["nlc_map"])
    return outputs, {"stages": stages, "point": g, "image": f}


def compute_losses(outputs: dict, scene: SyntheticScene, config: TrainConfig):
    """Each head's loss in ``LossWeights`` field order, then their weighted
    ``total``; and each head's gradient at its output."""
    fg, delta = scene.fg_mask, config.huber_delta
    terms = {
        "nlc": nlc_loss(outputs["nlc_at_points"], scene.gt_nlc_points, fg, delta),
        "sem2d": cross_entropy(outputs["sem2d_logits"], scene.gt_nlc_map.mask.ravel()),
        "sem3d": cross_entropy(outputs["sem3d_logits"], fg),
        "ctr": center_loss(outputs["ctr_pred"], scene.gt_centers, fg, delta),
    }
    losses = {c: loss for c, (loss, _) in terms.items()}
    losses["total"] = total_loss(losses, config.weights)
    return losses, {c: grad for c, (_, grad) in terms.items()}


def backward(
    model: ToyModel,
    scene: SyntheticScene,
    config: TrainConfig,
    cache: dict,
    head_grads: dict,
    workspace: Workspace | None = None,
):
    """Backpropagate the weighted sum of the losses whose gradients ``head_grads`` holds.

    Returns the parameter gradients as a model of the same shape, so a layer
    that got no gradient reads +0.0; each layer's gradient is written straight
    into it.  With a ``workspace`` (the one the forward of ``cache`` wrote
    into, or another) the model and every temporary are the workspace's, and
    the next backward given it zeroes and overwrites them; without one they
    are a fresh workspace's, so the caller owns the model.
    """
    ws = Workspace([scene]) if workspace is None else workspace
    at_points, at_pixels = ws.sides(scene)
    L = model.layers
    out = ws.gradients(model)
    grads = out.layers
    h, w = scene.image.shape[1:]
    plan = scene.plan
    take = {"point": partial(at_points, "backward"), "image": partial(at_pixels, "backward")}

    # heads: gradients w.r.t. the last stage's point and image outputs
    d = {branch: take[branch]("d", cache[branch].shape[1]) for branch in take}
    for d_branch in d.values():
        d_branch.fill(0.0)
    for comp, grad in head_grads.items():
        weight, head = getattr(config.weights, comp), f"head_{comp}"
        if weight == 0.0:
            continue
        branch = _LAYERS[head][0]
        # the NLC loss reads the map at the points: its gradient has point rows
        rows = take["point" if comp == "nlc" else branch]
        d_out = np.multiply(grad, weight, out=rows("head", grad.shape[1]))
        if comp == "nlc":
            d_out = to_rows(plan.gather_grad(d_out))
        d[branch] += linear_backward(L[head], cache[branch], d_out, grads[head],
                                     take[branch]("sum", d[branch].shape[1]))
    d_g, d_f = d["point"], d["image"]

    for i, (point, image, i2p, p2i) in reversed(list(enumerate(_STAGES))):
        st = cache["stages"][i]
        # fusion, back to the outputs of the stage's dense layers: each fusion
        # that ran replaces its own side and adds what it propagated to the other
        d_g_layer, d_f_layer = d_g, d_f
        if st.i2p is not None:
            d_gathered, d_g_layer = fuse_i2p_backward(d_g, st.i2p, (grads[i2p[0]], grads[i2p[1]]),
                                                      take["point"])
        if st.p2i is not None:
            d_scattered, d_f_layer = fuse_p2i_backward(d_f, st.p2i, (grads[p2i[0]], grads[p2i[1]]),
                                                       take["image"])
            d_g_layer = np.add(d_g_layer, plan.scatter_grad(to_grid(d_scattered, h, w)),
                               out=take["point"]("sum", d_g_layer.shape[1]))
        if st.i2p is not None:
            d_f_layer = np.add(d_f_layer, to_rows(plan.gather_grad(d_gathered)),
                               out=take["image"]("sum", d_f_layer.shape[1]))

        # the stage's dense layers, back to the stage inputs; nothing reads
        # the gradient of the network's own inputs, so stage one skips it
        d_pre_points = relu_backward(d_g_layer, st.pre_points, take["point"])
        d_pre_image = relu_backward(d_f_layer, st.pre_image, take["image"])
        if i == 0:
            param_grad(st.points_in, d_pre_points, grads[point])
            param_grad(st.image_in, d_pre_image, grads[image])
        else:
            d_g = linear_backward(L[point], st.points_in, d_pre_points, grads[point], d_g)
            d_f = linear_backward(L[image], st.image_in, d_pre_image, grads[image], d_f)
    return out


def _step(model: ToyModel, scene: SyntheticScene, config: TrainConfig, heads, workspace: Workspace):
    """``compute_losses`` on ``scene`` and the ``backward`` of the weighted
    sum of the ``heads`` losses alone, at the parameters as they are.

    The step writes into ``workspace``, so it allocates only the sparse
    products' results and the losses, and the next step given it overwrites
    the gradient model it returns.
    """
    outputs, cache = forward(model, scene, config, workspace)
    losses, head_grads = compute_losses(outputs, scene, config)
    return losses, backward(model, scene, config, cache, {c: head_grads[c] for c in heads}, workspace)


def _grad_norm(grads: ToyModel, names: tuple[str, ...]) -> float:
    """L2 norm of the named layers' parameters, read in packing order."""
    v = np.concatenate([grads.params[part] for name, part in grads.slices.items() if name in names])
    return float(np.sqrt(v @ v))


@dataclass
class TrainingReport:
    config: TrainConfig
    epochs: list[dict]
    final_val: dict
    parameter_count: int
    diverged: bool

    def to_dict(self) -> dict:
        return asdict(self)


def make_scenes(config: TrainConfig):
    train = [generate_scene(config.data_seed + i) for i in range(config.train_scenes)]
    val = [
        generate_scene(config.data_seed + 100_000 + i)
        for i in range(config.val_scenes)
    ]
    return train, val


def evaluate_model(model: ToyModel, scenes, config: TrainConfig,
                   workspace: Workspace | None = None) -> dict:
    """Mean per-component validation losses plus the NLC-map mMAE over a
    non-empty list of scenes; each forward writes into ``workspace``, or
    into one made for ``scenes``."""
    if not scenes:
        raise InvalidValue("need at least one scene to evaluate")
    ws = Workspace(scenes) if workspace is None else workspace
    per_scene, mmae_vals, skipped = [], [], 0
    for scene in scenes:
        outputs, _ = forward(model, scene, config, ws)
        per_scene.append(compute_losses(outputs, scene, config)[0])
        pix = object_pixel_sets(scene.object_ids, len(scene.boxes))
        pred = np.moveaxis(outputs["nlc_map"], 0, -1)
        (vals, skip) = mmae(scene.gt_nlc_map, pred, pix)
        mmae_vals.append(vals)
        skipped += skip
    out = {key: sum(losses[key] for losses in per_scene) / len(scenes) for key in per_scene[0]}
    mx, my, mz = np.mean(mmae_vals, axis=0)
    out["mmae"] = {"x": float(mx), "y": float(my), "z": float(mz), "skipped": skipped}
    return out


def _descend(model: ToyModel, train_scenes, config: TrainConfig,
             workspace: Workspace) -> tuple[list[dict], bool]:
    """Run ``train``'s epochs on ``model`` in place, every step in
    ``workspace``; returns the epoch log and whether a step's loss or
    gradient norm was not finite, which ends the run."""
    epochs_log = []
    for epoch in range(config.epochs):
        total = 0.0
        pn = inorm = 0.0
        for scene in train_scenes:
            losses, grads = _step(model, scene, config, _HEADS, workspace)
            total += losses["total"]
            pn += _grad_norm(grads, POINT_BRANCH_LAYERS) ** 2
            inorm += _grad_norm(grads, IMAGE_BRANCH_LAYERS) ** 2
            if not np.isfinite(total + pn + inorm):
                return epochs_log, True
            model.params -= config.learning_rate * grads.params
        # image-objective gradient reaching the point branch (telemetry)
        _, g_img = _step(model, train_scenes[0], config, IMAGE_HEADS, workspace)
        epochs_log.append(
            {
                "epoch": epoch,
                "train_total": total / len(train_scenes),
                "point_grad_norm": float(np.sqrt(pn)),
                "image_grad_norm": float(np.sqrt(inorm)),
                "image_to_point_grad_norm": _grad_norm(g_img, POINT_BRANCH_LAYERS),
            }
        )
    return epochs_log, False


def train(
    config: TrainConfig,
    train_scenes=None,
    val_scenes=None,
    workspace: Workspace | None = None,
) -> tuple[ToyModel, TrainingReport]:
    """Plain gradient descent over the synthetic scenes; fully deterministic.

    Per epoch, records the mean total loss and the L2 norms of the point- and
    image-branch parameter gradients, plus the norm of the point-branch
    gradient produced by image-branch objectives alone (measured on the
    first scene) to expose the gradient path through point-to-pixel scatter.
    A step whose loss or gradient norm is not finite ends the run as
    diverged, in its report and not in overflow warnings.
    Either scene list, when given, must be non-empty.

    Every step and the validation write into ``workspace``, which must hold
    the largest of the scenes, or into one made for both scene lists and
    freed when the run ends.
    """
    if train_scenes is None or val_scenes is None:
        generated_train, generated_val = make_scenes(config)
        train_scenes = generated_train if train_scenes is None else train_scenes
        val_scenes = generated_val if val_scenes is None else val_scenes
    if not train_scenes:
        raise InvalidValue("need at least one training scene")
    if not val_scenes:
        raise InvalidValue("need at least one validation scene")
    ws = Workspace([*train_scenes, *val_scenes]) if workspace is None else workspace
    model = ToyModel.init(
        config.seed, c_point=config.point_channels, c_image=config.image_channels
    )
    with np.errstate(over="ignore", invalid="ignore"):
        epochs_log, diverged = _descend(model, train_scenes, config, ws)
        final_val = evaluate_model(model, val_scenes, config, ws)
    report = TrainingReport(
        config=config,
        epochs=epochs_log,
        final_val=final_val,
        parameter_count=model.params.size,
        diverged=diverged,
    )
    return model, report


ABLATION_ROWS = {
    "none": {"enable_p2i": False, "enable_i2p": False},
    "p2i": {"enable_p2i": True, "enable_i2p": False},
    "i2p": {"enable_p2i": False, "enable_i2p": True},
    "both": {"enable_p2i": True, "enable_i2p": True},
}


def ablation(
    base_config: TrainConfig,
    seeds: tuple[int, ...],
    rows: tuple[str, ...] = tuple(ABLATION_ROWS),
) -> dict:
    """Run the fusion ablation on identical data across rows and seeds.

    The reported metric per run is the validation NLC loss plus center loss.
    Returns per-row per-seed metrics, row means, and final gradient telemetry.
    Every run is the ``train`` run of its row and seed on the shared scenes,
    and the call makes one workspace for those scenes and passes it to every
    run.
    """
    if len(seeds) < 2:
        raise InvalidValue("need at least 2 seeds per row")
    unknown = [row for row in rows if row not in ABLATION_ROWS]
    if unknown:
        raise InvalidValue(f"unknown ablation rows {unknown}; the rows are {list(ABLATION_ROWS)}")
    report: dict = {"rows": {}, "seeds": list(seeds)}
    train_scenes, val_scenes = make_scenes(base_config)
    workspace = Workspace([*train_scenes, *val_scenes])
    for row in rows:
        runs = []
        for seed in seeds:
            config = replace(base_config, seed=seed, **ABLATION_ROWS[row])
            _, run = train(config, train_scenes, val_scenes, workspace)
            fv = run.final_val
            runs.append({
                "seed": seed,
                "metric": fv["nlc"] + fv["ctr"],
                "val": fv,
                "diverged": run.diverged,
                "final_image_to_point_grad_norm": (
                    run.epochs[-1]["image_to_point_grad_norm"] if run.epochs else 0.0
                ),
            })
        report["rows"][row] = {
            "runs": runs,
            "mean_metric": float(np.mean([r["metric"] for r in runs])),
        }
    return report
