"""Synthetic scenes, a two-branch toy network with bidirectional propagation,
a deterministic training loop, and the fusion ablation experiment.

The network is deliberately tiny: two per-point stages, two pixel-wise image
stages, one bidirectional propagation block per stage, and four heads
(image-side NLC map and 2-class semantics, point-side 2-class semantics and
center offsets).  Everything runs in double precision with hand-written
backward passes so the whole model is finite-difference checkable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .geometry import Box3D, Calibration, _nearest_per_pixel, _to_box_frame, project_points
from .losses import LossWeights, center_loss, cross_entropy, nlc_loss
from .nlc import NlcMap, build_gt_nlc_map, lidar_to_nlc, mmae, nlc_to_lidar, object_pixel_sets
from .propagation import (
    DenseLayer,
    FusionCache,
    ProjectionPlan,
    _grid,
    _linear,
    _linear_backward,
    _relu,
    _rows,
    fuse_i2p,
    fuse_i2p_backward,
    fuse_p2i,
    fuse_p2i_backward,
)

__all__ = [
    "SceneParams",
    "SyntheticScene",
    "TrainConfig",
    "ToyModel",
    "generate_scene",
    "forward",
    "train",
    "ablation",
    "parse_train_config",
]

# fixed synthetic camera: LiDAR x-forward maps to optical axis
_IMG_H, _IMG_W = 24, 32
_FOCAL = 30.0
_CAM_R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
_DEPTH_NORM = 50.0
_GROUND_Z = -1.7


def default_calibration() -> Calibration:
    K = np.array(
        [[_FOCAL, 0.0, _IMG_W / 2.0], [0.0, _FOCAL, _IMG_H / 2.0], [0.0, 0.0, 1.0]]
    )
    return Calibration(K=K, R=_CAM_R, T=np.zeros(3))


@dataclass(frozen=True)
class SceneParams:
    max_boxes: int = 4
    min_points_per_box: int = 50
    max_points_per_box: int = 500
    background_points: int = 300
    image_height: int = _IMG_H
    image_width: int = _IMG_W


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
    sem2d_labels: np.ndarray  # (H*W,) 0/1
    sem3d_labels: np.ndarray  # (N,) 0/1

    @property
    def point_inputs(self) -> np.ndarray:
        """Normalized per-point network input: scaled xyz plus reflectance."""
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
        half_width = x * (_IMG_W / 2.0 - 3.0) / _FOCAL
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
    calib = default_calibration()
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
        y = rng.uniform(-0.9, 0.9, size=need) * x * (_IMG_W / 2.0 - 1.0) / _FOCAL
        z = rng.uniform(-2.5, 0.8, size=need)
        cand = np.column_stack([x, y, z])
        keep = np.ones(need, dtype=bool)
        for box in boxes:
            keep &= np.max(np.abs(_to_box_frame(cand, box) - 0.5), axis=1) > 0.55
        bg = np.vstack([bg, cand[keep]])
    bg = bg[: params.background_points]

    xyz = np.vstack(xyz_parts + [bg]) if xyz_parts else bg
    owner = np.concatenate(owner_parts + [np.full(len(bg), -1)]) if owner_parts else np.full(len(bg), -1)
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
    gt_map, obj_ids = build_gt_nlc_map(points, boxes, calib, h, w, return_object_ids=True)

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
        sem2d_labels=gt_map.mask.astype(int).ravel(),
        sem3d_labels=fg_mask.astype(int),
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
    point_only: bool = False


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
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind is bool:
            if val.lower() not in ("true", "false"):
                raise ValueError(f"config line {line_no}: {key} must be true/false")
            values[key] = val.lower() == "true"
        else:
            values[key] = kind(val)
    weights = LossWeights(**{
        key[len("lambda_"):]: values.pop(key) for key in list(values) if key.startswith("lambda_")
    })
    return TrainConfig(weights=weights, **values)


def _layer_shapes(cp: int, ci: int) -> dict[str, tuple[int, int]]:
    """(in, out) channels of every layer, in packing order."""
    return {
        "point1": (4, cp),
        "point2": (cp, cp),
        "image1": (2, ci),
        "image2": (ci, ci),
        "i2p1a": (ci, cp),
        "i2p1b": (2 * cp, cp),
        "i2p2a": (ci, cp),
        "i2p2b": (2 * cp, cp),
        "p2i1a": (cp, ci),
        "p2i1b": (2 * ci, ci),
        "p2i2a": (cp, ci),
        "p2i2b": (2 * ci, ci),
        "head_nlc": (ci, 3),
        "head_sem2d": (ci, 2),
        "head_sem3d": (cp, 2),
        "head_ctr": (cp, 3),
    }


_LAYER_NAMES = tuple(_layer_shapes(1, 1))  # the names do not depend on the widths

POINT_BRANCH_LAYERS = (
    "point1",
    "point2",
    "i2p1a",
    "i2p1b",
    "i2p2a",
    "i2p2b",
    "head_sem3d",
    "head_ctr",
)
IMAGE_BRANCH_LAYERS = (
    "image1",
    "image2",
    "p2i1a",
    "p2i1b",
    "p2i2a",
    "p2i2b",
    "head_nlc",
    "head_sem2d",
)


@dataclass
class ToyModel:
    """All layers of the two-branch toy network, keyed by name."""

    layers: dict[str, DenseLayer]

    @staticmethod
    def init(seed: int, c_point: int = 16, c_image: int = 16) -> "ToyModel":
        rng = np.random.default_rng(seed)
        layers = {
            name: DenseLayer.init(i, o, rng)
            for name, (i, o) in _layer_shapes(c_point, c_image).items()
        }
        return ToyModel(layers=layers)

    def parameter_count(self) -> int:
        return sum(
            l.weights.size + l.bias.size for l in self.layers.values()
        )

    def pack(self) -> np.ndarray:
        return np.concatenate([
            part.ravel()
            for name in _LAYER_NAMES
            for part in (self.layers[name].weights, self.layers[name].bias)
        ])

    def unpack(self, vec: np.ndarray) -> None:
        off = 0
        for name in _LAYER_NAMES:
            layer = self.layers[name]
            for attr in ("weights", "bias"):
                part = getattr(layer, attr)
                setattr(layer, attr, vec[off : off + part.size].reshape(part.shape).copy())
                off += part.size


def _zero_grads(model: ToyModel) -> dict[str, DenseLayer]:
    return {
        name: DenseLayer(
            weights=np.zeros_like(l.weights), bias=np.zeros_like(l.bias)
        )
        for name, l in model.layers.items()
    }


# per stage: point layer, image layer, i2p fusion layers, p2i fusion layers
_STAGES = (
    ("point1", "image1", ("i2p1a", "i2p1b"), ("p2i1a", "p2i1b")),
    ("point2", "image2", ("i2p2a", "i2p2b"), ("p2i2a", "p2i2b")),
)
# per head: loss component, layer, and the branch whose final features it reads
_HEADS = (
    ("ctr", "head_ctr", "points"),
    ("sem3d", "head_sem3d", "points"),
    ("nlc", "head_nlc", "image"),
    ("sem2d", "head_sem2d", "image"),
)


@dataclass
class StageCache:
    """What one stage's backward needs from its forward; image entries are
    (H*W, C) rows and stay None when the image branch is off."""

    points_in: np.ndarray
    pre_points: np.ndarray
    image_in: np.ndarray | None = None
    pre_image: np.ndarray | None = None
    i2p: FusionCache | None = None
    p2i: FusionCache | None = None


def forward(model: ToyModel, scene: SyntheticScene, config: TrainConfig):
    """Run the toy network; returns (head outputs dict, cache for backward).

    Each stage applies the point and image dense layers, then fuses
    image-to-point (gather) and point-to-image (scatter) where enabled.
    """
    L = model.layers
    h, w = scene.image.shape[1:]
    plan = scene.plan
    image_on = not config.point_only
    g = scene.point_inputs
    f = _rows(scene.image) if image_on else None
    stages = []
    for point, image, i2p, p2i in _STAGES:
        st = StageCache(points_in=g, pre_points=_linear(L[point], g))
        g = _relu(st.pre_points)
        if image_on:
            st.image_in, st.pre_image = f, _linear(L[image], f)
            f = _relu(st.pre_image)
        g_out = g
        if config.enable_i2p and image_on:
            gathered = plan.gather(_grid(f, h, w))
            g_out, st.i2p = fuse_i2p(gathered, g, (L[i2p[0]], L[i2p[1]]))
        if config.enable_p2i and image_on:
            scattered = plan.scatter(g)
            f_grid, st.p2i = fuse_p2i(scattered, _grid(f, h, w), (L[p2i[0]], L[p2i[1]]))
            f = _rows(f_grid)
        g = g_out
        stages.append(st)

    outputs = {
        "sem3d_logits": _linear(L["head_sem3d"], g),
        "ctr_pred": _linear(L["head_ctr"], g),
    }
    if image_on:
        outputs["nlc_map"] = _grid(_linear(L["head_nlc"], f), h, w)
        outputs["sem2d_logits"] = _linear(L["head_sem2d"], f)
        outputs["nlc_at_points"] = plan.gather(outputs["nlc_map"])
    return outputs, {"stages": stages, "points": g, "image": f}


def compute_losses(outputs: dict, scene: SyntheticScene, config: TrainConfig):
    """Per-component losses and their gradients at the head outputs."""
    losses, grads = {}, {}
    losses["ctr"], grads["ctr"] = center_loss(
        outputs["ctr_pred"], scene.gt_centers, scene.fg_mask, config.huber_delta
    )
    losses["sem3d"], grads["sem3d"] = cross_entropy(
        outputs["sem3d_logits"], scene.sem3d_labels
    )
    if "nlc_map" in outputs:
        losses["nlc"], grads["nlc"] = nlc_loss(
            outputs["nlc_at_points"],
            scene.gt_nlc_points,
            scene.fg_mask,
            config.huber_delta,
        )
        losses["sem2d"], grads["sem2d"] = cross_entropy(
            outputs["sem2d_logits"], scene.sem2d_labels
        )
    else:
        losses["nlc"] = losses["sem2d"] = 0.0
    w = config.weights
    losses["total"] = (
        w.nlc * losses["nlc"]
        + w.sem2d * losses["sem2d"]
        + w.sem3d * losses["sem3d"]
        + w.ctr * losses["ctr"]
    )
    return losses, grads


def backward(
    model: ToyModel,
    scene: SyntheticScene,
    config: TrainConfig,
    cache: dict,
    head_grads: dict,
    components: tuple[str, ...] = ("nlc", "sem2d", "sem3d", "ctr"),
):
    """Backpropagate the weighted sum of the selected loss components.

    Returns parameter gradients with the same layer structure as the model.
    """
    L = model.layers
    grads = _zero_grads(model)
    h, w = scene.image.shape[1:]
    plan = scene.plan
    image_on = not config.point_only

    # heads: gradients w.r.t. the last stage's point and image outputs
    d = {k: np.zeros_like(cache[k]) for k in ("points", "image") if cache[k] is not None}
    for comp, head, branch in _HEADS:
        weight = getattr(config.weights, comp)
        if comp not in components or weight == 0.0 or comp not in head_grads:
            continue
        d_out = weight * head_grads[comp]
        if comp == "nlc":
            d_out = _rows(plan.gather_grad(d_out))
        d_in, grads[head] = _linear_backward(L[head], cache[branch], d_out)
        d[branch] += d_in
    d_g, d_f = d["points"], d.get("image")

    for (point, image, i2p, p2i), st in zip(reversed(_STAGES), reversed(cache["stages"])):
        # fusion, back to the outputs of the stage's dense layers
        d_g_layer = np.zeros_like(st.pre_points)
        if image_on:
            d_f_out = _grid(d_f, h, w)
            d_f_layer = np.zeros((st.pre_image.shape[1], h, w))
        if st.i2p is not None:
            d_gathered, d_part, (grads[i2p[0]], grads[i2p[1]]) = fuse_i2p_backward(d_g, st.i2p)
            d_g_layer += d_part
            d_f_layer += plan.gather_grad(d_gathered)
        else:
            d_g_layer += d_g
        if st.p2i is not None:
            d_scattered, d_part, (grads[p2i[0]], grads[p2i[1]]) = fuse_p2i_backward(d_f_out, st.p2i)
            d_f_layer += d_part
            d_g_layer += plan.scatter_grad(d_scattered)
        elif image_on:
            d_f_layer += d_f_out

        # the stage's dense layers, back to the stage inputs
        d_pre = d_g_layer * (st.pre_points > 0)
        d_g, grads[point] = _linear_backward(L[point], st.points_in, d_pre)
        if image_on:
            d_pre = _rows(d_f_layer) * (st.pre_image > 0)
            d_f, grads[image] = _linear_backward(L[image], st.image_in, d_pre)
    return grads


def _grad_norm(grads: dict[str, DenseLayer], names) -> float:
    total = 0.0
    for name in names:
        total += float(np.sum(grads[name].weights ** 2) + np.sum(grads[name].bias ** 2))
    return float(np.sqrt(total))


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


def evaluate_model(model: ToyModel, scenes, config: TrainConfig) -> dict:
    """Mean per-component validation losses plus the NLC-map mMAE."""
    sums = {"nlc": 0.0, "sem2d": 0.0, "sem3d": 0.0, "ctr": 0.0, "total": 0.0}
    mmae_vals, skipped = [], 0
    for scene in scenes:
        outputs, _ = forward(model, scene, config)
        losses, _ = compute_losses(outputs, scene, config)
        for key in sums:
            sums[key] += losses[key]
        if "nlc_map" in outputs:
            pix = object_pixel_sets(scene.object_ids, len(scene.boxes))
            pred = np.moveaxis(outputs["nlc_map"], 0, -1)
            (vals, skip) = mmae(scene.gt_nlc_map, pred, pix)
            mmae_vals.append(vals)
            skipped += skip
    n = max(len(scenes), 1)
    out = {key: val / n for key, val in sums.items()}
    if mmae_vals:
        mx, my, mz = np.mean(mmae_vals, axis=0)
        out["mmae"] = {"x": float(mx), "y": float(my), "z": float(mz), "skipped": skipped}
    return out


def train(
    config: TrainConfig,
    train_scenes=None,
    val_scenes=None,
) -> tuple[ToyModel, TrainingReport]:
    """Plain gradient descent over the synthetic scenes; fully deterministic.

    Per epoch, records the mean total loss and the L2 norms of the point- and
    image-branch parameter gradients, plus the norm of the point-branch
    gradient produced by image-branch objectives alone (measured on the
    first scene) to expose the gradient path through point-to-pixel scatter.
    """
    if train_scenes is None or val_scenes is None:
        generated_train, generated_val = make_scenes(config)
        train_scenes = train_scenes or generated_train
        val_scenes = val_scenes or generated_val
    if not train_scenes:
        raise ValueError("need at least one training scene")

    model = ToyModel.init(
        config.seed, c_point=config.point_channels, c_image=config.image_channels
    )
    lr = config.learning_rate
    epochs_log = []
    diverged = False
    for epoch in range(config.epochs):
        total = 0.0
        pn = inorm = 0.0
        for scene in train_scenes:
            outputs, cache = forward(model, scene, config)
            losses, head_grads = compute_losses(outputs, scene, config)
            if not np.isfinite(losses["total"]):
                diverged = True
                break
            total += losses["total"]
            grads = backward(model, scene, config, cache, head_grads)
            pn += _grad_norm(grads, POINT_BRANCH_LAYERS) ** 2
            inorm += _grad_norm(grads, IMAGE_BRANCH_LAYERS) ** 2
            for name, layer in model.layers.items():
                layer.weights -= lr * grads[name].weights
                layer.bias -= lr * grads[name].bias
        if diverged:
            break
        # image-objective gradient reaching the point branch (telemetry)
        img_to_point = 0.0
        if not config.point_only:
            outputs, cache = forward(model, train_scenes[0], config)
            _, head_grads = compute_losses(outputs, train_scenes[0], config)
            g_img = backward(
                model, train_scenes[0], config, cache, head_grads,
                components=("nlc", "sem2d"),
            )
            img_to_point = _grad_norm(g_img, POINT_BRANCH_LAYERS)
        epochs_log.append(
            {
                "epoch": epoch,
                "train_total": total / len(train_scenes),
                "point_grad_norm": float(np.sqrt(pn)),
                "image_grad_norm": float(np.sqrt(inorm)),
                "image_to_point_grad_norm": img_to_point,
            }
        )

    final_val = evaluate_model(model, val_scenes, config) if val_scenes else {}
    report = TrainingReport(
        config=config,
        epochs=epochs_log,
        final_val=final_val,
        parameter_count=model.parameter_count(),
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
    seeds: tuple[int, ...] = (0, 1, 2),
    rows: tuple[str, ...] = ("none", "p2i", "i2p", "both"),
) -> dict:
    """Run the fusion ablation on identical data across rows and seeds.

    The reported metric per run is the validation NLC loss plus center loss.
    Returns per-row per-seed metrics, row means, and final gradient telemetry.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds per row")
    report: dict = {"rows": {}, "seeds": list(seeds)}
    train_scenes, val_scenes = make_scenes(base_config)
    for row in rows:
        flags = ABLATION_ROWS[row]
        runs = []
        for seed in seeds:
            cfg = replace(base_config, seed=seed, **flags)
            _, run_report = train(cfg, train_scenes, val_scenes)
            fv = run_report.final_val
            runs.append(
                {
                    "seed": seed,
                    "metric": fv["nlc"] + fv["ctr"],
                    "val": fv,
                    "diverged": run_report.diverged,
                    "final_image_to_point_grad_norm": (
                        run_report.epochs[-1]["image_to_point_grad_norm"]
                        if run_report.epochs
                        else 0.0
                    ),
                }
            )
        report["rows"][row] = {
            "runs": runs,
            "mean_metric": float(np.mean([r["metric"] for r in runs])),
        }
    return report
