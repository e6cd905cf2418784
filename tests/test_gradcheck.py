"""The finite-difference verification harness itself."""

from dataclasses import fields, replace

import numpy as np
import pytest

from nlcdet import gradcheck as gc
from nlcdet.geometry import _pixel_cells
from nlcdet.losses import LossWeights
from nlcdet.pipeline import ABLATION_ROWS, IMAGE_HEADS, TrainConfig, generate_scene
from nlcdet.propagation import ProjectionPlan

_ALL_HEADS = tuple(f.name for f in fields(LossWeights))
_HEAD_SETS = {
    "all": _ALL_HEADS,
    "image": IMAGE_HEADS,
    "point": tuple(c for c in _ALL_HEADS if c not in IMAGE_HEADS),
}


def test_all_checks_under_thresholds():
    results = gc.run_all(trials=5, seed=0)
    assert set(results) == set(gc.THRESHOLDS)
    for name, err in results.items():
        assert err < gc.THRESHOLDS[name], f"{name}: {err}"


def test_perturbed_backward_detected(monkeypatch):
    # negative control: a scatter backward off by a factor of two must trip its threshold
    true_grad = ProjectionPlan.scatter_grad
    monkeypatch.setattr(ProjectionPlan, "scatter_grad", lambda plan, g: 2.0 * true_grad(plan, g))
    results = gc.run_all(trials=2, seed=0)
    assert results["point_to_pixel"] > gc.THRESHOLDS["point_to_pixel"]


def test_individual_checks_reproducible():
    assert gc.run_all(trials=2, seed=7) == gc.run_all(trials=2, seed=7)


def test_full_model_check_is_tight():
    err = gc.check_full_model(np.random.default_rng(3))
    assert err < 1e-5


@pytest.mark.parametrize("heads", _HEAD_SETS)
@pytest.mark.parametrize("row", ABLATION_ROWS)
def test_every_trained_gradient_path_matches_finite_differences(row, heads):
    # each ablation row takes its own fusion branches through backward, and the
    # image heads alone are what image_to_point_grad_norm backpropagates
    config = replace(TrainConfig(point_channels=4, image_channels=4), **ABLATION_ROWS[row])
    for seed in range(3):
        err = gc._check_model_gradient(np.random.default_rng(seed), config, _HEAD_SETS[heads])
        assert err < gc.THRESHOLDS["full_model"], f"seed {seed}: {err}"


def test_full_model_scenes_put_points_in_the_image():
    # the full-model check sees the cross-modal path only through points in the image
    rng = np.random.default_rng(0)
    params = gc._FULL_MODEL_SCENE
    for _ in range(200):
        scene = generate_scene(int(rng.integers(1 << 31)), params)
        _, inside = _pixel_cells(*scene.coords.T, params.image_height, params.image_width)
        assert inside.any()
