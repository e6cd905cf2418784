"""The finite-difference verification harness itself."""

import numpy as np

from nlcdet import gradcheck as gc
from nlcdet.geometry import _pixel_cells
from nlcdet.pipeline import generate_scene
from nlcdet.propagation import ProjectionPlan


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


def test_full_model_scenes_put_points_in_the_image():
    # the full-model check sees the cross-modal path only through points in the image
    rng = np.random.default_rng(0)
    params = gc._FULL_MODEL_SCENE
    for _ in range(200):
        scene = generate_scene(int(rng.integers(1 << 31)), params)
        _, inside = _pixel_cells(*scene.coords.T, params.image_height, params.image_width)
        assert inside.any()
