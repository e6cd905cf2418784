"""Synthetic scenes, the toy two-branch network, training, and the ablation."""

from dataclasses import replace

import numpy as np
import pytest

from nlcdet.geometry import project_points
from nlcdet.nlc import build_gt_nlc_map
from nlcdet.pipeline import (
    ABLATION_ROWS,
    IMAGE_BRANCH_LAYERS,
    POINT_BRANCH_LAYERS,
    SceneParams,
    ToyModel,
    TrainConfig,
    _DEPTH_NORM,
    ablation,
    backward,
    compute_losses,
    forward,
    generate_scene,
    parse_train_config,
    train,
)

TINY = TrainConfig(
    epochs=3, train_scenes=3, val_scenes=2, point_channels=6, image_channels=6
)


class TestSceneGeneration:
    def test_deterministic(self):
        a = generate_scene(42)
        b = generate_scene(42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.gt_nlc_map.values, b.gt_nlc_map.values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_scene(1).points, generate_scene(2).points)

    def test_foreground_nlc_in_unit_cube(self):
        for seed in range(5):
            scene = generate_scene(seed)
            fg_nlc = scene.gt_nlc_points[scene.fg_mask]
            assert np.all(fg_nlc >= 0.0) and np.all(fg_nlc <= 1.0)
            assert np.all(scene.gt_nlc_map.values[scene.gt_nlc_map.mask] >= 0.0)
            assert np.all(scene.gt_nlc_map.values[scene.gt_nlc_map.mask] <= 1.0)

    def test_gt_map_matches_recomputation(self):
        scene = generate_scene(7)
        rebuilt = build_gt_nlc_map(
            scene.points, scene.boxes, scene.calib,
            scene.image.shape[1], scene.image.shape[2],
        )
        assert np.array_equal(rebuilt.values, scene.gt_nlc_map.values)
        assert np.array_equal(rebuilt.mask, scene.gt_nlc_map.mask)
        assert np.array_equal(rebuilt.depth, scene.gt_nlc_map.depth)

        # the depth channel holds the nearest in-front depth of each pixel
        h, w = scene.image.shape[1:]
        u, v = scene.coords.T
        d = project_points(scene.points[:, :3], scene.calib)[2]
        ok = (d > 0) & (u >= 0) & (u < w) & (v >= 0) & (v < h)
        nearest = np.full(h * w, np.inf)
        cells = np.floor(v[ok]).astype(int) * w + np.floor(u[ok]).astype(int)
        np.minimum.at(nearest, cells, d[ok])
        expected = np.where(np.isfinite(nearest), nearest / _DEPTH_NORM, 0.0)
        assert np.array_equal(scene.image[0], expected.reshape(h, w))

    def test_labels_consistent_with_masks(self):
        scene = generate_scene(11)
        assert np.array_equal(scene.sem3d_labels == 1, scene.fg_mask)
        assert np.array_equal(
            scene.sem2d_labels.reshape(scene.gt_nlc_map.mask.shape),
            scene.gt_nlc_map.mask.astype(int),
        )

    def test_center_offsets_reconstruct_centers(self):
        scene = generate_scene(13)
        for bi, box in enumerate(scene.boxes):
            sel = scene.point_owner == bi
            rec = scene.points[sel, :3] + scene.gt_centers[sel]
            assert np.max(np.abs(rec - box.center)) < 1e-9

    def test_scene_params_respected(self):
        params = SceneParams(max_boxes=2, min_points_per_box=10,
                             max_points_per_box=20, background_points=50)
        scene = generate_scene(3, params)
        assert 1 <= len(scene.boxes) <= 2
        assert np.sum(~scene.fg_mask) == 50


class TestConfigParsing:
    def test_full_round_trip(self):
        text = """
        # training setup
        seed = 3
        epochs = 17
        learning_rate = 0.02
        lambda_nlc = 0.5
        enable_p2i = false
        point_only = true
        """
        cfg = parse_train_config(text)
        assert cfg.seed == 3
        assert cfg.epochs == 17
        assert cfg.learning_rate == 0.02
        assert cfg.weights.nlc == 0.5
        assert cfg.weights.ctr == 1.0
        assert not cfg.enable_p2i
        assert cfg.point_only

    def test_defaults(self):
        cfg = parse_train_config("")
        assert cfg == TrainConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("bogus = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("epochs")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("enable_p2i = maybe")


class TestForwardBackward:
    def test_output_shapes(self):
        scene = generate_scene(5)
        cfg = TrainConfig(point_channels=6, image_channels=6)
        outputs, _ = forward(ToyModel.init(0, 6, 6), scene, cfg)
        n = len(scene.points)
        h, w = scene.image.shape[1:]
        assert outputs["sem3d_logits"].shape == (n, 2)
        assert outputs["ctr_pred"].shape == (n, 3)
        assert outputs["nlc_map"].shape == (3, h, w)
        assert outputs["sem2d_logits"].shape == (h * w, 2)
        assert outputs["nlc_at_points"].shape == (n, 3)

    def test_point_only_omits_image_heads(self):
        scene = generate_scene(5)
        cfg = replace(TINY, point_only=True)
        outputs, _ = forward(ToyModel.init(0, 6, 6), scene, cfg)
        assert "nlc_map" not in outputs
        losses, _ = compute_losses(outputs, scene, cfg)
        assert losses["nlc"] == 0.0 and losses["sem2d"] == 0.0

    def test_no_p2i_means_no_image_to_point_gradient(self):
        scene = generate_scene(5)
        cfg = replace(TINY, enable_p2i=False)
        model = ToyModel.init(0, 6, 6)
        outputs, cache = forward(model, scene, cfg)
        _, head_grads = compute_losses(outputs, scene, cfg)
        grads = backward(model, scene, cfg, cache, head_grads,
                         components=("nlc", "sem2d"))
        for name in POINT_BRANCH_LAYERS:
            assert np.all(grads[name].weights == 0.0)
            assert np.all(grads[name].bias == 0.0)

    def test_p2i_carries_image_gradient_to_points(self):
        scene = generate_scene(5)
        model = ToyModel.init(0, 6, 6)
        cfg = replace(TINY, enable_i2p=False)
        outputs, cache = forward(model, scene, cfg)
        _, head_grads = compute_losses(outputs, scene, cfg)
        grads = backward(model, scene, cfg, cache, head_grads,
                         components=("nlc", "sem2d"))
        total = sum(float(np.abs(grads[n].weights).sum()) for n in ("point1", "point2"))
        assert total > 0.0

    def test_point_losses_never_touch_image_branch(self):
        scene = generate_scene(5)
        model = ToyModel.init(0, 6, 6)
        outputs, cache = forward(model, scene, TINY)
        _, head_grads = compute_losses(outputs, scene, TINY)
        grads = backward(model, scene, TINY, cache, head_grads,
                         components=("sem3d", "ctr"))
        # i2p feeds points from the image branch, so image1/2 may receive
        # gradient; the image-side heads must not
        for name in ("head_nlc", "head_sem2d"):
            assert np.all(grads[name].weights == 0.0)


class TestTraining:
    def test_bit_deterministic(self):
        m1, r1 = train(TINY)
        m2, r2 = train(TINY)
        assert np.array_equal(m1.pack(), m2.pack())
        assert r1.epochs == r2.epochs
        assert r1.final_val == r2.final_val

    def test_zero_learning_rate_freezes_losses(self):
        cfg = replace(TINY, learning_rate=0.0, epochs=4)
        _, report = train(cfg)
        totals = [e["train_total"] for e in report.epochs]
        assert all(t == totals[0] for t in totals)

    def test_loss_decreases(self):
        cfg = replace(TINY, epochs=20)
        _, report = train(cfg)
        assert report.epochs[-1]["train_total"] < report.epochs[0]["train_total"]
        assert not report.diverged

    def test_telemetry_complete(self):
        _, report = train(TINY)
        for row in report.epochs:
            assert set(row) == {
                "epoch", "train_total", "point_grad_norm", "image_grad_norm",
                "image_to_point_grad_norm",
            }
            assert all(np.isfinite(v) for v in row.values())
        assert report.parameter_count > 0
        assert "mmae" in report.final_val

    def test_fusion_off_equals_point_only_on_point_branch(self):
        scenes = None
        cfg_off = replace(TINY, enable_p2i=False, enable_i2p=False)
        cfg_po = replace(TINY, point_only=True)
        m_off, _ = train(cfg_off)
        m_po, _ = train(cfg_po)
        for name in ("point1", "point2", "head_sem3d", "head_ctr"):
            assert np.array_equal(m_off.layers[name].weights, m_po.layers[name].weights)
            assert np.array_equal(m_off.layers[name].bias, m_po.layers[name].bias)

    def test_report_serializes(self):
        _, report = train(TINY)
        d = report.to_dict()
        assert d["config"]["epochs"] == TINY.epochs
        import json

        json.dumps(d)

    def test_no_scenes_rejected(self):
        with pytest.raises(ValueError):
            train(TINY, train_scenes=[], val_scenes=[])


class TestAblation:
    def test_structure_and_telemetry(self):
        cfg = replace(TINY, epochs=2, train_scenes=2, val_scenes=1)
        report = ablation(cfg, seeds=(0, 1))
        assert set(report["rows"]) == set(ABLATION_ROWS)
        for row in report["rows"].values():
            assert len(row["runs"]) == 2
            assert np.isfinite(row["mean_metric"])
            for run in row["runs"]:
                assert not run["diverged"]
                assert np.isfinite(run["final_image_to_point_grad_norm"])
        # bidirectional row must show image-objective gradient reaching points
        assert report["rows"]["both"]["runs"][0]["final_image_to_point_grad_norm"] > 0
        assert report["rows"]["none"]["runs"][0]["final_image_to_point_grad_norm"] == 0

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            ablation(TINY, seeds=(0,))
