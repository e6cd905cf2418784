"""Synthetic scenes, the toy two-branch network, training, and the ablation."""

import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from nlcdet.errors import EmptyForeground, InvalidValue, ShapeError
from nlcdet.geometry import project_points
from nlcdet.losses import LossWeights, center_loss, cross_entropy, nlc_loss
from nlcdet.nlc import build_gt_nlc_map
from nlcdet.pipeline import (
    ABLATION_ROWS,
    IMAGE_BRANCH_LAYERS,
    IMAGE_HEADS,
    POINT_BRANCH_LAYERS,
    SceneParams,
    ToyModel,
    TrainConfig,
    Workspace,
    _DEPTH_NORM,
    _HEADS,
    _grad_norm,
    _layer_shapes,
    _step,
    ablation,
    backward,
    compute_losses,
    evaluate_model,
    forward,
    generate_scene,
    make_scenes,
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
        rebuilt, obj_ids = build_gt_nlc_map(
            scene.points, scene.boxes, scene.calib,
            scene.image.shape[1], scene.image.shape[2],
        )
        assert np.array_equal(obj_ids, scene.object_ids)
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


class TestSceneParamsValidation:
    @pytest.mark.parametrize("changes, field", [
        ({"max_boxes": 0}, "max_boxes"),
        ({"min_points_per_box": -1}, "min_points_per_box"),
        ({"min_points_per_box": 30, "max_points_per_box": 20}, "max_points_per_box"),
        ({"background_points": -1}, "background_points"),
        ({"image_height": 0}, "image_height"),
        ({"image_width": 0}, "image_width"),
        ({"max_boxes": 1.5}, "max_boxes"),
        ({"background_points": 10.5}, "background_points"),
        ({"image_height": True}, "image_height"),
        ({"min_points_per_box": float("nan")}, "min_points_per_box"),
    ])
    def test_bad_value_rejected(self, changes, field):
        with pytest.raises(InvalidValue, match=field):
            SceneParams(**changes)

    def test_edge_values_accepted(self):
        params = SceneParams(max_boxes=1, min_points_per_box=0, max_points_per_box=0,
                             background_points=0)
        scene = generate_scene(5, params)
        assert len(scene.boxes) == 1 and len(scene.points) == 0


class TestConfigParsing:
    def test_full_round_trip(self):
        text = """
        # training setup
        seed = 3
        epochs = 17
        learning_rate = 0.02
        lambda_nlc = 0.5
        enable_p2i = false
        enable_i2p = false
        """
        cfg = parse_train_config(text)
        assert cfg.seed == 3
        assert cfg.epochs == 17
        assert cfg.learning_rate == 0.02
        assert cfg.weights.nlc == 0.5
        assert cfg.weights.ctr == 1.0
        assert not cfg.enable_p2i
        assert not cfg.enable_i2p

    def test_defaults(self):
        cfg = parse_train_config("")
        assert cfg == TrainConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("bogus = 1")

    def test_removed_point_only_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'point_only'"):
            parse_train_config("point_only = true")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("epochs")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("enable_p2i = maybe")

    @pytest.mark.parametrize("key, value", [
        ("epochs", "x"), ("epochs", "1.5"), ("learning_rate", "abc"), ("lambda_ctr", ""),
    ])
    def test_value_of_the_wrong_type_rejected(self, key, value):
        with pytest.raises(InvalidValue, match=f"config line 2: {key} must be"):
            parse_train_config(f"seed = 1\n{key} = {value}")


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("train_scenes", 0),
        ("val_scenes", 0),
        ("point_channels", 0),
        ("image_channels", 0),
        ("epochs", -3),
        ("huber_delta", 0.0),
        ("huber_delta", float("inf")),
        ("huber_delta", float("nan")),
        ("learning_rate", float("nan")),
        ("learning_rate", float("-inf")),
        ("learning_rate", -0.05),
        ("seed", -1),
        ("data_seed", -1),
        ("lambda_nlc", -1.0),
        ("lambda_sem2d", float("nan")),
        ("lambda_sem3d", float("inf")),
        ("lambda_ctr", float("-inf")),
        ("epochs", 2.5),
        ("epochs", True),
        ("seed", 1.5),
        ("train_scenes", 2.5),
        ("point_channels", 4.0),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            if field.startswith("lambda_"):
                TrainConfig(weights=LossWeights(**{field[len("lambda_"):]: value}))
            else:
                TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            parse_train_config(f"{field} = {value}")

    def test_edge_values_accepted(self):
        cfg = TrainConfig(epochs=0, train_scenes=1, val_scenes=1, learning_rate=0.0, huber_delta=1e-9)
        assert cfg.epochs == 0

    def test_numpy_integers_accepted(self):
        assert TrainConfig(epochs=np.int64(2), image_channels=np.int32(3)).epochs == 2


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

    def test_no_p2i_means_no_image_to_point_gradient(self):
        scene = generate_scene(5)
        cfg = replace(TINY, enable_p2i=False)
        model = ToyModel.init(0, 6, 6)
        outputs, cache = forward(model, scene, cfg)
        _, head_grads = compute_losses(outputs, scene, cfg)
        image_grads = {c: head_grads[c] for c in IMAGE_HEADS}
        grads = backward(model, scene, cfg, cache, image_grads)
        for name in POINT_BRANCH_LAYERS:
            assert np.all(grads.layers[name].weights == 0.0)
            assert np.all(grads.layers[name].bias == 0.0)

    def test_p2i_carries_image_gradient_to_points(self):
        scene = generate_scene(5)
        model = ToyModel.init(0, 6, 6)
        cfg = replace(TINY, enable_i2p=False)
        outputs, cache = forward(model, scene, cfg)
        _, head_grads = compute_losses(outputs, scene, cfg)
        image_grads = {c: head_grads[c] for c in IMAGE_HEADS}
        grads = backward(model, scene, cfg, cache, image_grads)
        total = sum(float(np.abs(grads.layers[n].weights).sum()) for n in ("point1", "point2"))
        assert total > 0.0

    def test_point_losses_never_touch_image_branch(self):
        scene = generate_scene(5)
        model = ToyModel.init(0, 6, 6)
        outputs, cache = forward(model, scene, TINY)
        _, head_grads = compute_losses(outputs, scene, TINY)
        point_grads = {c: g for c, g in head_grads.items() if c not in IMAGE_HEADS}
        grads = backward(model, scene, TINY, cache, point_grads)
        # i2p feeds points from the image branch, so image1/2 may receive
        # gradient; the image-side heads must not
        for name in (f"head_{c}" for c in IMAGE_HEADS):
            assert np.all(grads.layers[name].weights == 0.0)


class TestObjective:
    def test_total_is_the_weighted_sum_in_field_order(self):
        scene = generate_scene(5)
        cfg = replace(TINY, weights=LossWeights(nlc=0.3, sem2d=1.7, sem3d=0.9, ctr=2.3))
        outputs, _ = forward(ToyModel.init(0, 6, 6), scene, cfg)
        losses, grads = compute_losses(outputs, scene, cfg)
        w = cfg.weights
        expected = (w.nlc * losses["nlc"] + w.sem2d * losses["sem2d"]
                    + w.sem3d * losses["sem3d"] + w.ctr * losses["ctr"])
        assert losses["total"].hex() == expected.hex()
        assert list(losses) == ["nlc", "sem2d", "sem3d", "ctr", "total"]
        assert list(grads) == ["nlc", "sem2d", "sem3d", "ctr"]

    @pytest.mark.parametrize("row", ["none", "both"])
    def test_workspace_losses_are_the_public_losses_on_the_default_scenes(self, row):
        cfg = replace(TrainConfig(), **ABLATION_ROWS[row])
        scenes = [scene for part in make_scenes(cfg) for scene in part]
        assert len(scenes) == 70
        model, ws = ToyModel.init(0, cfg.point_channels, cfg.image_channels), Workspace(scenes)
        for scene in scenes:
            outputs, _ = forward(model, scene, cfg, ws)
            losses, grads = compute_losses(outputs, scene, cfg, ws)
            fg, delta = scene.fg_mask, cfg.huber_delta
            public = {
                "nlc": nlc_loss(outputs["nlc_at_points"], scene.gt_nlc_points, fg, delta),
                "sem2d": cross_entropy(outputs["sem2d_logits"], scene.gt_nlc_map.mask.ravel()),
                "sem3d": cross_entropy(outputs["sem3d_logits"], fg),
                "ctr": center_loss(outputs["ctr_pred"], scene.gt_centers, fg, delta),
            }
            for c, (loss, grad) in public.items():
                assert losses[c] == loss, c
                assert grads[c].tobytes() == grad.tobytes(), c

    def test_workspace_gradients_are_reused_and_fresh_ones_owned(self):
        scene, other = generate_scene(5), generate_scene(6)
        model, ws = ToyModel.init(0, 6, 6), Workspace([scene, other])
        first = compute_losses(forward(model, scene, TINY)[0], scene, TINY, ws)[1]
        second = compute_losses(forward(model, other, TINY)[0], other, TINY, ws)[1]
        outputs = forward(model, scene, TINY)[0]
        owned, again = (compute_losses(outputs, scene, TINY)[1] for _ in range(2))
        for c in first:
            assert np.shares_memory(first[c], second[c]), c
            assert not np.shares_memory(owned[c], again[c]), c
            assert not any(np.shares_memory(owned[c], array) for array in ws._arrays.values()), c

    def test_scene_without_foreground_raises(self):
        scene = generate_scene(3, SceneParams(min_points_per_box=0, max_points_per_box=0))
        assert not scene.fg_mask.any() and scene.fg_count == 0
        outputs, _ = forward(ToyModel.init(0, 6, 6), scene, TINY)
        for workspace in (None, Workspace([scene])):
            with pytest.raises(EmptyForeground):
                compute_losses(outputs, scene, TINY, workspace)

    def test_validation_report_keys_in_order(self):
        val = evaluate_model(ToyModel.init(0, 6, 6), [generate_scene(5), generate_scene(6)], TINY)
        assert list(val) == ["nlc", "sem2d", "sem3d", "ctr", "total", "mmae"]


class TestParameterVector:
    def test_each_loss_weight_names_its_head(self):
        heads = {name for name in _layer_shapes(1, 1) if name.startswith("head_")}
        assert heads == {f"head_{f.name}" for f in fields(LossWeights)}
        assert IMAGE_HEADS == ("nlc", "sem2d")

    def test_slices_tile_params_and_give_the_norm(self):
        g = ToyModel(6, 5)
        g.params[...] = np.random.default_rng(2).normal(size=g.params.size)
        parts = list(g.slices.values())
        assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == g.params.size and list(g.slices) == list(g.layers)
        for name, layer in g.layers.items():
            assert np.shares_memory(layer.weights, g.params[g.slices[name]])
            assert np.shares_memory(layer.bias, g.params[g.slices[name]])
        assert _grad_norm(g, tuple(g.layers)) == np.sqrt(g.params @ g.params)

    def test_layers_are_views_into_params(self):
        model, _ = train(TINY)  # after training, so the update kept the views
        sizes = 0
        for layer in model.layers.values():
            assert np.shares_memory(layer.weights, model.params)
            assert np.shares_memory(layer.bias, model.params)
            sizes += layer.weights.size + layer.bias.size
        assert sizes == model.params.size

    def test_unpack_then_pack_round_trips_and_reaches_forward(self):
        scene = generate_scene(5)
        model = ToyModel.init(0, 6, 6)
        before, _ = forward(model, scene, TINY)
        vec = np.random.default_rng(1).normal(size=model.params.size)
        model.params[...] = vec
        assert np.array_equal(model.params, vec)
        after, _ = forward(model, scene, TINY)
        for key in before:
            assert not np.array_equal(before[key], after[key])

    # float.hex of ToyModel.init(0, 16, 16)'s (out, in) weights at [0, -1], [-1, 0]
    # and [1, 1], recorded before the weights were stored (in, out)
    INIT_0_HEX = {
        "point1": ("0x1.2fd2bcc3dc7a9p-4", "-0x1.3c034bbf1fe19p-2", "0x1.05d2a22a3225dp-2"),
        "image1": ("-0x1.1d146365a4401p-1", "-0x1.8772a1725d428p+0", "0x1.34f510490e4fcp-2"),
        "i2p1b": ("-0x1.5c1ff74f0d334p-3", "0x1.0bc56a687b9f6p-2", "-0x1.1cec1af0b851ep-3"),
        "p2i2a": ("0x1.bbd21f76feb5fp-4", "0x1.a19bc3dac4b34p-1", "0x1.297a26b8a5c03p-3"),
        "head_nlc": ("0x1.707b6c0e1e4bap-2", "0x1.288bff6f09aa7p-3", "-0x1.e03a89bae783ap-5"),
        "head_ctr": ("-0x1.70480e5ee0a34p-2", "0x1.d1939b55d9cfap-4", "-0x1.3d9275a680dc9p-4"),
    }

    def test_weights_stored_in_out_and_init_draws_kept(self):
        model = ToyModel.init(0, 16, 16)
        rng = np.random.default_rng(0)
        for name, layer in model.layers.items():
            # the products read the (in, out) storage, which is C-contiguous
            assert layer.weights.T.flags.c_contiguous, name
            assert np.shares_memory(layer.weights, model.params)
            assert np.shares_memory(layer.bias, model.params)
            # He-normal (out, in) draws in packing order, whatever the storage
            expected = rng.normal(0.0, np.sqrt(2.0 / layer.in_channels), size=layer.weights.shape)
            assert np.array_equal(layer.weights, expected), name
        for name, pinned in self.INIT_0_HEX.items():
            w = model.layers[name].weights
            assert (w[0, -1].hex(), w[-1, 0].hex(), w[1, 1].hex()) == pinned

    def test_layer_arrays_cannot_be_rebound(self):
        layer = ToyModel.init(0, 6, 6).layers["point1"]
        with pytest.raises(FrozenInstanceError):
            layer.bias = np.ones_like(layer.bias)

    def test_disabled_i2p_layers_get_exactly_zero_gradient(self):
        scene = generate_scene(5)
        cfg = replace(TINY, enable_i2p=False)
        model = ToyModel.init(0, 6, 6)
        outputs, cache = forward(model, scene, cfg)
        _, head_grads = compute_losses(outputs, scene, cfg)
        grads = backward(model, scene, cfg, cache, head_grads)
        # the i2p layers' part of the flat vector, found through their views
        probe = ToyModel(6, 6)
        for name in ("i2p1a", "i2p1b", "i2p2a", "i2p2b"):
            probe.layers[name].weights[...] = 1.0
            probe.layers[name].bias[...] = 1.0
        part = probe.params == 1.0
        assert 0 < part.sum() < part.size
        assert np.all(grads.params[part] == 0.0)
        assert np.any(grads.params[~part] != 0.0)


class TestWorkspace:
    """One workspace serves every step of a run; reusing it must change no bit."""

    @pytest.mark.parametrize("heads", [_HEADS, IMAGE_HEADS], ids=["all_heads", "image_heads"])
    @pytest.mark.parametrize("row", list(ABLATION_ROWS))
    def test_reuse_across_scene_sizes_is_exact(self, row, heads):
        cfg = replace(TINY, **ABLATION_ROWS[row])
        small = generate_scene(8, SceneParams(max_points_per_box=60, background_points=40,
                                              image_height=12, image_width=20))
        scenes = [generate_scene(5), small, generate_scene(6)]  # large, small, large
        assert len(small.points) < min(len(scenes[0].points), len(scenes[2].points))
        model = ToyModel.init(0, 6, 6)
        ws = Workspace(scenes)
        # the layers no step of this row and these heads reaches
        idle = [name for name in _layer_shapes(6, 6)
                if (name.startswith("i2p") and not cfg.enable_i2p)
                or (name.startswith("p2i") and not cfg.enable_p2i)
                or (name.startswith("head_") and name[len("head_"):] not in heads)]
        for scene in scenes:
            losses, grads = _step(model, scene, cfg, heads, ws)
            outputs, cache = forward(model, scene, cfg)
            fresh_losses, head_grads = compute_losses(outputs, scene, cfg)
            fresh = backward(model, scene, cfg, cache, {c: head_grads[c] for c in heads})
            assert np.array(list(losses.values())).tobytes() == np.array(list(fresh_losses.values())).tobytes()
            assert grads.params.tobytes() == fresh.params.tobytes()
            for name in idle:  # exactly +0.0, whatever the last step left there
                part = grads.params[grads.slices[name]]
                assert part.tobytes() == np.zeros_like(part).tobytes(), name
            model.params -= 0.05 * grads.params
            # a stale value anywhere in the workspace would now show in the next step
            for array in ws._arrays.values():
                array.fill(np.nan)
            ws.gradients(model).params.fill(np.nan)

    def test_forward_without_a_workspace_returns_new_arrays(self):
        scene, model = generate_scene(5), ToyModel.init(0, 6, 6)
        (first, _), (second, _) = forward(model, scene, TINY), forward(model, scene, TINY)
        for key in ("sem3d_logits", "ctr_pred", "nlc_map", "sem2d_logits"):
            assert not np.shares_memory(first[key], second[key])

    def test_scene_larger_than_the_workspace_rejected(self):
        small = generate_scene(8, SceneParams(max_points_per_box=60, background_points=40))
        with pytest.raises(ShapeError, match="workspace"):
            forward(ToyModel.init(0, 6, 6), generate_scene(5), TINY, Workspace([small]))

    @pytest.mark.parametrize("widths", [(16, 16), (6, 10)], ids=["default", "unequal"])
    def test_no_array_wider_than_the_widest_layer(self, widths):
        # the fusion blocks never build their concatenated input or its gradient
        cfg = TrainConfig(point_channels=widths[0], image_channels=widths[1])
        scene = generate_scene(0)
        ws = Workspace([scene])
        _step(ToyModel.init(0, *widths), scene, cfg, _HEADS, ws)
        assert {key[2] for key in ws._arrays} >= {"hidden", "d_hidden", "d_main"}
        assert max(array.shape[1] for array in ws._arrays.values()) <= max(widths)

    def test_no_scenes_rejected(self):
        with pytest.raises(InvalidValue, match="at least one scene"):
            Workspace([])
        with pytest.raises(InvalidValue, match="at least one scene"):
            evaluate_model(ToyModel.init(0, 6, 6), [], TINY)

    def test_steady_state_step_allocates_under_2_mb(self):
        # the largest default training scene, after one step has filled the workspace;
        # what remains are the sparse products' results and the losses
        cfg = TrainConfig(epochs=1)
        scenes = make_scenes(cfg)[0]
        scene = max(scenes, key=lambda s: len(s.points))
        model = ToyModel.init(0, cfg.point_channels, cfg.image_channels)
        ws = Workspace(scenes)
        _step(model, scene, cfg, _HEADS, ws)
        tracemalloc.start()
        try:
            _step(model, scene, cfg, _HEADS, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestTraining:
    def test_bit_deterministic(self):
        m1, r1 = train(TINY)
        m2, r2 = train(TINY)
        assert np.array_equal(m1.params, m2.params)
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

    @pytest.mark.parametrize("row, isolated", [("none", True), ("p2i", False)])
    def test_point_branch_reads_the_image_only_through_p2i(self, row, isolated):
        # the same scenes with a blank image: without fusion the point branch
        # trains bit-identically; with p2i, image objectives reach it
        cfg = replace(TINY, **ABLATION_ROWS[row])
        scenes = make_scenes(cfg)
        blank = [[replace(s, image=np.zeros_like(s.image)) for s in part] for part in scenes]
        m_image, r_image = train(cfg, *scenes)
        m_blank, r_blank = train(cfg, *blank)
        same = []
        for name in ("point1", "point2", "head_sem3d", "head_ctr"):
            a, b = m_image.layers[name], m_blank.layers[name]
            same.append(np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias))
        same += [np.array_equal(r_image.final_val[k], r_blank.final_val[k]) for k in ("ctr", "sem3d")]
        assert all(same) if isolated else not any(same)

    def test_report_serializes(self):
        _, report = train(TINY)
        d = report.to_dict()
        assert d["config"]["epochs"] == TINY.epochs
        import json

        json.dumps(d)

    def test_overflowing_gradient_ends_the_run_as_diverged(self):
        # at this rate a step's gradient norm overflows while its loss is still finite
        cfg = TrainConfig(learning_rate=1000.0, epochs=5, train_scenes=3, val_scenes=2)
        _, report = train(cfg)
        assert report.diverged
        assert all(np.isfinite(v) for row in report.epochs for v in row.values())

    def test_no_scenes_rejected(self):
        with pytest.raises(ValueError):
            train(TINY, train_scenes=[], val_scenes=[])

    def test_no_validation_scenes_rejected(self):
        with pytest.raises(ValueError, match="validation scene"):
            train(TINY, train_scenes=[generate_scene(0)], val_scenes=[])

    def test_empty_train_list_is_not_replaced_by_generated_scenes(self):
        with pytest.raises(ValueError, match="training scene"):
            train(TINY, train_scenes=[], val_scenes=None)


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

    def test_zero_epochs_report_zero_telemetry(self):
        cfg = replace(TINY, epochs=0, train_scenes=1, val_scenes=1)
        runs = ablation(cfg, seeds=(0, 1), rows=("both",))["rows"]["both"]["runs"]
        assert [run["final_image_to_point_grad_norm"] for run in runs] == [0.0, 0.0]

    def test_report_equals_separate_train_runs(self, monkeypatch):
        # one workspace serves every run, and the report keeps every bit
        cfg = replace(TINY, epochs=2, train_scenes=2, val_scenes=2)
        made = []

        class Counted(Workspace):
            def __init__(self, scenes):
                made.append(len(scenes))
                super().__init__(scenes)

        monkeypatch.setattr("nlcdet.pipeline.Workspace", Counted)
        report = ablation(cfg, seeds=(0, 1))
        assert made == [cfg.train_scenes + cfg.val_scenes]
        scenes = make_scenes(cfg)
        expected = {"rows": {}, "seeds": [0, 1]}
        for row, flags in ABLATION_ROWS.items():
            runs = []
            for seed in (0, 1):
                _, run = train(replace(cfg, seed=seed, **flags), *scenes)
                fv = run.final_val
                runs.append({"seed": seed, "metric": fv["nlc"] + fv["ctr"], "val": fv,
                             "diverged": run.diverged,
                             "final_image_to_point_grad_norm": run.epochs[-1]["image_to_point_grad_norm"]})
            expected["rows"][row] = {"runs": runs,
                                     "mean_metric": float(np.mean([r["metric"] for r in runs]))}
        assert repr(report) == repr(expected)

    def test_unknown_row_rejected_before_any_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr("nlcdet.pipeline._descend", no_training)
        with pytest.raises(InvalidValue, match="bogus"):
            ablation(TINY, seeds=(0, 1), rows=("none", "bogus"))

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            ablation(TINY, seeds=(0,))
