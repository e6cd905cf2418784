"""Huber-based coordinate losses, cross-entropy, and the weighted total."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet import (
    EmptyForeground,
    LabelError,
    LossWeights,
    ShapeError,
    center_loss,
    cross_entropy,
    huber,
    nlc_loss,
    total_loss,
)


class TestHuber:
    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == 0.125

    def test_linear_branch(self):
        assert huber(2.0, 1.0) == 1.5

    def test_continuity_at_seam(self):
        for delta in (0.5, 1.0, 2.0):
            below = huber(delta - 1e-9, delta)
            above = huber(delta + 1e-9, delta)
            assert abs(above - below) < 1e-8
            # C1: slope approaches delta from both sides
            slope_below = (huber(delta, delta) - huber(delta - 1e-6, delta)) / 1e-6
            slope_above = (huber(delta + 1e-6, delta) - huber(delta, delta)) / 1e-6
            assert abs(slope_below - delta) < 1e-5
            assert abs(slope_above - delta) < 1e-5

    def test_symmetry_and_nonnegative(self, rng):
        r = rng.normal(size=100)
        assert np.array_equal(huber(r, 1.0), huber(-r, 1.0))
        assert np.all(huber(r, 1.0) >= 0)

    def test_convexity_on_grid(self):
        xs = np.linspace(-4, 4, 401)
        ys = huber(xs, 1.0)
        second = ys[:-2] - 2 * ys[1:-1] + ys[2:]
        assert np.all(second >= -1e-12)

    def test_bad_delta(self):
        for delta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="delta must be positive"):
                huber(1.0, delta)
            with pytest.raises(ValueError, match="delta must be positive"):
                nlc_loss(np.ones((2, 3)), np.zeros((2, 3)), np.ones(2, dtype=bool), delta)


class TestMaskedLosses:
    def test_perfect_prediction(self, rng):
        x = rng.normal(size=(10, 3))
        fg = np.ones(10, dtype=bool)
        for fn in (nlc_loss, center_loss):
            loss, grad = fn(x, x, fg, 1.0)
            assert loss == 0.0
            assert np.all(grad == 0.0)

    def test_single_point_quadratic_value(self):
        pred = np.array([[0.5, 0.0, 0.0]])
        gt = np.zeros((1, 3))
        loss, grad = nlc_loss(pred, gt, np.array([True]), 1.0)
        assert loss == 0.125
        assert np.array_equal(grad, [[0.5, 0.0, 0.0]])

    def test_background_contributes_nothing(self, rng):
        pred = rng.normal(size=(6, 3))
        gt = rng.normal(size=(6, 3))
        fg = np.array([True, True, False, False, True, False])
        loss, grad = center_loss(pred, gt, fg, 1.0)
        assert np.all(grad[~fg] == 0.0)
        # corrupting background predictions changes nothing
        pred2 = pred.copy()
        pred2[~fg] += 100.0
        loss2, _ = center_loss(pred2, gt, fg, 1.0)
        assert loss == loss2

    def test_empty_foreground_raises(self, rng):
        x = rng.normal(size=(5, 3))
        with pytest.raises(EmptyForeground):
            nlc_loss(x, x, np.zeros(5, dtype=bool), 1.0)

    def test_normalized_by_foreground_count(self):
        pred = np.array([[0.5, 0, 0], [0.5, 0, 0]])
        gt = np.zeros((2, 3))
        one, _ = nlc_loss(pred[:1], gt[:1], np.array([True]), 1.0)
        both, _ = nlc_loss(pred, gt, np.array([True, True]), 1.0)
        assert one == both == 0.125

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            nlc_loss(np.zeros((3, 3)), np.zeros((4, 3)), np.ones(3, dtype=bool), 1.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((5, 4)), np.array([0, 1, 2, 3, 0]))
        assert abs(loss - np.log(4)) < 1e-12

    def test_confident_correct_monotone(self):
        labels = np.array([1])
        prev = np.inf
        for margin in (1.0, 2.0, 5.0, 10.0, 20.0):
            logits = np.array([[0.0, margin]])
            loss, _ = cross_entropy(logits, labels)
            assert loss < prev
            prev = loss
        assert prev < 1e-8

    def test_gradient_formula(self, rng):
        logits = rng.normal(size=(7, 3))
        labels = rng.integers(0, 3, size=7)
        _, grad = cross_entropy(logits, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        softmax = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        assert np.allclose(grad, (softmax - onehot) / 7)

    def test_extreme_logits_stable(self):
        loss, grad = cross_entropy(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_bad_labels(self):
        with pytest.raises(LabelError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 1)), np.array([0, 0]))

    @pytest.mark.parametrize("logits, labels, message", [
        (np.zeros(3), np.array([0, 1, 0]), r"logits must be \(M, K\), got shape \(3,\)"),
        (np.zeros((2, 3, 2)), np.array([0, 1]), r"logits must be \(M, K\), got shape \(2, 3, 2\)"),
        (np.zeros((3, 2)), np.array([0, 1]), "2 labels for 3 rows"),
        (np.zeros((2, 2)), np.array([0, 1, 1]), "3 labels for 2 rows"),
    ], ids=["1d", "3d", "too-few-labels", "too-many-labels"])
    def test_mis_shaped_input_rejected(self, logits, labels, message):
        with pytest.raises(ShapeError, match=message):
            cross_entropy(logits, labels)


def _terms(nlc, sem2d, sem3d, ctr):
    return {"nlc": nlc, "sem2d": sem2d, "sem3d": sem3d, "ctr": ctr}


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(_terms(0, 0, 0, 0)) == 0.0

    def test_unit_terms_default_weights(self):
        assert total_loss(_terms(1, 1, 1, 1)) == 4.0

    def test_weighted_example(self):
        w = LossWeights(nlc=2.0, sem2d=0.0, sem3d=0.0, ctr=0.0)
        assert total_loss(_terms(1, 1, 1, 1), w) == 2.0

    @given(
        lam=st.floats(0.0, 10.0),
        term=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_weight_scales_linearly(self, lam, term):
        base = total_loss(_terms(0, 0, 0, 0), LossWeights(ctr=lam))
        with_term = total_loss(_terms(0, 0, 0, term), LossWeights(ctr=lam))
        assert abs((with_term - base) - lam * term) < 1e-9

    def test_sums_present_fields_in_field_order_and_ignores_other_keys(self):
        losses = {"ctr": -1e16, "sem3d": 1e16, "total": 5.0, "nlc": 1.0}
        # nlc, then sem3d, then ctr; the mapping's own order would give 1.0
        assert total_loss(losses) == (1.0 + 1e16) + -1e16 == 0.0
        assert total_loss({"sem2d": 3.0}, LossWeights(sem2d=0.2)) == 0.2 * 3.0
