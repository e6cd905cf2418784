"""The toy network's layers: the dense layer, the fusion blocks, and their backwards."""

import numpy as np
import pytest

from nlcdet import DenseLayer, ShapeError, fuse_i2p, fuse_p2i, layers
from nlcdet.layers import (
    _bias_grad, _fuse_backward, _fuse_forward, fuse_i2p_backward, fuse_p2i_backward,
    linear_backward,
)


def nan_layers(*layers):
    """Gradient layers shaped like ``layers``, filled with NaN so that an entry
    a backward does not write shows."""
    return tuple(
        DenseLayer(np.full(l.weights.shape, np.nan), np.full(l.bias.shape, np.nan))
        for l in layers
    )


class TestDenseLayer:
    @pytest.mark.parametrize("rows, c_in, c_out", [(768, 16, 16), (1000, 16, 3)])
    def test_bias_gradient_is_the_column_sum(self, rng, rows, c_in, c_out):
        # the bias gradient is one product with a ones vector, not d_out.sum(axis=0)
        layer = DenseLayer(weights=rng.normal(size=(c_out, c_in)), bias=rng.normal(size=c_out))
        x, d_out = rng.normal(size=(rows, c_in)), rng.normal(size=(rows, c_out))
        (grad,) = nan_layers(layer)
        d_x = linear_backward(layer, x, d_out, grad, np.empty((rows, c_in)))
        assert np.allclose(grad.bias, d_out.sum(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(grad.weights, d_out.T @ x, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_x, d_out @ layer.weights, rtol=1e-12, atol=1e-12)

    def test_bias_gradient_ones_grow_and_stay_read_only(self, rng):
        # the ones vector grows to the longest d_out seen; a shorter one reads its head
        longest = len(layers._ones) + 5
        for rows in (3, longest, 7):
            d_out = rng.normal(size=(rows, 4))
            (grad,) = nan_layers(DenseLayer(np.zeros((4, 2)), np.zeros(4)))
            _bias_grad(d_out, grad)
            assert np.allclose(grad.bias, d_out.sum(axis=0), rtol=1e-12, atol=1e-12)
        assert len(layers._ones) == longest
        assert not layers._ones.flags.writeable

    def test_fusion_gradients_written_into_given_layers(self, rng):
        c, rows = 3, 20
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(weights=rng.normal(size=(c, 2 * c)), bias=rng.normal(size=c))
        aux, main = rng.normal(size=(rows, c)), rng.normal(size=(rows, c))
        _, cache = fuse_p2i(aux, main, (l1, l2))
        cot = rng.normal(size=(rows, c))
        given = nan_layers(l1, l2)
        d_aux, d_main = fuse_p2i_backward(cot, cache, given)
        # the direct products on the second layer's concatenated input: each
        # layer's output gradient, then d_out.T @ x and the column sums of d_out
        cat = np.concatenate([np.maximum(cache.pre1, 0.0), main], axis=1)
        d2 = cot * (cache.pre2 > 0)
        d_cat = d2 @ l2.weights
        d1 = d_cat[:, :c] * (cache.pre1 > 0)
        for g, x, d_out in zip(given, (aux, cat), (d1, d2)):
            assert np.all(np.isfinite(g.weights)) and np.all(np.isfinite(g.bias))
            assert np.allclose(g.weights, d_out.T @ x, rtol=1e-12, atol=1e-12)
            assert np.allclose(g.bias, d_out.sum(axis=0), rtol=1e-12, atol=1e-12)
        assert np.allclose(d_aux, d1 @ l1.weights, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_main, d_cat[:, c:], rtol=1e-12, atol=1e-12)


def _stored_layer(rng, c_in, c_out):
    """A layer whose weights are the (out, in) view of (in, out) storage, as
    the toy network keeps them."""
    return DenseLayer(rng.normal(0.0, np.sqrt(2.0 / c_in), size=(c_in, c_out)).T,
                      rng.normal(0.0, 0.1, size=c_out))


@pytest.mark.parametrize("rows", [2026, 768], ids=["point_rows", "pixel_rows"])
def test_fusion_matches_a_concatenated_reference(rng, rows):
    # the block as first written: the second layer applied to the concatenation
    c = 16
    l1, l2 = _stored_layer(rng, c, c), _stored_layer(rng, 2 * c, c)
    aux, main, cot = (rng.normal(size=(rows, c)) for _ in range(3))
    pre1 = aux @ l1.weights.T + l1.bias
    cat = np.concatenate([np.maximum(pre1, 0.0), main], axis=1)
    pre2 = cat @ l2.weights.T + l2.bias
    d2 = cot * (pre2 > 0)
    d_cat = d2 @ l2.weights
    d1 = d_cat[:, :c] * (pre1 > 0)
    reference = [np.maximum(pre2, 0.0), d1 @ l1.weights, d_cat[:, c:],
                 d1.T @ aux, d1.sum(axis=0), d2.T @ cat, d2.sum(axis=0)]

    out, cache = _fuse_forward(aux, main, (l1, l2))
    grads = nan_layers(l1, l2)
    d_aux, d_main = _fuse_backward(cot, cache, grads)
    got = [out, d_aux, d_main] + [a for g in grads for a in (g.weights, g.bias)]
    for name, a, b in zip(["out", "d_aux", "d_main", "w1", "b1", "w2", "b2"], got, reference):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


class TestFusion:
    def test_constant_bias_configuration(self):
        # zero both layers' weights: the output is relu of the second bias
        c, pixels = 2, 9
        l1 = DenseLayer(weights=np.zeros((c, c)), bias=np.zeros(c))
        l2 = DenseLayer(weights=np.zeros((c, 2 * c)), bias=np.array([1.5, -2.0]))
        out, _ = fuse_p2i(np.ones((pixels, c)), np.ones((pixels, c)), (l1, l2))
        assert out.shape == (pixels, c)
        assert np.all(out[:, 0] == 1.5)
        assert np.all(out[:, 1] == 0.0)

    def test_passthrough_of_main_input(self, rng):
        # L2 = [0 | I] ignores the refined auxiliary path entirely
        c = 3
        main = np.abs(rng.normal(size=(8, c))) + 0.1
        aux = rng.normal(size=(8, c))
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(
            weights=np.hstack([np.zeros((c, c)), np.eye(c)]), bias=np.zeros(c)
        )
        out, _ = fuse_i2p(aux, main, (l1, l2))
        assert np.array_equal(out, main)

    def test_shape_guards(self, rng):
        l = DenseLayer(weights=np.zeros((2, 2)), bias=np.zeros(2))
        # equal channels, unequal pixel counts
        with pytest.raises(ShapeError):
            fuse_p2i(np.zeros((9, 2)), np.zeros((16, 2)), (l, l))
        with pytest.raises(ShapeError):
            fuse_i2p(np.zeros((3, 2)), np.zeros((4, 2)), (l, l))
        # equal row counts, a channel count the first layer does not take
        with pytest.raises(ShapeError):
            fuse_p2i(np.zeros((4, 3)), np.zeros((4, 2)), (l, l))
        # a main input that does not fill the second layer's input
        l2 = DenseLayer(weights=np.zeros((2, 4)), bias=np.zeros(2))
        with pytest.raises(ShapeError, match="second layer"):
            fuse_i2p(np.zeros((4, 2)), np.zeros((4, 3)), (l, l2))

    def test_backward_layer_gradient_shapes(self, rng):
        c_aux, c_mid, c_main, c_out = 3, 4, 3, 4
        l1 = DenseLayer(weights=rng.normal(size=(c_mid, c_aux)), bias=rng.normal(size=c_mid))
        l2 = DenseLayer(
            weights=rng.normal(size=(c_out, c_mid + c_main)), bias=rng.normal(size=c_out)
        )
        aux, main = rng.normal(size=(10, c_aux)), rng.normal(size=(10, c_main))
        out, cache = fuse_i2p(aux, main, (l1, l2))
        d_aux, d_main = fuse_i2p_backward(np.ones_like(out), cache, nan_layers(l1, l2))
        assert d_aux.shape == aux.shape
        assert d_main.shape == main.shape

    def test_p2i_and_i2p_agree_on_the_same_rows(self, rng):
        c, rows = 3, 20
        l1 = DenseLayer(weights=rng.normal(size=(c, c)), bias=rng.normal(size=c))
        l2 = DenseLayer(weights=rng.normal(size=(c, 2 * c)), bias=rng.normal(size=c))
        aux = rng.normal(size=(rows, c))
        main = rng.normal(size=(rows, c))
        p2i_out, p2i_cache = fuse_p2i(aux, main, (l1, l2))
        i2p_out, i2p_cache = fuse_i2p(aux, main, (l1, l2))
        assert np.array_equal(p2i_out, i2p_out)
        cot = rng.normal(size=(rows, c))
        g_p2i_layers, g_i2p_layers = nan_layers(l1, l2), nan_layers(l1, l2)
        d_p2i = fuse_p2i_backward(cot, p2i_cache, g_p2i_layers)
        d_i2p = fuse_i2p_backward(cot, i2p_cache, g_i2p_layers)
        assert np.array_equal(d_p2i[0], d_i2p[0]) and np.array_equal(d_p2i[1], d_i2p[1])
        assert d_p2i[0].shape == aux.shape and d_p2i[1].shape == main.shape
        for g_p2i, g_i2p in zip(g_p2i_layers, g_i2p_layers):
            assert np.array_equal(g_p2i.weights, g_i2p.weights)
            assert np.array_equal(g_p2i.bias, g_i2p.bias)
