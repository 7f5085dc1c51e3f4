"""Tests for Dense/Flatten/Identity and ReLU."""

import numpy as np
import pytest

from repro.nn import Dense, Flatten, Identity, ReLU
from repro.nn.losses import SoftmaxCrossEntropy

from tests.nn.util import check_input_gradient, check_model_gradients


class TestDense:
    def test_forward_shape_and_value(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        layer.weight.value[...] = np.arange(6).reshape(3, 2)
        layer.bias.value[...] = [1.0, -1.0]
        x = np.array([[1.0, 0.0, 2.0]])
        out = layer.forward(x)
        assert np.allclose(out, [[0 + 0 + 8 + 1, 1 + 0 + 10 - 1]])

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        check_model_gradients(layer, SoftmaxCrossEntropy(), x, y)

    def test_input_gradient(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 4)))

    def test_bias_excluded_from_weight_decay(self):
        layer = Dense(2, 2)
        assert layer.weight.weight_decay
        assert not layer.bias.weight_decay

    def test_no_bias(self):
        layer = Dense(2, 2, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 4

    def test_rejects_bad_shapes(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 1)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_gradient_accumulates(self):
        rng = np.random.default_rng(0)
        layer = Dense(2, 2, rng=rng)
        x = rng.normal(size=(3, 2))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        g1 = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        assert np.allclose(layer.weight.grad, 2 * g1)


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU])
    def test_input_gradients(self, cls):
        rng = np.random.default_rng(0)
        check_input_gradient(cls(), rng.normal(size=(3, 5)))

    def test_relu_clips_negative(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones(3))


class TestFlatten:
    def test_roundtrip(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2)
        layer = Flatten()
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape
        assert np.array_equal(back, x)


class TestIdentity:
    def test_passthrough(self):
        x = np.arange(4.0)
        layer = Identity()
        assert np.array_equal(layer.forward(x), x)
        assert np.array_equal(layer.backward(x), x)
