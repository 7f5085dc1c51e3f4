"""Tests for Conv2d / pooling layers, including numerical grad checks."""

import numpy as np
import pytest

from repro.nn import Conv2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.conv import _scatter, _windows
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.module import Sequential
from repro.nn.layers import Flatten, Dense

from tests.nn.util import check_input_gradient, check_model_gradients


class TestIm2col:
    """The two patch primitives every conv/pool kernel is built on:
    ``_windows`` gathers, ``_scatter`` is its adjoint."""

    def test_known_patch_extraction(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        windows = _windows(x, 2, 2, 2, 0, 0)
        assert windows.shape == (1, 2, 2, 2, 2, 1)  # (C, kh, kw, oh, ow, N)
        assert np.array_equal(windows[0, :, :, 0, 0, 0].ravel(), [0, 1, 4, 5])
        assert np.array_equal(windows[0, :, :, 1, 1, 0].ravel(), [10, 11, 14, 15])

    def test_padding_expands_output(self):
        x = np.ones((1, 1, 3, 3))
        windows = _windows(x, 3, 3, 1, 1, 1)
        assert windows.shape[3:5] == (3, 3)
        # Corner patch has 4 real values, 5 zeros.
        assert windows[0, :, :, 0, 0, 0].sum() == 4

    def test_col2im_adjoint_of_im2col(self):
        """_scatter must be the exact adjoint: <windows(x), y> == <x, scatter(y)>."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5))
        windows = _windows(x, 3, 3, 2, 1, 1)
        y = rng.normal(size=windows.shape)
        lhs = float(np.sum(windows * y))
        back = _scatter(y, x.shape, stride=2, padding=1)
        rhs = float(np.sum(x * back))
        assert np.isclose(lhs, rhs)

    def test_invalid_geometry_raises(self):
        x = np.ones((1, 1, 2, 2))
        with pytest.raises(ValueError):
            _windows(x, 5, 5, 1, 0, 0)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_identity_kernel(self):
        conv = Conv2d(1, 1, 1, bias=False)
        conv.weight.value[...] = 1.0
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        assert np.array_equal(conv.forward(x), x)

    def test_known_convolution(self):
        conv = Conv2d(1, 1, 2, bias=False)
        conv.weight.value[...] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        # Each output = x[i,j] + x[i+1,j+1]
        assert np.array_equal(out[0, 0], [[0 + 4, 1 + 5], [3 + 7, 4 + 8]])

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng),
            Flatten(),
            Dense(3 * 4 * 4, 3, rng=rng),
        )
        x = rng.normal(size=(2, 2, 4, 4))
        y = rng.integers(0, 3, size=2)
        check_model_gradients(model, SoftmaxCrossEntropy(), x, y, max_params=80)

    def test_input_gradient(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 2, 3, stride=2, padding=1, rng=rng)
        check_input_gradient(conv, rng.normal(size=(1, 2, 5, 5)))

    def test_rejects_wrong_channels(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 5, 5)))

    def test_bias_flag(self):
        assert Conv2d(1, 4, 3, bias=False).num_parameters() == 36
        assert Conv2d(1, 4, 3, bias=True).num_parameters() == 40


class TestMaxPool2d:
    def test_known_pooling(self):
        pool = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert pool.forward(x)[0, 0, 0, 0] == 4.0

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x)
        grad = pool.backward(np.array([[[[10.0]]]]))
        assert np.array_equal(grad, [[[[0, 0], [0, 10.0]]]])

    def test_input_gradient(self):
        rng = np.random.default_rng(3)
        # Distinct values avoid argmax ties that break central differences.
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        check_input_gradient(MaxPool2d(2), x)

    def test_overlapping_stride(self):
        pool = MaxPool2d(3, stride=1)
        out = pool.forward(np.zeros((1, 2, 5, 5)))
        assert out.shape == (1, 2, 3, 3)


class TestGlobalAvgPool2d:
    def test_shape_and_value(self):
        pool = GlobalAvgPool2d()
        x = np.ones((2, 3, 4, 4)) * 5.0
        out = pool.forward(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, 5.0)

    def test_input_gradient(self):
        rng = np.random.default_rng(0)
        check_input_gradient(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))
