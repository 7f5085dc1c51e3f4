"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy

from tests.nn.util import numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        loss = SoftmaxCrossEntropy()
        pred = np.zeros((4, 10))
        y = np.arange(4)
        assert np.isclose(loss.forward(pred, y), np.log(10))

    def test_perfect_prediction_near_zero(self):
        loss = SoftmaxCrossEntropy()
        pred = np.full((2, 3), -100.0)
        pred[0, 1] = 100.0
        pred[1, 2] = 100.0
        assert loss.forward(pred, np.array([1, 2])) < 1e-6

    def test_stable_for_large_logits(self):
        loss = SoftmaxCrossEntropy()
        pred = np.array([[1e4, -1e4, 0.0]])
        value = loss.forward(pred, np.array([0]))
        assert np.isfinite(value)
        assert value < 1e-6

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        loss = SoftmaxCrossEntropy()
        loss.forward(pred, y)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda: loss.forward(pred, y), pred)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, size=6)
        loss = SoftmaxCrossEntropy()
        loss.forward(pred, y)
        assert np.allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_bad_shapes(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()
