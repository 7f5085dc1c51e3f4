"""Tests for batch normalisation."""

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Sequential
from repro.nn.losses import SoftmaxCrossEntropy

from tests.nn.util import check_input_gradient, check_model_gradients


class TestBatchNorm2d:
    def test_normalizes_per_channel(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 4.0, size=(8, 3, 5, 5))
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_gamma_beta_affect_output(self):
        bn = BatchNorm2d(2)
        bn.gamma.value[...] = [2.0, 1.0]
        bn.beta.value[...] = [0.0, 5.0]
        x = np.random.default_rng(0).normal(size=(8, 2, 3, 3))
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), [0.0, 5.0], atol=1e-10)
        assert np.allclose(out[:, 0].std(), 2.0, atol=1e-2)

    def test_every_forward_uses_its_batch_statistics(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(0)
        bn.forward(rng.normal(10.0, 1.0, size=(4, 2, 3, 3)))
        out = bn.forward(rng.normal(-3.0, 2.0, size=(4, 2, 3, 3)))
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng), BatchNorm2d(3), GlobalAvgPool2d()
        )
        x = rng.normal(size=(4, 2, 4, 4))
        y = rng.integers(0, 3, size=4)
        check_model_gradients(model, SoftmaxCrossEntropy(), x, y, max_params=60)

    def test_input_gradient(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm2d(2)
        check_input_gradient(bn, rng.normal(size=(3, 2, 3, 3)), rtol=1e-3, atol=1e-5)

    def test_no_weight_decay_on_bn_params(self):
        bn = BatchNorm2d(2)
        assert not bn.gamma.weight_decay
        assert not bn.beta.weight_decay

    def test_rejects_bad_input_rank(self):
        with pytest.raises(ValueError):
            BatchNorm2d(2).forward(np.zeros((2, 2)))

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            BatchNorm2d(0)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError, match="before forward"):
            BatchNorm2d(2).backward(np.zeros((2, 2, 2, 2)))
