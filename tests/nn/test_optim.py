"""Tests for SGD / FlatSGD — including their exact equivalence."""

import numpy as np
import pytest

from repro.nn import MLP, SGD
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import FlatSGD, weight_decay_mask


def make_model(seed: int = 0) -> MLP:
    return MLP(3, (6,), 2, rng=np.random.default_rng(seed))


class TestSGD:
    def test_plain_sgd_step(self):
        model = make_model()
        opt = SGD(model, momentum=0.0, weight_decay=0.0)
        before = model.get_flat_parameters()
        g = np.ones(model.num_parameters())
        model.set_flat_gradients(g)
        opt.step(lr=0.1)
        assert np.allclose(model.get_flat_parameters(), before - 0.1)

    def test_momentum_accumulates(self):
        model = make_model()
        opt = SGD(model, momentum=0.9, weight_decay=0.0)
        g = np.ones(model.num_parameters())
        before = model.get_flat_parameters()
        model.set_flat_gradients(g)
        opt.step(lr=0.1)
        model.set_flat_gradients(g)
        opt.step(lr=0.1)
        # steps: 0.1·1 then 0.1·(0.9 + 1)
        expected = before - 0.1 - 0.1 * 1.9
        assert np.allclose(model.get_flat_parameters(), expected)

    def test_weight_decay_skips_biases(self):
        model = make_model()
        opt = SGD(model, momentum=0.0, weight_decay=0.5)
        model.zero_grad()  # zero gradient: only decay acts
        params_before = {n: p.value.copy() for n, p in model.named_parameters()}
        opt.step(lr=1.0)
        for name, param in model.named_parameters():
            if name.endswith("bias"):
                assert np.allclose(param.value, params_before[name])
            else:
                assert np.allclose(param.value, params_before[name] * 0.5)

    def test_reset_velocity(self):
        model = make_model()
        opt = SGD(model)
        model.set_flat_gradients(np.ones(model.num_parameters()))
        opt.step(0.1)
        opt.reset_velocity()
        assert np.all(opt._velocity == 0)

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(make_model(), momentum=1.5)
        with pytest.raises(ValueError):
            SGD(make_model(), weight_decay=-1)
        opt = SGD(make_model())
        with pytest.raises(ValueError):
            opt.step(lr=-0.1)


class TestFlatSGD:
    def test_equivalent_to_module_sgd(self):
        """FlatSGD over the flat vector must produce bit-identical
        trajectories to SGD over the module — the PS and a worker
        applying the same gradients stay in lock-step."""
        model_a = make_model()
        model_b = make_model()
        opt_a = SGD(model_a, momentum=0.9, weight_decay=1e-2)
        mask = weight_decay_mask(model_b)
        flat = model_b.get_flat_parameters()
        opt_b = FlatSGD(flat.size, momentum=0.9, weight_decay=1e-2, decay_mask=mask)

        rng = np.random.default_rng(7)
        loss = SoftmaxCrossEntropy()
        for step in range(5):
            x = rng.normal(size=(4, 3))
            y = rng.integers(0, 2, size=4)
            model_a.zero_grad()
            out = model_a.forward(x)
            loss.forward(out, y)
            model_a.backward(loss.backward())
            grad = model_a.get_flat_gradients()
            opt_a.step(0.05)
            opt_b.step(flat, grad, 0.05)
            assert np.allclose(model_a.get_flat_parameters(), flat, atol=1e-12)
            model_b.set_flat_parameters(flat)  # keep gradients consistent

    def test_in_place_update(self):
        opt = FlatSGD(3, momentum=0.0, weight_decay=0.0)
        params = np.array([1.0, 2.0, 3.0])
        out = opt.step(params, np.ones(3), 0.5)
        assert out is params
        assert np.allclose(params, [0.5, 1.5, 2.5])

    def test_shape_mismatch_raises(self):
        opt = FlatSGD(3)
        with pytest.raises(ValueError):
            opt.step(np.zeros(4), np.zeros(4), 0.1)

    def test_decay_mask_validation(self):
        with pytest.raises(ValueError):
            FlatSGD(3, decay_mask=np.ones(4, dtype=bool))


class TestWeightDecayMask:
    def test_matches_parameter_flags(self):
        model = make_model()
        mask = weight_decay_mask(model)
        offset = 0
        for param in model.parameters():
            expected = param.weight_decay
            assert np.all(mask[offset : offset + param.size] == expected)
            offset += param.size
        assert offset == mask.size
