"""The flat parameter arena: every ``Parameter.value``/``.grad`` is a
view of one buffer per module tree, and stays one through every way the
parameters are written."""

import numpy as np
import pytest

from repro.nn import SGD, Dense, MiniResNet, Sequential, build_model
from repro.nn.module import Parameter


@pytest.fixture(params=["mlp", "miniresnet"])
def model(request):
    return build_model(request.param, seed=1)


def assert_aliased(model):
    """Writing through either side shows on the other."""
    params = model.parameters()
    flat = model.get_flat_parameters()
    offset = 0
    for p in params:
        assert np.array_equal(p.value.ravel(), flat[offset : offset + p.size])
        offset += p.size
    params[-1].value[...] += 1.0
    tail = slice(-params[-1].size, None)
    assert np.array_equal(model.get_flat_parameters()[tail], flat[tail] + 1.0)
    params[0].grad[...] = 3.0
    assert np.all(model.get_flat_gradients()[: params[0].size] == 3.0)


class TestAliasing:
    def test_after_set_flat_parameters(self, model):
        target = np.arange(model.num_parameters(), dtype=np.float64)
        model.set_flat_parameters(target)
        assert np.array_equal(model.get_flat_parameters(), target)
        assert_aliased(model)

    def test_after_sgd_step(self, model):
        optimizer = SGD(model)
        model.set_flat_gradients(np.ones(model.num_parameters()))
        optimizer.step(0.1)
        assert_aliased(model)

    def test_flat_getters_are_copies(self, model):
        values, grads = model.get_flat_parameters(), model.get_flat_gradients()
        values += 100.0
        grads += 100.0
        assert not np.allclose(model.get_flat_parameters(), values)
        assert np.all(model.get_flat_gradients() == 0.0)

    def test_zero_grad_clears_every_gradient(self, model):
        for p in model.parameters():
            p.grad += 1.0
        model.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in model.parameters())
        assert np.all(model.get_flat_gradients() == 0.0)

    def test_sgd_step_equals_per_parameter_formula(self, model):
        """Bit for bit, momentum and selective weight decay included."""
        rng = np.random.default_rng(0)
        momentum, decay, lr = 0.9, 1e-2, 0.05
        optimizer = SGD(model, momentum=momentum, weight_decay=decay)
        expected = [p.value.copy() for p in model.parameters()]
        velocity = [np.zeros_like(v) for v in expected]
        for _ in range(3):
            grads = [rng.normal(size=v.shape) for v in expected]
            for p, g in zip(model.parameters(), grads):
                p.grad[...] = g
            optimizer.step(lr)
            for p, value, vel, g in zip(model.parameters(), expected, velocity, grads):
                if p.weight_decay:
                    g = g + decay * value
                vel *= momentum
                vel += g
                value -= lr * vel
                assert np.array_equal(p.value, value)
        assert np.array_equal(
            optimizer._velocity, np.concatenate([v.ravel() for v in velocity])
        )


class TestStructure:
    def test_late_registration_raises(self):
        seq = Sequential(Dense(2, 2))
        seq.get_flat_parameters()
        with pytest.raises(RuntimeError, match="packed"):
            seq.append(Dense(2, 2))
        with pytest.raises(RuntimeError, match="packed"):
            seq.layers[0].extra = Parameter(np.zeros(2))
        assert len(seq) == 1 and seq.num_parameters() == 6  # nothing half-registered

    def test_registration_before_packing_is_free(self):
        seq = Sequential(Dense(2, 2))
        seq.append(Dense(2, 3))
        assert seq.get_flat_parameters().size == 6 + 9

    def test_child_access_is_coherent_with_parent(self):
        model = MiniResNet(rng=np.random.default_rng(0))
        model.get_flat_parameters()
        child = model.fc
        child.set_flat_parameters(np.full(child.num_parameters(), 7.0))
        assert np.all(model.get_flat_parameters()[-child.num_parameters() :] == 7.0)
        model.set_flat_parameters(np.zeros(model.num_parameters()))
        assert np.all(child.get_flat_parameters() == 0.0)

    def test_parent_packed_after_child_rebinds_both(self):
        model = MiniResNet(rng=np.random.default_rng(0))
        before = model.fc.get_flat_parameters()  # child packs alone first
        model.set_flat_parameters(model.get_flat_parameters() * 2.0)
        assert np.array_equal(model.fc.get_flat_parameters(), before * 2.0)

    def test_in_place_edit_of_value_reaches_forward(self):
        """What the numerical-gradient checks rely on."""
        layer = Dense(2, 1, bias=False)
        layer.get_flat_parameters()
        layer.weight.value.ravel()[0] = 5.0
        assert layer.forward(np.array([[1.0, 0.0]]))[0, 0] == 5.0
