"""Tests for Parameter/Module/Sequential and the flat-vector views."""

import numpy as np
import pytest

from repro.nn import MLP, Dense, ReLU, Sequential
from repro.nn.module import Parameter


def make_mlp(seed: int = 0) -> MLP:
    return MLP(4, (8, 8), 3, rng=np.random.default_rng(seed))


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_zero_grad(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_size_and_shape(self):
        p = Parameter(np.zeros((3, 5)))
        assert p.size == 15
        assert p.shape == (3, 5)


class TestModuleTraversal:
    def test_named_parameters_deterministic_order(self):
        m1, m2 = make_mlp(), make_mlp()
        names1 = [n for n, _ in m1.named_parameters()]
        names2 = [n for n, _ in m2.named_parameters()]
        assert names1 == names2
        assert len(names1) == 6  # 3 Dense layers × (weight, bias)

    def test_num_parameters(self):
        m = make_mlp()
        expected = 4 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3
        assert m.num_parameters() == expected

    def test_zero_grad_clears_all(self):
        m = make_mlp()
        for p in m.parameters():
            p.grad += 1.0
        m.zero_grad()
        assert all(np.all(p.grad == 0) for p in m.parameters())


class TestFlatViews:
    def test_roundtrip(self):
        m = make_mlp()
        flat = m.get_flat_parameters()
        m2 = make_mlp(seed=7)
        m2.set_flat_parameters(flat)
        assert np.array_equal(m2.get_flat_parameters(), flat)

    def test_flat_is_copy(self):
        m = make_mlp()
        flat = m.get_flat_parameters()
        flat += 100.0
        assert not np.allclose(m.get_flat_parameters(), flat)

    def test_set_flat_wrong_size_raises(self):
        m = make_mlp()
        with pytest.raises(ValueError, match="elements"):
            m.set_flat_parameters(np.zeros(3))

    def test_gradients_roundtrip(self):
        m = make_mlp()
        g = np.arange(m.num_parameters(), dtype=np.float64)
        m.set_flat_gradients(g)
        assert np.array_equal(m.get_flat_gradients(), g)

    def test_same_seed_identical_models(self):
        assert np.array_equal(
            make_mlp(3).get_flat_parameters(), make_mlp(3).get_flat_parameters()
        )


class TestSequential:
    def test_forward_backward_chain(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Dense(3, 5, rng=rng), ReLU(), Dense(5, 2, rng=rng))
        x = rng.normal(size=(4, 3))
        out = seq.forward(x)
        assert out.shape == (4, 2)
        grad_in = seq.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_len_and_getitem(self):
        seq = Sequential(ReLU(), ReLU())
        assert len(seq) == 2
        assert isinstance(seq[0], ReLU)

    def test_append_registers_parameters(self):
        seq = Sequential()
        seq.append(Dense(2, 2))
        assert seq.num_parameters() == 6
