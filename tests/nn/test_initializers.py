"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import initializers as init


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFanComputation:
    def test_dense_shapes(self):
        assert init._fan_in_out((10, 20)) == (10, 20)

    def test_conv_shapes(self):
        # (out, in, kh, kw): fan_in = in·kh·kw, fan_out = out·kh·kw
        assert init._fan_in_out((8, 4, 3, 3)) == (36, 72)


class TestHeNormal:
    def test_std_matches_formula(self, rng):
        w = init.he_normal(rng, (500, 400))
        assert abs(w.std() - np.sqrt(2 / 500)) < 0.005

    def test_deterministic_given_generator(self):
        a = init.he_normal(np.random.default_rng(3), (5, 5))
        b = init.he_normal(np.random.default_rng(3), (5, 5))
        assert np.array_equal(a, b)


class TestConstants:
    def test_zeros_and_ones(self, rng):
        assert np.all(init.zeros(rng, (3, 3)) == 0)
        assert np.all(init.ones(rng, (3, 3)) == 1)

    def test_dtype_is_float64(self, rng):
        for fn in (init.he_normal, init.zeros, init.ones):
            assert fn(rng, (2, 2)).dtype == np.float64
