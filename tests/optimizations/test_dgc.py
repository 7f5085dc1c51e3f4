"""Tests for Deep Gradient Compression."""

import numpy as np
import pytest

from repro.optimizations.dgc import BYTES_PER_SPARSE_ELEMENT, DGCCompressor, DGCConfig, SparseGradient

from tests.conftest import densify


class TestConfig:
    def test_warmup_ramp_monotone(self):
        cfg = DGCConfig(final_ratio=0.001, warmup_epochs=4.0, warmup_start_ratio=0.25)
        ratios = [cfg.ratio_at(e) for e in np.linspace(0, 5, 50)]
        assert ratios[0] == pytest.approx(0.25)
        assert ratios[-1] == pytest.approx(0.001)
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_final_ratio_after_warmup(self):
        cfg = DGCConfig()
        assert cfg.ratio_at(4.0) == pytest.approx(0.001)
        assert cfg.ratio_at(100.0) == pytest.approx(0.001)

    def test_paper_default_is_top_point1_percent(self):
        assert DGCConfig().final_ratio == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCConfig(final_ratio=0.0)
        with pytest.raises(ValueError):
            DGCConfig(final_ratio=0.5, warmup_start_ratio=0.25)
        with pytest.raises(ValueError):
            DGCConfig(momentum=1.0)
        with pytest.raises(ValueError):
            DGCConfig().ratio_at(-1)


class TestSparseGradient:
    def test_nbytes(self):
        s = SparseGradient(np.array([0, 1, 2]), np.zeros(3), num_elements=5)
        assert s.nbytes == 3 * BYTES_PER_SPARSE_ELEMENT

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError):
            SparseGradient(np.array([5]), np.array([1.0]), num_elements=5)


class TestCompressor:
    def test_selects_top_magnitudes(self):
        cfg = DGCConfig(final_ratio=0.1, warmup_epochs=0.0, momentum=0.0, clip_norm=1e9)
        comp = DGCCompressor(100, cfg)
        grad = np.zeros(100)
        grad[[7, 42, 99]] = [10.0, -20.0, 5.0]
        sparse = comp.compress(grad)
        assert sparse.nnz == 10
        assert {7, 42, 99} <= set(sparse.indices.tolist())
        assert densify(sparse)[42] == pytest.approx(-20.0)

    def test_unsent_mass_accumulates(self):
        """Local gradient accumulation: a coordinate too small to send
        keeps growing until it wins selection — no information is lost."""
        cfg = DGCConfig(final_ratio=0.01, warmup_epochs=0.0, momentum=0.0, clip_norm=1e9)
        comp = DGCCompressor(100, cfg)
        grad = np.full(100, 0.1)
        grad[0] = 1.0  # coordinate 0 wins early rounds
        sent_total = np.zeros(100)
        for _ in range(400):
            sparse = comp.compress(grad.copy())
            sent_total += densify(sparse)
        # Accumulation forces every coordinate to eventually be sent.
        assert np.all(sent_total > 0)

    def test_mass_conservation_without_momentum(self):
        """sent + still-accumulated == total gradient mass (momentum 0,
        no clipping)."""
        cfg = DGCConfig(final_ratio=0.05, warmup_epochs=0.0, momentum=0.0, clip_norm=1e9)
        comp = DGCCompressor(50, cfg)
        rng = np.random.default_rng(0)
        total = np.zeros(50)
        sent = np.zeros(50)
        for _ in range(20):
            g = rng.normal(size=50)
            total += g
            sent += densify(comp.compress(g))
        np.testing.assert_allclose(sent + comp.accumulation, total, atol=1e-12)

    def test_momentum_factor_masking_clears_state(self):
        cfg = DGCConfig(final_ratio=0.1, warmup_epochs=0.0, momentum=0.9, clip_norm=1e9)
        comp = DGCCompressor(10, cfg)
        sparse = comp.compress(np.arange(10.0))
        assert np.all(comp.accumulation[sparse.indices] == 0)
        assert np.all(comp.velocity[sparse.indices] == 0)

    def test_clipping_bounds_norm(self):
        cfg = DGCConfig(final_ratio=1.0, warmup_start_ratio=1.0, warmup_epochs=0.0, momentum=0.0, clip_norm=1.0, num_workers=4)
        comp = DGCCompressor(10, cfg)
        sparse = comp.compress(np.full(10, 100.0))
        # Norm clipped to 1/sqrt(4) = 0.5 before accumulation.
        assert np.linalg.norm(densify(sparse)) == pytest.approx(0.5)

    def test_warmup_sends_more_early(self):
        cfg = DGCConfig(final_ratio=0.01, warmup_epochs=4.0, warmup_start_ratio=0.25)
        comp = DGCCompressor(1000, cfg)
        early = comp.compress(np.random.default_rng(0).normal(size=1000), epoch=0.0)
        late = comp.compress(np.random.default_rng(1).normal(size=1000), epoch=10.0)
        assert early.nnz == 250
        assert late.nnz == 10

    def test_compressed_bytes_estimate_matches(self):
        cfg = DGCConfig(final_ratio=0.01, warmup_epochs=0.0)
        comp = DGCCompressor(1000, cfg)
        sparse = comp.compress(np.random.default_rng(0).normal(size=1000))
        assert comp.compressed_bytes() == sparse.nbytes

    def test_at_least_one_element(self):
        cfg = DGCConfig(final_ratio=0.001, warmup_epochs=0.0)
        comp = DGCCompressor(10, cfg)
        assert comp.compress(np.ones(10)).nnz == 1

    def test_shape_mismatch(self):
        comp = DGCCompressor(10, DGCConfig())
        with pytest.raises(ValueError):
            comp.compress(np.ones(5))

    def test_compression_ratio_1000x(self):
        """The headline claim: 0.1 % keep-ratio ⇒ ~500× byte reduction
        (8 B per sparse element vs 4 B per dense)."""
        n = 100_000
        comp = DGCCompressor(n, DGCConfig(warmup_epochs=0.0))
        sparse = comp.compress(np.random.default_rng(0).normal(size=n))
        dense_bytes = n * 4
        assert dense_bytes / sparse.nbytes == pytest.approx(500, rel=0.02)
