"""Unit tests for the shared worker machinery."""

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.core.worker import LocalComputation, sparse_slice_for_ranges
from repro.data import BatchLoader, make_gaussian_blobs
from repro.nn import MLP, SoftmaxCrossEntropy
from repro.optimizations.dgc import SparseGradient

from tests.conftest import small_full_config


def make_comp(seed=0):
    data = make_gaussian_blobs(num_samples=64, num_classes=3, num_features=4, seed=1)
    model = MLP(4, (8,), 3, rng=np.random.default_rng(seed))
    loader = BatchLoader(data, 8, rng=np.random.default_rng(2))
    return LocalComputation(model, loader, SoftmaxCrossEntropy())


class TestLocalComputation:
    def test_gradient_shape_and_loss_tracking(self):
        comp = make_comp()
        grad = comp.gradient()
        assert grad.shape == (comp.model.num_parameters(),)
        assert np.isfinite(comp.last_loss)
        assert comp.ema_loss == comp.last_loss  # first observation

    def test_ema_smooths(self):
        comp = make_comp()
        comp.gradient()
        first = comp.ema_loss
        for _ in range(5):
            comp.gradient()
        # EMA moved but not as fast as the raw loss.
        assert comp.ema_loss != first

    def test_apply_gradient_descends(self):
        comp = make_comp()
        losses = []
        for _ in range(60):
            grad = comp.gradient()
            comp.apply_gradient(grad, 0.05)
            losses.append(comp.last_loss)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_train_mode_is_not_reentered_every_step(self, monkeypatch):
        comp = make_comp()
        walks = []
        monkeypatch.setattr(type(comp.model), "modules", lambda self: walks.append(1) or iter(()))
        comp.gradient()
        assert walks == []

    def test_params_roundtrip(self):
        comp = make_comp()
        params = comp.get_params()
        comp.set_params(np.zeros_like(params))
        assert np.all(comp.get_params() == 0)


class TestSparseSliceForRanges:
    def test_routing_and_rebasing(self):
        sparse = SparseGradient(
            indices=np.array([1, 5, 8, 12]),
            values=np.array([1.0, 2.0, 3.0, 4.0]),
            num_elements=20,
        )
        # Shard owns [0,4) and [8,14): local frame is 4 + 6 = 10 slots.
        local_idx, values = sparse_slice_for_ranges(sparse, ((0, 4), (8, 14)))
        assert local_idx.tolist() == [1, 4, 8]  # 1→1, 8→4+0, 12→4+4
        assert values.tolist() == [1.0, 3.0, 4.0]

    def test_empty_intersection(self):
        sparse = SparseGradient(np.array([0]), np.array([1.0]), num_elements=10)
        local_idx, values = sparse_slice_for_ranges(sparse, ((5, 10),))
        assert local_idx.size == 0
        assert values.size == 0

    def test_full_coverage_partition(self):
        """Routing a sparse gradient through a partition of ranges
        loses nothing."""
        rng = np.random.default_rng(0)
        idx = np.sort(rng.choice(100, size=20, replace=False))
        sparse = SparseGradient(idx, rng.normal(size=20), num_elements=100)
        ranges = (((0, 30),), ((30, 77),), ((77, 100),))
        total = sum(
            sparse_slice_for_ranges(sparse, r)[1].size for r in ranges
        )
        assert total == 20


class TestEntryRangesPlumbing:
    def test_dense_entries_map_to_shard_ranges(self):
        runner = DistributedRunner(small_full_config("asp", num_ps_shards=3))
        rt = runner.runtime
        for entry in rt.comm_plan.entries:
            ranges = rt.entry_ranges(entry)
            assert ranges == rt.sharding.shards[entry.shard_id].ranges

    def test_waitfree_entries_map_to_layers(self):
        runner = DistributedRunner(
            small_full_config("asp", num_ps_shards=2, wait_free_bp=True)
        )
        rt = runner.runtime
        sizes = [
            sum(b - a for a, b in rt.entry_ranges(e)) for e in rt.comm_plan.entries
        ]
        assert sum(sizes) == rt.total_elements
        for entry, size in zip(rt.comm_plan.entries, sizes):
            assert size == entry.num_elements
