"""Tests for the per-worker batch loader."""

import numpy as np
import pytest

from repro.data import BatchLoader, make_gaussian_blobs


def make_loader(n=64, batch=16, seed=0, **kw):
    d = make_gaussian_blobs(num_samples=n, seed=1)
    return BatchLoader(d, batch, rng=np.random.default_rng(seed), **kw)


class TestBatchLoader:
    def test_batch_shapes(self):
        loader = make_loader()
        x, y = loader.next_batch()
        assert x.shape[0] == 16
        assert y.shape == (16,)

    def test_epoch_covers_dataset_once(self):
        loader = make_loader(n=64, batch=16)
        seen = []
        for _ in range(64 // 16):
            x, _ = loader.next_batch()
            seen.append(x[:, 0])
        seen = np.concatenate(seen)
        assert len(np.unique(seen)) == 64  # every sample exactly once

    def test_reshuffles_each_epoch(self):
        loader = make_loader(n=64, batch=64)
        x1, _ = loader.next_batch()
        x2, _ = loader.next_batch()
        assert not np.array_equal(x1, x2)
        assert np.array_equal(np.sort(x1[:, 0]), np.sort(x2[:, 0]))

    def test_epochs_completed_counter(self):
        loader = make_loader(n=64, batch=16)
        for _ in range(8):
            loader.next_batch()
        assert loader.epochs_completed == 1

    def test_drop_last(self):
        d = make_gaussian_blobs(num_samples=50, seed=0)
        loader = BatchLoader(d, 16, rng=np.random.default_rng(0), drop_last=True)
        sizes = [loader.next_batch()[0].shape[0] for _ in range(3)]
        assert sizes == [16, 16, 16] and loader.epochs_completed == 0
        loader.next_batch()  # the 2 left over are dropped: a new epoch starts
        assert loader.epochs_completed == 1

    def test_keep_last_partial_batch(self):
        d = make_gaussian_blobs(num_samples=50, seed=0)
        loader = BatchLoader(d, 16, rng=np.random.default_rng(0), drop_last=False)
        sizes = [loader.next_batch()[0].shape[0] for _ in range(4)]
        assert sorted(sizes) == [2, 16, 16, 16]

    def test_independent_streams_per_seed(self):
        a, b = make_loader(seed=1), make_loader(seed=2)
        xa, _ = a.next_batch()
        xb, _ = b.next_batch()
        assert not np.array_equal(xa, xb)

    def test_errors(self):
        d = make_gaussian_blobs(num_samples=10, seed=0)
        with pytest.raises(ValueError):
            BatchLoader(d, 0)
        with pytest.raises(ValueError):
            BatchLoader(d, 16, drop_last=True)

    def test_iterator_protocol(self):
        loader = make_loader()
        x, y = next(iter(loader))
        assert x.shape[0] == 16
