"""Per-worker mini-batch iterator.

Each worker owns one :class:`BatchLoader` over its shard. The loader
reshuffles at every epoch boundary with its own generator, so two
workers' sampling streams are independent — exactly the behaviour of
per-worker ``tf.data`` pipelines in the paper's implementation.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import Dataset

__all__ = ["BatchLoader"]


class BatchLoader:
    """Infinite mini-batch stream with epoch tracking.

    Parameters
    ----------
    dataset:
        The worker's shard.
    batch_size:
        Per-worker batch size (paper: 128 for ResNet-50, 96 for VGG-16).
    rng:
        Shuffling generator; seed per worker.
    drop_last:
        Drop a trailing partial batch (keeps gradient noise scale
        constant across iterations).
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        *,
        rng: np.random.Generator | None = None,
        drop_last: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        if drop_last and len(dataset) < batch_size:
            raise ValueError(
                f"shard of {len(dataset)} samples cannot produce a full batch of {batch_size}"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.drop_last = drop_last
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0
        self.epochs_completed = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``(x, y)`` mini-batch, reshuffling per epoch."""
        n = len(self.dataset)
        if self._cursor + self.batch_size > n:
            if not self.drop_last and self._cursor < n:
                idx = self._order[self._cursor :]
                self._advance_epoch()
                return self.dataset.x[idx], self.dataset.y[idx]
            self._advance_epoch()
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.dataset.x[idx], self.dataset.y[idx]

    def _advance_epoch(self) -> None:
        self._order = self._rng.permutation(len(self.dataset))
        self._cursor = 0
        self.epochs_completed += 1

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        return self.next_batch()
