"""Deep Gradient Compression (Lin et al., ICLR'18) — §V-C.

DGC communicates only the top ~0.1 % of gradient entries by magnitude
and keeps the rest *locally accumulated* so no information is lost,
with four accuracy-preserving techniques from the original paper, all
implemented here:

1. **local gradient accumulation** — unsent gradient mass stays in the
   accumulation buffer and competes again next iteration;
2. **momentum correction** — accumulation happens on the momentum-
   corrected velocity, not the raw gradient;
3. **local gradient clipping** — the gradient's norm is clipped to
   ``clip_norm / sqrt(N)`` *before* accumulation (each worker holds
   1/N of the batch);
4. **momentum factor masking** — both the momentum and the
   accumulation buffer are zeroed at sent coordinates, damping
   staleness.

Plus **warm-up training**: the sparsity ramps 75 % → 93.75 % → 98.4 %
→ 99.6 % → 99.9 % over the first epochs (exponential ramp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DGCConfig

__all__ = ["DGCConfig", "SparseGradient", "DGCCompressor"]

# Bytes on the wire per retained element: 4-byte value + 4-byte index.
BYTES_PER_SPARSE_ELEMENT = 8


@dataclass
class SparseGradient:
    """A compressed gradient: coordinate indices and values."""

    indices: np.ndarray
    values: np.ndarray
    num_elements: int  # dense dimensionality

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must align")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_elements
        ):
            raise ValueError("index out of range")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return self.nnz * BYTES_PER_SPARSE_ELEMENT


class DGCCompressor:
    """Per-worker DGC state machine over flat gradient vectors."""

    def __init__(self, num_elements: int, config: DGCConfig) -> None:
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        self.config = config
        self.num_elements = num_elements
        # Momentum-corrected velocity and its local accumulation.
        self.velocity = np.zeros(num_elements, dtype=np.float64)
        self.accumulation = np.zeros(num_elements, dtype=np.float64)

    def compress(self, grad: np.ndarray, *, epoch: float = 1e9) -> SparseGradient:
        """Compress one gradient; mutates the local DGC state."""
        if grad.shape != (self.num_elements,):
            raise ValueError("gradient shape mismatch")
        cfg = self.config

        # (3) local gradient clipping, scaled by 1/sqrt(N).
        limit = cfg.clip_norm / np.sqrt(cfg.num_workers)
        norm = float(np.linalg.norm(grad))
        if norm > limit and norm > 0:
            grad = grad * (limit / norm)

        # (2) momentum correction + (1) local accumulation.
        self.velocity = cfg.momentum * self.velocity + grad
        self.accumulation += self.velocity

        ratio = cfg.ratio_at(epoch)
        k = max(1, int(round(ratio * self.num_elements)))
        k = min(k, self.num_elements)
        magnitude = np.abs(self.accumulation)
        if k == self.num_elements:
            selected = np.arange(self.num_elements)
        else:
            # argpartition: O(n) top-k selection.
            selected = np.argpartition(magnitude, self.num_elements - k)[-k:]
        selected = np.sort(selected)
        values = self.accumulation[selected].copy()

        # (4) momentum factor masking: clear sent coordinates.
        self.accumulation[selected] = 0.0
        self.velocity[selected] = 0.0
        return SparseGradient(indices=selected, values=values, num_elements=self.num_elements)

    def compressed_bytes(self, *, epoch: float = 1e9) -> int:
        """Wire size a compress() at ``epoch`` would produce — used by
        timing-only mode, where no real gradient exists."""
        ratio = self.config.ratio_at(epoch)
        k = max(1, int(round(ratio * self.num_elements)))
        return min(k, self.num_elements) * BYTES_PER_SPARSE_ELEMENT
