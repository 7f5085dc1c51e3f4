"""The ReLU activation, with an explicit backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU"]


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0 if self._retain else None
        # fmax, not maximum: a NaN input maps to 0, as ``where(x > 0, x, 0)`` did.
        return np.fmax(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask
