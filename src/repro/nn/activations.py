"""Activation layers with explicit backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Softmax"]


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


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self._retain else None
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, self.negative_slope * grad_out)


class Sigmoid(Module):
    """Logistic sigmoid, numerically stabilised for large |x|."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expx = np.exp(x[~pos])
        out[~pos] = expx / (1.0 + expx)
        self._out = out if self._retain else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if self._retain else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Softmax(Module):
    """Row-wise softmax over the last axis.

    Usually the fused :class:`repro.nn.losses.SoftmaxCrossEntropy` is
    preferred during training; this standalone layer exists for
    inference-time probability outputs and for testing.
    """

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exps = np.exp(shifted)
        out = exps / np.sum(exps, axis=-1, keepdims=True)
        self._out = out if self._retain else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        s = self._out
        inner = np.sum(grad_out * s, axis=-1, keepdims=True)
        return s * (grad_out - inner)
