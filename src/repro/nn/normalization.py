"""Batch normalisation layers.

ResNets depend on batch norm to train at any depth; the paper's
ResNet-50 uses it after every convolution. ``gamma``/``beta`` are
excluded from weight decay per the standard recipe.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNormBase(Module):
    def __init__(self, num_features: int, *, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), weight_decay=False)
        self.beta = Parameter(np.zeros(num_features), weight_decay=False)
        # Running statistics are buffers, not parameters: they are not
        # exchanged by the distributed algorithms (each worker keeps its
        # own, as TF's replicated batch-norm does).
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple | None = None

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a ``(features, samples)`` matrix (a view when ``x``
        is channel-major)."""
        raise NotImplementedError

    def _unrows(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Inverse of :meth:`_rows`, as a view."""
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows = self._rows(x)
        if self.training:
            count = rows.shape[1]
            mean = rows.sum(axis=1) / count
            x_hat = rows - mean[:, None]
            var = np.einsum("ij,ij->i", x_hat, x_hat) / count
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        else:
            var = self.running_var
            x_hat = rows - self.running_mean[:, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[:, None]
        self._cache = (x_hat, inv_std) if self.training and self._retain else None
        out = x_hat * self.gamma.value[:, None]
        out += self.beta.value[:, None]
        return self._unrows(out, x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (in training mode)")
        x_hat, inv_std = self._cache
        g = self._rows(grad_out)
        count = g.shape[1]
        g_xhat = np.einsum("ij,ij->i", g, x_hat)
        g_sum = g.sum(axis=1)
        self.gamma.grad += g_xhat
        self.beta.grad += g_sum
        # gamma*inv_std * (g - mean(g) - x_hat*mean(g*x_hat)), built in place.
        grad = x_hat * (-g_xhat / count)[:, None]
        grad += g
        grad -= (g_sum / count)[:, None]
        grad *= (self.gamma.value * inv_std)[:, None]
        return self._unrows(grad, grad_out.shape)


class BatchNorm1d(_BatchNormBase):
    """Batch norm over ``(batch,)`` for inputs of shape ``(N, F)``."""

    def _rows(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, F); got shape {x.shape}")
        return x.T

    def _unrows(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return rows.T


class BatchNorm2d(_BatchNormBase):
    """Batch norm over ``(batch, H, W)`` for inputs of shape ``(N, C, H, W)``."""

    def _rows(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W); got shape {x.shape}")
        return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)

    def _unrows(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        n, c, h, w = shape
        return rows.reshape(c, h, w, n).transpose(3, 0, 1, 2)
