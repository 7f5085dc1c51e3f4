"""Batch normalisation.

ResNets depend on batch norm to train at any depth; the paper's
ResNet-50 uses it after every convolution. ``gamma``/``beta`` are
excluded from weight decay per the standard recipe.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm2d"]


class BatchNorm2d(Module):
    """Batch norm over ``(batch, H, W)`` for inputs of shape ``(N, C, H, W)``.

    Every forward pass normalises with the batch's own statistics; no
    running statistics are kept (evaluation uses batch statistics too).
    """

    def __init__(self, num_features: int, *, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), weight_decay=False)
        self.beta = Parameter(np.zeros(num_features), weight_decay=False)
        self._cache: tuple | None = None

    @staticmethod
    def _rows(x: np.ndarray) -> np.ndarray:
        """``x`` as a ``(channels, samples)`` matrix."""
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W); got shape {x.shape}")
        return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)

    @staticmethod
    def _unrows(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Inverse of :meth:`_rows`, as a view."""
        n, c, h, w = shape
        return rows.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows = self._rows(x)
        count = rows.shape[1]
        mean = rows.sum(axis=1) / count
        x_hat = rows - mean[:, None]
        var = np.einsum("ij,ij->i", x_hat, x_hat) / count
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[:, None]
        self._cache = (x_hat, inv_std) if self._retain else None
        out = x_hat * self.gamma.value[:, None]
        out += self.beta.value[:, None]
        return self._unrows(out, x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = cache
        g = self._rows(grad_out)
        count = g.shape[1]
        g_xhat = np.einsum("ij,ij->i", g, x_hat)
        g_sum = g.sum(axis=1)
        self.gamma.grad += g_xhat
        self.beta.grad += g_sum
        # gamma*inv_std * (g - mean(g) - x_hat*mean(g*x_hat)), built in
        # place in x_hat, which nothing else holds now.
        grad = x_hat
        grad *= (-g_xhat / count)[:, None]
        grad += g
        grad -= (g_sum / count)[:, None]
        grad *= (self.gamma.value * inv_std)[:, None]
        return self._unrows(grad, grad_out.shape)
