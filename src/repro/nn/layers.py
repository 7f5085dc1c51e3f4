"""Dense and utility layers."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module, Parameter

__all__ = ["Dense", "Flatten", "Identity"]

Initializer = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


class Dense(Module):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output width.
    rng:
        Generator used for weight initialisation.
    weight_init:
        Initializer for ``W`` (He-normal by default, matching the ReLU
        networks used throughout the paper).
    bias:
        Whether to add a bias term. Biases are excluded from weight
        decay, following the paper's training recipe.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | None = None,
        weight_init: Initializer = initializers.he_normal,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features), weight_decay=False) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects (batch, features); got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {x.shape[1]}")
        self._x = x if self._retain else None
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, self._x = self._x, None
        if x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class Flatten(Module):
    """Collapse all trailing dimensions into one feature axis."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class Identity(Module):
    """No-op layer, handy as a default shortcut branch."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
