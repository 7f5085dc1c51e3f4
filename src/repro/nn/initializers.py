"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so
that every distributed worker can be seeded deterministically — the
accuracy experiments rely on all workers starting from identical
parameters (the paper broadcasts the initial model from worker 0).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["he_normal", "zeros", "ones"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional kernels.

    Dense kernels are ``(in, out)``; conv kernels are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    n = int(np.prod(shape))
    return n, n


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Kaiming-He normal init — the paper's models are ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    std = math.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float64)


def zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:  # noqa: ARG001
    return np.zeros(shape, dtype=np.float64)


def ones(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:  # noqa: ARG001
    return np.ones(shape, dtype=np.float64)
