"""Loss functions.

Losses return the scalar mean loss and cache what is needed for
``backward()``, which returns the gradient of the *mean* loss w.r.t.
the logits — so gradients are batch-size normalised, matching the
``1/|B|`` convention the paper's per-worker SGD assumes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropy"]


class Loss:
    """Base class: ``forward(pred, target) -> float``; ``backward() -> grad``."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross entropy over integer class labels."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._target: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        if pred.ndim != 2:
            raise ValueError(f"expected logits of shape (N, classes); got {pred.shape}")
        target = np.asarray(target)
        if target.ndim != 1 or target.shape[0] != pred.shape[0]:
            raise ValueError("target must be 1-D integer labels matching the batch")
        shifted = pred - pred.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        n = pred.shape[0]
        self._probs = np.exp(log_probs)
        self._target = target
        return float(-log_probs[np.arange(n), target].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._target is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._target] -= 1.0
        return grad / n
