"""Optimizers.

Two views of the same momentum-SGD update are provided:

* :class:`SGD` operates on a :class:`~repro.nn.module.Module` in place,
  as whole-vector operations on the module's flat parameter arena
  (used by each worker's local computation stage);
* :class:`FlatSGD` operates on flat parameter/gradient vectors (used by
  parameter servers, which in the paper hold only the raw tensors and
  never a framework graph).

Both implement the paper's recipe (§VI-A): momentum 0.9, weight decay
1e-4 applied to weights but not biases/batch-norm parameters, and a
learning rate supplied per step by an
:class:`~repro.nn.schedules.LRSchedule`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["Optimizer", "SGD", "FlatSGD", "weight_decay_mask"]


def weight_decay_mask(module: Module) -> np.ndarray:
    """Boolean flat vector marking which entries receive weight decay."""
    parts = [
        np.full(p.size, p.weight_decay, dtype=bool)
        for p in module.parameters()
    ]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


class Optimizer:
    """Base optimizer over a module."""

    def __init__(self, module: Module) -> None:
        self.module = module

    def step(self, lr: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.module.zero_grad()


class SGD(Optimizer):
    """Momentum SGD: ``v = mu*v + g + wd*w``; ``w -= lr*v``.

    This is the "heavy-ball with decoupled scaling" form used by the
    large-minibatch ImageNet recipe of Goyal et al. that the paper
    follows.
    """

    def __init__(
        self,
        module: Module,
        *,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
    ) -> None:
        super().__init__(module)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(module._flat()[0])
        self._decay_mask = weight_decay_mask(module) if weight_decay else None

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        values, grads = self.module._flat()
        vel = self._velocity
        vel *= self.momentum
        if self._decay_mask is None:
            vel += grads
        else:  # biases / batch-norm scales decay by 0
            decayed = self.weight_decay * values
            decayed *= self._decay_mask
            decayed += grads
            vel += decayed
        values -= lr * vel

    def velocity_flat(self) -> np.ndarray:
        """Flat copy of the momentum buffer (used by DGC tests)."""
        return self._velocity.copy()

    def reset_velocity(self) -> None:
        self._velocity.fill(0.0)


class FlatSGD:
    """Momentum SGD over flat vectors — the parameter-server update.

    Parameters
    ----------
    num_params:
        Length of the flat parameter vector.
    decay_mask:
        Boolean vector (from :func:`weight_decay_mask`) selecting
        entries subject to weight decay; ``None`` decays everything.
    """

    def __init__(
        self,
        num_params: int,
        *,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        decay_mask: np.ndarray | None = None,
    ) -> None:
        if num_params < 0:
            raise ValueError("num_params must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if decay_mask is not None and decay_mask.shape != (num_params,):
            raise ValueError("decay_mask must match num_params")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        self.velocity = np.zeros(num_params, dtype=np.float64)

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """Apply one update *in place* on ``params`` and return it."""
        if params.shape != self.velocity.shape or grad.shape != self.velocity.shape:
            raise ValueError("params/grad shape mismatch with optimizer state")
        if self.weight_decay:
            if self.decay_mask is None:
                grad = grad + self.weight_decay * params
            else:
                grad = grad + self.weight_decay * np.where(self.decay_mask, params, 0.0)
        self.velocity *= self.momentum
        self.velocity += grad
        params -= lr * self.velocity
        return params
