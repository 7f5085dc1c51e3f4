"""Learning-rate schedules matching the paper's recipe (§VI-A).

The paper uses the linear-scaling rule of Goyal et al. —
``η = 0.05 · n`` for ``n`` workers with per-worker batch 128 — with a
gradual warm-up over the first five epochs and step decays of 10× at
epochs 30, 60 and 80 of a 90-epoch run. Schedules here are expressed
in *fractional epochs* so the same recipe transfers to scaled-down
runs (e.g. 15-epoch mini experiments decay at 1/3, 2/3 and 8/9 of the
run).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["LRSchedule", "StepDecaySchedule", "WarmupStepSchedule", "scaled_learning_rate"]


def scaled_learning_rate(base_lr: float, num_workers: int) -> float:
    """Linear-scaling rule: ``η = base_lr · n`` (paper uses base 0.05)."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if base_lr <= 0:
        raise ValueError("base_lr must be positive")
    return base_lr * num_workers


class LRSchedule:
    """Maps a fractional epoch (float ≥ 0) to a learning rate."""

    def lr_at(self, epoch: float) -> float:
        raise NotImplementedError

    def __call__(self, epoch: float) -> float:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return self.lr_at(epoch)


class StepDecaySchedule(LRSchedule):
    """Multiply the LR by ``factor`` at each milestone epoch."""

    def __init__(self, base_lr: float, milestones: Sequence[float], factor: float = 0.1) -> None:
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0 < factor < 1:
            raise ValueError("factor must be in (0, 1)")
        if list(milestones) != sorted(milestones):
            raise ValueError("milestones must be sorted ascending")
        self.base_lr = base_lr
        self.milestones = list(milestones)
        self.factor = factor

    def lr_at(self, epoch: float) -> float:
        lr = self.base_lr
        for milestone in self.milestones:
            if epoch >= milestone:
                lr *= self.factor
        return lr


class WarmupStepSchedule(StepDecaySchedule):
    """Linear warm-up followed by step decay — the paper's schedule.

    During warm-up the LR ramps linearly from ``base_lr / num_workers``
    (the single-worker LR) up to ``base_lr``, as in Goyal et al.
    """

    def __init__(
        self,
        base_lr: float,
        *,
        warmup_epochs: float = 5.0,
        milestones: Sequence[float] = (30.0, 60.0, 80.0),
        factor: float = 0.1,
        warmup_start_fraction: float | None = None,
    ) -> None:
        super().__init__(base_lr, milestones, factor)
        if warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if milestones and warmup_epochs > milestones[0]:
            raise ValueError("warm-up must finish before the first decay milestone")
        self.warmup_epochs = warmup_epochs
        self.warmup_start_fraction = warmup_start_fraction

    def lr_at(self, epoch: float) -> float:
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            start_frac = (
                self.warmup_start_fraction
                if self.warmup_start_fraction is not None
                else 0.1
            )
            start = self.base_lr * start_frac
            return start + (self.base_lr - start) * (epoch / self.warmup_epochs)
        return super().lr_at(epoch)
