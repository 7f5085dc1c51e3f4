"""Robust-aggregation configuration.

A :class:`RobustConfig` attached to a :class:`~repro.core.config.RunConfig`
turns on the data-plane resilience layer: a Byzantine-robust
aggregation rule at every gradient-combining point, optional per-peer
norm screening, and optional training-loop guards (NaN/loss-spike
detection with checkpoint rollback and offender quarantine).

``robust=None`` is the zero-overhead path — bit-identical results and
fingerprints to the pre-robust simulator, the same omit-if-none
discipline as ``RunConfig.faults``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["RobustConfig", "AGGREGATORS"]

#: The pluggable aggregation rules (see :mod:`repro.robust.aggregators`).
AGGREGATORS = ("mean", "median", "trimmed_mean", "norm_clip", "krum", "multi_krum")


@dataclass(frozen=True)
class RobustConfig:
    """Aggregation rule + screening + guard parameters for one run."""

    #: Aggregation rule applied wherever gradients are combined.
    #: ``"mean"`` keeps the baseline arithmetic (useful to measure the
    #: unprotected vulnerability, or to run guards alone).
    aggregator: str = "mean"
    #: Fraction trimmed from *each* end by ``trimmed_mean``.
    trim_fraction: float = 0.2
    #: ``norm_clip``: rows longer than ``clip_factor``x the median row
    #: norm are scaled down to that threshold.
    clip_factor: float = 3.0
    #: Byzantine count Krum defends against (default: 1, clamped to the
    #: structural maximum n-3).
    krum_f: int | None = None
    #: Rows multi-Krum keeps (averaged).
    multi_krum_m: int = 2
    #: Per-peer norm screen for decentralized mixing (AD-PSGD, GoSGD,
    #: EASGD) and the centralized per-row screen: a contribution whose
    #: distance from the local reference exceeds ``screen_factor`` x
    #: (reference norm + 1) is rejected. ``None`` disables screening.
    screen_factor: float | None = None
    #: Enable the training-loop guard: NaN/inf and loss-spike detection
    #: with rollback to the last good checkpoint.
    guard: bool = False
    #: A loss above this multiple of the worker's EMA loss counts as a
    #: spike.
    loss_spike_factor: float = 4.0
    #: Global iterations between guard checkpoints (also the rollback
    #: cooldown).
    checkpoint_interval: int = 25
    #: Screening rejections / corrupt gradients before a worker is
    #: quarantined through the membership tracker. 0 disables
    #: quarantine (offenders are only counted).
    quarantine_strikes: int = 3

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}"
            )
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        if self.clip_factor <= 0:
            raise ValueError("clip_factor must be positive")
        if self.krum_f is not None and self.krum_f < 0:
            raise ValueError("krum_f must be non-negative")
        if self.multi_krum_m <= 0:
            raise ValueError("multi_krum_m must be positive")
        if self.screen_factor is not None and self.screen_factor <= 0:
            raise ValueError("screen_factor must be positive")
        if self.loss_spike_factor <= 1.0:
            raise ValueError("loss_spike_factor must exceed 1")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.quarantine_strikes < 0:
            raise ValueError("quarantine_strikes must be non-negative")

    def with_aggregator(self, aggregator: str) -> "RobustConfig":
        return replace(self, aggregator=aggregator)
