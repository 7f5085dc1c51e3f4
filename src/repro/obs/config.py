"""Observability configuration.

``ObsConfig`` is an *execution-context* option, deliberately not a
:class:`~repro.core.config.RunConfig` field: observability never
changes what a run computes, so it must not participate in the sweep
executor's content-addressed cache key. Runs observed and unobserved
fingerprint — and simulate — identically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """What the :class:`~repro.obs.recorder.RunObserver` records.

    Parameters
    ----------
    enabled:
        Master switch. ``False`` (the default) means no observer is
        attached at all — the stack's hooks see ``None`` and the run
        is byte-identical to an uninstrumented one.
    metrics:
        Record counters, gauges, and virtual-time series.
    trace_events:
        Record comm-message events and engine process lifetimes (the
        inputs of the Perfetto exporter beyond phase spans).
    queue_sample_every:
        Sample the engine's event-queue depth every N processed
        events. Depth changes event-by-event; a stride keeps the
        series (and the exported trace) bounded on multi-million-event
        runs.
    max_series_points:
        Upper bound on the number of retained samples per
        :class:`~repro.obs.metrics.Series`. ``0`` (the default) keeps
        every sample; a positive bound makes each series halve itself
        deterministically (keep every 2nd point, double the sampling
        stride) whenever it fills, so obs-on memory stays flat on
        arbitrarily long runs while the retained points remain a
        uniform thinning of the stream.
    """

    enabled: bool = False
    metrics: bool = True
    trace_events: bool = True
    queue_sample_every: int = 32
    max_series_points: int = 0

    def __post_init__(self) -> None:
        if self.queue_sample_every <= 0:
            raise ValueError("queue_sample_every must be positive")
        if self.max_series_points < 0:
            raise ValueError("max_series_points must be >= 0")
