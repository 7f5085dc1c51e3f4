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
    """Whether a run is observed.

    ``enabled=False`` (the default) attaches no observer at all: the
    stack's hook sites see ``None`` and the run is byte-identical to an
    uninstrumented one. ``enabled=True`` attaches a
    :class:`~repro.obs.recorder.RunObserver`, which records every
    stream: metrics, messages, process lifetimes, iteration marks,
    fault and robust events, and phase spans.
    """

    enabled: bool = False
