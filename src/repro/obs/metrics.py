"""Metric primitives and the per-run registry.

Three shapes cover everything the simulator wants to expose:

* :class:`Counter` — monotonically increasing totals (bytes sent,
  events processed);
* :class:`Gauge` — last-write-wins scalars (final port utilisation,
  queue high-water marks);
* :class:`Series` — ``(virtual time, value)`` samples, the shape of
  everything that evolves over a run: event-queue depth, PS inbox
  depth, per-worker staleness, compute-time draws, iteration
  timestamps. Sample times must be non-decreasing, which the engine's
  causal event order guarantees for every instrumented site — a
  violation indicates a recording bug, so it raises.

The :class:`MetricsRegistry` is get-or-create by name with one
namespace per kind; the same name may not be registered as two
different kinds (a typo'd re-registration should fail loudly, not
shadow an existing metric).
"""

from __future__ import annotations

import math

__all__ = ["Counter", "Gauge", "Series", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


class Series:
    """A virtual-time series of scalar samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def observe(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"series {self.name!r}: sample at t={t} precedes t={self.times[-1]}"
            )
        self.times.append(float(t))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} has no samples")
        return self.values[-1]


class MetricsRegistry:
    """Get-or-create store of named metrics for one run."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Series] = {}

    def _get(self, name: str, kind: type) -> Counter | Gauge | Series:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    def counters(self) -> dict[str, Counter]:
        return {k: v for k, v in self._metrics.items() if isinstance(v, Counter)}

    def gauges(self) -> dict[str, Gauge]:
        return {k: v for k, v in self._metrics.items() if isinstance(v, Gauge)}

    def all_series(self) -> dict[str, Series]:
        return {k: v for k, v in self._metrics.items() if isinstance(v, Series)}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Compact JSON-able view: totals, gauges, series summaries."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters().items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges().items())},
            "series": {
                k: {"n": len(s), "last": s.values[-1] if s.values else None}
                for k, s in sorted(self.all_series().items())
            },
        }

    def to_dict(self) -> dict:
        """Full JSON-able dump, series points included."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters().items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges().items())},
            "series": {
                k: {"times": list(s.times), "values": list(s.values)}
                for k, s in sorted(self.all_series().items())
            },
        }
