"""Run-level observability: metrics, event recording, trace export.

The simulator's result objects compress a whole run down to a handful
of aggregates (five phase totals, final byte counts). This package
keeps the rest — the per-event timeline that makes bottleneck
attribution credible:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  virtual-time series (event-queue depth, PS inbox depth, per-link
  bytes and busy time, per-worker staleness, straggler-jitter draws,
  iteration timestamps);
* :class:`~repro.obs.recorder.RunObserver` — the structured run-event
  recorder the instrumented stack reports into (phase spans, comm
  messages, engine process lifetimes, metric samples);
* :mod:`repro.obs.perfetto` — export of one observed run as
  Chrome/Perfetto trace-event JSON (``repro trace``, ``--trace-out``);
* :mod:`repro.obs.spans` / :mod:`repro.obs.critpath` — post-hoc causal
  span-DAG reconstruction, critical-path extraction with
  compute/comm/wait attribution, straggler detection, and what-if
  projections (``repro analyze``, ``--analyze``).

``ObsConfig`` has one switch, ``enabled``. Off (the default), the
stack's observer reference is ``None`` and the run executes the
unobserved code path (same event schedule, same results, same cache
fingerprints); on, the observer records every stream above. Enable
with::

    from repro.core.runner import DistributedRunner
    from repro.obs import ObsConfig
    runner = DistributedRunner(config, obs=ObsConfig(enabled=True))
    result = runner.run()
    runner.observer.registry.snapshot()
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("ObsConfig",),
        "metrics": ("Counter", "Gauge", "Series", "MetricsRegistry"),
        "recorder": ("FaultEventRecord", "MessageEvent", "ProcessSpan", "RunObserver"),
        "spans": ("SpanDAG", "build_span_dag"),
        "critpath": (
            "analyze_dag",
            "analyze_run",
            "attribute_windows",
            "attribution_summary_line",
        ),
        "perfetto": (
            "build_session_trace",
            "build_trace",
            "write_session_trace",
            "write_trace",
        ),
    },
)
