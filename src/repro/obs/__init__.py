"""Run-level observability: event recording, trace export, analysis.

The simulator's result objects compress a whole run down to a handful
of aggregates (five phase totals, final byte counts). This package
keeps the rest — the per-event timeline that makes bottleneck
attribution credible:

* :class:`~repro.obs.recorder.RunObserver` — the structured run-event
  recorder the instrumented stack reports into (phase spans, comm
  messages, engine process lifetimes, fault events, iteration marks,
  and virtual-time :class:`~repro.obs.recorder.Series` such as queue
  depth, per-link bytes and per-worker staleness);
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
    runner.observer.series["engine.queue_depth"].values
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("ObsConfig",),
        "recorder": ("FaultEventRecord", "MessageEvent", "ProcessSpan", "RunObserver", "Series"),
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
