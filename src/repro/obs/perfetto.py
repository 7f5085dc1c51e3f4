"""Chrome/Perfetto trace-event export of one observed run.

Produces the JSON object format of the Trace Event spec — loadable in
``https://ui.perfetto.dev`` or ``chrome://tracing`` — from a run's
:class:`~repro.obs.recorder.RunObserver`, which holds its phase spans.

Track layout (``pid`` = process lane, ``tid`` = thread lane):

* pids ``0..M-1`` — the cluster's machines; each worker's phase spans
  (``compute``/``local_agg``/``global_agg``/``comm``) are complete
  (``ph: "X"``) events on its own ``tid`` within its machine.
* pid ``M`` — the parameter-server lane (spans traced with worker
  ``-1``, i.e. BSP's ``agg_wait``).
* pid ``M+1`` — the network: one ``X`` event per delivered message,
  on the sending machine's ``tid``.
* pid ``M+2`` — metrics: every observer series and the iteration
  marks (``progress.iterations``) as counter tracks (``ph: "C"``),
  plus engine process lifetimes as ``X`` events.
* pid ``M+3`` — the critical path (only when a critical-path report is
  passed): the extracted per-iteration path as ``X`` events named by
  attribution category (``compute``/``comm``/``wait``).

Every simulated node gets an explicit ``process_name``/``thread_name``
metadata row up front (machines, workers, PS shards, network lanes),
so lanes are labelled even in a trace whose events never touch them.

Timestamps are virtual seconds scaled to microseconds (the spec's
unit). Export is a single merge pass: each event stream (phase spans,
comm messages, process lifetimes, fault/robust instants, one stream
per counter series) is individually time-ordered — most are recorded
that way; spans and messages sort small key tuples — and
``heapq.merge`` interleaves them lazily in non-decreasing ``ts``
order. Nothing builds or re-sorts a combined event list, and
:func:`write_trace` streams events straight to the file, so peak
memory is one event, not one run. The per-phase sum of span durations
in the exported file equals ``PhaseTracer.breakdown()`` exactly (same
spans, same arithmetic) up to the microsecond scaling.
"""

from __future__ import annotations

import json
from heapq import merge
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunObserver
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "build_trace",
    "write_trace",
    "build_session_trace",
    "write_session_trace",
]

_US = 1e6  # seconds -> trace-event microseconds


def _worker_lane(worker: int, cluster: "ClusterSpec") -> tuple[int, int]:
    """(pid, tid) of a phase span's worker (-1 = the PS lane)."""
    if worker < 0:
        return cluster.machines, 0
    if worker < cluster.total_gpus:
        return cluster.machine_of_worker(worker), worker
    return 0, worker


def _metadata_rows(
    observer: "RunObserver",
    cluster: "ClusterSpec",
    critpath: dict | None,
) -> list[dict[str, Any]]:
    """Explicit pid/tid naming for every simulated node, up front."""
    machines = cluster.machines
    ps_pid, net_pid, metrics_pid = machines, machines + 1, machines + 2
    meta: list[dict[str, Any]] = []

    def process_name(pid: int, name: str) -> None:
        meta.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )

    def thread_name(pid: int, tid: int, name: str) -> None:
        meta.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    for m in range(machines):
        process_name(m, f"machine{m}")
    process_name(ps_pid, "parameter servers")
    process_name(net_pid, "network")
    process_name(metrics_pid, "metrics")
    if critpath is not None:
        process_name(machines + 3, "critical path")
        thread_name(machines + 3, 0, "per-iteration path")

    # Worker/PS lanes: the observer's node table names every endpoint;
    # a lane only spans reach (the PS lane of BSP's agg_wait) is named
    # from the spans.
    named: set[tuple[int, int]] = set()
    for info in sorted(observer.node_table.values(), key=lambda i: (i["kind"], i["index"])):
        if info["kind"] == "worker":
            pid, tid = _worker_lane(info["index"], cluster)
            name = f"w{info['index']}"
        else:
            pid, tid = ps_pid, info["index"]
            name = f"ps{info['index']}"
        if (pid, tid) not in named:
            named.add((pid, tid))
            thread_name(pid, tid, name)
    for span in observer.spans:
        pid, tid = _worker_lane(span.worker, cluster)
        if (pid, tid) not in named:
            named.add((pid, tid))
            thread_name(pid, tid, "ps" if span.worker < 0 else f"w{span.worker}")
    for m in range(machines):
        thread_name(net_pid, m, f"from m{m}")
    if observer.processes:
        thread_name(metrics_pid, 1, "engine processes")
    if observer.fault_events or observer.robust_events:
        thread_name(metrics_pid, 2, "faults")
    return meta


def _event_streams(
    observer: "RunObserver",
    cluster: "ClusterSpec",
    critpath: dict | None,
) -> list[Iterator[dict[str, Any]]]:
    """One lazily-evaluated, time-ordered event stream per source."""
    machines = cluster.machines
    net_pid, metrics_pid = machines + 1, machines + 2
    # Spans are appended at end() time; order by start for the merge.
    spans = sorted(observer.spans, key=lambda s: s.start)
    # Messages are appended at delivery; order by send time.
    msgs = sorted(observer.messages, key=lambda m: m.t_send)

    def phase_events() -> Iterator[dict[str, Any]]:
        for span in spans:
            pid, tid = _worker_lane(span.worker, cluster)
            yield {
                "ph": "X",
                "name": span.phase,
                "cat": "phase",
                "pid": pid,
                "tid": tid,
                "ts": span.start * _US,
                "dur": span.duration * _US,
            }

    def comm_events() -> Iterator[dict[str, Any]]:
        for msg in msgs:
            yield {
                "ph": "X",
                "name": f"{msg.kind} {msg.nbytes}B",
                "cat": "comm",
                "pid": net_pid,
                "tid": msg.src_machine,
                "ts": msg.t_send * _US,
                "dur": (msg.t_recv - msg.t_send) * _US,
                "args": {
                    "nbytes": msg.nbytes,
                    "dst_machine": msg.dst_machine,
                    "src_node": msg.src_node,
                    "dst_node": msg.dst_node,
                },
            }

    def process_events() -> Iterator[dict[str, Any]]:
        # Appended at spawn time: already start-ordered.
        for proc in observer.processes:
            if proc.end is None:
                continue
            yield {
                "ph": "X",
                "name": proc.name,
                "cat": "process",
                "pid": metrics_pid,
                "tid": 1,
                "ts": proc.start * _US,
                "dur": (proc.end - proc.start) * _US,
            }

    def instant_events(records, cat: str) -> Iterator[dict[str, Any]]:
        # Recorded in virtual-time order by the controllers.
        for ev in records:
            pid, tid = (
                _worker_lane(ev.worker, cluster)
                if ev.worker is not None
                else (metrics_pid, 2)
            )
            yield {
                "ph": "i",  # instant event, global scope: draws a
                "s": "g",  # full-height marker line in Perfetto
                "name": f"{cat}:{ev.kind}",
                "cat": cat,
                "pid": pid,
                "tid": tid,
                "ts": ev.time * _US,
                "args": {
                    "worker": ev.worker,
                    "machine": getattr(ev, "machine", None),
                    "detail": ev.detail,
                },
            }

    def counter_events(name: str, samples) -> Iterator[dict[str, Any]]:
        for t, v in samples:
            yield {
                "ph": "C",
                "name": name,
                "cat": "metric",
                "pid": metrics_pid,
                "tid": 0,
                "ts": t * _US,
                "args": {"value": v},
            }

    streams = [
        phase_events(),
        comm_events(),
        process_events(),
        instant_events(observer.fault_events, "fault"),
        instant_events(observer.robust_events, "robust"),
    ]
    tracks = {name: zip(s.times, s.values) for name, s in observer.series.items()}
    if observer.iteration_marks:
        tracks["progress.iterations"] = (
            (float(t), float(n)) for _, t, n in observer.iteration_marks
        )
    for name in sorted(tracks):
        streams.append(counter_events(name, tracks[name]))

    if critpath is not None:
        segments = sorted(critpath.get("segments", ()), key=lambda s: s["start"])

        def critpath_events() -> Iterator[dict[str, Any]]:
            for seg in segments:
                yield {
                    "ph": "X",
                    "name": seg["category"],
                    "cat": "critpath",
                    "pid": machines + 3,
                    "tid": 0,
                    "ts": seg["start"] * _US,
                    "dur": (seg["end"] - seg["start"]) * _US,
                    "args": {"entity": seg["entity"], "detail": seg["detail"]},
                }

        streams.append(critpath_events())

    return streams


def _trace_parts(
    observer: "RunObserver",
    cluster: "ClusterSpec",
    label: str,
    critpath: dict | None,
) -> tuple[list[dict[str, Any]], Iterator[dict[str, Any]], dict[str, Any]]:
    meta = _metadata_rows(observer, cluster, critpath)
    streams = _event_streams(observer, cluster, critpath)
    # heapq.merge is stable: equal timestamps keep per-stream order and
    # earlier streams win ties, matching the old stable-sort layout.
    merged = merge(*streams, key=lambda e: e["ts"])
    other = {"label": label, "clock": "virtual seconds x 1e6"}
    return meta, merged, other


def build_trace(
    *,
    observer: "RunObserver",
    cluster: "ClusterSpec",
    label: str = "repro run",
    critpath: dict | None = None,
    tracer: object = None,
) -> dict:
    """Assemble the trace-event JSON object for one run.

    ``critpath`` is an :func:`repro.obs.critpath.analyze_dag` report
    built with ``keep_segments=True``; its extracted path is rendered
    as a dedicated highlight lane. ``tracer`` is accepted and ignored
    (the spans are the observer's): the ledger's probe still passes it.
    """
    meta, merged, other = _trace_parts(observer, cluster, label, critpath)
    return {
        "traceEvents": meta + list(merged),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_trace(
    path: str | Path,
    *,
    observer: "RunObserver",
    cluster: "ClusterSpec",
    label: str = "repro run",
    critpath: dict | None = None,
) -> Path:
    """Build and write the trace, streaming events one at a time;
    returns the written path."""
    meta, merged, other = _trace_parts(observer, cluster, label, critpath)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write('{"traceEvents": [')
        first = True
        for event in chain(meta, merged):
            if not first:
                fh.write(", ")
            fh.write(json.dumps(event))
            first = False
        fh.write('], "displayTimeUnit": "ms", "otherData": ')
        fh.write(json.dumps(other))
        fh.write("}\n")
    return path


# -- sweep-session traces ------------------------------------------------
#
# A durable sweep's journal (repro.experiments.session) is itself a
# timeline — host wall-clock, not virtual time — and converts to the
# same trace-event JSON: one thread lane per sweep cell, an ``X`` span
# per execution attempt, instants for retries / deadline kills /
# signals / preemption. ``repro sweep show --trace-out`` exports it.

#: journal events that open an attempt span / close one.
_SESSION_SPAN_END = {
    "run_done": "done",
    "run_failed": "failed",
    "run_retry": "retry",
    "deadline_kill": "deadline-kill",
    "run_abandoned": "abandoned",
}
#: journal events rendered as instants on the session control lane.
_SESSION_INSTANTS = (
    "session_start",
    "session_resume",
    "session_complete",
    "pool_recycled",
    "run_requeued",
    "stopped",
    "preempt",
)


def build_session_trace(
    records: list[dict],
    *,
    label: str = "sweep session",
    labels: dict[str, str] | None = None,
) -> dict:
    """Trace-event JSON of a sweep session's journal records.

    ``records`` is the (already replay-recovered) journal; timestamps
    are the journal's wall-clock seconds, normalised so the first
    record sits at t=0. ``labels`` optionally maps run fingerprints to
    human names (the grid manifest's per-run labels).
    """
    labels = labels or {}
    times = [r["t"] for r in records if isinstance(r.get("t"), (int, float))]
    t0 = min(times) if times else 0.0
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": label}},
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
         "args": {"name": "session"}},
    ]
    lanes: dict[str, int] = {}
    open_spans: dict[str, tuple[float, int]] = {}  # fp -> (start ts, attempt)

    def lane(fp: str) -> int:
        tid = lanes.get(fp)
        if tid is None:
            tid = len(lanes) + 1
            lanes[fp] = tid
            events.append(
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                 "args": {"name": labels.get(fp, fp[:12])}}
            )
        return tid

    spans: list[dict[str, Any]] = []
    instants: list[dict[str, Any]] = []
    for record in records:
        kind = record.get("ev")
        ts = (record.get("t", t0) - t0) * _US
        fp = record.get("fp")
        if kind == "run_start" and isinstance(fp, str):
            open_spans[fp] = (ts, record.get("attempt", 1))
            lane(fp)
            continue
        outcome = _SESSION_SPAN_END.get(kind)
        if outcome is not None and isinstance(fp, str):
            start, attempt = open_spans.pop(fp, (ts, record.get("attempt", 1)))
            spans.append(
                {"ph": "X", "cat": "attempt", "name": f"attempt {attempt}: {outcome}",
                 "pid": 0, "tid": lane(fp), "ts": start, "dur": max(ts - start, 1.0),
                 "args": {k: v for k, v in record.items() if k not in ("ev", "t")}}
            )
            if kind in ("run_retry", "deadline_kill"):
                instants.append(
                    {"ph": "i", "s": "t", "cat": "session", "name": kind,
                     "pid": 0, "tid": lane(fp), "ts": ts}
                )
            continue
        if kind in _SESSION_INSTANTS:
            instants.append(
                {"ph": "i", "s": "p", "cat": "session", "name": kind,
                 "pid": 0, "tid": 0, "ts": ts,
                 "args": {k: v for k, v in record.items() if k not in ("ev", "t")}}
            )
    # Attempts still open at the end of the journal (the driver died
    # mid-run): render them as zero-length "in flight" markers.
    for fp, (start, attempt) in open_spans.items():
        instants.append(
            {"ph": "i", "s": "t", "cat": "session", "name": f"attempt {attempt} in flight",
             "pid": 0, "tid": lane(fp), "ts": start}
        )
    body = sorted(spans + instants, key=lambda e: e["ts"])
    return {
        "traceEvents": events + body,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "clock": "host wall-clock seconds x 1e6"},
    }


def write_session_trace(
    path: str | Path,
    records: list[dict],
    *,
    label: str = "sweep session",
    labels: dict[str, str] | None = None,
) -> Path:
    trace = build_session_trace(records, label=label, labels=labels)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return path
