"""Critical-path extraction, time attribution, and what-if analysis.

The iteration time of a distributed training round is the longest
dependency chain through its compute/comm DAG (Shi et al.'s model of
S-SGD). Given the reconstructed :class:`~repro.obs.spans.SpanDAG`,
this module walks that chain *backwards* from the end of each
iteration window:

standing on entity ``e`` at time ``t``,

1. if a compute span of ``e`` covers ``t`` — the entity was busy: the
   covered interval is **compute** time and the walk moves to the
   span's start;
2. otherwise, if the latest event on ``e`` at or before ``t`` is a
   message receive — the entity was blocked on that message: the gap
   down to the receive is **wait**, the wire interval
   ``[t_send, t_recv]`` is **comm**, and the walk jumps to the sending
   entity at ``t_send`` (the DAG's happens-before edge);
3. otherwise the gap down to the entity's previous activity (or the
   window floor) is **wait**.

On a PS entity the "wait" of rule 3 is split against the traced
``agg_wait`` union: the overlapping part stays waiting-for-stragglers,
the remainder is aggregation arithmetic and counts as compute (the
paper reports the split as ~70/30, §VI-B).

The walk telescopes: consecutive segments share endpoints, so

    compute + comm + wait  ==  window duration   (exactly)

— the conservation property the acceptance tests pin at 1e-6. What-if
projections re-cost the extracted path's segments (zero-cost comm,
10× link bandwidth, slowest worker removed); they are first-order
estimates on the *same* path, i.e. lower bounds of the true re-routed
critical path, and are labelled as such in the report.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.breakdown import attribution_summary_line
from repro.obs.spans import IterationWindow, SpanDAG, build_span_dag

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "CritSegment",
    "WindowAttribution",
    "attribute_windows",
    "analyze_dag",
    "analyze_run",
    "attribution_summary_line",
    "detect_outliers",
]

#: Robust z-score factor: 1.4826 · MAD estimates sigma for normal data.
_MAD_SIGMA = 1.4826


@dataclass(frozen=True)
class CritSegment:
    """One interval of the critical path.

    ``category`` is ``compute``/``comm``/``wait``; ``entity`` is the
    node id the interval lies on (for comm: the receiving entity);
    ``detail`` names the phase or message kind; comm segments carry the
    wire endpoints for what-if re-costing.
    """

    category: str
    entity: int
    start: float
    end: float
    detail: str = ""
    src_machine: int = -1
    dst_machine: int = -1
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class WindowAttribution:
    """Critical-path attribution of one iteration window."""

    index: int
    start: float
    end: float
    closing_worker: int
    compute: float
    comm: float
    wait: float
    segments: list[CritSegment]
    truncated: bool = False  # walk hit its step guard (defensive only)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def attributed(self) -> float:
        return self.compute + self.comm + self.wait

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "closing_worker": self.closing_worker,
            "compute": self.compute,
            "comm": self.comm,
            "wait": self.wait,
            "duration": self.duration,
        }


def _walk_window(dag: SpanDAG, window: IterationWindow) -> WindowAttribution:
    """Backward-walk one window's critical path (see module docstring)."""
    floor = window.start
    segments: list[CritSegment] = []
    entity = dag.entity_for_worker(window.closing_worker)
    t = window.end
    truncated = False
    # Strict-progress guard: every step moves t strictly downward
    # (message latencies are positive), so the bound is generous.
    max_steps = 10 * (len(dag.messages) + len(dag.tracer_spans)) + 1000
    steps = 0

    def emit_wait(ent, lo: float, hi: float) -> None:
        """Record a blocked interval, splitting PS gaps into genuine
        agg arithmetic (compute) vs waiting via the agg_wait union."""
        if hi <= lo:
            return
        if ent is not None and ent.kind == "ps":
            waited = dag.agg_wait_overlap(lo, hi)
            served = (hi - lo) - waited
            # Exact union geometry is overkill here: the conservation
            # sum only needs the two totals, so emit at most two
            # segments covering [lo, hi] split at lo + waited.
            if waited > 0.0:
                segments.append(CritSegment("wait", ent.node_id, lo, lo + waited, "agg_wait"))
            if served > 0.0:
                segments.append(
                    CritSegment("compute", ent.node_id, lo + waited, hi, "aggregation")
                )
        else:
            nid = ent.node_id if ent is not None else -1
            segments.append(CritSegment("wait", nid, lo, hi, "blocked"))

    while t > floor:
        steps += 1
        if steps > max_steps or entity is None:
            segments.append(CritSegment("wait", -1, floor, t, "unattributed"))
            truncated = entity is not None
            break
        span = entity.compute_span_at(t)
        if span is not None:
            lo = max(span[0], floor)
            segments.append(CritSegment("compute", entity.node_id, lo, t, "compute"))
            t = lo
            continue
        msg = entity.last_recv_before(t)
        last_end = entity.last_compute_end_before(t)
        recv_t = msg.t_recv if msg is not None else -math.inf
        end_t = last_end if last_end is not None else -math.inf
        anchor = max(recv_t, end_t, floor)
        if anchor <= floor:
            emit_wait(entity, floor, t)
            break
        if recv_t >= end_t:
            # Blocked on the message: gap is wait, wire time is comm,
            # then hop to the sender.
            emit_wait(entity, recv_t, t)
            src = dag.entities.get(msg.src_node)
            lo = max(msg.t_send, floor)
            segments.append(
                CritSegment(
                    "comm",
                    entity.node_id,
                    lo,
                    recv_t,
                    msg.kind,
                    msg.src_machine,
                    msg.dst_machine,
                    msg.nbytes,
                )
            )
            t = lo
            if src is not None:
                entity = src
            # An unknown sender keeps the walk on the receiver: its
            # earlier activity still bounds the remaining interval.
            continue
        # Last event was the entity's own compute ending: the gap in
        # between is wait, then rule 1 consumes the span.
        emit_wait(entity, end_t, t)
        t = end_t

    segments.reverse()
    compute = math.fsum(s.duration for s in segments if s.category == "compute")
    comm = math.fsum(s.duration for s in segments if s.category == "comm")
    wait = math.fsum(s.duration for s in segments if s.category == "wait")
    return WindowAttribution(
        index=window.index,
        start=window.start,
        end=window.end,
        closing_worker=window.closing_worker,
        compute=compute,
        comm=comm,
        wait=wait,
        segments=segments,
        truncated=truncated,
    )


def attribute_windows(
    dag: SpanDAG, windows: list[IterationWindow] | None = None
) -> list[WindowAttribution]:
    """Extract and attribute the critical path of each window."""
    if windows is None:
        windows = dag.measured_windows()
    return [_walk_window(dag, w) for w in windows]


# -- straggler detection -------------------------------------------------


def detect_outliers(
    values: dict, k: float = 3.5, min_rel: float = 1.05
) -> list:
    """Keys whose value deviates above the median by more than
    ``k`` robust sigmas (``1.4826·MAD``). With zero MAD (identical
    durations), a value still flags if it exceeds ``min_rel``× the
    median — the persistent-straggler case of a homogeneous cluster.
    Only the slow side flags: fast outliers are not stragglers."""
    if len(values) < 3:
        return []
    data = sorted(values.values())
    n = len(data)
    med = (data[n // 2] if n % 2 else 0.5 * (data[n // 2 - 1] + data[n // 2]))
    deviations = sorted(abs(v - med) for v in values.values())
    mad = (
        deviations[n // 2]
        if n % 2
        else 0.5 * (deviations[n // 2 - 1] + deviations[n // 2])
    )
    out = []
    for key, v in values.items():
        if v <= med:
            continue
        if mad > 0:
            if (v - med) > k * _MAD_SIGMA * mad:
                out.append(key)
        elif med > 0 and v > min_rel * med:
            out.append(key)
    return sorted(out)


def _straggler_report(dag: SpanDAG, cluster: "ClusterSpec | None", k: float) -> dict:
    """Per-worker compute and per-link delay outliers (>k·MAD)."""
    windows = dag.measured_windows()
    if not windows:
        return {"workers": [], "links": [], "mean_compute": {}}
    t0, t1 = windows[0].start, windows[-1].end
    per_worker: dict[int, list[float]] = {}
    for ent in dag.entities.values():
        if ent.kind != "worker":
            continue
        durs = [
            e - s
            for s, e in zip(ent.compute_starts, ent.compute_ends)
            if s >= t0 and e <= t1
        ]
        if durs:
            per_worker[ent.index] = durs
    mean_compute = {w: math.fsum(d) / len(d) for w, d in per_worker.items()}
    workers = detect_outliers(mean_compute, k)

    links: dict[tuple[int, int], list[float]] = {}
    if cluster is not None:
        rate = cluster.network_bytes_per_s
        intra_rate = cluster.intra_bytes_per_s
        latency = cluster.network_latency_s
        intra_latency = cluster.machine.intra_latency_s
        for msg in dag.messages:
            if not (t0 <= msg.t_send and msg.t_recv <= t1):
                continue
            if msg.src_machine == msg.dst_machine:
                ideal = intra_latency + msg.nbytes / intra_rate
            else:
                ideal = latency + msg.nbytes / rate
            links.setdefault((msg.src_machine, msg.dst_machine), []).append(
                (msg.t_recv - msg.t_send) - ideal
            )
    mean_excess = {pair: math.fsum(d) / len(d) for pair, d in links.items()}
    link_flags = detect_outliers(mean_excess, k)
    return {
        "workers": workers,
        "links": [f"m{a}->m{b}" for a, b in link_flags],
        "mean_compute": {f"w{w}": v for w, v in sorted(mean_compute.items())},
    }


# -- supplementary path metrics ------------------------------------------


def _straggler_slack(dag: SpanDAG, windows: list[IterationWindow]) -> float:
    """Total first-vs-last-finisher spread: per window, the gap between
    the earliest and latest final compute end across workers — the time
    synchronous rounds lose to their slowest participant."""
    total = 0.0
    for w in windows:
        last_ends = []
        for ent in dag.entities.values():
            if ent.kind != "worker":
                continue
            j = bisect_right(ent.compute_ends, w.end) - 1
            if j >= 0 and ent.compute_ends[j] > w.start:
                last_ends.append(ent.compute_ends[j])
        if len(last_ends) >= 2:
            total += max(last_ends) - min(last_ends)
    return total


def _overlap_saved(dag: SpanDAG, windows: list[IterationWindow]) -> float:
    """Comm wire time hidden under the same worker's compute spans
    (nonzero only with wait-free BP): wall time the overlap saved."""
    if not windows:
        return 0.0
    t0, t1 = windows[0].start, windows[-1].end
    per_worker_comm: dict[int, list[tuple[float, float]]] = {}
    for span in dag.tracer_spans:
        if span.phase == "comm" and span.worker >= 0:
            if span.end <= t0 or span.start >= t1:
                continue
            per_worker_comm.setdefault(span.worker, []).append(
                (max(span.start, t0), min(span.end, t1))
            )
    total = 0.0
    for wid, comm_spans in per_worker_comm.items():
        ent = dag.entity_for_worker(wid)
        if ent is None:
            continue
        for cs, ce in comm_spans:
            for s, e in zip(ent.compute_starts, ent.compute_ends):
                if e <= cs:
                    continue
                if s >= ce:
                    break
                total += min(e, ce) - max(s, cs)
    return total


# -- what-if projections -------------------------------------------------


def _whatif(
    attributions: list[WindowAttribution],
    dag: SpanDAG,
    cluster: "ClusterSpec | None",
) -> dict:
    """Re-cost the extracted path (first-order projections, see module
    docstring): zero-cost comm, 10× link bandwidth, slowest worker
    brought up to the pack."""
    total = math.fsum(a.duration for a in attributions)
    if total <= 0:
        return {}
    comm_total = math.fsum(a.comm for a in attributions)
    out: dict[str, dict] = {}

    def project(name: str, projected: float, note: str) -> None:
        projected = max(projected, 0.0)
        out[name] = {
            "projected_time": projected,
            "speedup": total / projected if projected > 0 else math.inf,
            "note": note,
        }

    project(
        "zero_comm",
        total - comm_total,
        "all critical-path comm at zero cost (ideal-network upper bound)",
    )

    if cluster is not None:
        saved = 0.0
        latency = cluster.network_latency_s
        intra_latency = cluster.machine.intra_latency_s
        for a in attributions:
            for s in a.segments:
                if s.category != "comm":
                    continue
                lat = intra_latency if s.src_machine == s.dst_machine else latency
                transfer = max(s.duration - lat, 0.0)
                saved += transfer - transfer / 10.0
        project(
            "link_x10",
            total - saved,
            "serialisation+queueing at 10x rate, propagation latency unchanged",
        )

    # Slowest worker removed: scale its critical-path compute segments
    # to the mean pace of the rest of the pack.
    mean_compute: dict[int, float] = {}
    for ent in dag.entities.values():
        if ent.kind != "worker" or not ent.compute_starts:
            continue
        durs = [e - s for s, e in zip(ent.compute_starts, ent.compute_ends)]
        mean_compute[ent.node_id] = math.fsum(durs) / len(durs)
    if len(mean_compute) >= 2:
        slowest = max(mean_compute, key=lambda nid: mean_compute[nid])
        others = [v for nid, v in mean_compute.items() if nid != slowest]
        ratio = (math.fsum(others) / len(others)) / mean_compute[slowest]
        ratio = min(ratio, 1.0)
        saved = math.fsum(
            s.duration * (1.0 - ratio)
            for a in attributions
            for s in a.segments
            if s.category == "compute" and s.entity == slowest
        )
        ent = dag.entities[slowest]
        project(
            "drop_slowest",
            total - saved,
            f"slowest worker ({ent.label}) paced like the others (x{ratio:.3f})",
        )
    return out


# -- top-level reports ---------------------------------------------------


def analyze_dag(
    dag: SpanDAG,
    *,
    cluster: "ClusterSpec | None" = None,
    mad_k: float = 3.5,
    keep_segments: bool = False,
) -> dict:
    """Full critical-path report of one run as a JSON-able dict."""
    windows = dag.measured_windows()
    attributions = attribute_windows(dag, windows)
    total = math.fsum(a.duration for a in attributions)
    totals = {
        "compute": math.fsum(a.compute for a in attributions),
        "comm": math.fsum(a.comm for a in attributions),
        "wait": math.fsum(a.wait for a in attributions),
        "total": total,
    }
    fractions = {
        k: (totals[k] / total if total > 0 else 0.0)
        for k in ("compute", "comm", "wait")
    }
    max_residual = max(
        (abs(a.attributed - a.duration) for a in attributions), default=0.0
    )
    report = {
        "windows": len(attributions),
        "span": [windows[0].start, windows[-1].end] if windows else [0.0, 0.0],
        "num_workers": dag.num_workers,
        "totals": totals,
        "fractions": fractions,
        "summary": attribution_summary_line(fractions),
        "per_iteration": [a.to_dict() for a in attributions],
        "max_residual": max_residual,
        "truncated_windows": sum(1 for a in attributions if a.truncated),
        "stragglers": _straggler_report(dag, cluster, mad_k),
        "straggler_slack": _straggler_slack(dag, windows),
        "overlap_saved": _overlap_saved(dag, windows),
        "whatif": _whatif(attributions, dag, cluster),
    }
    if keep_segments:
        report["segments"] = [
            {
                "category": s.category,
                "entity": dag.entities[s.entity].label if s.entity in dag.entities else "?",
                "start": s.start,
                "end": s.end,
                "detail": s.detail,
            }
            for a in attributions
            for s in a.segments
        ]
    return report


def analyze_run(runner, **kwargs) -> dict:
    """Analyze a finished :class:`~repro.core.runner.DistributedRunner`
    that ran with observability enabled."""
    if runner.observer is None:
        raise ValueError(
            "analysis needs an observed run: construct the runner with "
            "obs=ObsConfig(enabled=True) (trace_events on)"
        )
    dag = build_span_dag(
        observer=runner.observer, tracer=runner.ctx.tracer, config=runner.config
    )
    kwargs.setdefault("cluster", runner.config.cluster)
    report = analyze_dag(dag, **kwargs)
    report["algorithm"] = runner.config.algorithm
    report["mode"] = runner.config.mode
    return report
