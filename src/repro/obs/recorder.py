"""The structured run-event recorder.

One :class:`RunObserver` is attached per observed run (the
:class:`~repro.core.runner.DistributedRunner` creates it when
``ObsConfig.enabled`` is set and threads it through the engine, the
network, the comm context, and the runtime). Instrumented
code holds a plain ``observer-or-None`` reference and guards each hook
with ``if obs is not None`` — when observability is off there is no
observer object anywhere and the hot paths run the seed instructions.

The observer collects four things:

* **metrics** — counters/gauges/virtual-time series in ``registry``;
* **phase spans** — one :class:`~repro.sim.trace.Span` per finished
  phase, appended by the run's :class:`~repro.sim.trace.PhaseTracer`;
* **comm messages** — one :class:`MessageEvent` per delivered message;
* **process lifetimes** — one :class:`ProcessSpan` per engine process.

Everything is virtual-time-stamped and feeds
:func:`repro.obs.perfetto.build_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Process
    from repro.sim.network import Network, Port
    from repro.sim.trace import Span

__all__ = ["FaultEventRecord", "MessageEvent", "ProcessSpan", "RunObserver"]


@dataclass(frozen=True)
class MessageEvent:
    """One delivered message: endpoints, wire size, send/recv times.

    ``src_node``/``dst_node`` are the global node ids of the sending
    and receiving endpoints — the causality keys the critical-path
    analyzer uses to jump between entity timelines (machines alone are
    ambiguous: several workers and a PS shard can share one). ``-1``
    means the sender did not report a node id (legacy events).
    """

    src_machine: int
    dst_machine: int
    kind: str
    nbytes: int
    t_send: float
    t_recv: float
    src_node: int = -1
    dst_node: int = -1


@dataclass
class ProcessSpan:
    """Lifetime of one engine process (``end`` is None while alive)."""

    name: str
    start: float
    end: float | None = None


@dataclass(frozen=True)
class FaultEventRecord:
    """One fault-related occurrence: injection, detection, or recovery."""

    time: float
    kind: str  # "crash", "suspect", "evict", "rejoin", "machine_fail", ...
    worker: int | None = None
    machine: int | None = None
    detail: str = ""


class RunObserver:
    """Collects every observable signal of one simulated run.

    Instrumented sites read the observer's bound methods once, at
    construction, and guard each call with ``is not None`` — the same
    null check an unobserved run performs.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        # The run's one list of phase spans: the tracer appends to it.
        self.spans: list[Span] = []
        self.messages: list[MessageEvent] = []
        self.processes: list[ProcessSpan] = []
        self.fault_events: list[FaultEventRecord] = []
        self.robust_events: list[FaultEventRecord] = []
        # One (worker, time, global iteration count) mark per completed
        # training iteration — the analyzer's round boundaries.
        self.iteration_marks: list[tuple[int, float, int]] = []
        # node_id -> {"kind": "worker"|"ps", "index": wid|shard_id,
        # "machine": int}; filled by finalize(runtime=...).
        self.node_table: dict[int, dict] = {}
        self.num_workers: int | None = None
        self._live_processes: dict[int, ProcessSpan] = {}
        # Metric-object caches for the hot hooks: registry lookups are
        # get-or-create by formatted name, too slow for per-message and
        # per-reservation call rates.
        self._port_series: dict[str, tuple] = {}
        self._compute_series: dict[int, object] = {}
        self._inbox_series: dict[int, object] = {}
        self._staleness_series: dict[tuple[int, int], object] = {}
        self._grad_counters: dict[int, object] = {}
        self._msg_count_inc = self.registry.counter("comm.messages").inc
        self._msg_bytes_inc = self.registry.counter("comm.bytes").inc

    # -- engine ---------------------------------------------------------
    def process_started(self, process: "Process", now: float) -> None:
        span = ProcessSpan(name=process.name, start=now)
        self.processes.append(span)
        self._live_processes[id(process)] = span

    def process_finished(self, process: "Process", now: float) -> None:
        span = self._live_processes.pop(id(process), None)
        if span is not None:
            span.end = now

    # -- network --------------------------------------------------------
    def link_sample(self, port: "Port", now: float) -> None:
        """Per-link cumulative bytes and busy time, one sample per
        reservation on that port."""
        pair = self._port_series.get(port.name)
        if pair is None:
            pair = (
                self.registry.series(f"net.{port.name}.bytes").observe,
                self.registry.series(f"net.{port.name}.busy_time").observe,
            )
            self._port_series[port.name] = pair
        pair[0](now, float(port.bytes_served))
        pair[1](now, port.busy_time)

    def on_message(
        self,
        *,
        src_machine: int,
        dst_machine: int,
        kind: str,
        nbytes: int,
        t_send: float,
        t_recv: float,
        src_node: int = -1,
        dst_node: int = -1,
    ) -> None:
        self._msg_count_inc()
        self._msg_bytes_inc(nbytes)
        self.messages.append(
            MessageEvent(
                src_machine, dst_machine, kind, nbytes, t_send, t_recv, src_node, dst_node
            )
        )

    # -- parameter server -----------------------------------------------
    def ps_inbox_sample(self, shard_id: int, now: float, depth: int) -> None:
        observe = self._inbox_series.get(shard_id)
        if observe is None:
            observe = self.registry.series(f"ps{shard_id}.inbox_depth").observe
            self._inbox_series[shard_id] = observe
        observe(now, float(depth))

    def staleness_sample(
        self, shard_id: int, worker: int, now: float, staleness: int
    ) -> None:
        """Updates applied to a shard between one worker's consecutive
        parameter pulls — the observed staleness of that pull."""
        observe = self._staleness_series.get((shard_id, worker))
        if observe is None:
            observe = self.registry.series(f"ps{shard_id}.staleness.w{worker}").observe
            self._staleness_series[(shard_id, worker)] = observe
        observe(now, float(staleness))

    # -- workers ---------------------------------------------------------
    def compute_draw(self, worker: int, now: float, duration: float) -> None:
        """One straggler-jitter draw: the sampled compute duration."""
        observe = self._compute_series.get(worker)
        if observe is None:
            observe = self.registry.series(f"w{worker}.compute_time").observe
            self._compute_series[worker] = observe
        observe(now, duration)

    def grad_bytes(self, worker: int, nbytes: int) -> None:
        inc = self._grad_counters.get(worker)
        if inc is None:
            inc = self.registry.counter(f"w{worker}.grad_bytes").inc
            self._grad_counters[worker] = inc
        inc(nbytes)

    def iteration_sample(self, worker: int, now: float, total_iterations: int) -> None:
        self.registry.series("progress.iterations").observe(now, float(total_iterations))
        self.registry.counter(f"w{worker}.iterations").inc()
        self.iteration_marks.append((worker, now, total_iterations))

    # -- faults -----------------------------------------------------------
    def fault_event(
        self,
        *,
        now: float,
        kind: str,
        worker: int | None = None,
        machine: int | None = None,
        detail: str = "",
    ) -> None:
        """One fault injection/detection/recovery event from the fault
        controller; counted per kind and kept for the Perfetto trace."""
        self.registry.counter(f"faults.{kind}").inc()
        self.fault_events.append(
            FaultEventRecord(
                time=now, kind=kind, worker=worker, machine=machine, detail=detail
            )
        )

    # -- robust layer ------------------------------------------------------
    def robust_event(
        self,
        *,
        now: float,
        kind: str,
        worker: int | None = None,
        detail: str = "",
    ) -> None:
        """One robust-layer event (rejection, detection, rollback,
        checkpoint, quarantine request); counted per kind and kept for
        the Perfetto trace."""
        self.registry.counter(f"robust.{kind}").inc()
        self.robust_events.append(
            FaultEventRecord(time=now, kind=kind, worker=worker, detail=detail)
        )

    # -- end of run -------------------------------------------------------
    def finalize(
        self,
        *,
        engine: "Engine | None" = None,
        network: "Network | None" = None,
        runtime=None,
    ) -> None:
        """Record the end-of-run aggregates (final port utilisation,
        engine totals, span counts) as counters/gauges, close any
        process spans still alive when the event queue drained, and —
        given the runtime — snapshot the node table (node id → worker /
        PS shard / machine) the span-DAG reconstruction needs."""
        if runtime is not None:
            self.num_workers = runtime.config.num_workers
            for slot in runtime.workers:
                self.node_table[slot.node.node_id] = {
                    "kind": "worker",
                    "index": slot.wid,
                    "machine": slot.machine,
                }
            for shard in runtime.ps_nodes:
                self.node_table[shard.node_id] = {
                    "kind": "ps",
                    "index": shard.shard_id,
                    "machine": shard.machine,
                }
        if engine is not None:
            for span in self._live_processes.values():
                span.end = engine.now
            self._live_processes.clear()
            self.registry.counter("engine.events_processed").inc(
                engine.events_processed
            )
            self.registry.gauge("engine.queue_high_water").set(
                engine.queue_high_water
            )
            self.registry.gauge("engine.final_time").set(engine.now)
        if network is not None:
            self.registry.counter("net.total_bytes").inc(network.total_bytes)
            self.registry.counter("net.total_messages").inc(network.total_messages)
            horizon = max(network.engine.now, 1e-12)
            for port in [*network.tx, *network.rx, *network.intra]:
                self.registry.gauge(f"net.{port.name}.utilization").set(
                    port.utilization(horizon)
                )
        self.registry.counter("trace.spans").inc(len(self.spans))
