"""The structured run-event recorder.

One :class:`RunObserver` is attached per observed run (the
:class:`~repro.core.runner.DistributedRunner` creates it when
``ObsConfig.enabled`` is set and threads it through the engine, the
network, the comm context, and the runtime). Instrumented
code holds a plain ``observer-or-None`` reference and guards each hook
with ``if obs is not None`` — when observability is off there is no
observer object anywhere and the hot paths run the seed instructions.

The observer stores each observed fact once:

* **phase spans** — one :class:`~repro.sim.trace.Span` per finished
  phase, appended by the run's :class:`~repro.sim.trace.PhaseTracer`;
* **comm messages** — one :class:`MessageEvent` per delivered message;
* **process lifetimes** — one :class:`ProcessSpan` per engine process;
* **fault/robust events** and **iteration marks**, in time order;
* **series** — one :class:`Series` per sampled quantity (queue and
  inbox depths, per-link bytes and busy time, staleness, compute
  draws), plus per-worker gradient bytes, the one total no list holds.

Counts and totals are read from these lists, or from the engine and
network themselves. Everything is virtual-time-stamped and feeds
:func:`repro.obs.perfetto.build_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Process
    from repro.sim.network import Port
    from repro.sim.trace import Span

__all__ = ["FaultEventRecord", "MessageEvent", "ProcessSpan", "RunObserver", "Series"]


class Series:
    """A virtual-time series of scalar samples.

    Sample times must be non-decreasing, which the engine's causal
    event order guarantees for every instrumented site — a violation
    indicates a recording bug, so it raises.
    """

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
        # The run's one list of phase spans: the tracer appends to it.
        self.spans: list[Span] = []
        self.messages: list[MessageEvent] = []
        self.processes: list[ProcessSpan] = []
        self.fault_events: list[FaultEventRecord] = []
        self.robust_events: list[FaultEventRecord] = []
        # One (worker, time, global iteration count) mark per completed
        # training iteration — the analyzer's round boundaries.
        self.iteration_marks: list[tuple[int, float, int]] = []
        self.series: dict[str, Series] = {}
        self.worker_grad_bytes: dict[int, int] = {}
        # node_id -> {"kind": "worker"|"ps", "index": wid|shard_id,
        # "machine": int}; filled by finalize(runtime=...).
        self.node_table: dict[int, dict] = {}
        self.num_workers: int | None = None
        self._live_processes: dict[int, ProcessSpan] = {}
        # Bound ``observe`` caches for the hot hooks: formatting a
        # series name per sample is too slow for per-message and
        # per-reservation call rates.
        self._port_series: dict[str, tuple] = {}
        self._compute_series: dict[int, object] = {}
        self._inbox_series: dict[int, object] = {}
        self._staleness_series: dict[tuple[int, int], object] = {}

    def sampler(self, name: str):
        """The ``observe`` method of series ``name``, created on first use."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name)
        return series.observe

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
                self.sampler(f"net.{port.name}.bytes"),
                self.sampler(f"net.{port.name}.busy_time"),
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
        self.messages.append(
            MessageEvent(
                src_machine, dst_machine, kind, nbytes, t_send, t_recv, src_node, dst_node
            )
        )

    # -- parameter server -----------------------------------------------
    def ps_inbox_sample(self, shard_id: int, now: float, depth: int) -> None:
        observe = self._inbox_series.get(shard_id)
        if observe is None:
            observe = self.sampler(f"ps{shard_id}.inbox_depth")
            self._inbox_series[shard_id] = observe
        observe(now, float(depth))

    def staleness_sample(
        self, shard_id: int, worker: int, now: float, staleness: int
    ) -> None:
        """Updates applied to a shard between one worker's consecutive
        parameter pulls — the observed staleness of that pull."""
        observe = self._staleness_series.get((shard_id, worker))
        if observe is None:
            observe = self.sampler(f"ps{shard_id}.staleness.w{worker}")
            self._staleness_series[(shard_id, worker)] = observe
        observe(now, float(staleness))

    # -- workers ---------------------------------------------------------
    def compute_draw(self, worker: int, now: float, duration: float) -> None:
        """One straggler-jitter draw: the sampled compute duration."""
        observe = self._compute_series.get(worker)
        if observe is None:
            observe = self.sampler(f"w{worker}.compute_time")
            self._compute_series[worker] = observe
        observe(now, duration)

    def grad_bytes(self, worker: int, nbytes: int) -> None:
        self.worker_grad_bytes[worker] = self.worker_grad_bytes.get(worker, 0) + nbytes

    def iteration_sample(self, worker: int, now: float, total_iterations: int) -> None:
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
        controller, kept for the Perfetto trace."""
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
        checkpoint, quarantine request), kept for the Perfetto trace."""
        self.robust_events.append(
            FaultEventRecord(time=now, kind=kind, worker=worker, detail=detail)
        )

    # -- end of run -------------------------------------------------------
    def finalize(self, *, engine: "Engine | None" = None, runtime=None) -> None:
        """Close any process spans still alive when the event queue
        drained and — given the runtime — snapshot the node table
        (node id → worker / PS shard / machine) the span-DAG
        reconstruction needs."""
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
