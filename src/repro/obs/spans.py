"""Causal span-DAG reconstruction from one observed run.

The :class:`~repro.obs.recorder.RunObserver` stores flat event streams
(phase spans keyed by worker, delivered messages keyed by node id,
iteration marks). This module reassembles them into the structure the
critical-path analyzer walks:

* one **entity timeline** per network endpoint (worker or PS shard),
  holding its compute spans sorted by start time;
* the **message index**: every delivered message grouped by destination
  node and sorted by receive time — the happens-before edges of the
  DAG (a receive at ``t_recv`` causally depends on the matching send at
  ``t_send`` on the source entity);
* the union of PS ``agg_wait`` intervals (the waiting component inside
  aggregation, traced by the BSP shard), used to split PS service time
  into genuine aggregation arithmetic vs. waiting for stragglers;
* **iteration windows**: the global iteration counter crosses a
  multiple of the worker count exactly once per collective round, so
  consecutive crossings bound one "iteration" of the cluster — the
  unit the paper's Fig 3 breakdown is measured over.

Everything here is pure post-processing: it reads the observer after
the engine drained and never touches the simulation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RunConfig
    from repro.obs.recorder import MessageEvent, RunObserver
    from repro.sim.trace import Span

__all__ = ["EntityTimeline", "IterationWindow", "SpanDAG", "build_span_dag"]


@dataclass
class EntityTimeline:
    """One endpoint's compute history, indexed for O(log n) lookup."""

    node_id: int
    kind: str  # "worker" | "ps"
    index: int  # worker id or PS shard id
    machine: int
    label: str
    # Parallel arrays sorted by span start (a worker's compute spans
    # never overlap — its iterations are sequential).
    compute_starts: list[float] = field(default_factory=list)
    compute_ends: list[float] = field(default_factory=list)
    # Receive times (sorted) and the matching MessageEvents.
    recv_times: list[float] = field(default_factory=list)
    recv_msgs: list["MessageEvent"] = field(default_factory=list)

    def compute_span_at(self, t: float) -> tuple[float, float] | None:
        """The compute span with ``start < t <= end``, if any."""
        i = bisect_right(self.compute_starts, t) - 1
        # Walk left past spans that start exactly at t (start < t is
        # required: a span beginning at t is not yet underway at t).
        while i >= 0 and self.compute_starts[i] >= t:
            i -= 1
        if i >= 0 and self.compute_ends[i] >= t:
            return self.compute_starts[i], self.compute_ends[i]
        return None

    def last_compute_end_before(self, t: float) -> float | None:
        """Latest compute-span end strictly before ``t`` (ends are
        sorted because one entity's compute spans never overlap)."""
        i = bisect_left(self.compute_ends, t) - 1
        if i >= 0:
            return self.compute_ends[i]
        return None

    def last_recv_before(self, t: float) -> "MessageEvent | None":
        """Latest message received at ``t_recv <= t``, if any."""
        i = bisect_right(self.recv_times, t) - 1
        if i >= 0:
            return self.recv_msgs[i]
        return None


@dataclass(frozen=True)
class IterationWindow:
    """One collective round: the wall-time window between consecutive
    crossings of a worker-count multiple on the global iteration
    counter. ``closing_worker`` recorded the closing mark — the last
    worker to finish the round, where the backward walk starts."""

    index: int  # round number (1-based: round r covers iterations (r-1)W+1..rW)
    start: float
    end: float
    closing_worker: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanDAG:
    """The reconstructed causal structure of one run."""

    def __init__(
        self,
        *,
        entities: dict[int, EntityTimeline],
        wid_to_node: dict[int, int],
        windows: list[IterationWindow],
        measured_rounds: tuple[int, int] | None,
        agg_wait_union: list[tuple[float, float]],
        spans: list["Span"],
        messages: list["MessageEvent"],
        num_workers: int,
    ) -> None:
        self.entities = entities
        self.wid_to_node = wid_to_node
        self.windows = windows
        #: (first_round, last_round) of the timing-mode measurement
        #: window (1-based, inclusive), or None outside timing mode.
        self.measured_rounds = measured_rounds
        self.agg_wait_union = agg_wait_union
        self.spans = spans
        self.messages = messages
        self.num_workers = num_workers

    def entity_for_worker(self, wid: int) -> EntityTimeline | None:
        nid = self.wid_to_node.get(wid)
        return self.entities.get(nid) if nid is not None else None

    def measured_windows(self) -> list[IterationWindow]:
        """The windows the run's reported throughput was measured over
        (timing mode), or every complete window (full mode)."""
        if self.measured_rounds is None:
            return self.windows
        lo, hi = self.measured_rounds
        return [w for w in self.windows if lo <= w.index <= hi]

    def agg_wait_overlap(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by the agg-wait union."""
        total = 0.0
        for a, b in self.agg_wait_union:
            if b <= start:
                continue
            if a >= end:
                break
            total += min(b, end) - max(a, start)
        return total


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for a, b in intervals[1:]:
        la, lb = merged[-1]
        if a <= lb:
            merged[-1] = (la, max(lb, b))
        else:
            merged.append((a, b))
    return merged


def build_span_dag(
    *,
    observer: "RunObserver",
    config: "RunConfig",
) -> SpanDAG:
    """Reconstruct the causal span DAG of one observed run.

    Needs the observer of a finished run: its phase spans, messages,
    iteration marks and node table (the latter is filled by
    ``RunObserver.finalize(runtime=...)``).
    """
    num_workers = observer.num_workers or config.num_workers

    # -- entity timelines from the node table ---------------------------
    entities: dict[int, EntityTimeline] = {}
    wid_to_node: dict[int, int] = {}
    for nid, info in observer.node_table.items():
        kind, index = info["kind"], info["index"]
        label = f"w{index}" if kind == "worker" else f"ps{index}"
        entities[nid] = EntityTimeline(
            node_id=nid, kind=kind, index=index, machine=info["machine"], label=label
        )
        if kind == "worker":
            wid_to_node[index] = nid

    # -- compute spans and the agg-wait union ---------------------------
    agg_wait: list[tuple[float, float]] = []
    compute_by_wid: dict[int, list[tuple[float, float]]] = {}
    for span in observer.spans:
        if span.phase == "compute" and span.worker >= 0:
            compute_by_wid.setdefault(span.worker, []).append((span.start, span.end))
        elif span.phase == "agg_wait":
            agg_wait.append((span.start, span.end))
    for wid, spans in compute_by_wid.items():
        ent = None
        nid = wid_to_node.get(wid)
        if nid is not None:
            ent = entities.get(nid)
        if ent is None:
            continue
        spans.sort()
        ent.compute_starts = [s for s, _ in spans]
        ent.compute_ends = [e for _, e in spans]

    # -- message index by destination node ------------------------------
    by_dst: dict[int, list] = {}
    for msg in observer.messages:
        if msg.dst_node >= 0:
            by_dst.setdefault(msg.dst_node, []).append(msg)
    for nid, msgs in by_dst.items():
        ent = entities.get(nid)
        if ent is None:
            continue
        msgs.sort(key=lambda m: m.t_recv)
        ent.recv_times = [m.t_recv for m in msgs]
        ent.recv_msgs = msgs

    # -- iteration windows ----------------------------------------------
    # The global counter increments by one per mark, so every multiple
    # of num_workers appears exactly once while the run progresses.
    boundaries: list[tuple[float, int, int]] = []  # (time, round, worker)
    for worker, t, total in observer.iteration_marks:
        if total % num_workers == 0:
            boundaries.append((t, total // num_workers, worker))
    windows: list[IterationWindow] = []
    prev_t = 0.0
    for t, rnd, worker in boundaries:
        # Round indices are normally consecutive; if a fault run ever
        # skipped a multiple the window simply spans several rounds and
        # attribution stays conservative over its full extent.
        windows.append(
            IterationWindow(index=rnd, start=prev_t, end=t, closing_worker=worker)
        )
        prev_t = t

    measured_rounds = None
    if config.mode == "timing":
        lo = config.warmup_iters + 1
        hi = config.warmup_iters + config.measure_iters
        measured_rounds = (lo, hi)

    return SpanDAG(
        entities=entities,
        wid_to_node=wid_to_node,
        windows=windows,
        measured_rounds=measured_rounds,
        agg_wait_union=_merge_intervals(agg_wait),
        spans=observer.spans,
        messages=observer.messages,
        num_workers=num_workers,
    )
