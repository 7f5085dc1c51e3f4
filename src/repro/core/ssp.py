"""SSP — Stale Synchronous Parallel (§III-C).

SSP relaxes BSP by letting workers run ahead of the slowest worker by
at most ``staleness`` iterations. Per the paper's implementation (Ho
et al., NIPS'13):

* every iteration the worker (a) sends its gradients to the PS and
  (b) applies the same gradients to its *local* parameters — two
  independent tasks executed in parallel;
* the PS folds each arriving gradient into the global parameters
  immediately, and records the sender's iteration clock;
* only when a worker's clock outruns the slowest known clock by more
  than ``staleness`` does it request the aggregated global parameters
  — and the PS holds that request until the slowest worker has caught
  up to within the bound (the blocking that enforces the staleness
  guarantee).

Communication complexity O((1 + 1/(s+1))·MN): gradients every
iteration, parameters roughly every s+1 iterations.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, WorkerFactory, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import WorkerSlot, produce_gradient, ps_pull, send_gradient_plan

__all__ = ["SSP", "SSPShard"]

# A fetch request is a small control message (clock + shard list).
FETCH_REQUEST_BYTES = 64


class SSPShard(PSShard):
    """PS shard for SSP: immediate gradient folding + blocking fetches."""

    serve_concurrency = 2  # per-worker comm threads, capped at spare PS cores

    def __init__(self, *args: Any, staleness: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.staleness = staleness
        self.clocks: dict[int, int] = {
            slot.wid: 0 for slot in self.runtime.workers
        }
        # Fetches blocked on the staleness condition: (wid, clock).
        self._blocked: list[tuple[int, int]] = []

    def min_clock(self) -> int:
        return min(self.clocks.values())

    def on_membership_change(self, live: list[int]) -> None:
        super().on_membership_change(live)
        # The staleness bound restarts over the survivors: respawned
        # workers all re-enter at clock 0, and an evicted straggler must
        # stop pinning min_clock (the deadlock this PR exists to fix).
        self.clocks = {wid: 0 for wid in live}
        self._blocked = []

    def handle(self, msg: Message) -> Generator[Any, Any, None]:
        op = msg.meta["op"]
        wid = msg.meta["worker"]
        if op == "grad":
            complete, acc = self.collect_sender_entry(wid, msg)
            yield self.agg_delay(msg.nbytes)
            if complete:
                self.fold_gradient(wid, acc)
                self.clocks[wid] = max(self.clocks[wid], msg.meta["clock"])
                self._release_satisfied()
        elif op == "fetch":
            clock = msg.meta["clock"]
            if clock - self.min_clock() <= self.staleness:
                self._reply_fetch(wid)
            else:
                self._blocked.append((wid, clock))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown SSP op {op!r}")

    def _release_satisfied(self) -> None:
        floor = self.min_clock()
        still_blocked: list[tuple[int, int]] = []
        for wid, clock in self._blocked:
            if clock - floor <= self.staleness:
                self._reply_fetch(wid)
            else:
                still_blocked.append((wid, clock))
        self._blocked = still_blocked

    def _reply_fetch(self, wid: int) -> None:
        self.reply_params(
            self.runtime.workers[wid].node,
            meta={"trace_worker": wid, "min_clock": self.min_clock()},
        )


def _ssp_worker(rt: Runtime, slot: WorkerSlot, staleness: int) -> Generator[Any, Any, None]:
    clock = 0
    known_min = 0
    while not rt.stopping:
        meta = {"op": "grad", "worker": slot.wid, "clock": clock + 1}
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        yield from send_gradient_plan(
            rt, slot, grad, kind="req", meta=meta, compute_duration=duration,
            block_tx=True,
        )
        # Task (b): local update with the worker's own gradients,
        # executed in parallel with the send (paper §III-C). Local
        # steps apply a single gradient, so they use the per-gradient
        # rate; local replicas therefore drift between fetches - the
        # version-divergence mechanism behind SSP's accuracy loss at
        # large s (§VI-A).
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr_local())
        clock += 1

        if clock - known_min > staleness:
            fetch = {
                "nbytes": FETCH_REQUEST_BYTES,
                "meta": {"op": "fetch", "worker": slot.wid, "clock": clock},
            }
            replies = yield from ps_pull(rt, slot, lambda shard: fetch)
            # The worker's staleness view comes from the reply metadata
            # (piggybacked clocks), never from peeking at remote state.
            known_min = min(int(msg.meta["min_clock"]) for msg in replies)
        rt.on_iteration(slot)


@register_algorithm
class SSP(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="SSP",
        centralized=True,
        synchronous=False,
        sends_gradients=True,
        hyperparameters=("staleness",),
    )
    shard_class = SSPShard

    def __init__(self, **hyperparams: Any) -> None:
        super().__init__(**hyperparams)
        staleness = int(self.hyperparams.get("staleness", 3))
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        self.staleness = staleness

    @property
    def shard_kwargs(self) -> dict[str, Any]:
        # Momentum-free folds (see Runtime.fold_lr for the rationale).
        return {"momentum": 0.0, "staleness": self.staleness}

    def worker_factory(self, runtime: Runtime, wids: list[int]) -> WorkerFactory:
        return lambda slot: _ssp_worker(runtime, slot, self.staleness)
