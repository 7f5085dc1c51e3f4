"""ASP — Asynchronous Parallel parameter-server training (§III-B).

Every worker independently loops: compute gradient → send it to the
PS shards → receive the freshly updated global parameters → next
iteration. The PS applies each worker's gradient *immediately* (no
synchronisation), so fast workers never wait for slow ones, but every
worker round-trips the full model through the PS every iteration —
communication complexity O(2MN) — which is exactly what makes the PS
the bottleneck on a 10 Gbps network (§VI-C).

Two PS reply granularities, matching the implementations they model:

* without wait-free BP the shard applies one optimizer step per worker
  gradient and replies with its whole slice (the classic PS pull);
* with wait-free BP gradients arrive per layer and the shard applies
  and replies *per layer* — the layer-wise push/pull of Poseidon-style
  wait-free training, which also spreads the reply traffic instead of
  synchronising a full-model reply storm at every compute boundary.
  Layer versions may differ within one pull, exactly as in TF.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, WorkerFactory, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import (
    WorkerSlot,
    apply_reply_payload,
    produce_gradient,
    ps_pull,
    send_gradient_plan,
)

__all__ = ["ASP", "ASPShard", "asp_layerwise"]


def asp_layerwise(rt: Runtime) -> bool:
    """Whether this run's ASP applies and replies *per layer*.

    Both ends of the protocol ask here — the shard to pick its reply
    granularity, the worker to know how many replies to expect — so
    they cannot disagree. Per-layer only for plain wait-free BP: DGC
    payloads are already tiny, so the full-set + delta-pull path stays;
    and a robust rule needs whole gradients to compare, so wait-free
    ASP degrades to per-worker full-set application under it.
    """
    if rt.robust is not None and rt.robust.centralized_active:
        return False
    return rt.comm_plan.wait_free and rt.dgc_config is None


class ASPShard(PSShard):
    """PS shard for ASP: immediate update + reply (whole-slice or
    per-layer, see module docstring)."""

    serve_concurrency = 2  # per-worker comm threads, capped at spare PS cores

    def handle(self, msg: Message) -> Generator[Any, Any, None]:
        wid = msg.meta["worker"]
        if asp_layerwise(self.runtime):
            yield self.agg_delay(msg.nbytes)
            self.apply_entry_gradient(msg, self.runtime.fold_lr())
            self.reply_entry_params(
                self.runtime.workers[wid].node, msg.meta["entry_idx"], trace_worker=wid
            )
            return
        complete, acc = self.collect_sender_entry(wid, msg)
        yield self.agg_delay(msg.nbytes)
        if complete:
            self.fold_gradient(wid, acc)
            self.reply_params(
                self.runtime.workers[wid].node, meta={"trace_worker": wid}
            )


def _asp_worker(rt: Runtime, slot: WorkerSlot) -> Generator[Any, Any, None]:
    tracer = rt.tracer
    meta = {"op": "grad", "worker": slot.wid}

    if asp_layerwise(rt):
        # Wait-free pipeline: per-layer pulls of round k may stream in
        # while round k+1's *forward* pass runs (TF fetches each
        # layer's parameters independently, just before that layer's
        # forward op). Forward is ~1/3 of the iteration, so up to a
        # third of the previous round's pull *bytes* may still be in
        # flight when compute starts; the rest must have arrived. The
        # bound is in bytes so a giant layer (VGG-16's fc6) cannot lag
        # behind a congested shard indefinitely.
        outstanding = 0
        pull_slack = max(1, rt.comm_plan.total_bytes // 3)

        def _apply(msg) -> None:
            if slot.comp is not None:
                apply_reply_payload(rt, slot.comp.params, msg)

        while not rt.stopping:
            while slot.node.pending("reply"):
                msg = yield slot.node.recv("reply")
                _apply(msg)
                outstanding -= msg.nbytes
            if outstanding > pull_slack:
                tracer.begin(slot.wid, "global_agg", rt.engine.now)
                while outstanding > pull_slack:
                    msg = yield slot.node.recv("reply")
                    _apply(msg)
                    outstanding -= msg.nbytes
                tracer.end(slot.wid, "global_agg", rt.engine.now)
            duration = rt.compute_model.iteration_time(slot.wid)
            grad = produce_gradient(rt, slot)
            yield from send_gradient_plan(
                rt, slot, grad, kind="req", meta=meta, compute_duration=duration
            )
            outstanding += rt.comm_plan.total_bytes
            rt.on_iteration(slot)
        return

    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        yield from send_gradient_plan(
            rt, slot, grad, kind="req", meta=meta, compute_duration=duration
        )
        yield from ps_pull(rt, slot)
        rt.on_iteration(slot)


@register_algorithm
class ASP(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="ASP",
        centralized=True,
        synchronous=False,
        sends_gradients=True,
        hyperparameters=(),
    )
    shard_class = ASPShard
    # Momentum-free folds (see Runtime.fold_lr for the rationale).
    shard_kwargs = {"momentum": 0.0}

    def worker_factory(self, runtime: Runtime, wids: list[int]) -> WorkerFactory:
        return lambda slot: _asp_worker(runtime, slot)
