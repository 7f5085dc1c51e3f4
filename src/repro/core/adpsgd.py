"""AD-PSGD — Asynchronous Decentralized Parallel SGD (Lian et al., §IV-C).

Workers are split into *active* and *passive* sets on a complete
bipartite graph (deadlock-freedom stated as a checkable property in
:mod:`repro.comm.pairwise`). Each worker runs two concurrent
processes, per the paper's implementation note:

* a **computation process** that performs local SGD steps back to
  back — it never blocks on communication, which is why AD-PSGD
  scales almost linearly (§VI-C);
* a **communication process**: an active worker performs one symmetric
  exchange per completed iteration (send parameters to a random
  passive peer, wait for the peer's parameters, average) — iterations
  that finish during an exchange are served together by the next one;
  a passive worker answers exchanges (reply with its parameters, then
  average).

Both endpoints land on the same midpoint (xₐ+xₚ)/2 of the parameters
that were current when the exchange was answered; gradients computed
concurrently apply on top of the averaged value — exactly the
atomic-averaging model analysed by Lian et al.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.base import AlgorithmInfo, TrainingAlgorithm, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import WorkerSlot, compute_iteration
from repro.sim.engine import Get, Store

__all__ = ["ADPSGD"]


def _compute_process(rt: Runtime, slot: WorkerSlot, tokens: Store | None) -> Generator:
    """Local SGD forever. After each iteration it leaves a token for
    the active communication process unless one is already waiting:
    an exchange ships whatever parameters are current when it starts,
    so queued tokens are semantically one (the backlog stays ≤ 1)."""
    while not rt.stopping:
        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr())
        if tokens is not None and not tokens:
            tokens.put(1)
        rt.on_iteration(slot)


def _active_comm(
    rt: Runtime, slot: WorkerSlot, tokens: Store, passive_ids: list[int]
) -> Generator[Any, Any, None]:
    model_bytes = rt.total_elements * rt.sharding.bytes_per_param
    tracer = rt.tracer
    while not rt.stopping:
        yield Get(tokens)
        peer_wid = passive_ids[int(slot.rng.integers(0, len(passive_ids)))]
        peer = rt.workers[peer_wid]
        payload = slot.comp.get_params() if slot.comp is not None else None
        tracer.begin(slot.wid, "global_agg", rt.engine.now)
        slot.node.send_nowait(
            peer.node,
            "xreq",
            nbytes=model_bytes,
            payload=payload,
            meta={"worker": slot.wid},
            trace_worker=slot.wid,
        )
        msg = yield slot.node.recv("xrep")
        tracer.end(slot.wid, "global_agg", rt.engine.now)
        slot.aggregations += 1
        if slot.comp is not None and msg.payload is not None:
            if rt.robust is not None and not rt.robust.screen_peer(
                slot, msg.payload, msg.meta["worker"], "adpsgd"
            ):
                continue  # drop the poisoned half of the exchange
            slot.comp.set_params(0.5 * (slot.comp.get_params() + msg.payload))


def _passive_comm(rt: Runtime, slot: WorkerSlot) -> Generator[Any, Any, None]:
    model_bytes = rt.total_elements * rt.sharding.bytes_per_param
    while not rt.stopping:
        msg = yield slot.node.recv("xreq")
        requester = rt.workers[msg.meta["worker"]]
        payload = slot.comp.get_params() if slot.comp is not None else None
        slot.node.send_nowait(
            requester.node,
            "xrep",
            nbytes=model_bytes,
            payload=payload,
            meta={"worker": slot.wid},
            trace_worker=msg.meta["worker"],
        )
        if slot.comp is not None and msg.payload is not None:
            if rt.robust is not None and not rt.robust.screen_peer(
                slot, msg.payload, msg.meta["worker"], "adpsgd"
            ):
                continue
            slot.comp.set_params(0.5 * (slot.comp.get_params() + msg.payload))


@register_algorithm
class ADPSGD(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="AD-PSGD",
        centralized=False,
        synchronous=False,
        sends_gradients=False,  # exchanges parameters
        hyperparameters=(),
    )

    def spawn_workers(self, runtime: Runtime, wids: list[int]) -> None:
        # Positional split of the live set: with all workers live this
        # is exactly bipartite_split's evens-active / odds-passive; after
        # an eviction it rebalances the bipartite graph over survivors.
        live = sorted(wids)
        active, passive = live[0::2], live[1::2]
        for wid in active:
            slot = runtime.workers[wid]
            if passive:
                tokens = runtime.engine.store()
                runtime.spawn(
                    _compute_process(runtime, slot, tokens),
                    name=f"adpsgd-comp-w{wid}",
                    owner=wid,
                )
                runtime.spawn(
                    _active_comm(runtime, slot, tokens, passive),
                    name=f"adpsgd-comm-w{wid}",
                    owner=wid,
                )
            else:  # single worker: plain sequential SGD
                runtime.spawn(
                    _compute_process(runtime, slot, None),
                    name=f"adpsgd-comp-w{wid}",
                    owner=wid,
                )
        for wid in passive:
            slot = runtime.workers[wid]
            runtime.spawn(
                _compute_process(runtime, slot, None),
                name=f"adpsgd-comp-w{wid}",
                owner=wid,
            )
            runtime.spawn(
                _passive_comm(runtime, slot), name=f"adpsgd-serve-w{wid}", owner=wid
            )
