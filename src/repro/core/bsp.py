"""BSP — Bulk Synchronous Parallel parameter-server training (§III-A).

Per iteration every worker's gradient reaches the PS, the PS applies
one aggregated update, and every worker receives the same new
parameters — full synchronisation, the accuracy gold standard and the
straggler-bound baseline of every figure in the paper.

Our implementation reproduces the paper's two structural
optimisations:

* **local aggregation** — the workers of one machine reduce their
  gradients to a machine leader over the intra-machine bus before
  anything touches the network, cutting PS traffic from O(2MN) to
  O(2MN/l) for l colocated workers;
* **wait-free BP** (when enabled) — workers stream per-layer
  gradients to their leader as backprop produces them, and the leader
  forwards each layer to its PS shard as soon as every colocated copy
  has arrived, overlapping communication with the tail of backprop.

The PS shard collects one gradient set per *leader* per round, applies
a single momentum-SGD step on the mean gradient, and sends the new
parameters back to each leader, which re-broadcasts them locally.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.comm.endpoints import Node
from repro.comm.hierarchical import elect_leaders, group_by
from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import (
    WorkerSlot,
    produce_gradient,
    ps_pull,
    send_gradient_plan,
    walk_plan,
)
from repro.optimizations.sharding import gather_ranges, scatter_ranges
from repro.optimizations.waitfree import CommPlanEntry
from repro.sim.engine import Get

__all__ = ["BSP", "BSPShard", "aggregation_groups"]


def aggregation_groups(rt: Runtime, wids: list[int] | None = None) -> list[list[int]]:
    """Partition workers into local-aggregation groups.

    With local aggregation on: one group per machine (its colocated
    workers); off: every worker is its own group. The first member of
    each group is its leader. ``wids`` restricts grouping to a subset
    (the live workers after an eviction); default is all workers.
    """
    slots = rt.workers if wids is None else [rt.workers[w] for w in wids]
    if not rt.config.local_aggregation:
        return [[slot.wid] for slot in slots]
    by_machine: dict[int, list[int]] = {}
    for slot in slots:
        by_machine.setdefault(slot.machine, []).append(slot.wid)
    return [sorted(group) for _, group in sorted(by_machine.items())]


class BSPShard(PSShard):
    """PS shard for BSP: one synchronous round per global step.

    A round folds one gradient set from each of ``num_leaders`` senders
    (machine leaders, or rack aggregators with the PS tree), whose means
    cover ``num_workers`` live workers between them; both are set by
    :meth:`BSP.spawn_workers`.
    """

    num_leaders = 1
    num_workers = 1

    def serve(self) -> Generator[Any, Any, None]:
        rt = self.runtime
        get_req = Get(self.mailbox("req"))
        while not rt.stopping:
            # Per round: membership eviction may have shrunk the leader
            # count since the previous round.
            expected = self.num_leaders * self.entries_per_sender
            # Robust path: keep one accumulator per leader so the rule
            # sees individual contributions; baseline keeps the single
            # running sum (bit-identical arithmetic).
            robust = (
                rt.robust
                if rt.robust is not None and rt.robust.centralized_active
                else None
            )
            acc: np.ndarray | None = None
            by_wid: dict[int, np.ndarray | None] = {}
            leaders: list[int] = []
            # PS-tree senders (rack aggregators) name their own reply
            # endpoint; direct leaders reply to their worker node.
            reply_nodes: dict[int, Any] = {}
            first_arrival: float | None = None
            for _ in range(expected):
                msg = yield get_req
                if rt.obs_ps_inbox_sample is not None:
                    rt.obs_ps_inbox_sample(
                        self.shard_id, rt.engine.now, self.pending("req")
                    )
                if first_arrival is None:
                    first_arrival = rt.engine.now
                wid = msg.meta["worker"]
                if robust is not None:
                    by_wid[wid] = self.accumulate_entry(by_wid.get(wid), msg)
                else:
                    acc = self.accumulate_entry(
                        acc, msg, _mean_weight(msg, self.num_leaders, self.num_workers)
                    )
                if wid not in leaders:
                    leaders.append(wid)
                    reply_to = msg.meta.get("reply_to")
                    if reply_to is not None:
                        reply_nodes[wid] = rt.nodes_by_id[reply_to]
                yield self.agg_delay(msg.nbytes)
            if rt.stopping:
                return
            # The gap between first and last gradient arrival is pure
            # waiting at the PS (the 70 % the paper measures, §VI-C).
            if first_arrival is not None:
                rt.tracer.record(-1, "agg_wait", first_arrival, rt.engine.now)
            if robust is not None:
                rows = {w: r for w, r in by_wid.items() if r is not None}
                acc = robust.aggregate(rows, site="ps") if rows else None
            elif acc is not None:
                # Senders forward means weighted by the workers they
                # cover; averaging them yields the global mean gradient.
                acc /= self.num_leaders
            self.apply_gradient(acc, rt.lr())
            yield self.agg_delay(self.slice_bytes)
            for wid in leaders:
                node = reply_nodes.get(wid)
                if node is None:
                    node = rt.workers[wid].node
                self.reply_params(node, meta={"trace_worker": wid})


def _mean_weight(msg: Message, inputs: int, workers: int) -> float:
    """The weight of one of ``inputs`` means in a mean over ``workers``.

    A mean of ``meta["count"]`` workers (1 for a raw gradient) counts
    ``count × inputs ÷ workers`` times before the fold divides by
    ``inputs``. Computed from integers, it is exactly 1.0 when every
    input covers as many workers, so equal groups keep the plain sum.
    """
    return msg.meta.get("count", 1) * inputs / workers


def _fold_entry_means(
    rt: Runtime,
    node: Node,
    get_msg: Get,
    inputs: int,
    meta: dict[str, Any],
    *,
    via: Node | None = None,
    forward: bool = True,
    on_arrival: Callable[[Message], Any] = lambda msg: None,
) -> Generator[Any, Any, list[np.ndarray | None]]:
    """Local aggregation's step, shared by the group leader and the PS
    tree's rack aggregator.

    Takes ``inputs`` copies of every comm-plan entry from ``get_msg``
    and, the moment an entry's last copy arrives, forwards their mean
    over the ``meta["count"]`` workers they cover (:func:`_mean_weight`)
    from ``node`` to the entry's shard (or to ``via``, the rack
    aggregator) with ``meta``. ``on_arrival(msg)`` sees each message once
    it is counted and may return a waitable the fold then yields (the
    rack aggregator's summing time). Returns the per-entry means
    (``None`` in timing mode); ``forward=False`` only returns them.
    """
    entries = rt.comm_plan.entries
    counts = [0] * len(entries)
    sums: list[np.ndarray | None] = [None] * len(entries)
    for _ in range(inputs * len(entries)):
        msg = yield get_msg
        idx = msg.meta["entry_idx"]
        if msg.payload is not None:
            payload = np.asarray(msg.payload, dtype=np.float64)
            weight = _mean_weight(msg, inputs, meta["count"])
            if weight != 1.0:
                payload = payload * weight
            sums[idx] = payload if sums[idx] is None else sums[idx] + payload
        counts[idx] += 1
        wait = on_arrival(msg)
        if wait is not None:
            yield wait
        if counts[idx] == inputs:
            if sums[idx] is not None:
                sums[idx] /= inputs
            if forward:
                entry = entries[idx]
                node.send_nowait(
                    via if via is not None else rt.ps_nodes[entry.shard_id],
                    "req",
                    nbytes=entry.nbytes,
                    payload=sums[idx],
                    meta={**meta, "entry_idx": idx},
                    trace_worker=meta["worker"],
                )
    return sums


def _rack_aggregator(
    rt: Runtime, node: Node, leader_slots: list[WorkerSlot], workers: int
) -> Generator[Any, Any, None]:
    """PS-tree middle tier: one aggregator per rack.

    Folds the rack's leaders' entry means into means over the rack's
    ``workers`` and forwards one gradient set per entry to the shards —
    so a shard's fan-in is the rack count, not the machine count, and
    gradient bytes cross the oversubscribed spine once per *rack*
    instead of once per machine. Shard replies come back here and are
    re-broadcast to the rack's machine leaders.
    """
    owner = leader_slots[0].wid
    meta = {"op": "grad", "worker": owner, "count": workers, "reply_to": node.node_id}
    get_req = Get(node.mailbox("req"))
    get_reply = Get(node.mailbox("reply"))
    agg_timeout = rt.ctx.comm_model.agg_timeout
    while not rt.stopping:
        yield from _fold_entry_means(
            rt, node, get_req, len(leader_slots), meta,
            on_arrival=lambda msg: agg_timeout(msg.nbytes),
        )
        if rt.stopping:
            return
        for _ in rt.ps_nodes:
            msg = yield get_reply
            for slot in leader_slots:
                payload = msg.payload
                node.send_nowait(
                    slot.node,
                    "reply",
                    nbytes=msg.nbytes,
                    payload=payload.copy() if payload is not None else None,
                    meta=dict(msg.meta, trace_worker=slot.wid),
                    trace_worker=slot.wid,
                )


def _entry_slice(entry: CommPlanEntry, grad: np.ndarray | None) -> np.ndarray | None:
    """One plan entry's slice of a flat gradient (``None`` in timing mode)."""
    return gather_ranges(grad, entry.ranges) if grad is not None else None


def _peer_worker(
    rt: Runtime, slot: WorkerSlot, leader: WorkerSlot
) -> Generator[Any, Any, None]:
    """Non-leader: stream gradient entries to the leader, then wait for
    the leader's parameter broadcast."""
    tracer = rt.tracer
    get_bcast = Get(slot.node.mailbox("bcast"))
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)

        def to_leader(idx: int, entry: CommPlanEntry) -> None:
            # Local aggregation happens on *raw dense* gradients (DGC,
            # if any, compresses the aggregate at the leader).
            slot.node.send_nowait(
                leader.node,
                "lagg",
                nbytes=entry.nbytes,
                payload=_entry_slice(entry, grad),
                meta={"entry_idx": idx, "worker": slot.wid},
            )

        yield from walk_plan(rt, slot, duration, to_leader)

        tracer.begin(slot.wid, "local_agg", rt.engine.now)
        msg = yield get_bcast
        tracer.end(slot.wid, "local_agg", rt.engine.now)
        if slot.comp is not None and msg.payload is not None:
            slot.comp.set_params(msg.payload)
        rt.on_iteration(slot)


def _leader_self_feed(
    rt: Runtime, slot: WorkerSlot, grad: np.ndarray | None, duration: float
) -> Generator[Any, Any, None]:
    """Leader's own compute: posts its gradient entries into its own
    local-aggregation mailbox at their readiness offsets."""
    box = slot.node.mailbox("lagg")
    node_id = slot.node.node_id

    def to_self(idx: int, entry: CommPlanEntry) -> None:
        box.put(
            Message(
                src=node_id,
                dst=node_id,
                kind="lagg",
                nbytes=entry.nbytes,
                payload=_entry_slice(entry, grad),
                meta={"entry_idx": idx, "worker": slot.wid},
            )
        )

    return walk_plan(rt, slot, duration, to_self)


def _leader_worker(
    rt: Runtime,
    slot: WorkerSlot,
    peers: list[WorkerSlot],
    agg_node: Node | None = None,
) -> Generator[Any, Any, None]:
    """Group leader: local aggregation + PS round trip + broadcast.

    With the PS tree on, ``agg_node`` is the rack aggregator: all
    entry gradients go there instead of to the shards, and the shard
    replies arrive relayed through it (same count, same mailbox).
    """
    tracer = rt.tracer
    dgc_on = rt.dgc_config is not None
    get_lagg = Get(slot.node.mailbox("lagg"))
    meta = {"op": "grad", "worker": slot.wid, "count": len(peers) + 1}
    # When the leader's own last entry and its peers' last entry landed.
    last_arrival: dict[bool, float] = {}

    def arrived(msg: Message) -> None:
        last_arrival[msg.meta["worker"] == slot.wid] = rt.engine.now

    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        rt.spawn(
            _leader_self_feed(rt, slot, grad, duration),
            name=f"bsp-feed-w{slot.wid}",
            owner=slot.wid,
        )

        # Each entry's group mean goes to its shard the moment it is
        # complete (streaming), unless DGC needs the whole aggregate.
        last_arrival.clear()
        means = yield from _fold_entry_means(
            rt, slot.node, get_lagg, len(peers) + 1, meta,
            via=agg_node, forward=not dgc_on, on_arrival=arrived,
        )
        compute_end, last_peer_arrival = last_arrival.get(True), last_arrival.get(False)
        if compute_end is not None and last_peer_arrival is not None:
            if last_peer_arrival > compute_end:
                tracer.record(slot.wid, "local_agg", compute_end, last_peer_arrival)
        if dgc_on:
            # Compress the locally aggregated gradient once, then ship
            # the sparse slices (the leader owns the DGC state).
            agg_grad = None
            if grad is not None:
                agg_grad = np.zeros(rt.total_elements, dtype=np.float64)
                for entry, mean in zip(rt.comm_plan.entries, means):
                    scatter_ranges(agg_grad, entry.ranges, mean)
            yield from send_gradient_plan(rt, slot, agg_grad, kind="req", meta=meta)

        yield from ps_pull(rt, slot)

        # Broadcast the new parameters to the colocated peers.
        model_bytes = rt.total_elements * rt.sharding.bytes_per_param
        for peer in peers:
            slot.node.send_nowait(
                peer.node,
                "bcast",
                nbytes=model_bytes,
                payload=slot.comp.get_params() if slot.comp is not None else None,
                meta={"worker": slot.wid},
            )
        rt.on_iteration(slot)


@register_algorithm
class BSP(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="BSP",
        centralized=True,
        synchronous=True,
        sends_gradients=True,
        hyperparameters=(),
    )

    shard_class = BSPShard

    def spawn_workers(self, runtime: Runtime, wids: list[int]) -> None:
        # Groups, rack aggregators and shard fan-in are all rebuilt from
        # ``wids`` (DESIGN §3), so a crash anywhere in the PS tree —
        # leader, whole machine, whole rack — re-parents the surviving
        # leaders under fresh aggregators.
        groups = aggregation_groups(runtime, wids)
        agg_for_leader: dict[int, Node] = {}
        num_senders = len(groups)
        if runtime.config.ps_topology == "tree":
            # Machine leaders grouped by rack; on a flat cluster every
            # machine is rack 0, a single root aggregator.
            group_size = {group[0]: len(group) for group in groups}
            rack_groups = group_by(
                elect_leaders(groups),
                lambda w: runtime.cluster.rack_of_machine(runtime.workers[w].machine),
            )
            for rack_idx, rack_leaders in enumerate(rack_groups):
                slots = [runtime.workers[w] for w in rack_leaders]
                node = Node(
                    runtime.ctx,
                    runtime.allocate_node_id(),
                    slots[0].machine,
                    name=f"ragg{rack_idx}",
                )
                runtime.nodes_by_id[node.node_id] = node
                runtime.spawn(
                    _rack_aggregator(
                        runtime, node, slots, sum(group_size[w] for w in rack_leaders)
                    ),
                    name=f"bsp-ragg-{rack_idx}",
                )
                for w in rack_leaders:
                    agg_for_leader[w] = node
            num_senders = len(rack_groups)
        for shard in runtime.ps_nodes:
            shard.num_leaders = num_senders
            shard.num_workers = len(wids)
        for group in groups:
            leader = runtime.workers[group[0]]
            runtime.spawn(
                _leader_worker(
                    runtime,
                    leader,
                    [runtime.workers[w] for w in group[1:]],
                    agg_node=agg_for_leader.get(leader.wid),
                ),
                name=f"bsp-lead-w{leader.wid}",
                owner=leader.wid,
            )
            for wid in group[1:]:
                runtime.spawn(
                    _peer_worker(runtime, runtime.workers[wid], leader),
                    name=f"bsp-peer-w{wid}",
                    owner=wid,
                )
