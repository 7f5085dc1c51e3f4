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

from typing import Any, Generator

import numpy as np

from repro.comm.endpoints import Node
from repro.comm.hierarchical import elect_leaders, group_by
from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import (
    WorkerSlot,
    collect_shard_replies,
    produce_gradient,
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
    """PS shard for BSP: one synchronous round per global step."""

    def __init__(self, *args: Any, num_leaders: int = 1, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.num_leaders = num_leaders

    def serve(self) -> Generator[Any, Any, None]:
        rt = self.runtime
        if self.entries_per_sender == 0:
            # More shards than layers (layerwise sharding cannot split a
            # layer, so S > L leaves S − L shards empty): no gradient
            # will ever arrive and no leader waits on a reply from this
            # shard. Park instead of looping — the round loop below
            # would otherwise spin through zero-message "rounds".
            return
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
                    acc = self.accumulate_entry(acc, msg)
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
                # Leaders forward group means; averaging them over the
                # leaders yields the global mean gradient.
                acc /= self.num_leaders
            self.apply_gradient(acc, rt.lr())
            yield self.agg_delay(self.slice_bytes)
            for wid in leaders:
                node = reply_nodes.get(wid)
                if node is None:
                    node = rt.workers[wid].node
                self.reply_params(node, meta={"trace_worker": wid})


def _active_shards(rt: Runtime) -> int:
    """Shards owning ≥ 1 comm-plan entry — the only ones that receive
    gradients and send replies. Layerwise sharding leaves S − L shards
    empty when S exceeds the layer count; those park (see
    :meth:`BSPShard.serve`) and must not be waited on."""
    return len({e.shard_id for e in rt.comm_plan.entries})


def _rack_aggregator(
    rt: Runtime, node: Node, leader_slots: list[WorkerSlot]
) -> Generator[Any, Any, None]:
    """PS-tree middle tier: one aggregator per rack.

    Collects each rack leader's entry means, reduces them to a rack
    mean, and forwards one gradient set per entry to the shards — so a
    shard's fan-in is the rack count, not the machine count, and
    gradient bytes cross the oversubscribed spine once per *rack*
    instead of once per machine. Shard replies come back here and are
    re-broadcast to the rack's machine leaders.
    """
    entries = rt.comm_plan.entries
    label_to_idx = {e.label: i for i, e in enumerate(entries)}
    n = len(leader_slots)
    owner = leader_slots[0].wid
    get_req = Get(node.mailbox("req"))
    get_reply = Get(node.mailbox("reply"))
    agg_timeout = rt.ctx.comm_model.agg_timeout
    num_shards = _active_shards(rt)
    while not rt.stopping:
        counts = [0] * len(entries)
        sums: list[np.ndarray | None] = [None] * len(entries)
        for _ in range(n * len(entries)):
            msg = yield get_req
            idx = label_to_idx[msg.meta["entry"]]
            if msg.payload is not None:
                payload = np.asarray(msg.payload, dtype=np.float64)
                sums[idx] = payload if sums[idx] is None else sums[idx] + payload
            counts[idx] += 1
            yield agg_timeout(msg.nbytes)
            if counts[idx] == n:
                if sums[idx] is not None:
                    sums[idx] /= n  # forward the rack mean
                shard = rt.ps_nodes[entries[idx].shard_id]
                node.send_nowait(
                    shard,
                    "req",
                    nbytes=entries[idx].nbytes,
                    payload=sums[idx],
                    meta={
                        "op": "grad",
                        "worker": owner,
                        "entry": entries[idx].label,
                        "reply_to": node.node_id,
                    },
                    trace_worker=owner,
                )
        if rt.stopping:
            return
        for _ in range(num_shards):
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


def _entry_slice(
    rt: Runtime, entry: CommPlanEntry, grad: np.ndarray | None
) -> np.ndarray | None:
    """One plan entry's slice of a flat gradient (``None`` in timing mode)."""
    return gather_ranges(grad, rt.entry_ranges(entry)) if grad is not None else None


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
                payload=_entry_slice(rt, entry, grad),
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
                payload=_entry_slice(rt, entry, grad),
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
    entries = rt.comm_plan.entries
    group_size = len(peers) + 1
    dgc_on = rt.dgc_config is not None
    get_lagg = Get(slot.node.mailbox("lagg"))
    active_shards = _active_shards(rt)
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        rt.spawn(
            _leader_self_feed(rt, slot, grad, duration),
            name=f"bsp-feed-w{slot.wid}",
            owner=slot.wid,
        )

        # Collect group_size copies of every entry; forward each entry
        # to its shard the moment it is complete (streaming), unless
        # DGC needs the whole aggregate first.
        counts = [0] * len(entries)
        sums: list[np.ndarray | None] = [None] * len(entries)
        compute_end: float | None = None
        last_peer_arrival: float | None = None
        pending_forward = 0
        agg_grad: np.ndarray | None = (
            np.zeros(rt.total_elements, dtype=np.float64) if grad is not None else None
        )
        for _ in range(group_size * len(entries)):
            msg = yield get_lagg
            idx = msg.meta["entry_idx"]
            if msg.meta["worker"] == slot.wid:
                compute_end = rt.engine.now
            else:
                last_peer_arrival = rt.engine.now
            if msg.payload is not None:
                payload = np.asarray(msg.payload, dtype=np.float64)
                sums[idx] = payload if sums[idx] is None else sums[idx] + payload
            counts[idx] += 1
            if counts[idx] == group_size:
                if sums[idx] is not None:
                    sums[idx] /= group_size  # forward the group mean
                if agg_grad is not None and sums[idx] is not None:
                    scatter_ranges(agg_grad, rt.entry_ranges(entries[idx]), sums[idx])
                if not dgc_on:
                    shard = (
                        agg_node
                        if agg_node is not None
                        else rt.ps_nodes[entries[idx].shard_id]
                    )
                    payload = sums[idx]
                    slot.node.send_nowait(
                        shard,
                        "req",
                        nbytes=entries[idx].nbytes,
                        payload=payload,
                        meta={
                            "op": "grad",
                            "worker": slot.wid,
                            "entry": entries[idx].label,
                        },
                        trace_worker=slot.wid,
                    )
                    pending_forward += 1
        if compute_end is not None and last_peer_arrival is not None:
            if last_peer_arrival > compute_end:
                tracer.record(slot.wid, "local_agg", compute_end, last_peer_arrival)
        if dgc_on:
            # Compress the locally aggregated gradient once, then ship
            # the sparse slices (the leader owns the DGC state).
            yield from send_gradient_plan(
                rt, slot, agg_grad, kind="req", meta={"op": "grad", "worker": slot.wid}
            )

        tracer.begin(slot.wid, "global_agg", rt.engine.now)
        flat = yield from collect_shard_replies(rt, slot, active_shards)
        tracer.end(slot.wid, "global_agg", rt.engine.now)
        if slot.comp is not None and flat is not None:
            slot.comp.set_params(flat)

        # Broadcast the new parameters to the colocated peers.
        model_bytes = rt.total_elements * rt.sharding.bytes_per_param
        for peer in peers:
            slot.node.send_nowait(
                peer.node,
                "bcast",
                nbytes=model_bytes,
                payload=flat.copy() if flat is not None else None,
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

    def setup(self, runtime: Runtime) -> None:
        self.runtime = runtime
        groups = aggregation_groups(runtime)
        num_senders = len(groups)
        if runtime.config.ps_topology == "tree":
            num_senders = len(self._rack_leader_groups(runtime, groups))
        runtime.create_ps_shards(BSPShard, num_leaders=num_senders)
        self.spawn_workers(runtime, [w for group in groups for w in group])

    @staticmethod
    def _rack_leader_groups(
        runtime: Runtime, groups: list[list[int]]
    ) -> list[list[int]]:
        """Machine-leader wids grouped by hosting rack (PS tree tier).

        On a flat cluster every machine is rack 0, so the tree
        degenerates to a single root aggregator in front of the shards.
        """
        cluster = runtime.cluster
        return group_by(
            elect_leaders(groups),
            lambda w: cluster.rack_of_machine(runtime.workers[w].machine),
        )

    def spawn_workers(self, runtime: Runtime, wids: list[int]) -> None:
        # Groups, rack aggregators and shard fan-in are all rebuilt from
        # ``wids`` (DESIGN §3), so a crash anywhere in the PS tree —
        # leader, whole machine, whole rack — re-parents the surviving
        # leaders under fresh aggregators.
        groups = aggregation_groups(runtime, wids)
        agg_for_leader: dict[int, Node] = {}
        if runtime.config.ps_topology == "tree":
            rack_groups = self._rack_leader_groups(runtime, groups)
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
                    _rack_aggregator(runtime, node, slots),
                    name=f"bsp-ragg-{rack_idx}",
                )
                for w in rack_leaders:
                    agg_for_leader[w] = node
            num_senders = len(rack_groups)
        else:
            num_senders = len(groups)
        for shard in runtime.ps_nodes:
            shard.num_leaders = num_senders
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
