"""AR-SGD — synchronous AllReduce SGD (§IV-A).

Decentralized BSP: per iteration the workers' gradients are summed by
a collective AllReduce (MPICH's large-message algorithm:
reduce-scatter + allgather, realised here as the bandwidth-optimal
ring schedule) and every worker applies the same mean gradient with
its local momentum optimizer — bit-identical replicas, like BSP, but
with no PS to bottleneck.

Wait-free BP starts one ring per layer as soon as that layer's
backward completes. DGC replaces the reduce-scatter with an allgather
of each worker's sparse gradient (the sparse union cannot be
reduce-scattered), as in Lin et al.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.comm.collectives import ring_neighbors
from repro.comm.hierarchical import (
    DEFAULT_TREE_ARITY,
    elect_leaders,
    machine_groups,
    tree_children,
    tree_parent,
)
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, WorkerFactory, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import (
    WorkerSlot,
    produce_gradient,
    recv_step,
    ring_allreduce,
    walk_plan,
)
from repro.optimizations.sharding import gather_ranges, scatter_ranges
from repro.sim.engine import AllOf, Get, Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.optimizations.dgc import SparseGradient
    from repro.optimizations.waitfree import CommPlanEntry

__all__ = ["ARSGD"]


def _hier_allreduce(
    rt: Runtime,
    slot: WorkerSlot,
    group: list[int],
    leaders: list[int],
    entry_label: str,
    buf: np.ndarray | None,
    num_elements: int,
    scheme: str,
) -> Generator[Any, Any, np.ndarray | None]:
    """Hierarchical AllReduce of one entry (``scheme``: "tree"/"hring").

    Three phases: (1) intra-machine reduce — each non-leader ships its
    entry vector to its machine leader over the bus; (2) inter-machine
    combine across the leaders — a ring allreduce ("hring") or a k-ary
    reduce+broadcast tree ("tree"); (3) intra-machine broadcast of the
    global sum. Returns the summed vector (``None`` in timing mode),
    exactly like the flat ring.

    ``group`` (this worker's machine group) and ``leaders`` come from
    ``worker_factory``, a pure map of the ring the worker was (re)spawned
    with: a shrunk ring re-elects leaders and rebuilds the leader
    ring/tree with no recovery protocol of its own (DESIGN §3).
    """
    bpp = rt.sharding.bytes_per_param
    entry_bytes = max(num_elements * bpp, 1)
    k_up = f"hier:{entry_label}:u"
    k_down = f"hier:{entry_label}:d"
    wid = slot.wid
    reduce_timeout = rt.ctx.comm_model.reduce_timeout

    if wid != group[0]:
        # Member: one shipment up, one broadcast down.
        leader_node = rt.workers[group[0]].node
        slot.node.send_nowait(
            leader_node, k_up, nbytes=entry_bytes, payload=buf, trace_worker=wid
        )
        msg = yield Get(slot.node.mailbox(k_down))
        if msg.payload is None:
            return None
        return np.asarray(msg.payload, dtype=np.float64)

    # Machine leader: fold the colocated members' vectors.
    get_up = Get(slot.node.mailbox(k_up))
    for _ in range(len(group) - 1):
        msg = yield get_up
        yield reduce_timeout(msg.nbytes)
        if buf is not None and msg.payload is not None:
            buf += msg.payload

    nleaders = len(leaders)
    if scheme == "hring":
        buf = yield from ring_allreduce(
            rt, slot, leaders, f"hier:{entry_label}:r", buf, num_elements
        )
    elif nleaders > 1:
        # k-ary reduce tree over leader ranks, then broadcast down it.
        rank = leaders.index(wid)
        children = tree_children(rank, nleaders, DEFAULT_TREE_ARITY)
        parent = tree_parent(rank, DEFAULT_TREE_ARITY)
        k_tree_up = f"hier:{entry_label}:tu"
        k_tree_down = f"hier:{entry_label}:td"
        get_tree_up = Get(slot.node.mailbox(k_tree_up))
        for _ in children:
            msg = yield get_tree_up
            yield reduce_timeout(msg.nbytes)
            if buf is not None and msg.payload is not None:
                buf += msg.payload
        if parent is not None:
            slot.node.send_nowait(
                rt.workers[leaders[parent]].node,
                k_tree_up,
                nbytes=entry_bytes,
                payload=buf.copy() if buf is not None else None,
                trace_worker=wid,
            )
            msg = yield Get(slot.node.mailbox(k_tree_down))
            if buf is not None and msg.payload is not None:
                buf = np.asarray(msg.payload, dtype=np.float64)
        for child in children:
            slot.node.send_nowait(
                rt.workers[leaders[child]].node,
                k_tree_down,
                nbytes=entry_bytes,
                payload=buf.copy() if buf is not None else None,
                trace_worker=wid,
            )

    # Broadcast the global sum to the colocated members.
    for member in group[1:]:
        slot.node.send_nowait(
            rt.workers[member].node,
            k_down,
            nbytes=entry_bytes,
            payload=buf.copy() if buf is not None else None,
            trace_worker=wid,
        )
    return buf


def _allgather_sparse(
    rt: Runtime,
    slot: WorkerSlot,
    ring: list[int],
    sparse: SparseGradient | None,
    nbytes_own: int,
) -> Generator[Any, Any, np.ndarray | None]:
    """Ring allgather of per-worker sparse gradients (DGC path).

    Each worker circulates its own block around the ring; after N−1
    steps everyone has every block. Returns the dense sum or ``None``.
    Full-mode blocks carry their step (:func:`recv_step`), so a
    retransmission cannot make a worker forward a block out of turn.
    """
    world = len(ring)
    ordered = sparse is not None
    total = block = None
    if ordered:
        total = np.zeros(rt.total_elements, dtype=np.float64)
        total[sparse.indices] += sparse.values
        block = (sparse.indices, sparse.values)
    if world == 1:
        return total
    _, right = ring_neighbors(ring.index(slot.wid), world)
    right_node = rt.workers[ring[right]].node
    get_msg = Get(slot.node.mailbox("ring:dgc"))
    early: dict[int, Any] = {}
    block_bytes = nbytes_own
    for step in range(world - 1):
        slot.node.send_nowait(
            right_node,
            "ring:dgc",
            nbytes=max(block_bytes, 1),
            payload=block,
            meta={"step": step} if ordered else None,
            trace_worker=slot.wid,
        )
        if ordered:
            msg = yield from recv_step(get_msg, early, step)
            block = msg.payload
            if block is not None:
                np.add.at(total, *block)
        else:
            msg = yield get_msg
        block_bytes = msg.nbytes
    return total


def _allgather_dense(
    rt: Runtime, slot: WorkerSlot, ring: list[int], grad: np.ndarray | None
) -> Generator[Any, Any, "dict[int, np.ndarray] | None"]:
    """Ring allgather of full per-worker gradients (robust path).

    A robust rule needs the individual contributions, so the
    reduce-scatter — which only ever materialises sums — is replaced
    by circulating each worker's whole gradient around the ring:
    world−1 steps of full-model blocks, O(N·M) on the wire instead of
    O(M). That is the bandwidth price of Byzantine robustness in a
    collective; every replica ends with the same row set and computes
    the identical aggregate. Returns ``{wid: gradient}`` or ``None``
    in timing mode. Full-mode blocks carry their step, as in
    :func:`_allgather_sparse`.
    """
    world = len(ring)
    rows: dict[int, np.ndarray] = {} if grad is None else {slot.wid: grad}
    if world == 1:
        return rows or None
    _, right = ring_neighbors(ring.index(slot.wid), world)
    right_node = rt.workers[ring[right]].node
    model_bytes = max(rt.total_elements * rt.sharding.bytes_per_param, 1)
    get_msg = Get(slot.node.mailbox("ring:robust"))
    early: dict[int, Any] = {}
    ordered = grad is not None
    block_wid: int = slot.wid
    block: np.ndarray | None = grad
    for step in range(world - 1):
        meta = {"worker": block_wid}
        if ordered:
            meta["step"] = step
        slot.node.send_nowait(
            right_node,
            "ring:robust",
            nbytes=model_bytes,
            payload=block.copy() if block is not None else None,
            meta=meta,
            trace_worker=slot.wid,
        )
        if ordered:
            msg = yield from recv_step(get_msg, early, step)
        else:
            msg = yield get_msg
        block_wid = msg.meta["worker"]
        block = (
            np.asarray(msg.payload, dtype=np.float64)
            if msg.payload is not None
            else None
        )
        if block is not None:
            rows[block_wid] = block
    return rows or None


def _arsgd_worker(
    rt: Runtime, slot: WorkerSlot, ring: list[int], group: list[int], leaders: list[int]
) -> Generator[Any, Any, None]:
    tracer = rt.tracer
    entries = rt.comm_plan.entries
    dgc_on = rt.dgc_config is not None
    world = len(ring)
    # Collective selector: flat ring (paper default) vs hierarchical
    # tree / ring-of-rings. DGC and robust runs use their own
    # allgather schedules regardless (RunConfig validation forbids
    # combining them with a hierarchical collective).
    scheme = rt.config.collective or "ring"
    # Per-entry constants (ranges, process names) are fixed for the
    # life of this worker; resolve them once, not per iteration.
    entry_specs = [
        (rt.entry_ranges(entry), f"ring-{entry.label}-w{slot.wid}") for entry in entries
    ]
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        # Robust rules replace the reduce rings with a dense allgather
        # (individual rows are required); DGC keeps its sparse path —
        # sparse rows are not comparable, so the two are exclusive.
        robust = (
            rt.robust
            if rt.robust is not None and rt.robust.centralized_active and not dgc_on
            else None
        )

        if robust is not None or dgc_on:
            # Both allgathers need the whole gradient: a plain window.
            tracer.begin(slot.wid, "compute", rt.engine.now)
            yield Timeout(duration)
            tracer.end(slot.wid, "compute", rt.engine.now)
        if robust is not None:
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            rows = yield from _allgather_dense(rt, slot, ring, grad)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and rows:
                agg = robust.aggregate(rows, site="arsgd")
                if agg is not None:
                    slot.comp.apply_gradient(agg, rt.lr_at_round(slot.iterations))
        elif dgc_on:
            sparse = None
            nbytes = 1
            if grad is not None:
                assert slot.dgc is not None
                sparse = slot.dgc.compress(grad, epoch=rt.sample_clock.epoch())
                nbytes = sparse.nbytes
            elif slot.dgc is not None:
                nbytes = slot.dgc.compressed_bytes(epoch=rt.sample_clock.epoch())
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            total = yield from _allgather_sparse(rt, slot, ring, sparse, nbytes)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and total is not None:
                slot.comp.apply_gradient(
                    total / world, rt.lr_at_round(slot.iterations)
                )
        else:
            # One collective per comm-plan entry, launched at its
            # readiness offset (all offsets are 1.0 without wait-free BP).
            signals: list[Signal] = []

            def launch(idx: int, entry: CommPlanEntry) -> None:
                ranges, proc_name = entry_specs[idx]
                vec = gather_ranges(grad, ranges) if grad is not None else None
                if scheme == "ring":
                    collective = ring_allreduce(
                        rt, slot, ring, f"ring:{entry.label}", vec, entry.num_elements
                    )
                else:
                    collective = _hier_allreduce(
                        rt, slot, group, leaders, entry.label, vec,
                        entry.num_elements, scheme,
                    )
                # The process's ``done`` signal carries the reduced vector.
                signals.append(rt.spawn(collective, name=proc_name, owner=slot.wid).done)

            yield from walk_plan(rt, slot, duration, launch)

            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            yield AllOf(signals)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and grad is not None:
                agg = np.empty(rt.total_elements, dtype=np.float64)
                for (ranges, _), done in zip(entry_specs, signals):
                    scatter_ranges(agg, ranges, done.value)
                slot.comp.apply_gradient(
                    agg / world, rt.lr_at_round(slot.iterations)
                )
        rt.on_iteration(slot)


@register_algorithm
class ARSGD(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="AR-SGD",
        centralized=False,
        synchronous=True,
        sends_gradients=True,
        hyperparameters=(),
    )

    def worker_factory(self, runtime: Runtime, wids: list[int]) -> WorkerFactory:
        # The ring is the survivors in wid order (with all workers live,
        # the original 0..N−1 ring), and the hierarchical geometry is a
        # pure map of that ring view: derived once per (re)spawn, not
        # per worker per collective.
        groups = machine_groups(wids, lambda w: runtime.workers[w].machine)
        leaders = elect_leaders(groups)
        group_of = {wid: group for group in groups for wid in group}
        return lambda slot: _arsgd_worker(runtime, slot, wids, group_of[slot.wid], leaders)

    def on_membership_change(self, runtime: Runtime) -> None:
        # AR-SGD replicas are identical between rounds, so a restarted
        # round must resume from a common iteration count or the lr
        # schedules (and stop conditions) would diverge across the ring.
        live = runtime.live_worker_ids()
        sync = max((runtime.workers[w].iterations for w in live), default=0)
        for w in live:
            runtime.workers[w].iterations = sync
        super().on_membership_change(runtime)
