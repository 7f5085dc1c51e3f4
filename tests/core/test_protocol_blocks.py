"""The shared protocol steps of ``core/worker.py`` (DESIGN §3, "protocol
building blocks") against reference copies of the loops they replaced.

* the plan walk: the old plain path — ``compute_iteration``, then send
  everything — kept here and swapped in for ``send_gradient_plan``;
  every ASP/SSP schedule must come out identical, and a reference with
  DGC's compress on the wrong side of the compute Timeout must not;
* blocking sends: the old one — a delivery Signal per message and a
  completion per message — kept here; SSP's per-port completions must
  give the same schedule in fewer events, GoSGD's push in no more;
* the ring pass: the old 2·(N−1)-step loop kept here; every member of
  every ring must end with the same bits, and every rank of worlds 1–64
  read its plan's chunks in order;
* the ring allgather: AR-SGD's old sparse (DGC) and dense (robust)
  loops kept here, swapped in under clean, flaky and crashed runs;
* the entry-mean fold: BSP's old leader and rack-aggregator loops kept
  here, flat and tree, ± wait-free, ± DGC;
* the PS pull: ASP's and BSP's old collect, SSP's fetch and EASGD's
  push loops kept here, swapped in under clean, flaky and crashed runs;
* ASP's per-layer predicate: worker and shard ask one function.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm.collectives import chunk_slices, ring_allreduce_plan, ring_neighbors
from repro.comm.endpoints import Node
from repro.comm.messages import Message
from repro.core import arsgd, asp, bsp, easgd, ssp, worker
from repro.core.runner import DistributedRunner
from repro.core.worker import (
    _entry_payload_and_bytes,
    apply_reply_payload,
    compute_iteration,
    produce_gradient,
    recv_step,
    ring_allgather,
    ring_allreduce,
    send_gradient_plan,
)
from repro.experiments.config import mini_dgc_config
from repro.experiments.faults import FAULT_SCENARIOS
from repro.faults.config import FaultConfig, FaultEvent
from repro.io import to_jsonable
from repro.obs import ObsConfig
from repro.optimizations.sharding import scatter_ranges
from repro.robust.config import RobustConfig
from repro.sim.cluster import hierarchical_cluster, paper_cluster
from repro.sim.engine import AllOf, Get, Signal, Timeout

from tests.conftest import port_stats, small_full_config, small_timing_config


# -- (a) the plan walk vs the old plain path --------------------------------


def reference_send_gradient_plan(compress_early: bool = False):
    """``send_gradient_plan`` as it was before the plan walk: two bodies.

    The old workers ran ``compute_iteration`` (span, Timeout) and then
    the send-all body on a plain plan, and the interleaving body on a
    wait-free one. ``compress_early`` is the mutant: DGC's compress
    moved before the plain plan's Timeout.
    """

    def compress(rt, slot, grad):
        if rt.dgc_config is None or grad is None:
            return None
        wd = rt.config.weight_decay
        if wd and slot.comp is not None and rt.decay_mask is not None:
            grad = grad + wd * np.where(rt.decay_mask, slot.comp.get_params(), 0.0)
        return slot.dgc.compress(grad, epoch=rt.sample_clock.epoch())

    def emit(rt, slot, entry, grad, sparse, kind, meta, block_tx, tx_signals):
        payload, nbytes = _entry_payload_and_bytes(rt, slot, entry, grad, sparse)
        tx = None
        if block_tx:  # one completion per message
            tx = Signal()
            tx_signals.append(tx)
        slot.node.send_nowait(
            rt.ps_nodes[entry.shard_id], kind, nbytes=nbytes, payload=payload,
            meta={**meta, "entry": entry.label}, trace_worker=slot.wid, tx_done=tx,
        )

    def send(rt, slot, grad, *, kind, meta, compute_duration, block_tx=False):
        tx_signals: list[Signal] = []
        entries = rt.comm_plan.entries
        if not rt.comm_plan.wait_free:
            sparse = compress(rt, slot, grad) if compress_early else None
            rt.tracer.begin(slot.wid, "compute", rt.engine.now)
            yield Timeout(compute_duration)
            rt.tracer.end(slot.wid, "compute", rt.engine.now)
            if not compress_early:
                sparse = compress(rt, slot, grad)
            for entry in entries:
                emit(rt, slot, entry, grad, sparse, kind, meta, block_tx, tx_signals)
            if tx_signals:
                yield AllOf(tx_signals)
            return
        sparse = compress(rt, slot, grad)
        rt.tracer.begin(slot.wid, "compute", rt.engine.now)
        elapsed = 0.0
        for entry in entries:
            ready = entry.ready_offset * compute_duration
            if ready > elapsed:
                yield Timeout(ready - elapsed)
                elapsed = ready
            emit(rt, slot, entry, grad, sparse, kind, meta, block_tx, tx_signals)
        if elapsed < compute_duration:
            yield Timeout(compute_duration - elapsed)
        rt.tracer.end(slot.wid, "compute", rt.engine.now)
        if tx_signals:
            yield AllOf(tx_signals)

    return send


def _deposit(_value, node, msg, epoch, dst, trace_worker):
    """``Node._deliver`` as a delivery Signal's waiter, where the put is
    not the event's last act: the getter always takes the zero-delay
    lane, as with the predicate forced false."""
    engine = node.ctx.engine
    engine._idle_now = lambda: False
    try:
        node._deliver(msg, epoch, dst, trace_worker)
    finally:
        del engine._idle_now


def reference_send_nowait(send_nowait):
    """``Node.send_nowait`` whose blocking sends (``tx_done`` given) take
    the old ``Node.send`` path: ``Network.transfer``'s delivery Signal,
    its one waiter the deposit, which is then not a tail."""

    def send(self, dst, kind, *, nbytes, payload=None, meta=None, trace_worker=None,
             tx_done=None):
        if tx_done is None:
            return send_nowait(
                self, dst, kind, nbytes=nbytes, payload=payload, meta=meta,
                trace_worker=trace_worker,
            )
        ctx = self.ctx
        msg = Message(self.node_id, dst.node_id, kind, nbytes, payload, meta or {}, ctx.engine.now)
        self.sent_messages += 1
        self.sent_bytes += nbytes
        done = ctx.network.transfer(self.machine, dst.machine, nbytes, tx_done=tx_done)
        done._waiters.append((_deposit, (self, msg, ctx.epoch, dst, trace_worker)))

    return send


def plan_swaps(reference):
    """Swap ``reference`` in for ASP's and SSP's plan walk, and the old
    blocking send in for ``Node.send_nowait``'s."""
    return [
        (asp, "send_gradient_plan", reference),
        (ssp, "send_gradient_plan", reference),
        (Node, "send_nowait", reference_send_nowait(Node.send_nowait)),
    ]


def observe(cfg, monkeypatch, swaps=()):
    """Run ``cfg`` with each ``(owner, name, value)`` of ``swaps`` patched
    in and return everything a schedule change would move."""
    log = []
    deliver = Node._deliver

    def logged(self, msg, epoch, dst, trace_worker):
        log.append((self.ctx.engine.now, msg.src, msg.dst, msg.kind, msg.nbytes, msg.send_time))
        deliver(self, msg, epoch, dst, trace_worker)

    with monkeypatch.context() as patch:
        patch.setattr(Node, "_deliver", logged)
        for owner, name, value in swaps:
            patch.setattr(owner, name, value)
        # Observed, to compare every span (observation is passive:
        # tests/obs/test_zero_overhead.py).
        runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))
        result = runner.run()
    seen = {
        "log": log,
        "clock": runner.engine.now,
        "events": runner.engine.events_processed,
        "ports": port_stats(runner.network),
        "breakdown": runner.ctx.tracer.breakdown(),
        "spans": runner.observer.spans,
        "faults": result.metadata.get("faults"),
    }
    if cfg.mode == "full":
        seen["result"] = (result.total_iterations, result.test_accuracy, result.train_loss)
        seen["params"] = runner.algorithm.global_params().tobytes()
    else:
        seen["result"] = to_jsonable(result)
        # The replaced loops counted no aggregations (tests/core/test_ps_pull.py).
        seen["result"]["metadata"].pop("aggregations", None)
    return seen


VARIANTS = {
    "plain": dict(),
    "dgc": dict(dgc=True),
    "waitfree": dict(wait_free_bp=True),
    "waitfree+dgc": dict(wait_free_bp=True, dgc=True),
}


def walk_config(algorithm, mode, variant):
    overrides = dict(VARIANTS[variant])
    if mode == "timing":
        return small_timing_config(algorithm, trace=True, num_ps_shards=2, **overrides)
    if overrides.get("dgc"):
        overrides["dgc_config"] = mini_dgc_config(4)
    return small_full_config(algorithm, num_ps_shards=2, epochs=1.0, **overrides)


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("mode", ["timing", "full"])
@pytest.mark.parametrize("algorithm", ["asp", "ssp"])
def test_plan_walk_is_the_old_plain_and_waitfree_paths(algorithm, mode, variant, monkeypatch):
    cfg = walk_config(algorithm, mode, variant)
    walked = observe(cfg, monkeypatch)
    reference = observe(cfg, monkeypatch, plan_swaps(reference_send_gradient_plan()))
    assert walked["log"], "no message was logged"
    events, reference_events = walked.pop("events"), reference.pop("events")
    assert walked == reference
    if algorithm == "ssp":
        # Blocking pushes: one completion per port, not per message.
        assert events < reference_events
    else:
        assert events == reference_events


@pytest.mark.parametrize("mode", ["timing", "full"])
def test_gosgd_push_is_the_old_signal_send(mode, monkeypatch):
    """Every iteration pushes (``p = 1``), each a blocking send."""
    if mode == "timing":
        cfg = small_timing_config("gosgd", trace=True, algorithm_params={"p": 1.0})
    else:
        cfg = small_full_config("gosgd", epochs=1.0, algorithm_params={"p": 1.0})
    walked = observe(cfg, monkeypatch)
    reference = observe(cfg, monkeypatch, plan_swaps(reference_send_gradient_plan()))
    assert len(walked["log"]) > cfg.num_workers
    events, reference_events = walked.pop("events"), reference.pop("events")
    assert walked == reference
    assert events <= reference_events


@pytest.mark.parametrize("algorithm", ["asp", "ssp"])
def test_dgc_compress_on_the_wrong_side_of_the_timeout_is_caught(algorithm, monkeypatch):
    """On a plain plan DGC compresses *after* the compute Timeout (the
    keep-ratio warm-up reads the sample clock there); the comparison
    above has the power to see it move."""
    walked = observe(walk_config(algorithm, "full", "dgc"), monkeypatch)
    mutant = observe(
        walk_config(algorithm, "full", "dgc"),
        monkeypatch,
        plan_swaps(reference_send_gradient_plan(compress_early=True)),
    )
    assert walked != mutant


# -- (b) the ring pass vs the old loop --------------------------------------


def reference_ring(rt, slot, ring, kind, vec, num_elements, out):
    """The 2·(N−1)-step loop as AR-SGD, the hring leg and the README
    example each spelled it before ``ring_allreduce``."""
    world = len(ring)
    rank = ring.index(slot.wid)
    if world == 1:
        out[slot.wid] = vec
        return
    _, right = ring_neighbors(rank, world)
    right_node = rt.workers[ring[right]].node
    slices = chunk_slices(num_elements, world)
    bpp = rt.sharding.bytes_per_param
    buf = vec.copy() if vec is not None else None
    for step in ring_allreduce_plan(rank, world):
        send_slice = slices[step.send_chunk]
        payload = buf[send_slice].copy() if buf is not None else None
        slot.node.send_nowait(
            right_node, kind, nbytes=max((send_slice.stop - send_slice.start) * bpp, 1),
            payload=payload, trace_worker=slot.wid,
        )
        msg = yield slot.node.recv(kind)
        if step.reduce:
            yield rt.ctx.comm_model.reduce_timeout(msg.nbytes)
        if buf is not None and msg.payload is not None:
            if step.reduce:
                buf[slices[step.recv_chunk]] += msg.payload
            else:
                buf[slices[step.recv_chunk]] = msg.payload
    out[slot.wid] = buf


def new_ring(rt, slot, ring, kind, vec, num_elements, out):
    out[slot.wid] = yield from ring_allreduce(rt, slot, ring, kind, vec, num_elements)


class ChunkLog(tuple):
    """A chunk split that appends the index of every chunk read to ``log``."""

    def __new__(cls, slices, log):
        split = super().__new__(cls, slices)
        split.log = log
        return split

    def __getitem__(self, index):
        self.log.append(index)
        return super().__getitem__(index)


def run_ring(body, ring, inputs, num_elements, chunks=None):
    """Run ``body`` on every member of ``ring`` inside an otherwise idle
    runtime of at least 8 workers; returns (results by wid, messages sent
    by wid, clock). With ``chunks``, ``ring_allreduce``'s chunk split
    records into ``chunks[wid]`` the index of every chunk it reads."""
    workers = max(8, max(ring) + 1)
    cluster = paper_cluster(bandwidth_gbps=10, machines=-(-workers // 4), gpus_per_machine=4)
    runner = DistributedRunner(
        small_timing_config("gosgd", num_workers=workers, cluster=cluster)
    )
    rt = runner.runtime
    rt.stopping = True  # the algorithm's own workers leave at their first step
    out = {}
    started = []

    def logging_split(total, world):
        # A body asks for its split before its first yield: the worker
        # started last is the one asking.
        return ChunkLog(chunk_slices(total, world), chunks.setdefault(started[-1], []))

    def start(wid, process):
        started.append(wid)
        return (yield from process)

    with pytest.MonkeyPatch.context() as patch:
        if chunks is not None:
            patch.setattr(worker, "chunk_slices", logging_split)
        for wid in ring:
            vec = None if inputs is None else inputs[wid].copy()
            process = body(rt, rt.workers[wid], ring, "test-ring", vec, num_elements, out)
            rt.engine.spawn(start(wid, process), f"ring-w{wid}")
        rt.engine.run()
    return out, {w: rt.workers[w].node.sent_messages for w in ring}, rt.engine.now


RINGS = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3, 4], list(range(8)), [0, 1, 2, 4, 5]]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: "-".join(map(str, r)))
def test_ring_allreduce_is_the_old_loop(ring):
    n = 1003  # not a multiple of any ring size: the chunks are uneven
    rng = np.random.default_rng(len(ring))
    inputs = {wid: rng.normal(size=n) for wid in ring}
    new, new_sent, new_clock = run_ring(new_ring, ring, inputs, n)
    old, old_sent, old_clock = run_ring(reference_ring, ring, inputs, n)
    total = np.sum([inputs[w] for w in ring], axis=0)
    for wid in ring:
        assert new[wid].tobytes() == old[wid].tobytes()
        assert new[wid].tobytes() == new[ring[0]].tobytes()  # one sum, every member
        assert np.allclose(new[wid], total, rtol=1e-12, atol=1e-12)
    assert new_sent == old_sent == {w: 2 * (len(ring) - 1) for w in ring}
    assert new_clock == old_clock


def test_ring_of_one_sends_nothing_and_returns_its_input():
    vec = np.arange(5.0)
    runner = DistributedRunner(small_timing_config("gosgd"))
    rt = runner.runtime
    pass_ = ring_allreduce(rt, rt.workers[3], [3], "test-ring", vec, vec.size)
    with pytest.raises(StopIteration) as stop:
        next(pass_)
    assert stop.value.value is vec
    assert rt.workers[3].node.sent_messages == 0


@pytest.mark.parametrize("ring", [[0, 1, 2], [0, 1, 2, 4, 5]], ids=["3", "survivors"])
def test_ring_allreduce_timing_mode_moves_the_same_bytes(ring):
    new, new_sent, new_clock = run_ring(new_ring, ring, None, 1003)
    old, old_sent, old_clock = run_ring(reference_ring, ring, None, 1003)
    assert new == old == {w: None for w in ring}
    assert new_sent == old_sent and new_clock == old_clock


@pytest.mark.parametrize("mode", ["timing", "full"])
@pytest.mark.parametrize("world", range(1, 65))
def test_every_rank_reads_the_plans_chunks(world, mode):
    """``ring_allreduce`` computes its schedule step by step; every rank
    must send, and in full mode receive, the chunks of its
    ``ring_allreduce_plan`` in order, and end where the old loop does."""
    ring = list(range(world))
    n = 1003
    inputs = None
    if mode == "full":
        rng = np.random.default_rng(world)
        inputs = {wid: rng.normal(size=n) for wid in ring}
    chunks = {}
    new, new_sent, new_clock = run_ring(new_ring, ring, inputs, n, chunks)
    old, old_sent, old_clock = run_ring(reference_ring, ring, inputs, n)
    expected = {}
    for rank in ring:
        plan = ring_allreduce_plan(rank, world)
        if mode == "full":
            expected[rank] = [c for step in plan for c in (step.send_chunk, step.recv_chunk)]
        else:
            expected[rank] = [step.send_chunk for step in plan]
    assert chunks == (expected if world > 1 else {})  # a ring of one reads no split
    assert {w: None if v is None else v.tobytes() for w, v in new.items()} == {
        w: None if v is None else v.tobytes() for w, v in old.items()
    }
    assert new_sent == old_sent and new_clock == old_clock


def test_arsgd_replicas_survive_a_flaky_link_in_full_mode():
    """Retransmissions reorder a neighbour's chunks; the old loop then
    reduced the wrong chunk (a shape error when the chunks are uneven)."""
    cfg = small_full_config("ar-sgd", num_workers=4, epochs=2.0)
    t0 = DistributedRunner(cfg).run().total_virtual_time
    faults = FaultConfig(
        events=FAULT_SCENARIOS["flaky"](t0, cfg.num_workers, cfg.cluster.machines),
        heartbeat_interval=0.01 * t0,
        heartbeat_timeout=0.2 * t0,
        max_virtual_time=20 * t0,
    )
    runner = DistributedRunner(dataclasses.replace(cfg, faults=faults))
    history = runner.run()
    assert history.metadata["faults"]["retransmits"] > 0
    assert history.epochs[-1] >= cfg.epochs
    replicas = [slot.comp.get_params() for slot in runner.runtime.workers]
    assert all(np.array_equal(replicas[0], r) for r in replicas[1:])


@pytest.mark.parametrize(
    "overrides",
    [
        dict(dgc=True, dgc_config=mini_dgc_config(4)),
        dict(robust=RobustConfig(aggregator="median")),
    ],
    ids=["dgc-sparse", "robust-dense"],
)
def test_arsgd_allgathers_survive_a_flaky_link_in_full_mode(overrides):
    """AR-SGD's allgathers forward what they receive: a block that
    arrived out of turn was forwarded once too often and another never,
    a wrong sum with no error. Blocks now carry their step, so a flaky
    link changes the timing and not one bit of any replica."""
    cfg = small_full_config("ar-sgd", num_workers=4, epochs=2.0, **overrides)
    clean = DistributedRunner(cfg)
    t0 = clean.run().total_virtual_time
    faults = FaultConfig(
        events=FAULT_SCENARIOS["flaky"](t0, cfg.num_workers, cfg.cluster.machines),
        heartbeat_interval=0.01 * t0,
        heartbeat_timeout=0.2 * t0,
        max_virtual_time=20 * t0,
    )
    flaky_cfg = small_full_config(
        "ar-sgd", num_workers=4, epochs=2.0, faults=faults, **overrides
    )
    runner = DistributedRunner(flaky_cfg)
    summary = runner.run().metadata["faults"]
    assert summary["retransmits"] > 0
    assert len(summary["evictions"]) == 0
    for before, after in zip(clean.runtime.workers, runner.runtime.workers):
        assert np.array_equal(before.comp.get_params(), after.comp.get_params())


# -- (c) the ring allgather vs AR-SGD's two old loops -----------------------


def reference_allgather_sparse(rt, slot, ring, sparse, nbytes_own):
    """DGC's allgather as it was: each arriving block added into the dense
    sum, then forwarded."""
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
    early = {}
    block_bytes = nbytes_own
    for step in range(world - 1):
        slot.node.send_nowait(
            right_node, "ring:dgc", nbytes=max(block_bytes, 1), payload=block,
            meta={"step": step} if ordered else None, trace_worker=slot.wid,
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


def reference_allgather_dense(rt, slot, ring, grad):
    """The robust path's allgather as it was: a copy of each block
    forwarded, the rows collected by worker as they arrive."""
    world = len(ring)
    rows = {} if grad is None else {slot.wid: grad}
    if world == 1:
        return rows or None
    _, right = ring_neighbors(ring.index(slot.wid), world)
    right_node = rt.workers[ring[right]].node
    model_bytes = max(rt.total_elements * rt.sharding.bytes_per_param, 1)
    get_msg = Get(slot.node.mailbox("ring:robust"))
    early = {}
    ordered = grad is not None
    block_wid, block = slot.wid, grad
    for step in range(world - 1):
        meta = {"worker": block_wid}
        if ordered:
            meta["step"] = step
        slot.node.send_nowait(
            right_node, "ring:robust", nbytes=model_bytes,
            payload=block.copy() if block is not None else None, meta=meta,
            trace_worker=slot.wid,
        )
        if ordered:
            msg = yield from recv_step(get_msg, early, step)
        else:
            msg = yield get_msg
        block_wid = msg.meta["worker"]
        block = np.asarray(msg.payload, dtype=np.float64) if msg.payload is not None else None
        if block is not None:
            rows[block_wid] = block
    return rows or None


def reference_arsgd_worker(rt, slot, ring, group, leaders):
    """AR-SGD's DGC and robust iterations as they were, around the old
    loops (the configs below take no other branch)."""
    tracer = rt.tracer
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        tracer.begin(slot.wid, "compute", rt.engine.now)
        yield Timeout(duration)
        tracer.end(slot.wid, "compute", rt.engine.now)
        if rt.dgc_config is None:
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            rows = yield from reference_allgather_dense(rt, slot, ring, grad)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and rows:
                agg = rt.robust.aggregate(rows, site="arsgd")
                if agg is not None:
                    slot.comp.apply_gradient(agg, rt.lr_at_round(slot.iterations))
        else:
            sparse, nbytes = None, 1
            if grad is not None:
                sparse = slot.dgc.compress(grad, epoch=rt.sample_clock.epoch())
                nbytes = sparse.nbytes
            elif slot.dgc is not None:
                nbytes = slot.dgc.compressed_bytes(epoch=rt.sample_clock.epoch())
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            total = yield from reference_allgather_sparse(rt, slot, ring, sparse, nbytes)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and total is not None:
                slot.comp.apply_gradient(total / len(ring), rt.lr_at_round(slot.iterations))
        rt.on_iteration(slot)


ALLGATHER_PATHS = {
    "dgc": lambda mode: dict(dgc=True, dgc_config=mini_dgc_config(4) if mode == "full" else None),
    "robust-dense": lambda mode: dict(robust=RobustConfig(aggregator="median")),
}
# ring label -> (workers, a crashed worker): one worker per machine, so
# every hop crosses the NIC the flaky link drops on.
ALLGATHER_RINGS = {"0": (1, None), "2": (2, None), "3": (3, None), "5": (5, None),
                   "0-1-2-4-5": (6, 3)}


def allgather_config(path, mode, ring, t0=None, flaky=False):
    workers, crashed = ALLGATHER_RINGS[ring]
    cluster = paper_cluster(bandwidth_gbps=56, machines=workers, gpus_per_machine=1)
    overrides = dict(num_workers=workers, cluster=cluster, **ALLGATHER_PATHS[path](mode))
    if t0 is not None:
        events = () if crashed is None else (
            FaultEvent(time=0.1 * t0, kind="crash", worker=crashed),
        )
        if flaky:
            events += FAULT_SCENARIOS["flaky"](t0, workers, workers)
        overrides["faults"] = FaultConfig(
            events=events, heartbeat_interval=0.01 * t0, heartbeat_timeout=0.2 * t0,
            max_virtual_time=20 * t0,
        )
    if mode == "timing":
        return small_timing_config("ar-sgd", trace=True, **overrides)
    return small_full_config("ar-sgd", epochs=1.0, **overrides)


@pytest.mark.parametrize("ring", list(ALLGATHER_RINGS))
@pytest.mark.parametrize("mode", ["timing", "full"])
@pytest.mark.parametrize("path", list(ALLGATHER_PATHS))
def test_ring_allgather_is_the_old_loops(path, mode, ring, monkeypatch):
    """Clean, and under a flaky link (and the survivors' ring after a
    crash): the one ring allgather sends, waits and adds what the two
    old loops did, to the event and the bit."""
    swap = [(arsgd, "_arsgd_worker", reference_arsgd_worker)]
    clean = allgather_config(path, mode, ring)
    seen = observe(clean, monkeypatch)
    t0 = seen["clock"]
    assert seen == observe(clean, monkeypatch, swap)
    workers, crashed = ALLGATHER_RINGS[ring]
    for flaky in (False, True):
        if crashed is None and not flaky:
            continue  # the clean run above
        cfg = allgather_config(path, mode, ring, t0, flaky)
        seen = observe(cfg, monkeypatch)
        assert seen == observe(cfg, monkeypatch, swap)
        summary = seen["faults"]
        assert [e["worker"] for e in summary["evictions"]] == [crashed] * (crashed is not None)
        assert (summary["retransmits"] > 0) == (flaky and workers > 1)


def test_ring_allgather_returns_the_blocks_in_step_order():
    """Member r receives ranks r−1, r−2, … in that order, each block as
    its owner sent it; a ring of one sends nothing."""
    ring = [0, 1, 2, 4, 5]
    runner = DistributedRunner(small_timing_config("gosgd"))
    rt = runner.runtime
    rt.stopping = True
    out = {}

    def member(wid):
        out[wid] = yield from ring_allgather(
            rt, rt.workers[wid], ring, "test-gather", np.full(3, float(wid)), 24,
            {"worker": wid},
        )

    for wid in ring:
        rt.engine.spawn(member(wid), f"gather-w{wid}")
    rt.engine.run()
    for rank, wid in enumerate(ring):
        order = [ring[(rank - k) % len(ring)] for k in range(1, len(ring))]
        assert [m.meta["worker"] for m in out[wid]] == order
        assert [m.payload[0] for m in out[wid]] == order
        assert [m.meta["step"] for m in out[wid]] == list(range(len(ring) - 1))
        assert rt.workers[wid].node.sent_messages == len(ring) - 1
    alone = ring_allgather(rt, rt.workers[3], [3], "test-gather", np.zeros(3), 24)
    with pytest.raises(StopIteration) as stop:
        next(alone)
    assert stop.value.value == [] and rt.workers[3].node.sent_messages == 0


# -- (d) BSP's entry-mean fold vs the old leader and rack loops -------------


def reference_active_shards(rt):
    """BSP's old ``_active_shards``: shards owning a comm-plan entry."""
    return len({e.shard_id for e in rt.comm_plan.entries})


def reference_collect(rt, slot, count):
    """The old ``collect_shard_replies``: ``count`` replies folded into a
    copy of the replica, returned (``None`` in timing mode)."""
    flat = slot.comp.get_params() if slot.comp is not None else None
    get_reply = Get(slot.node.mailbox("reply"))
    for _ in range(count):
        msg = yield get_reply
        apply_reply_payload(rt, flat, msg)
    return flat



def reference_rack_aggregator(rt, node, leader_slots, workers):
    """The PS tree's middle tier as it was, keyed by entry label; its
    forwards carry the worker count the shard now weighs by."""
    entries = rt.comm_plan.entries
    label_to_idx = {e.label: i for i, e in enumerate(entries)}
    n = len(leader_slots)
    owner = leader_slots[0].wid
    get_req = Get(node.mailbox("req"))
    get_reply = Get(node.mailbox("reply"))
    num_shards = reference_active_shards(rt)
    while not rt.stopping:
        counts = [0] * len(entries)
        sums = [None] * len(entries)
        for _ in range(n * len(entries)):
            msg = yield get_req
            idx = label_to_idx[msg.meta["entry"]]
            if msg.payload is not None:
                payload = np.asarray(msg.payload, dtype=np.float64)
                sums[idx] = payload if sums[idx] is None else sums[idx] + payload
            counts[idx] += 1
            yield rt.ctx.comm_model.agg_timeout(msg.nbytes)
            if counts[idx] == n:
                if sums[idx] is not None:
                    sums[idx] /= n
                node.send_nowait(
                    rt.ps_nodes[entries[idx].shard_id], "req", nbytes=entries[idx].nbytes,
                    payload=sums[idx],
                    meta={"op": "grad", "worker": owner, "entry": entries[idx].label,
                          "reply_to": node.node_id, "count": workers},
                    trace_worker=owner,
                )
        if rt.stopping:
            return
        for _ in range(num_shards):
            msg = yield get_reply
            for slot in leader_slots:
                node.send_nowait(
                    slot.node, "reply", nbytes=msg.nbytes,
                    payload=msg.payload.copy() if msg.payload is not None else None,
                    meta=dict(msg.meta, trace_worker=slot.wid), trace_worker=slot.wid,
                )


def reference_leader_worker(rt, slot, peers, agg_node=None):
    """BSP's group leader as it was: the group's copies counted and
    summed as they arrive, each mean forwarded (or scattered for DGC) on
    its last copy; its forwards carry the group size."""
    tracer = rt.tracer
    entries = rt.comm_plan.entries
    group_size = len(peers) + 1
    dgc_on = rt.dgc_config is not None
    get_lagg = Get(slot.node.mailbox("lagg"))
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        rt.spawn(bsp._leader_self_feed(rt, slot, grad, duration),
                 name=f"bsp-feed-w{slot.wid}", owner=slot.wid)
        counts = [0] * len(entries)
        sums = [None] * len(entries)
        compute_end = last_peer_arrival = None
        agg_grad = np.zeros(rt.total_elements) if grad is not None else None
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
                    sums[idx] /= group_size
                if agg_grad is not None and sums[idx] is not None:
                    scatter_ranges(agg_grad, rt.entry_ranges(entries[idx]), sums[idx])
                if not dgc_on:
                    slot.node.send_nowait(
                        agg_node if agg_node is not None else rt.ps_nodes[entries[idx].shard_id],
                        "req", nbytes=entries[idx].nbytes, payload=sums[idx],
                        meta={"op": "grad", "worker": slot.wid, "entry": entries[idx].label,
                              "count": group_size},
                        trace_worker=slot.wid,
                    )
        if compute_end is not None and last_peer_arrival is not None:
            if last_peer_arrival > compute_end:
                tracer.record(slot.wid, "local_agg", compute_end, last_peer_arrival)
        if dgc_on:
            yield from send_gradient_plan(
                rt, slot, agg_grad, kind="req",
                meta={"op": "grad", "worker": slot.wid, "count": group_size},
            )
        tracer.begin(slot.wid, "global_agg", rt.engine.now)
        flat = yield from reference_collect(rt, slot, reference_active_shards(rt))
        tracer.end(slot.wid, "global_agg", rt.engine.now)
        if slot.comp is not None and flat is not None:
            slot.comp.set_params(flat)
        for peer in peers:
            slot.node.send_nowait(
                peer.node, "bcast", nbytes=rt.total_elements * rt.sharding.bytes_per_param,
                payload=flat.copy() if flat is not None else None, meta={"worker": slot.wid},
            )
        rt.on_iteration(slot)


def tree_config(mode, variant):
    """Two racks of two machines, equal groups throughout."""
    overrides = dict(VARIANTS[variant], ps_topology="tree", num_ps_shards=2)
    cluster = hierarchical_cluster(machines=4, machines_per_rack=2, gpus_per_machine=2,
                                   bandwidth_gbps=10 if mode == "timing" else 56)
    if mode == "timing":
        return small_timing_config("bsp", trace=True, cluster=cluster, **overrides)
    return small_full_config("bsp", cluster=cluster, epochs=1.0, **overrides)


@pytest.mark.parametrize(
    "topology,variant",
    [("flat", v) for v in VARIANTS] + [("tree", "plain"), ("tree", "waitfree")],
)
@pytest.mark.parametrize("mode", ["timing", "full"])
def test_entry_mean_fold_is_the_old_leader_and_rack_loops(mode, topology, variant, monkeypatch):
    cfg = walk_config("bsp", mode, variant) if topology == "flat" else tree_config(mode, variant)
    folded = observe(cfg, monkeypatch)
    reference = observe(cfg, monkeypatch, [
        (bsp, "_leader_worker", reference_leader_worker),
        (bsp, "_rack_aggregator", reference_rack_aggregator),
    ])
    assert folded["log"], "no message was logged"
    assert folded == reference


# -- (e) the PS pull vs the old collect, fetch and push loops ---------------


def reference_asp_worker(rt, slot):
    """ASP's blocking worker as it was (the configs below never stream)."""
    assert not asp.asp_layerwise(rt)
    tracer = rt.tracer
    meta = {"op": "grad", "worker": slot.wid}
    while not rt.stopping:
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        yield from send_gradient_plan(
            rt, slot, grad, kind="req", meta=meta, compute_duration=duration
        )
        tracer.begin(slot.wid, "global_agg", rt.engine.now)
        flat = yield from reference_collect(rt, slot, rt.sharding.num_shards)
        tracer.end(slot.wid, "global_agg", rt.engine.now)
        if slot.comp is not None and flat is not None:
            slot.comp.set_params(flat)
        rt.on_iteration(slot)


def reference_ssp_worker(rt, slot, staleness):
    """SSP's worker as it was, with its own fetch-and-receive loop."""
    tracer = rt.tracer
    clock = 0
    known_min = 0
    while not rt.stopping:
        meta = {"op": "grad", "worker": slot.wid, "clock": clock + 1}
        duration = rt.compute_model.iteration_time(slot.wid)
        grad = produce_gradient(rt, slot)
        yield from send_gradient_plan(
            rt, slot, grad, kind="req", meta=meta, compute_duration=duration, block_tx=True,
        )
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr_local())
        clock += 1
        if clock - known_min > staleness:
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            for shard in rt.ps_nodes:
                slot.node.send_nowait(
                    shard, "req", nbytes=ssp.FETCH_REQUEST_BYTES,
                    meta={"op": "fetch", "worker": slot.wid, "clock": clock},
                    trace_worker=slot.wid,
                )
            flat = slot.comp.get_params() if slot.comp is not None else None
            min_clocks = []
            for _ in range(rt.sharding.num_shards):
                msg = yield slot.node.recv("reply")
                apply_reply_payload(rt, flat, msg)
                min_clocks.append(int(msg.meta["min_clock"]))
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and flat is not None:
                slot.comp.set_params(flat)
            known_min = min(min_clocks)
        rt.on_iteration(slot)


def reference_easgd_worker(rt, slot, tau, alpha):
    """EASGD's worker as it was, with its own push loop."""
    tracer = rt.tracer
    local_iter = 0
    while not rt.stopping:
        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr())
        local_iter += 1
        if local_iter % tau == 0:
            tracer.begin(slot.wid, "global_agg", rt.engine.now)
            params = slot.comp.get_params() if slot.comp is not None else None
            for shard in rt.ps_nodes:
                slot.node.send_nowait(
                    shard, "req", nbytes=shard.slice_bytes,
                    payload=shard.assignment.gather(params) if params is not None else None,
                    meta={"op": "easgd", "worker": slot.wid, "alpha": alpha},
                    trace_worker=slot.wid,
                )
            flat = yield from reference_collect(rt, slot, rt.sharding.num_shards)
            tracer.end(slot.wid, "global_agg", rt.engine.now)
            if slot.comp is not None and flat is not None:
                slot.comp.set_params(flat)
        rt.on_iteration(slot)


PULL_SWAPS = {
    "asp": [(asp, "_asp_worker", reference_asp_worker)],
    "ssp": [(ssp, "_ssp_worker", reference_ssp_worker)],
    "easgd": [(easgd, "_easgd_worker", reference_easgd_worker)],
    "bsp": [(bsp, "_leader_worker", reference_leader_worker)],
}
PULL_CELLS = [("asp", "plain"), ("asp", "dgc"), ("ssp", "plain"), ("easgd", "plain"),
              ("bsp", "plain"), ("bsp", "dgc")]


def pull_config(algorithm, mode, variant, t0=None, fault="clean"):
    """Two shards, both owning layers; ``fault`` is a crash of worker 3
    at a tenth of the clean run, evicted well before the run ends, or a
    flaky link."""
    cfg = walk_config(algorithm, mode, variant)
    if algorithm == "easgd":
        cfg = dataclasses.replace(cfg, algorithm_params={"tau": 2})
    if fault == "clean":
        return cfg
    machines = cfg.cluster.machines
    events = (
        (FaultEvent(time=0.1 * t0, kind="crash", worker=3),) if fault == "crash"
        else FAULT_SCENARIOS["flaky"](t0, cfg.num_workers, machines)
    )
    return dataclasses.replace(cfg, faults=FaultConfig(
        events=events, heartbeat_interval=0.01 * t0, heartbeat_timeout=0.05 * t0,
        max_virtual_time=20 * t0,
    ))


@pytest.mark.parametrize("mode", ["timing", "full"])
@pytest.mark.parametrize("algorithm,variant", PULL_CELLS, ids=lambda v: v)
def test_ps_pull_is_the_old_collect_fetch_and_push_loops(algorithm, variant, mode, monkeypatch):
    clean = pull_config(algorithm, mode, variant)
    seen = observe(clean, monkeypatch)
    assert seen["log"], "no message was logged"
    assert seen == observe(clean, monkeypatch, PULL_SWAPS[algorithm])
    t0 = seen["clock"]
    for fault in ("flaky", "crash"):
        cfg = pull_config(algorithm, mode, variant, t0, fault)
        seen = observe(cfg, monkeypatch)
        assert seen == observe(cfg, monkeypatch, PULL_SWAPS[algorithm])
        summary = seen["faults"]
        assert [e["worker"] for e in summary["evictions"]] == [3] * (fault == "crash")
        assert (summary["retransmits"] > 0) == (fault == "flaky")


# -- ASP's per-layer predicate ----------------------------------------------


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("dgc", [False, True])
@pytest.mark.parametrize("wait_free", [False, True])
def test_asp_worker_and_shard_agree_on_reply_granularity(wait_free, dgc, robust):
    """The worker counts the replies the shard sends: per entry when
    ``asp_layerwise``, per shard otherwise. A disagreement is a deadlock
    (the run would stop short of its epochs with replies unclaimed)."""
    cfg = small_full_config(
        "asp",
        num_ps_shards=2,
        epochs=1.0,
        wait_free_bp=wait_free,
        dgc=dgc,
        dgc_config=mini_dgc_config(4) if dgc else None,
        robust=RobustConfig(aggregator="median") if robust else None,
    )
    runner = DistributedRunner(cfg)
    rt = runner.runtime
    assert asp.asp_layerwise(rt) == (wait_free and not dgc and not robust)
    replies = []
    deliver = Node._deliver

    def counted(self, msg, epoch, dst, trace_worker):
        if msg.kind == "reply":
            replies.append(msg.meta.get("entry"))
        deliver(self, msg, epoch, dst, trace_worker)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Node, "_deliver", counted)
        history = runner.run()
    assert history.epochs[-1] >= cfg.epochs
    per_iteration = len(rt.comm_plan.entries) if asp.asp_layerwise(rt) else rt.sharding.num_shards
    assert all((label is not None) == asp.asp_layerwise(rt) for label in replies)
    # Every reply sent was one a worker was counting on: whole rounds,
    # give or take the rounds in flight when the run stopped.
    assert abs(len(replies) - per_iteration * history.total_iterations) <= (
        per_iteration * cfg.num_workers
    )
