"""The shared protocol steps of ``core/worker.py`` (DESIGN §3, "protocol
building blocks") against reference copies of the loops they replaced.

* the plan walk: the old plain path — ``compute_iteration``, then send
  everything — kept here and swapped in for ``send_gradient_plan``;
  every ASP/SSP schedule must come out identical, and a reference with
  DGC's compress on the wrong side of the compute Timeout must not;
* the ring pass: the old 2·(N−1)-step loop kept here; every member of
  every ring must end with the same bits;
* ASP's per-layer predicate: worker and shard ask one function.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm.collectives import chunk_slices, ring_allreduce_plan, ring_neighbors
from repro.comm.endpoints import Node
from repro.core import asp, ssp
from repro.core.runner import DistributedRunner
from repro.core.worker import _entry_payload_and_bytes, ring_allreduce
from repro.experiments.config import mini_dgc_config
from repro.experiments.faults import FAULT_SCENARIOS
from repro.faults.config import FaultConfig
from repro.robust.config import RobustConfig
from repro.sim.engine import AllOf, Signal, Timeout

from tests.conftest import small_full_config, small_timing_config


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
        shard_node = rt.ps_nodes[entry.shard_id]
        entry_meta = {**meta, "entry": entry.label}
        if block_tx:
            tx = Signal()
            tx_signals.append(tx)
            slot.node.send(
                shard_node, kind, nbytes=nbytes, payload=payload, meta=entry_meta,
                trace_worker=slot.wid, tx_done=tx,
            )
        else:
            slot.node.send_nowait(
                shard_node, kind, nbytes=nbytes, payload=payload, meta=entry_meta,
                trace_worker=slot.wid,
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


def observe(cfg, monkeypatch, reference=None):
    """Run ``cfg`` and return everything a schedule change would move."""
    log = []
    deliver = Node._deliver

    def logged(self, value, msg, epoch, dst, trace_worker, tail=False):
        log.append((self.ctx.engine.now, msg.src, msg.dst, msg.kind, msg.nbytes, msg.send_time))
        deliver(self, value, msg, epoch, dst, trace_worker, tail)

    with monkeypatch.context() as patch:
        patch.setattr(Node, "_deliver", logged)
        if reference is not None:
            patch.setattr(asp, "send_gradient_plan", reference)
            patch.setattr(ssp, "send_gradient_plan", reference)
        runner = DistributedRunner(cfg)
        result = runner.run()
    tracer = runner.ctx.tracer
    seen = {
        "log": log,
        "clock": runner.engine.now,
        "events": runner.engine.events_processed,
        "ports": runner.network.port_stats(),
        "breakdown": tracer.breakdown(),
        "spans": tracer.span_count,
    }
    if cfg.mode == "full":
        seen["result"] = (result.total_iterations, result.test_accuracy, result.train_loss)
        seen["params"] = runner.algorithm.global_params().tobytes()
    else:
        seen["result"] = result.to_dict()
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
    # A config per run: SSP's setup writes its default staleness into it.
    walked = observe(walk_config(algorithm, mode, variant), monkeypatch)
    reference = observe(
        walk_config(algorithm, mode, variant), monkeypatch, reference_send_gradient_plan()
    )
    assert walked["log"], "no message was logged"
    assert walked == reference


@pytest.mark.parametrize("algorithm", ["asp", "ssp"])
def test_dgc_compress_on_the_wrong_side_of_the_timeout_is_caught(algorithm, monkeypatch):
    """On a plain plan DGC compresses *after* the compute Timeout (the
    keep-ratio warm-up reads the sample clock there); the comparison
    above has the power to see it move."""
    walked = observe(walk_config(algorithm, "full", "dgc"), monkeypatch)
    mutant = observe(
        walk_config(algorithm, "full", "dgc"),
        monkeypatch,
        reference_send_gradient_plan(compress_early=True),
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


def run_ring(body, ring, inputs, num_elements):
    """Run ``body`` on every member of ``ring`` inside an otherwise idle
    8-worker runtime; returns (results by wid, messages sent by wid, clock)."""
    runner = DistributedRunner(small_timing_config("gosgd"))
    rt = runner.runtime
    rt.stopping = True  # the algorithm's own workers leave at their first step
    out = {}
    for wid in ring:
        vec = None if inputs is None else inputs[wid].copy()
        rt.engine.spawn(
            body(rt, rt.workers[wid], ring, "test-ring", vec, num_elements, out), f"ring-w{wid}"
        )
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

    def counted(self, value, msg, epoch, dst, trace_worker, tail=False):
        if msg.kind == "reply":
            replies.append(msg.meta.get("entry"))
        deliver(self, value, msg, epoch, dst, trace_worker, tail)

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
