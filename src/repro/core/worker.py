"""Per-worker local computation and the protocol steps the algorithms share.

Every algorithm's worker process is a generator built from the same
blocks, so the *only* difference between algorithms is their
aggregation semantics (the table of blocks, with what each guarantees
under a membership change, is DESIGN §3):

* :class:`LocalComputation` — the real numpy math (full mode):
  mini-batch gradient, local SGD step, parameter get/set;
* :func:`compute_iteration` — the timed compute stage of an algorithm
  that sends nothing during it: the ``compute`` span, a duration
  sampled from the cost model, and (in full mode) the actual gradient;
* :func:`walk_plan` — the same window walked along the iteration's
  :class:`~repro.optimizations.waitfree.CommPlan`, emitting each entry
  at its readiness offset; :func:`send_gradient_plan` is the walk whose
  emission is a PS send (this is where wait-free BP and DGC plug in);
* :func:`ring_allreduce` / :func:`ring_allgather` — one worker's side
  of a ring AllReduce / allgather over the live ring;
* :func:`recv_step` — a ring receive in step order (full mode);
* :func:`ps_pull` — one blocking round trip to the active PS shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.comm.collectives import chunk_slices, ring_neighbors
from repro.nn.module import Module
from repro.nn.optim import FlatSGD, weight_decay_mask
from repro.optimizations.sharding import gather_ranges, scatter_ranges
from repro.sim.engine import AllOf, Get, Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.endpoints import Node
    from repro.comm.ps import PSShard
    from repro.core.runner import Runtime
    from repro.data.loader import BatchLoader
    from repro.nn.losses import Loss
    from repro.optimizations.dgc import DGCCompressor, SparseGradient
    from repro.optimizations.waitfree import CommPlanEntry

__all__ = [
    "LocalComputation",
    "WorkerSlot",
    "compute_iteration",
    "walk_plan",
    "send_gradient_plan",
    "ring_allreduce",
    "ring_allgather",
    "recv_step",
    "ps_pull",
    "sparse_slice_for_ranges",
]


class LocalComputation:
    """One worker's replica, data shard and loss.

    The replica is two flat float64 vectors, :attr:`params` and the
    momentum :attr:`velocity`; ``get_params``/``set_params``/
    ``gradient``/``apply_gradient`` are its interface. ``model`` only
    computes: a run builds one and every worker's ``LocalComputation``
    shares it, loading its own ``params`` for the length of one
    :meth:`gradient` call (DESIGN §3); evaluation loads the global ones.
    Do not read replica state from ``model``.
    """

    def __init__(
        self,
        model: Module,
        loader: BatchLoader,
        loss: Loss,
        *,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        decay_mask: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.loader = loader
        self.loss = loss
        self.params = model.get_flat_parameters()
        if decay_mask is None and weight_decay:
            decay_mask = weight_decay_mask(model)
        self.optimizer = FlatSGD(
            self.params.size,
            momentum=momentum,
            weight_decay=weight_decay,
            decay_mask=decay_mask,
        )
        self.last_loss: float = float("nan")
        self.ema_loss: float = float("nan")
        self._ema_beta = 0.95

    @property
    def velocity(self) -> np.ndarray:
        """The replica's momentum buffer (the live vector, not a copy)."""
        return self.optimizer.velocity

    def gradient(self) -> np.ndarray:
        """Compute the mini-batch gradient at :attr:`params`; returns
        the flat vector.

        One Python call inside one simulated event: nothing yields
        between loading the parameters and reading the gradient, so
        replicas sharing ``model`` never interleave inside it.
        """
        x, y = self.loader.next_batch()
        model = self.model
        model.set_flat_parameters(self.params)
        model.zero_grad()
        out = model.forward(x)
        loss_value = self.loss.forward(out, y)
        model.backward_params(self.loss.backward())
        self.last_loss = loss_value
        if self.ema_loss != self.ema_loss:  # NaN — first observation
            self.ema_loss = loss_value
        else:
            self.ema_loss = self._ema_beta * self.ema_loss + (1 - self._ema_beta) * loss_value
        return model.get_flat_gradients()

    def apply_gradient(self, flat_grad: np.ndarray, lr: float) -> None:
        """Apply a (possibly aggregated) flat gradient to the replica
        with its momentum-SGD optimizer."""
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.optimizer.step(self.params, flat_grad, lr)

    def reset_velocity(self) -> None:
        """Forget the momentum (restores and rollbacks: it points along
        a trajectory the new parameters never followed)."""
        self.optimizer.velocity.fill(0.0)

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        Module._load(self.params, flat)


@dataclass
class WorkerSlot:
    """Everything the runtime knows about one worker."""

    wid: int
    machine: int
    node: "Node"
    comp: LocalComputation | None  # None in timing-only mode
    rng: np.random.Generator
    dgc: DGCCompressor | None = None
    iterations: int = 0
    #: Pulls from the PS (or AD-PSGD exchanges) completed; the runner
    #: reports it per iteration as ``metadata["aggregations"]``.
    aggregations: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


def produce_gradient(rt: "Runtime", slot: WorkerSlot) -> np.ndarray | None:
    """Compute one local gradient, passing it through the fault and
    robust layers.

    Every algorithm draws its gradients from here, so gradient faults
    (bit flips, scaling, sign flips, NaN injection, Byzantine workers)
    corrupt all seven without per-algorithm code, and the robust
    layer's source-side integrity check sees every production.
    """
    grad = slot.comp.gradient() if slot.comp is not None else None
    if rt.faults is not None:
        grad = rt.faults.corrupt_gradient(slot, grad)
    if rt.robust is not None:
        rt.robust.gradient_produced(slot, grad)
    return grad


def compute_iteration(
    rt: "Runtime", slot: WorkerSlot
) -> Generator[Any, Any, np.ndarray | None]:
    """The compute stage of one iteration.

    Yields the compute-time Timeout; returns the flat gradient (full
    mode) or ``None`` (timing mode). The gradient is computed w.r.t.
    the parameters *at iteration start* and the duration covers
    forward + backward, matching real execution where a concurrent
    parameter merge (AD-PSGD/GoSGD) lands on the live parameters while
    the gradient in flight is slightly stale.
    """
    duration = rt.compute_model.iteration_time(slot.wid)
    rt.tracer.begin(slot.wid, "compute", rt.engine.now)
    grad = produce_gradient(rt, slot)
    yield Timeout(duration)
    rt.tracer.end(slot.wid, "compute", rt.engine.now)
    return grad


def sparse_slice_for_ranges(
    sparse: SparseGradient, ranges: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Route a global sparse gradient into one shard's local frame.

    Returns (local_indices, values) where local indices are offsets
    into the shard's gathered vector (ranges concatenated in order).
    """
    local_idx_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    offset = 0
    for start, stop in ranges:
        lo = np.searchsorted(sparse.indices, start, side="left")
        hi = np.searchsorted(sparse.indices, stop, side="left")
        if hi > lo:
            local_idx_parts.append(sparse.indices[lo:hi] - start + offset)
            value_parts.append(sparse.values[lo:hi])
        offset += stop - start
    if not local_idx_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    return np.concatenate(local_idx_parts), np.concatenate(value_parts)


def _entry_payload_and_bytes(
    rt: "Runtime",
    slot: WorkerSlot,
    entry: CommPlanEntry,
    grad: np.ndarray | None,
    sparse: SparseGradient | None,
) -> tuple[Any, int]:
    """Payload + wire size for one comm-plan entry.

    Dense: the entry's slice of the flat gradient, ``entry.nbytes`` on
    the wire. DGC: the sparse coordinates falling inside the entry's
    ranges, 8 bytes per retained element.
    """
    if rt.dgc_config is not None:
        if sparse is not None:  # full mode
            local_idx, values = sparse_slice_for_ranges(sparse, entry.ranges)
            payload = (local_idx, values)
            nbytes = int(values.size) * 8
        else:  # timing mode: proportional share of the compressed size
            assert slot.dgc is not None
            total = slot.dgc.compressed_bytes(epoch=rt.sample_clock.epoch())
            nbytes = max(1, int(round(total * entry.num_elements / max(rt.total_elements, 1))))
            payload = None
        return payload, nbytes
    payload = gather_ranges(grad, entry.ranges) if grad is not None else None
    return payload, entry.nbytes


def walk_plan(
    rt: "Runtime",
    slot: WorkerSlot,
    duration: float,
    emit: Callable[[int, CommPlanEntry], None],
) -> Generator[Any, Any, None]:
    """The compute window of one iteration, walked along the comm plan.

    Holds the ``compute`` span for ``duration`` and calls
    ``emit(index, entry)`` for every plan entry at the moment its
    gradient is ready, the fraction ``entry.ready_offset`` of the way
    into the window. A plan without wait-free BP has every offset at
    1.0, so the same walk is the plain path: one Timeout, then every
    entry.
    """
    tracer = rt.tracer
    tracer.begin(slot.wid, "compute", rt.engine.now)
    elapsed = 0.0
    for idx, entry in enumerate(rt.comm_plan.entries):
        ready = entry.ready_offset * duration
        if ready > elapsed:
            yield Timeout(ready - elapsed)
            elapsed = ready
        emit(idx, entry)
    if elapsed < duration:
        yield Timeout(duration - elapsed)
    tracer.end(slot.wid, "compute", rt.engine.now)


def send_gradient_plan(
    rt: "Runtime",
    slot: WorkerSlot,
    grad: np.ndarray | None,
    *,
    kind: str = "grad",
    meta: dict[str, Any] | None = None,
    compute_duration: float | None = None,
    block_tx: bool = False,
) -> Generator[Any, Any, None]:
    """Send this iteration's gradient messages according to the plan.

    With ``compute_duration`` this *is* the iteration's compute stage:
    the messages leave along :func:`walk_plan` (the gradient math
    happened up front, only its timing is staggered). Without it there
    is no window and no span — everything goes out now (BSP's leader
    shipping an already aggregated DGC gradient). ``block_tx`` gives
    blocking-send semantics: the caller does not regain control until
    its ports have serialised every message, which is when the last
    message through each port has (:meth:`Runtime.port_tails`).
    """
    if meta is None:
        meta = {}
    node = slot.node
    tails = rt.port_tails(slot.machine) if block_tx else ()
    tx_signals: list[Signal] = []
    sparse: SparseGradient | None = None

    def compress() -> SparseGradient:
        assert slot.dgc is not None
        # With DGC the PS applies plain sparse SGD, so weight decay is
        # folded into the gradient here (momentum is already handled by
        # the compressor's momentum correction).
        wd = rt.config.weight_decay
        decayed = grad
        if wd and slot.comp is not None and rt.decay_mask is not None:
            decayed = grad + wd * np.where(rt.decay_mask, slot.comp.get_params(), 0.0)
        return slot.dgc.compress(decayed, epoch=rt.sample_clock.epoch())

    compresses = rt.dgc_config is not None and grad is not None
    if compresses and rt.comm_plan.wait_free:
        # A wait-free plan ships slices of the compressed gradient while
        # the window is still open, so DGC runs before it; a plain plan
        # compresses at first emission, when the window has closed. The
        # two read different epochs of the ratio warm-up.
        sparse = compress()

    def emit(idx: int, entry: CommPlanEntry) -> None:
        nonlocal sparse
        if compresses and sparse is None:
            sparse = compress()
        payload, nbytes = _entry_payload_and_bytes(rt, slot, entry, grad, sparse)
        if rt.obs_grad_bytes is not None:
            rt.obs_grad_bytes(slot.wid, nbytes)
        tx = None
        if idx in tails:
            tx = Signal()
            tx_signals.append(tx)
        node.send_nowait(
            rt.ps_nodes[entry.shard_id],
            kind,
            nbytes=nbytes,
            payload=payload,
            meta={**meta, "entry_idx": idx},
            trace_worker=slot.wid,
            tx_done=tx,
        )

    if compute_duration is None:
        for idx, entry in enumerate(rt.comm_plan.entries):
            emit(idx, entry)
    else:
        yield from walk_plan(rt, slot, compute_duration, emit)
    if tx_signals:
        yield AllOf(tx_signals)


def ring_allreduce(
    rt: "Runtime",
    slot: WorkerSlot,
    ring: list[int],
    kind: str,
    buf: np.ndarray | None,
    num_elements: int,
) -> Generator[Any, Any, np.ndarray | None]:
    """This worker's side of one ring AllReduce over the workers in
    ``ring`` (the *live* ring the caller was spawned with).

    The 2·(N−1)-step reduce-scatter + allgather schedule of
    :func:`~repro.comm.collectives.ring_allreduce_plan`, pumped through
    ``kind`` messages to the right-hand neighbour. Reduces ``buf`` in
    place and returns it holding the sum over the ring (``None`` in
    timing mode, where only the byte counts travel); a ring of one
    sends nothing.
    """
    world = len(ring)
    if world == 1:
        return buf
    rank = ring.index(slot.wid)
    _, right = ring_neighbors(rank, world)
    right_node = rt.workers[ring[right]].node
    slices = chunk_slices(num_elements, world)
    bpp = rt.sharding.bytes_per_param
    # 2·(N−1) yields per call: hoist every per-step lookup out of the
    # loop and reuse the waitables (a Get and the cached per-size reduce
    # Timeouts are stateless between yields).
    send = slot.node.send_nowait
    wid = slot.wid
    get_msg = Get(slot.node.mailbox(kind))
    reduce_timeout = rt.ctx.comm_model.reduce_timeout
    # Full-mode chunks carry their step (see recv_step). Timing mode
    # moves interchangeable byte counts: nothing to order, no tag.
    ordered = buf is not None
    early: dict[int, Any] = {}
    # The plan's step t sends chunk (rank − t) mod N in both halves (the
    # allgather starts from rank + 1, where the reduce-scatter ends) and
    # receives the chunk before it: one int and the step are the schedule.
    reduce_steps = world - 1
    chunk = rank
    for step in range(2 * reduce_steps):
        send_slice = slices[chunk]
        chunk = (chunk - 1) % world  # received at this step, sent at the next
        send(
            right_node,
            kind,
            nbytes=(send_slice.stop - send_slice.start) * bpp or 1,
            payload=buf[send_slice].copy() if ordered else None,
            meta={"step": step} if ordered else None,
            trace_worker=wid,
        )
        if ordered:
            msg = yield from recv_step(get_msg, early, step)
        else:
            msg = yield get_msg
        if step < reduce_steps:
            # Reduction arithmetic on the received chunk (worker-side
            # vector add, faster than the PS software path).
            yield reduce_timeout(msg.nbytes)
            if ordered:
                buf[slices[chunk]] += msg.payload
        elif ordered:
            buf[slices[chunk]] = msg.payload
    return buf


def ring_allgather(
    rt: "Runtime",
    slot: WorkerSlot,
    ring: list[int],
    kind: str,
    payload: Any,
    nbytes: int,
    meta: dict[str, Any] | None = None,
) -> Generator[Any, Any, list[Any]]:
    """This worker's side of one ring allgather over the workers in
    ``ring`` (the *live* ring, as for :func:`ring_allreduce`).

    N−1 steps: send the block held — this worker's own first
    (``payload``, ``nbytes``, ``meta``) — to the right-hand neighbour,
    receive the left-hand neighbour's, and forward that one at the next
    step, so every block visits every member. Returns the N−1 received
    messages in step order (none for a ring of one). Blocks are
    forwarded as received, never copied: a receiver must not write into
    one. In full mode they carry their step (:func:`recv_step`).
    """
    world = len(ring)
    if world == 1:
        return []
    _, right = ring_neighbors(ring.index(slot.wid), world)
    right_node = rt.workers[ring[right]].node
    get_msg = Get(slot.node.mailbox(kind))
    ordered = payload is not None
    early: dict[int, Any] = {}
    received = []
    nbytes = max(nbytes, 1)
    for step in range(world - 1):
        slot.node.send_nowait(
            right_node,
            kind,
            nbytes=nbytes,
            payload=payload,
            meta=dict(meta or (), step=step) if ordered else meta,
            trace_worker=slot.wid,
        )
        if ordered:
            msg = yield from recv_step(get_msg, early, step)
        else:
            msg = yield get_msg
        received.append(msg)
        payload, nbytes, meta = msg.payload, msg.nbytes, msg.meta
    return received


def recv_step(get_msg: Get, early: dict[int, Any], step: int) -> Generator[Any, Any, Any]:
    """Receive the ring message its sender tagged ``step``.

    The left neighbour may run up to N−1 steps ahead, and on a flaky
    link a retransmission delivers its step s+1 before its step s: a
    message of a later step waits in ``early`` until its turn.
    """
    msg = early.pop(step, None)
    while msg is None:
        msg = yield get_msg
        if msg.meta["step"] != step:
            early[msg.meta["step"]] = msg
            msg = None
    return msg


def apply_reply_payload(rt: "Runtime", flat: np.ndarray | None, msg: Any) -> None:
    """Fold one PS reply into an assembled parameter vector.

    Handles both dense slice replies and DGC ``("delta", idx, values)``
    delta-pull replies.
    """
    if flat is None or msg.payload is None:
        return
    shard = rt.sharding.shards[msg.meta["shard"]]
    payload = msg.payload
    if isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "delta":
        _, local_idx, values = payload
        shard.scatter_sparse(flat, local_idx, values)
    elif "entry_idx" in msg.meta:
        # Per-layer reply (wait-free pull): write the entry's ranges.
        scatter_ranges(
            flat,
            rt.comm_plan.entries[msg.meta["entry_idx"]].ranges,
            np.asarray(payload, dtype=np.float64),
        )
    else:
        shard.scatter(flat, payload)


def ps_pull(
    rt: "Runtime",
    slot: WorkerSlot,
    request: Callable[[PSShard], dict[str, Any]] | None = None,
) -> Generator[Any, Any, list[Any]]:
    """One blocking pull from the PS: the worker waits for one reply
    from every shard (:attr:`Runtime.ps_nodes`) and installs the
    parameters they carry.

    Holds the ``global_agg`` span. With ``request`` it first sends each
    shard one ``req``, ``request(shard)`` giving the send's
    ``nbytes``/``payload``/``meta`` (SSP's fetch, EASGD's push); without
    it the gradients already sent are the request (ASP, BSP's leader).
    Each reply — a slice or a DGC delta — is folded into a copy of the
    replica, which is installed once all have arrived (timing mode just
    absorbs the messages). Counts one aggregation on the slot and
    returns the replies.
    """
    tracer = rt.tracer
    tracer.begin(slot.wid, "global_agg", rt.engine.now)
    node = slot.node
    if request is not None:
        for shard in rt.ps_nodes:
            node.send_nowait(shard, "req", trace_worker=slot.wid, **request(shard))
    flat = slot.comp.get_params() if slot.comp is not None else None
    get_reply = Get(node.mailbox("reply"))
    replies = []
    for _ in rt.ps_nodes:
        msg = yield get_reply
        apply_reply_payload(rt, flat, msg)
        replies.append(msg)
    tracer.end(slot.wid, "global_agg", rt.engine.now)
    if flat is not None:
        slot.comp.set_params(flat)
    slot.aggregations += 1
    return replies
