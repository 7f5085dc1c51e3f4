"""Per-worker local computation and the shared iteration helpers.

Every algorithm's worker process is a generator built from the same
three building blocks, so the *only* difference between algorithms is
their aggregation semantics:

* :class:`LocalComputation` — the real numpy math (full mode):
  mini-batch gradient, local SGD step, parameter get/set;
* :func:`compute_iteration` — the timed compute stage: traces the
  ``compute`` span, samples the duration from the cost model, and (in
  full mode) computes the actual gradient;
* :func:`send_gradient_plan` — walks the iteration's
  :class:`~repro.optimizations.waitfree.CommPlan`, sending each
  gradient message at its readiness offset (this is where wait-free BP
  and DGC plug in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.data.loader import BatchLoader
from repro.nn.losses import Loss
from repro.nn.module import Module
from repro.nn.optim import FlatSGD, weight_decay_mask
from repro.optimizations.dgc import DGCCompressor, SparseGradient
from repro.optimizations.waitfree import CommPlanEntry
from repro.sim.engine import AllOf, Get, Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.endpoints import Node
    from repro.core.runner import Runtime

__all__ = [
    "LocalComputation",
    "WorkerSlot",
    "compute_iteration",
    "send_gradient_plan",
    "collect_shard_replies",
    "sparse_slice_for_ranges",
]


class LocalComputation:
    """One worker's replica, data shard and loss.

    The replica is two flat float64 vectors, :attr:`params` and the
    momentum :attr:`velocity`; ``get_params``/``set_params``/
    ``gradient``/``apply_gradient`` are its interface. ``model`` only
    computes: a run builds one and every worker's ``LocalComputation``
    shares it, loading its own ``params`` for the length of one
    :meth:`gradient` call (DESIGN §3). Do not read replica state from
    ``model`` — it holds whichever replica computed last.
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
        # Evaluation runs on a separate model, so this one leaves train
        # mode only if a caller put it in eval(); train() walks every
        # module, too much to pay per step.
        if not model.training:
            model.train()
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
    ranges = rt.entry_ranges(entry)
    if rt.dgc_config is not None:
        if sparse is not None:  # full mode
            local_idx, values = sparse_slice_for_ranges(sparse, ranges)
            payload = (local_idx, values)
            nbytes = int(values.size) * 8
        else:  # timing mode: proportional share of the compressed size
            assert slot.dgc is not None
            total = slot.dgc.compressed_bytes(epoch=rt.sample_clock.epoch())
            nbytes = max(1, int(round(total * entry.num_elements / max(rt.total_elements, 1))))
            payload = None
        return payload, nbytes
    if grad is not None:
        payload = np.concatenate([grad[start:stop] for start, stop in ranges])
    else:
        payload = None
    return payload, entry.nbytes


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

    Without wait-free BP this is called *after* the compute stage and
    all messages go out immediately. With wait-free BP it is called
    *instead of* a plain compute stage: it interleaves the compute
    Timeout with per-layer sends at their readiness offsets (the
    caller passes ``compute_duration``; the gradient math happened up
    front, only its timing is staggered).
    """
    if meta is None:
        meta = {}
    sparse: SparseGradient | None = None
    if rt.dgc_config is not None and grad is not None:
        assert slot.dgc is not None
        # With DGC the PS applies plain sparse SGD, so weight decay is
        # folded into the gradient here (momentum is already handled by
        # the compressor's momentum correction).
        wd = rt.config.weight_decay
        if wd and slot.comp is not None and rt.decay_mask is not None:
            grad = grad + wd * np.where(rt.decay_mask, slot.comp.get_params(), 0.0)
        sparse = slot.dgc.compress(grad, epoch=rt.sample_clock.epoch())

    tx_signals: list[Signal] = []
    entries = rt.comm_plan.entries

    if compute_duration is None:
        for entry in entries:
            payload, nbytes = _entry_payload_and_bytes(rt, slot, entry, grad, sparse)
            if rt.obs_grad_bytes is not None:
                rt.obs_grad_bytes(slot.wid, nbytes)
            shard_node = rt.ps_nodes[entry.shard_id]
            if block_tx:
                tx = Signal()
                tx_signals.append(tx)
                slot.node.send(
                    shard_node,
                    kind,
                    nbytes=nbytes,
                    payload=payload,
                    meta={**meta, "entry": entry.label},
                    trace_worker=slot.wid,
                    tx_done=tx,
                )
            else:
                slot.node.send_nowait(
                    shard_node,
                    kind,
                    nbytes=nbytes,
                    payload=payload,
                    meta={**meta, "entry": entry.label},
                    trace_worker=slot.wid,
                )
        if tx_signals:
            # Blocking-send semantics: the caller does not regain
            # control until its NIC has serialised every message.
            yield AllOf(tx_signals)
        return

    # Wait-free BP: walk the plan inside the compute window.
    rt.tracer.begin(slot.wid, "compute", rt.engine.now)
    elapsed = 0.0
    for entry in entries:
        ready = entry.ready_offset * compute_duration
        if ready > elapsed:
            yield Timeout(ready - elapsed)
            elapsed = ready
        payload, nbytes = _entry_payload_and_bytes(rt, slot, entry, grad, sparse)
        if rt.obs_grad_bytes is not None:
            rt.obs_grad_bytes(slot.wid, nbytes)
        shard_node = rt.ps_nodes[entry.shard_id]
        if block_tx:
            tx = Signal()
            tx_signals.append(tx)
            slot.node.send(
                shard_node,
                kind,
                nbytes=nbytes,
                payload=payload,
                meta={**meta, "entry": entry.label},
                trace_worker=slot.wid,
                tx_done=tx,
            )
        else:
            slot.node.send_nowait(
                shard_node,
                kind,
                nbytes=nbytes,
                payload=payload,
                meta={**meta, "entry": entry.label},
                trace_worker=slot.wid,
            )
    if elapsed < compute_duration:
        yield Timeout(compute_duration - elapsed)
    rt.tracer.end(slot.wid, "compute", rt.engine.now)
    if tx_signals:
        yield AllOf(tx_signals)


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
    elif "entry" in msg.meta:
        # Per-layer reply (wait-free pull): write the entry's ranges.
        vec = np.asarray(payload, dtype=np.float64)
        offset = 0
        for a, b in rt._entry_ranges[(msg.meta["shard"], msg.meta["entry"])]:
            flat[a:b] = vec[offset : offset + (b - a)]
            offset += b - a
    else:
        shard.scatter(flat, payload)


def collect_shard_replies(
    rt: "Runtime", slot: WorkerSlot, count: int
) -> Generator[Any, Any, np.ndarray | None]:
    """Receive ``count`` PS replies and assemble the new parameters.

    Each reply carries one shard's parameter slice (or a DGC delta);
    they are folded into a copy of the worker's current flat vector
    (timing mode just absorbs the messages). Returns the assembled
    vector or ``None``.
    """
    flat = slot.comp.get_params() if slot.comp is not None else None
    get_reply = Get(slot.node.mailbox("reply"))
    for _ in range(count):
        msg = yield get_reply
        apply_reply_payload(rt, flat, msg)
    return flat
