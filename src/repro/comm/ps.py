"""Parameter-server shard infrastructure.

A PS deployment is a set of shard nodes, each owning a disjoint slice
of the flat parameter vector (see
:mod:`repro.optimizations.sharding`). All worker→PS traffic uses the
message kind ``"req"`` with an ``op`` field in ``meta`` — one FIFO
request queue per shard, processed serially because every request
mutates the shard's global parameters (the serialisation that makes a
PS a bottleneck). Replies go to the requesting worker under kind
``"reply"``.

Algorithm-specific behaviour (when to aggregate, when to reply) lives
in subclasses inside the :mod:`repro.core` algorithm modules; this
module provides the shared state and the serve loop.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.comm.endpoints import CommContext, Node
from repro.comm.messages import Message
from repro.nn.optim import FlatSGD
from repro.sim.engine import Get, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import Runtime
    from repro.optimizations.sharding import ShardAssignment

__all__ = ["PSShard", "place_shards"]


def place_shards(num_shards: int, machines: int) -> list[int]:
    """Machine placement for shards: round-robin over machines, as PS
    processes co-reside with workers in the paper's deployment."""
    if num_shards <= 0 or machines <= 0:
        raise ValueError("num_shards and machines must be positive")
    return [s % machines for s in range(num_shards)]


class PSShard(Node):
    """One parameter-server shard.

    In full mode the shard owns its parameter slice (gathered into one
    contiguous vector) and a :class:`~repro.nn.optim.FlatSGD`
    optimizer over it. In timing mode it owns only byte counts.

    ``serve_concurrency`` controls how many request-processing loops a
    shard runs. The paper's PS allocates one communication thread per
    worker so that it "can communicate with multiple workers in
    parallel" (§III-B); the asynchronous shard subclasses therefore run
    several loops (bounded by PS cores), while synchronous BSP keeps a
    single round-collecting loop.
    """

    serve_concurrency = 1

    def __init__(
        self,
        ctx: CommContext,
        node_id: int,
        machine: int,
        runtime: "Runtime",
        assignment: ShardAssignment,
        *,
        init_params: np.ndarray | None,
        decay_mask: np.ndarray | None,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
    ) -> None:
        super().__init__(ctx, node_id, machine, name=f"ps{assignment.shard_id}")
        # Weak: the runtime owns its shards (``Runtime.ps_nodes``); a
        # strong back-reference would tie every shard, and through the
        # workers every replica, into a cycle only the collector frees.
        self.runtime: "Runtime" = weakref.proxy(runtime)
        self.assignment = assignment
        self.shard_id = assignment.shard_id
        self.params: np.ndarray | None = None
        self.optimizer: FlatSGD | None = None
        self.updates_applied = 0
        # DGC delta-pull state: version stamps of the last update that
        # touched each coordinate, and each worker's last-synced version
        # (timing mode tracks versions only; see reply_params).
        self._version = 0
        self._worker_version: dict[int, int] = {}
        # Observability-only: version each worker last pulled, tracked
        # separately from the DGC delta-pull state so enabling obs
        # never perturbs algorithm state.
        self._obs_last_pull: dict[int, int] = {}
        self._last_modified: np.ndarray | None = (
            np.zeros(assignment.num_elements, dtype=np.int64)
            if init_params is not None
            else None
        )
        # Robust asynchronous folds: latest complete gradient per
        # worker (the sliding window the rule is evaluated over).
        self._grad_window: dict[int, np.ndarray] = {}
        # Per-sender fold: (entries seen, running sum) of every gradient
        # set still incomplete (see collect_sender_entry).
        self._partial: dict[int, tuple[int, np.ndarray | None]] = {}
        if init_params is not None:
            self.params = assignment.gather(init_params)
            mask = assignment.gather(decay_mask.astype(np.float64)).astype(bool) if (
                decay_mask is not None
            ) else None
            self.optimizer = FlatSGD(
                self.params.size,
                momentum=momentum,
                weight_decay=weight_decay,
                decay_mask=mask,
            )

    # -- shared update helpers ------------------------------------------
    @property
    def entries_per_sender(self) -> int:
        """Gradient messages each sender directs at this shard per
        iteration (1 without wait-free BP; one per owned layer with)."""
        return self.runtime.comm_plan.entries_per_shard[self.shard_id]

    @property
    def slice_bytes(self) -> int:
        return self.assignment.num_elements * self.runtime.sharding.bytes_per_param

    def agg_delay(self, nbytes: int) -> Timeout:
        """Virtual time spent applying an aggregation of ``nbytes``.

        The Timeout instance is shared per size (see CommModel): shards
        yield one per received gradient, so the allocation matters.
        """
        return self.ctx.comm_model.agg_timeout(nbytes)

    def accumulate_entry(
        self, acc: np.ndarray | None, msg: Message, weight: float = 1.0
    ) -> np.ndarray | None:
        """Add one gradient-entry message, times ``weight``, into a
        shard-slice accumulator.

        Allocates the accumulator lazily on first real payload; returns
        the (possibly new) accumulator. ``None`` payloads (timing mode)
        leave it untouched.
        """
        if msg.payload is None:
            return acc
        if acc is None:
            acc = np.zeros(self.assignment.num_elements, dtype=np.float64)
        offset = self.runtime.comm_plan.entries[msg.meta["entry_idx"]].shard_offset
        if isinstance(msg.payload, tuple):  # DGC sparse (local_idx, values)
            local_idx, values = msg.payload
            np.add.at(acc, local_idx + offset, values if weight == 1.0 else values * weight)
        else:
            dense = np.asarray(msg.payload, dtype=np.float64)
            acc[offset : offset + dense.size] += dense if weight == 1.0 else dense * weight
        return acc

    def collect_sender_entry(
        self, wid: int, msg: Message
    ) -> tuple[bool, np.ndarray | None]:
        """Count and sum one sender's gradient entries until its set for
        this shard is complete.

        Returns ``(complete, acc)``: ``acc`` is the summed slice gradient
        once all :attr:`entries_per_sender` messages of worker ``wid``
        have arrived (``None`` in timing mode). Call it *before* yielding:
        the bookkeeping is shared by the concurrent serve lanes, which
        must never observe a stale partial set.
        """
        count, acc = self._partial.pop(wid, (0, None))
        acc = self.accumulate_entry(acc, msg)
        count += 1
        if count < self.entries_per_sender:
            self._partial[wid] = (count, acc)
            return False, None
        return True, acc

    def apply_gradient(self, grad_slice: np.ndarray | None, lr: float) -> None:
        """One optimizer step on the shard's slice.

        With DGC enabled the step is *plain* sparse SGD — momentum and
        weight decay are folded into the compressed gradient on the
        worker side (momentum correction, Lin et al.) so that each
        update touches only the sent coordinates and delta-pull replies
        stay sparse. In timing mode only the version counter advances.
        """
        dgc = self.runtime.dgc_config is not None
        self.updates_applied += 1
        self._version += 1
        if self.params is None or grad_slice is None:
            return
        if dgc:
            changed = np.flatnonzero(grad_slice)
            self.params[changed] -= lr * grad_slice[changed]
            assert self._last_modified is not None
            self._last_modified[changed] = self._version
        else:
            assert self.optimizer is not None
            self.optimizer.step(self.params, grad_slice, lr)
            assert self._last_modified is not None
            # A momentum step moves every coordinate.
            self._last_modified.fill(self._version)

    def fold_gradient(self, wid: int, acc: np.ndarray | None) -> None:
        """Fold one worker's complete gradient set asynchronously.

        Baseline: apply the gradient directly at the fold rate. With a
        robust rule active, the shard instead keeps a sliding window of
        the latest complete gradient per worker and applies the rule's
        aggregate of that window — an arriving gradient only moves the
        parameters through whatever the rule lets past. The aggregate
        is mean-scale, and each arrival triggers one fold, so over one
        logical round of N arrivals the parameters move by roughly one
        full-rate robust-mean step, matching the baseline's N
        single-gradient folds.
        """
        rt = self.runtime
        robust = (
            rt.robust if rt.robust is not None and rt.robust.centralized_active else None
        )
        if robust is None:
            self.apply_gradient(acc, rt.fold_lr())
            return
        if acc is not None:
            self._grad_window[wid] = acc
        rows = dict(self._grad_window)
        agg = robust.aggregate(rows, site="ps") if rows else None
        self.apply_gradient(agg, rt.fold_lr())

    def apply_entry_gradient(self, msg: Message, lr: float) -> None:
        """Plain (momentum-free) SGD step on one entry's coordinates.

        Used by the per-layer apply path of wait-free ASP. The shard
        must have been created with ``momentum=0`` — per-range momentum
        state is not maintained.
        """
        self.updates_applied += 1
        self._version += 1
        if self.params is None or msg.payload is None:
            return
        offset = self.runtime.comm_plan.entries[msg.meta["entry_idx"]].shard_offset
        grad = np.asarray(msg.payload, dtype=np.float64)
        sl = slice(offset, offset + grad.size)
        opt = self.optimizer
        if opt is not None and opt.weight_decay:
            if opt.decay_mask is not None:
                grad = grad + opt.weight_decay * np.where(
                    opt.decay_mask[sl], self.params[sl], 0.0
                )
            else:
                grad = grad + opt.weight_decay * self.params[sl]
        self.params[sl] -= lr * grad
        assert self._last_modified is not None
        self._last_modified[sl] = self._version

    def reply_entry_params(
        self, worker_node: Node, entry_idx: int, *, trace_worker: int | None = None
    ) -> None:
        """Reply with one entry's current parameter slice (layer-wise
        pull of wait-free training)."""
        entry = self.runtime.comm_plan.entries[entry_idx]
        start = entry.shard_offset
        payload = (
            self.params[start : start + entry.num_elements].copy()
            if self.params is not None
            else None
        )
        self.send_nowait(
            worker_node,
            "reply",
            nbytes=entry.nbytes,
            payload=payload,
            meta={
                "shard": self.shard_id, "entry_idx": entry_idx, "trace_worker": trace_worker
            },
            trace_worker=trace_worker,
        )

    def reply_params(self, worker_node: Node, *, meta: dict[str, Any] | None = None) -> None:
        """Send the slice parameters back to a worker.

        Dense by default; with DGC enabled only the coordinates updated
        since this worker's previous reply are sent ("delta pull"), so
        both directions of PS traffic are compressed — without this,
        dense pulls would erase DGC's benefit (cf. Fig 4).
        """
        base_meta = {"shard": self.shard_id}
        if meta:
            base_meta.update(meta)
        wid = base_meta.get("trace_worker")
        staleness_sample = self.runtime.obs_staleness_sample
        if staleness_sample is not None and wid is not None:
            staleness_sample(
                self.shard_id,
                wid,
                self.ctx.now,
                self._version - self._obs_last_pull.get(wid, 0),
            )
            self._obs_last_pull[wid] = self._version
        dgc = self.runtime.dgc_config
        if dgc is None:
            payload = self.params.copy() if self.params is not None else None
            nbytes = self.slice_bytes
        else:
            last = self._worker_version.get(wid, 0) if wid is not None else 0
            if self.params is not None:
                assert self._last_modified is not None
                idx = np.flatnonzero(self._last_modified > last)
                payload = ("delta", idx, self.params[idx].copy())
                nbytes = max(int(idx.size) * 8, 1)
            else:
                # Timing mode: expected changed fraction after u sparse
                # updates, each touching ratio·slice coordinates.
                updates = self._version - last
                ratio = dgc.ratio_at(self.runtime.sample_clock.epoch())
                n = self.assignment.num_elements
                changed = n * (1.0 - (1.0 - min(ratio, 1.0)) ** max(updates, 0))
                payload = None
                nbytes = max(int(round(changed * 8)), 1)
            if wid is not None:
                self._worker_version[wid] = self._version
        self.send_nowait(
            worker_node,
            "reply",
            nbytes=nbytes,
            payload=payload,
            meta=base_meta,
            trace_worker=wid,
        )

    # -- failure awareness ---------------------------------------------
    def on_membership_change(self, live: list[int]) -> None:
        """Reconcile shard state with the new live worker set.

        Base behaviour prunes per-worker bookkeeping of evicted
        workers and voids the half-accumulated gradient sets of the old
        epoch; subclasses additionally drop their round state (clock
        tables) so the next round starts clean over the survivors. A
        rejoining worker re-enters with no delta-pull version, so its
        first pull is effectively a full snapshot.
        """
        self._partial.clear()
        keep = set(live)
        self._worker_version = {
            w: v for w, v in self._worker_version.items() if w in keep
        }
        self._obs_last_pull = {
            w: v for w, v in self._obs_last_pull.items() if w in keep
        }
        self._grad_window = {
            w: g for w, g in self._grad_window.items() if w in keep
        }

    # -- serve loop --------------------------------------------------------
    def serve(self) -> Generator[Any, Any, None]:
        """Main shard process: pop requests FIFO, dispatch to handle()."""
        inbox_sample = self.runtime.obs_ps_inbox_sample
        get_req = Get(self.mailbox("req"))
        while not self.runtime.stopping:
            msg = yield get_req
            if inbox_sample is not None:
                # Depth of the request backlog *behind* this message —
                # the PS ingress queue the paper blames for the
                # aggregation-wait fractions.
                inbox_sample(self.shard_id, self.ctx.now, self.pending("req"))
            yield from self.handle(msg)

    def handle(self, msg: Message) -> Generator[Any, Any, None]:
        raise NotImplementedError
