"""Per-run robust-aggregation state: screening, strikes, guards.

One :class:`RobustRuntime` is attached to the
:class:`~repro.core.runner.Runtime` when the config carries a
:class:`~repro.robust.config.RobustConfig` (``rt.robust`` stays None
otherwise — every hook is a single ``is not None`` check, the same
zero-overhead discipline as ``rt.faults``).

It centralises three concerns so the algorithm wiring stays thin:

* **aggregation + screening** — shards and collectives hand their
  per-contributor rows to :meth:`aggregate`; decentralized mixers ask
  :meth:`screen_peer` before merging a peer's parameters. Both count
  rejections and attribute strikes to the offending worker.
* **offender quarantine** — a worker that accumulates
  ``quarantine_strikes`` strikes (corrupt gradients produced, or
  screening rejections) is evicted through the fault controller's
  membership machinery. The eviction is deferred through the engine's
  callback queue because a membership change kills every registered
  process, possibly including the caller.
* **training-loop guard** — NaN/inf and loss-spike detection on every
  iteration, with rollback of workers *and* PS shards to the last
  known-good parameter snapshot (captured every
  ``checkpoint_interval`` global iterations).

In a real deployment the integrity checks live at the receiver
(validate-before-aggregate); the simulator performs them centrally
with perfect attribution, which is the optimistic bound on what
receiver-side validation can achieve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.robust.aggregators import aggregate_rows
from repro.robust.config import RobustConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TrainingAlgorithm
    from repro.core.runner import Runtime
    from repro.core.worker import WorkerSlot

__all__ = ["RobustRuntime"]


class RobustRuntime:
    def __init__(
        self,
        runtime: "Runtime",
        algorithm: "TrainingAlgorithm",
        config: RobustConfig,
    ) -> None:
        self.rt = runtime
        self.algorithm = algorithm
        self.config = config
        self.strikes: dict[int, int] = {}
        self.rejections: dict[str, int] = {}
        self.rejections_by_worker: dict[int, int] = {}
        self.rollbacks = 0
        self.checkpoints = 0
        self.quarantines_requested: list[int] = []
        self._quarantine_pending: set[int] = set()
        # Guard state: last known-good global parameters.
        self._good_params: np.ndarray | None = (
            runtime.init_params.copy() if runtime.init_params is not None else None
        )
        self._good_iteration = 0
        self._cooldown_until = 0

    # -- activation flags ------------------------------------------------
    @property
    def centralized_active(self) -> bool:
        """Whether PS shards should collect per-contributor rows instead
        of the baseline running sum. Plain mean without screening keeps
        the baseline arithmetic bit-identical."""
        return self.config.aggregator != "mean" or self.config.screen_factor is not None

    # -- aggregation -----------------------------------------------------
    def aggregate(self, rows_by_wid: dict[int, np.ndarray], site: str) -> np.ndarray | None:
        """Screen and aggregate one round's per-contributor rows.

        Rows are screened (finite check, then the optional norm screen
        against the median row norm), rejections are attributed to their
        workers, and the survivors — stacked in worker-id order so every
        replica of a decentralized collective computes the identical
        aggregate — go through the configured rule. Returns ``None``
        when nothing survives.
        """
        if not rows_by_wid:
            return None
        survivors: dict[int, np.ndarray] = {}
        for wid in sorted(rows_by_wid):
            row = rows_by_wid[wid]
            if not np.isfinite(row).all():
                self.reject(wid, site, reason="non-finite")
                continue
            survivors[wid] = row
        factor = self.config.screen_factor
        if factor is not None and len(survivors) > 1:
            norms = {w: float(np.linalg.norm(r)) for w, r in survivors.items()}
            threshold = factor * (float(np.median(list(norms.values()))) + 1e-12)
            for wid in list(survivors):
                if norms[wid] > threshold:
                    self.reject(wid, site, reason="norm")
                    del survivors[wid]
        if not survivors:
            return None
        rows = np.stack([survivors[w] for w in sorted(survivors)])
        return aggregate_rows(rows, self.config)

    def screen_peer(
        self,
        slot: "WorkerSlot | None",
        peer_vec,
        peer_wid: int,
        site: str,
        reference=None,
    ) -> bool:
        """Accept/reject one peer contribution in a pairwise exchange.

        Rejects non-finite vectors always, and — when ``screen_factor``
        is set — vectors whose distance from ``reference`` (default:
        the local parameters) exceeds ``screen_factor x (|reference| +
        1)``. Pure norm screening: a pairwise exchange has no quorum to
        take a median over, distance to self is the only signal.
        """
        if peer_vec is None:
            return True
        vec = np.asarray(peer_vec, dtype=np.float64)
        if not np.isfinite(vec).all():
            self.reject(peer_wid, site, reason="non-finite")
            return False
        factor = self.config.screen_factor
        if factor is None:
            return True
        if reference is None and slot is not None and slot.comp is not None:
            reference = slot.comp.get_params()
        if reference is None:
            return True
        ref = np.asarray(reference, dtype=np.float64)
        if float(np.linalg.norm(vec - ref)) > factor * (float(np.linalg.norm(ref)) + 1.0):
            self.reject(peer_wid, site, reason="distance")
            return False
        return True

    # -- strikes & quarantine --------------------------------------------
    def reject(self, wid: int | None, site: str, *, reason: str = "") -> None:
        """Count one rejected contribution and strike its producer."""
        self.rejections[site] = self.rejections.get(site, 0) + 1
        self._record("reject", worker=wid, detail=f"site={site} reason={reason}")
        if wid is None:
            return
        self.rejections_by_worker[wid] = self.rejections_by_worker.get(wid, 0) + 1
        self.add_strike(wid)

    def add_strike(self, wid: int) -> None:
        self.strikes[wid] = self.strikes.get(wid, 0) + 1
        limit = self.config.quarantine_strikes
        if limit and self.strikes[wid] >= limit:
            self._request_quarantine(wid)

    def _request_quarantine(self, wid: int) -> None:
        controller = self.rt.faults
        if controller is None or wid in self._quarantine_pending:
            return
        if not controller.membership.is_live(wid) or len(controller.membership) <= 1:
            return
        self._quarantine_pending.add(wid)
        self.quarantines_requested.append(wid)
        self._record("quarantine_request", worker=wid)
        # Deferred: the membership change kills every registered
        # process, so it must not run inside one.
        self.rt.engine._immediate(controller.quarantine, (wid,))

    # -- gradient-production hook ----------------------------------------
    def gradient_produced(self, slot: "WorkerSlot", grad) -> None:
        """Receiver-side integrity check at the source, with perfect
        attribution: a non-finite gradient strikes its producer."""
        if grad is None:
            return
        if not np.isfinite(grad).all():
            self._record("detect_nonfinite_grad", worker=slot.wid)
            if slot.comp is not None and not np.isfinite(slot.comp.get_params()).all():
                # The replica this gradient was computed from is itself
                # poisoned (an upstream NaN reached the shared model):
                # not this worker's fault — striking it would cascade
                # honest workers into quarantine. The guard's rollback
                # owns recovery from poisoned parameters.
                return
            self.reject(slot.wid, "produce", reason="non-finite")

    # -- training-loop guard ---------------------------------------------
    def on_iteration(self, slot: "WorkerSlot") -> None:
        if not self.config.guard or slot.comp is None:
            return
        total = self.rt.sample_clock.total_iterations
        loss = slot.comp.last_loss
        ema = slot.comp.ema_loss
        if total >= self._cooldown_until:
            spike = (
                np.isfinite(loss)
                and np.isfinite(ema)
                and loss > self.config.loss_spike_factor * max(ema, 1e-3)
            )
            if not np.isfinite(loss) or spike:
                self._record(
                    "detect_nan_loss" if not np.isfinite(loss) else "detect_loss_spike",
                    worker=slot.wid,
                    detail=f"loss={loss!r}",
                )
                self._rollback()
                return
        if (
            total >= self._good_iteration + self.config.checkpoint_interval
            and total >= self._cooldown_until
        ):
            self._checkpoint()

    def _checkpoint(self) -> None:
        params = self.algorithm.global_params()
        if params is None or not np.isfinite(params).all():
            return
        self._good_params = params.copy()
        self._good_iteration = self.rt.sample_clock.total_iterations
        self.checkpoints += 1
        self._record("checkpoint")

    def _rollback(self) -> None:
        """Restore every live worker and PS shard to the last good
        snapshot, with fresh optimizer state (momentum accumulated along
        a poisoned trajectory is itself poison)."""
        params = self._good_params
        if params is None:
            return
        rt = self.rt
        for wid in rt.live_worker_ids():
            slot = rt.workers[wid]
            if slot.comp is None:
                continue
            slot.comp.set_params(params)
            slot.comp.reset_velocity()
            slot.comp.last_loss = float("nan")
            slot.comp.ema_loss = float("nan")
        for shard in rt.ps_nodes:
            if shard.params is not None:
                shard.params[:] = shard.assignment.gather(params)
                if shard.optimizer is not None:
                    shard.optimizer.velocity.fill(0.0)
        self.rollbacks += 1
        self._cooldown_until = (
            rt.sample_clock.total_iterations + self.config.checkpoint_interval
        )
        self._record("rollback", detail=f"to_iteration={self._good_iteration}")

    # -- reporting -------------------------------------------------------
    def _record(self, kind: str, *, worker: int | None = None, detail: str = "") -> None:
        obs = self.rt.obs
        if obs is not None:
            obs.robust_event(
                now=self.rt.engine.now, kind=kind, worker=worker, detail=detail
            )

    def summary(self) -> dict:
        """Robust-layer outcome, attached to result metadata."""
        return {
            "aggregator": self.config.aggregator,
            "rejections": dict(self.rejections),
            "rejections_by_worker": dict(self.rejections_by_worker),
            "strikes": dict(self.strikes),
            "quarantines_requested": list(self.quarantines_requested),
            "rollbacks": self.rollbacks,
            "checkpoints": self.checkpoints,
        }
