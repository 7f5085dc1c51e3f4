"""EASGD — Elastic Averaging SGD (Zhang, Choromanska & LeCun, §III-D).

Workers run *local* momentum SGD and only every ``tau`` iterations
exchange parameters with the PS, which maintains the center variable
``x̃``. Following the paper's implementation note, both elastic
updates happen on the PS when a worker's parameters arrive:

    x̃  ← x̃ + α (xᵢ − x̃)
    xᵢ ← xᵢ − α (xᵢ − x̃_old)

and the PS sends back the *updated local parameters* ``xᵢ`` (not the
center variable). The moving rate defaults to α = 0.9/N, the stability
choice from the EASGD paper (β = 0.9 split over N workers).

Communication complexity O(2MN/τ); the price is intermittent
aggregation — the accuracy cost the paper's Tables II/III quantify.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.comm.messages import Message
from repro.comm.ps import PSShard
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, WorkerFactory, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import WorkerSlot, compute_iteration, ps_pull

__all__ = ["EASGD", "EASGDShard"]


class EASGDShard(PSShard):
    """PS shard holding the center variable x̃ for its slice."""

    serve_concurrency = 2  # per-worker comm threads, capped at spare PS cores

    def handle(self, msg: Message) -> Generator[Any, Any, None]:
        wid = msg.meta["worker"]
        alpha = msg.meta["alpha"]
        yield self.agg_delay(msg.nbytes)
        reply_payload = None
        if self.params is not None and msg.payload is not None:
            x_i = np.asarray(msg.payload, dtype=np.float64)
            robust = self.runtime.robust
            if robust is not None and not robust.screen_peer(
                None, x_i, wid, "easgd", reference=self.params
            ):
                # Rejected: the center ignores the outlier, and the
                # worker gets its own parameters back unchanged (no
                # elastic pull toward a poisoned center either).
                reply_payload = x_i
            else:
                diff = alpha * (x_i - self.params)
                x_i_new = x_i - diff
                self.params += diff
                reply_payload = x_i_new
        self.updates_applied += 1
        self.send_nowait(
            self.runtime.workers[wid].node,
            "reply",
            nbytes=self.slice_bytes,
            payload=reply_payload,
            meta={"shard": self.shard_id},
            trace_worker=wid,
        )


def _easgd_worker(rt: Runtime, slot: WorkerSlot, tau: int, alpha: float) -> Generator:
    local_iter = 0
    while not rt.stopping:
        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr())
        local_iter += 1
        if local_iter % tau == 0:
            params = slot.comp.get_params() if slot.comp is not None else None
            meta = {"op": "easgd", "worker": slot.wid, "alpha": alpha}

            def push(shard: PSShard) -> dict[str, Any]:
                payload = shard.assignment.gather(params) if params is not None else None
                return {"nbytes": shard.slice_bytes, "payload": payload, "meta": meta}

            yield from ps_pull(rt, slot, push)
        rt.on_iteration(slot)


@register_algorithm
class EASGD(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="EASGD",
        centralized=True,
        synchronous=False,
        sends_gradients=False,  # exchanges parameters → no wait-free BP / DGC
        hyperparameters=("tau", "alpha"),
    )
    shard_class = EASGDShard

    def __init__(self, **hyperparams: Any) -> None:
        super().__init__(**hyperparams)
        tau = int(self.hyperparams.get("tau", 8))
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        alpha = self.hyperparams.get("alpha")
        if alpha is not None and not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha

    def alpha_for(self, num_workers: int) -> float:
        """The EASGD paper's stable choice β/N with β = 0.9."""
        return self._alpha if self._alpha is not None else 0.9 / num_workers

    def setup(self, runtime: Runtime) -> None:
        # α is fixed at setup from the configured worker count; an
        # eviction does not retune it (the center variable keeps its
        # elasticity, matching a real deployment's static config).
        self._alpha_resolved = self.alpha_for(runtime.config.num_workers)
        super().setup(runtime)

    def worker_factory(self, runtime: Runtime, wids: list[int]) -> WorkerFactory:
        return lambda slot: _easgd_worker(runtime, slot, self.tau, self._alpha_resolved)
