"""GoSGD — asymmetric gossip SGD (Blot et al., §IV-B).

Each worker runs local SGD; after each iteration it flips a coin with
probability ``p`` and, on success, *pushes* its parameters (with half
its push-sum mixing weight) to a uniformly random peer — then keeps
going without waiting for any acknowledgement. A worker's parameters
change from outside only when it receives such a push, which it merges
by the weighted rule of :mod:`repro.comm.gossip`.

Communication complexity O(MN·p): with the authors' recommended
``p = 0.01`` the network is almost silent — near-linear scaling, paid
for with the slow propagation of updates (the accuracy collapse in
Tables II/III).

Per the paper's implementation note, communication runs on a
background thread: a push waits only for the sender's NIC, never for a
reply, and incoming merges are drained between iterations.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.comm.gossip import GossipState, choose_gossip_peer, gossip_merge, gossip_send_share
from repro.core.base import AlgorithmInfo, TrainingAlgorithm, WorkerFactory, register_algorithm
from repro.core.runner import Runtime
from repro.core.worker import WorkerSlot, compute_iteration
from repro.sim.engine import Signal

__all__ = ["GoSGD"]


def _gosgd_worker(
    rt: Runtime, slot: WorkerSlot, p: float, state: GossipState, live: list[int]
) -> Generator[Any, Any, None]:
    model_bytes = rt.total_elements * rt.sharding.bytes_per_param
    while not rt.stopping:
        # Merge everything that arrived while we were computing.
        while slot.node.pending("gossip"):
            msg = yield slot.node.recv("gossip")
            local = slot.comp.get_params() if slot.comp is not None else None
            if (
                rt.robust is not None
                and msg.payload is not None
                and not rt.robust.screen_peer(
                    slot, msg.payload, msg.meta["worker"], "gosgd", reference=local
                )
            ):
                # Absorb the shipped weight but drop the poisoned
                # parameters: the push-sum total-weight invariant must
                # survive the rejection or the cluster average drifts.
                state.weight += msg.meta["weight"]
                continue
            merged = gossip_merge(msg.payload, msg.meta["weight"], state, local)
            if slot.comp is not None and merged is not None:
                slot.comp.set_params(merged)

        grad = yield from compute_iteration(rt, slot)
        if slot.comp is not None and grad is not None:
            slot.comp.apply_gradient(grad, rt.lr())

        if len(live) > 1 and slot.rng.random() < p:
            target = choose_gossip_peer(slot.wid, live, slot.rng)
            share = gossip_send_share(state)
            payload = slot.comp.get_params() if slot.comp is not None else None
            tx_done = Signal()
            slot.node.send_nowait(
                rt.workers[target].node,
                "gossip",
                nbytes=model_bytes,
                payload=payload,
                meta={"weight": share, "worker": slot.wid},
                trace_worker=slot.wid,
                tx_done=tx_done,
            )
            # Blocking push: the sender regains control once the NIC
            # has serialised the message (it never waits for a reply —
            # that is the asymmetry, §IV-B).
            yield tx_done
        rt.on_iteration(slot)


@register_algorithm
class GoSGD(TrainingAlgorithm):
    info = AlgorithmInfo(
        name="GoSGD",
        centralized=False,
        synchronous=False,
        sends_gradients=False,  # pushes parameters
        hyperparameters=("p",),
    )

    def __init__(self, **hyperparams: Any) -> None:
        super().__init__(**hyperparams)
        p = float(self.hyperparams.get("p", 0.01))
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self._states: list[GossipState] = []

    def setup(self, runtime: Runtime) -> None:
        n = runtime.config.num_workers
        self._states = [GossipState(weight=1.0 / n) for _ in range(n)]
        super().setup(runtime)

    def worker_factory(self, runtime: Runtime, wids: list[int]) -> WorkerFactory:
        return lambda slot: _gosgd_worker(
            runtime, slot, self.p, self._states[slot.wid], wids
        )

    def on_membership_change(self, runtime: Runtime) -> None:
        # Push-sum repair: weight held by dead workers (or flushed from
        # mailboxes) is gone; renormalise the survivors' weights so the
        # invariant Σα = 1 holds over the new membership.
        live = runtime.live_worker_ids()
        total = sum(self._states[w].weight for w in live)
        for w in live:
            self._states[w].weight /= total
        super().on_membership_change(runtime)
