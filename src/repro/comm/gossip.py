"""GoSGD's weighted push-gossip exchange rule.

GoSGD (Blot et al., 2018) keeps per-worker mixing weights ``α_i``
(summing to 1 across the cluster) so that asymmetric, unacknowledged
pushes still converge to the true average — the construction comes
from the push-sum gossip aggregation of Kempe et al. (FOCS'03), which
the paper cites as the origin of the asymmetric gossip idea.

On a push from sender ``s`` to receiver ``r``:

* the sender halves its weight and ships ``(x_s, α_s/2)``
  (:func:`gossip_send_share`);
* the receiver merges
  ``x_r ← (α_r·x_r + α_s/2·x_s) / (α_r + α_s/2)`` and absorbs the
  shipped weight (:func:`gossip_merge`).

Total weight is conserved by construction — a property test pins this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GossipState",
    "gossip_send_share",
    "gossip_merge",
    "choose_gossip_peer",
]


@dataclass
class GossipState:
    """A worker's gossip bookkeeping: its mixing weight."""

    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("gossip weight must be positive")


def gossip_send_share(state: GossipState) -> float:
    """Halve the sender's weight; return the shipped share."""
    share = state.weight / 2.0
    state.weight = share
    return share


def gossip_merge(
    x_recv: np.ndarray | None,
    w_recv: float,
    state: GossipState,
    x_local: np.ndarray | None,
) -> np.ndarray | None:
    """Merge a received (params, weight) pair into the local state.

    Returns the new local parameter vector (or ``None`` in timing-only
    mode, where payloads are absent but the weight bookkeeping still
    runs so that message counts match full mode).
    """
    if w_recv <= 0:
        raise ValueError("received weight must be positive")
    new_weight = state.weight + w_recv
    if x_local is None or x_recv is None:
        state.weight = new_weight
        return None
    merged = (state.weight * x_local + w_recv * x_recv) / new_weight
    state.weight = new_weight
    return merged


def choose_gossip_peer(wid: int, live: list[int], rng: np.random.Generator) -> int:
    """Uniform random *live* peer other than ``wid`` (paper §IV-B)."""
    if len(live) < 2:
        raise ValueError("gossip needs at least two live workers")
    t = int(rng.integers(0, len(live) - 1))
    i = live.index(wid)
    return live[t] if t < i else live[t + 1]
