"""Link-level fault state consulted by ``Network.transfer``.

Partitions and probabilistic drops surface as *extra delivery latency*
(retransmission after timeout, as TCP would), never as silent loss: the
simulator has no ARQ layer, so a truly vanished message would wedge
every synchronous protocol with no real-world justification. The port
reservations themselves are untouched — reservation times stay
monotone, which the O(1) analytic :class:`~repro.sim.network.Port`
requires.

Windows are keyed by scope, ``("machine", m)`` or ``("rack", r)``.
On a fabric with racks the model resolves machine → rack (``rack_of``,
installed by the fault controller); a rack's windows apply only to
messages that cross the rack boundary — a ToR outage severs the uplink
while the non-blocking leaf backplane keeps intra-rack traffic flowing,
which is exactly what makes correlated rack failures different from N
machine partitions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["LinkFaultModel"]

# Retransmission attempts are capped: with drop_prob < 1 the geometric
# tail is finite anyway, and a bound keeps adversarial specs from
# spinning the RNG.
_MAX_RETRIES = 64


class LinkFaultModel:
    """Active hold/drop windows plus the retransmission RNG."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        # (scope, target) -> heal time (virtual seconds)
        self.held_until: dict[tuple[str, int], float] = {}
        # (scope, target) -> open (until, drop probability) windows; the largest
        # probability among them applies.
        self.drop_until: dict[tuple[str, int], list[tuple[float, float]]] = {}
        # machine -> rack resolver; installed by the fault controller on
        # hierarchical fabrics, None on flat ones (rack windows are then
        # unreachable — RunConfig validation rejects fabric events).
        self.rack_of: Callable[[int], int] | None = None
        self.messages_delayed = 0
        self.retransmits = 0
        # End of the latest window ever armed. ``Network.transfer``
        # skips the ``delivery_delay`` call entirely once ``now`` passes
        # this — observationally identical (an expired window adds no
        # delay and draws no RNG), but an armed-but-idle fault layer
        # then costs one float compare per message instead of a call.
        self.armed_until = float("-inf")

    # -- window management (called by the fault controller) --------------
    def hold(self, scope: str, target: int, until: float) -> None:
        """Hold messages touching ``target`` until ``until`` (+ one RTO);
        overlapping holds keep the latest heal."""
        key = (scope, target)
        self.held_until[key] = max(until, self.held_until.get(key, 0.0))
        self.armed_until = max(self.armed_until, until)

    def drop(self, scope: str, target: int, until: float, prob: float) -> None:
        """Lose each message touching ``target`` with ``prob`` (and
        retransmit it) until ``until``."""
        self.drop_until.setdefault((scope, target), []).append((until, prob))
        self.armed_until = max(self.armed_until, until)

    # -- the Network.transfer hook ---------------------------------------
    def delivery_delay(
        self, src: int, dst: int, nbytes: int, now: float, rto: float
    ) -> float:
        """Extra seconds before this message's first bit arrives."""
        keys = [("machine", src), ("machine", dst)]
        if self.rack_of is not None:
            src_rack, dst_rack = self.rack_of(src), self.rack_of(dst)
            if src_rack != dst_rack:
                keys += [("rack", src_rack), ("rack", dst_rack)]
        extra = 0.0
        prob = 0.0
        for key in keys:
            heal = self.held_until.get(key)
            if heal is not None:
                if now < heal:
                    # Held until the window heals, then one retransmit.
                    extra = max(extra, heal - now + rto)
                else:
                    del self.held_until[key]
            prob = max(prob, _open_drop(self.drop_until, key, now))

        if prob > 0.0:
            retries = 0
            while retries < _MAX_RETRIES and self.rng.random() < prob:
                retries += 1
            if retries:
                self.retransmits += retries
                extra += retries * rto

        if extra > 0.0:
            self.messages_delayed += 1
        return extra


def _open_drop(windows: dict, key: tuple[str, int], now: float) -> float:
    """The largest drop probability among ``key``'s open windows;
    closed ones are forgotten."""
    scoped = windows.get(key)
    if scoped is None:
        return 0.0
    scoped = [window for window in scoped if now < window[0]]
    if not scoped:
        del windows[key]
        return 0.0
    windows[key] = scoped
    return max(p for _, p in scoped)
