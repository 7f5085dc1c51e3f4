"""Link-level fault state consulted by ``Network.transfer``.

Partitions and probabilistic drops surface as *extra delivery latency*
(retransmission after timeout, as TCP would), never as silent loss: the
simulator has no ARQ layer, so a truly vanished message would wedge
every synchronous protocol with no real-world justification. The port
reservations themselves are untouched — reservation times stay
monotone, which the O(1) analytic :class:`~repro.sim.network.Port`
requires.

The model is hierarchy-aware: on a fabric with racks it resolves
machine → rack (``rack_of``, installed by the fault controller) and
keeps *rack-scoped* partition and drop windows alongside the
machine-scoped ones. Rack windows apply only to messages that cross
the rack boundary — a ToR outage severs the uplink while the
non-blocking leaf backplane keeps intra-rack traffic flowing, which is
exactly what makes correlated rack failures different from N machine
partitions.
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
    """Active partition/drop windows plus the retransmission RNG."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        # machine -> heal time (virtual seconds)
        self.partitioned_until: dict[int, float] = {}
        # machine (or None = every link) -> open (until, drop probability)
        # windows; the largest probability among them applies.
        self.drop_until: dict[int | None, list[tuple[float, float]]] = {}
        # Rack-scoped windows (tor_outage / uplink_flap). Consulted only
        # for messages whose endpoints resolve to *different* racks.
        self.rack_partitioned_until: dict[int, float] = {}
        self.rack_drop_until: dict[int, list[tuple[float, float]]] = {}
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
    def partition(self, machine: int, until: float) -> None:
        self.partitioned_until[machine] = max(
            until, self.partitioned_until.get(machine, 0.0)
        )
        self.armed_until = max(self.armed_until, until)

    def set_drop(self, machine: int | None, until: float, prob: float) -> None:
        self.drop_until.setdefault(machine, []).append((until, prob))
        self.armed_until = max(self.armed_until, until)

    def rack_partition(self, rack: int, until: float) -> None:
        """Sever the rack's uplink: inter-rack messages touching the
        rack are held until ``until`` (+ one RTO); intra-rack traffic
        is untouched."""
        self.rack_partitioned_until[rack] = max(
            until, self.rack_partitioned_until.get(rack, 0.0)
        )
        self.armed_until = max(self.armed_until, until)

    def set_rack_drop(self, rack: int, until: float, prob: float) -> None:
        """Flapping uplink: inter-rack messages touching the rack are
        each lost with ``prob`` (and retransmitted) until ``until``."""
        self.rack_drop_until.setdefault(rack, []).append((until, prob))
        self.armed_until = max(self.armed_until, until)

    # -- the Network.transfer hook ---------------------------------------
    def delivery_delay(
        self, src: int, dst: int, nbytes: int, now: float, rto: float
    ) -> float:
        """Extra seconds before this message's first bit arrives."""
        extra = 0.0
        for machine in (src, dst):
            heal = self.partitioned_until.get(machine)
            if heal is None:
                continue
            if now < heal:
                # Held until the partition heals, then one retransmit.
                extra = max(extra, heal - now + rto)
            else:
                del self.partitioned_until[machine]

        prob = self._drop_prob(src, dst, now)

        # Rack-scoped windows: resolved machine → rack, applied only
        # across the rack boundary. Flat schedules never arm these, so
        # the extra work (and any RNG draw reordering) is unreachable
        # on pre-fabric runs — their digests are untouched.
        if (
            self.rack_of is not None
            and (self.rack_partitioned_until or self.rack_drop_until)
        ):
            src_rack = self.rack_of(src)
            dst_rack = self.rack_of(dst)
            if src_rack != dst_rack:
                for rack in (src_rack, dst_rack):
                    heal = self.rack_partitioned_until.get(rack)
                    if heal is None:
                        continue
                    if now < heal:
                        extra = max(extra, heal - now + rto)
                    else:
                        del self.rack_partitioned_until[rack]
                for rack in (src_rack, dst_rack):
                    prob = max(prob, _open_drop(self.rack_drop_until, rack, now))

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

    def _drop_prob(self, src: int, dst: int, now: float) -> float:
        prob = 0.0
        for scope in (None, src, dst):
            prob = max(prob, _open_drop(self.drop_until, scope, now))
        return prob


def _open_drop(windows: dict, scope: int | None, now: float) -> float:
    """The largest drop probability among ``scope``'s open windows;
    closed ones are forgotten."""
    scoped = windows.get(scope)
    if scoped is None:
        return 0.0
    scoped = [window for window in scoped if now < window[0]]
    if not scoped:
        del windows[scope]
        return 0.0
    windows[scope] = scoped
    return max(p for _, p in scoped)
