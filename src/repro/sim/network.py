"""Network model: rate-limited FIFO ports.

Each machine's NIC is a pair of full-duplex ports (tx, rx); each
machine also has one intra-machine bus port (PCIe-class) used for
local aggregation between colocated GPUs. A transfer of ``B`` bytes
from machine ``a`` to machine ``b``:

1. serialises on ``a``'s tx port (duration ``B / rate``, FIFO behind
   earlier sends from the same machine),
2. propagates for the network latency,
3. serialises on ``b``'s rx port from first-bit arrival (FIFO behind
   earlier arrivals — *this queue is the PS bottleneck*),
4. is delivered when both its last bit has reached ``b`` and
   ``B / tx_rate`` has passed since its first, so a degraded sender
   bounds the flow as a degraded receiver does.

End-to-end uncontended time is ``latency + B/rate`` (no
double-counting of serialisation). Contention at senders, receivers,
and the PS ingress/egress emerges from the FIFO queues rather than
being assumed — which is precisely the phenomenon behind the paper's
finding that ASP/SSP scale *worse than BSP* on 10 Gbps (§VI-C).

Hierarchical fabrics (``ClusterSpec.machines_per_rack`` set) add two
ports per *rack* — the ToR uplink and downlink, typically
oversubscribed — so port state stays O(machines + racks) no matter how
many flows cross the spine. An inter-rack transfer traverses
NIC tx → src uplink → spine → dst downlink → NIC rx; each stage is
reserved at its first-bit arrival (cut-through), and delivery is gated
by ``max(end_rx, end_stage + remaining latency)`` over all stages so a
slow oversubscribed uplink correctly bottlenecks the flow. Intra-rack
traffic never touches the ToR uplinks (non-blocking leaf backplane)
and follows the exact flat-topology code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Engine, Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunObserver

__all__ = ["Port", "Network"]


class Port:
    """A FIFO server transmitting at a fixed byte rate.

    ``reserve`` is O(1): it computes the service interval analytically
    from the port's running ``free_at`` watermark. Reservations must be
    made in non-decreasing event-time order, which the engine's causal
    event processing guarantees.
    """

    __slots__ = (
        "name",
        "rate",
        "free_at",
        "busy_time",
        "bytes_served",
        "transfers",
        "queue_time",
    )

    def __init__(self, name: str, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.name = name
        self.rate = rate  # bytes per second
        self.free_at = 0.0
        self.busy_time = 0.0
        self.bytes_served = 0
        self.transfers = 0
        self.queue_time = 0.0  # total seconds transfers waited for the port

    def service_time(self, nbytes: int) -> float:
        return nbytes / self.rate

    def reserve(self, now: float, nbytes: int) -> tuple[float, float]:
        """Reserve the port for ``nbytes`` arriving at ``now``.

        Returns ``(start, end)`` of the service interval.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        free_at = self.free_at
        start = free_at if free_at > now else now
        duration = nbytes / self.rate
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.queue_time += start - now
        self.bytes_served += nbytes
        self.transfers += 1
        return start, end


class Network:
    """All ports of a cluster plus the transfer state machine."""

    def __init__(
        self,
        engine: Engine,
        spec: ClusterSpec,
        *,
        observer: "RunObserver | None" = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        rate = spec.network_bytes_per_s
        intra_rate = spec.intra_bytes_per_s
        self.tx = [Port(f"m{i}.tx", rate) for i in range(spec.machines)]
        self.rx = [Port(f"m{i}.rx", rate) for i in range(spec.machines)]
        self.intra = [Port(f"m{i}.bus", intra_rate) for i in range(spec.machines)]
        self.total_bytes = 0
        self.total_messages = 0
        # Pre-bound link-sampling hook: unobserved transfers pay only the
        # null check.
        self._obs_link_sample = observer.link_sample if observer is not None else None
        # Static spec values hoisted off the per-transfer path.
        self._machines = spec.machines
        self._latency = spec.network_latency_s
        self._intra_latency = spec.machine.intra_latency_s
        # Hierarchical tier: two ports per rack, O(racks) total state.
        # ``_hier`` is the only extra cost the flat fast path pays — a
        # single attribute check per inter-machine message.
        self._hier = spec.hierarchical
        if self._hier:
            self._mpr = spec.machines_per_rack
            self._spine_latency = spec.spine_latency
            self._half_latency = 0.5 * spec.network_latency_s
            up_rate = spec.uplink_bytes_per_s
            racks = spec.num_racks
            self.tor_up = [Port(f"r{i}.up", up_rate) for i in range(racks)]
            self.tor_down = [Port(f"r{i}.down", up_rate) for i in range(racks)]
            # Per-rack and fabric-wide degrade factors compose
            # multiplicatively, so an uplink_degrade window restoring
            # mid-spine_degrade (or vice versa) cannot clobber the
            # other's effect.
            self._uplink_frac = [1.0] * racks
            self._spine_frac = 1.0
        else:
            self.tor_up = []
            self.tor_down = []
        # Installed by the fault controller when fault injection is on.
        # Must expose ``delivery_delay(src, dst, nbytes, now, rto)``
        # returning extra seconds added to delivery (never negative),
        # plus an ``armed_until`` float: transfers consult the model
        # only while ``now < armed_until``, so an armed-but-idle fault
        # layer costs one float compare per message.
        self.fault_model = None

    def scale_machine_rate(self, machine: int, fraction: float) -> None:
        """Degrade (or restore) a machine's NIC to ``fraction`` of the
        cluster's nominal rate. Bus rate is untouched: link faults are
        network faults."""
        if not 0 < fraction:
            raise ValueError("rate fraction must be positive")
        rate = self.spec.network_bytes_per_s * fraction
        self.tx[machine].rate = rate
        self.rx[machine].rate = rate

    def scale_rack_uplink(self, rack: int, fraction: float) -> None:
        """Degrade (or restore, with 1.0) one rack's ToR uplink and
        downlink to ``fraction`` of nominal. Hierarchical fabrics only."""
        if not self._hier:
            raise ValueError("no ToR uplinks on a flat fabric")
        if not 0 < fraction:
            raise ValueError("rate fraction must be positive")
        self._uplink_frac[rack] = fraction
        self._apply_tor_rate(rack)

    def scale_spine(self, fraction: float) -> None:
        """Degrade (or restore) the spine tier: every rack's uplink and
        downlink scale by ``fraction`` (contention at the spine shows
        up as slower ToR ports)."""
        if not self._hier:
            raise ValueError("no spine tier on a flat fabric")
        if not 0 < fraction:
            raise ValueError("rate fraction must be positive")
        self._spine_frac = fraction
        for rack in range(len(self.tor_up)):
            self._apply_tor_rate(rack)

    def _apply_tor_rate(self, rack: int) -> None:
        rate = (
            self.spec.uplink_bytes_per_s
            * self._uplink_frac[rack]
            * self._spine_frac
        )
        self.tor_up[rack].rate = rate
        self.tor_down[rack].rate = rate

    def transfer(
        self,
        src_machine: int,
        dst_machine: int,
        nbytes: int,
        *,
        tx_done: Signal | None = None,
    ) -> Signal:
        """Start a transfer now; returns a signal triggered at delivery.

        The validated face of :meth:`transfer_cb`, whose delivery
        callback is the signal's trigger (its waiters run inline).
        """
        if not 0 <= src_machine < self._machines:
            raise ValueError(f"src machine {src_machine} out of range")
        if not 0 <= dst_machine < self._machines:
            raise ValueError(f"dst machine {dst_machine} out of range")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = Signal()
        self.transfer_cb(
            src_machine, dst_machine, nbytes, done.trigger, (None,), tx_done=tx_done
        )
        return done

    def transfer_cb(
        self,
        src_machine: int,
        dst_machine: int,
        nbytes: int,
        fn,
        args: tuple,
        *,
        tx_done: Signal | None = None,
    ) -> None:
        """Start a transfer now; ``fn(*args)`` runs at delivery time.

        The network's one transfer state machine. Zero-byte transfers
        still pay latency (control messages). ``tx_done``, if given, is
        triggered when the sender's port has finished serialising the
        message — the point at which a blocking MPI-style send returns;
        its waiters wake on the zero-delay lane. A message lands when
        its last byte has left the sender and reached the receiver: a
        slow sender gates delivery as much as a slow receiver.

        Caller contract (internal fast path; :meth:`transfer` checks):
        machines are valid node placements and ``nbytes >= 0``.
        """
        engine = self.engine
        now = engine.now
        self.total_bytes += nbytes
        self.total_messages += 1
        fault_model = self.fault_model
        if fault_model is not None and now >= fault_model.armed_until:
            fault_model = None  # no fault window can touch this message

        if src_machine == dst_machine:
            bus = self.intra[src_machine]
            _, end = bus.reserve(now, nbytes)
            if self._obs_link_sample is not None:
                self._obs_link_sample(bus, now)
            if tx_done is not None:
                engine._at(end - now, tx_done.trigger, (None, engine))
            engine._at(end + self._intra_latency - now, fn, args)
            return

        if self._hier and src_machine // self._mpr != dst_machine // self._mpr:
            self._start_inter_rack(
                src_machine, dst_machine, nbytes, fn, args, tx_done, fault_model
            )
            return

        tx = self.tx[src_machine]
        start_tx, end_tx = tx.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(tx, now)
        if tx_done is not None:
            engine._at(end_tx - now, tx_done.trigger, (None, engine))
        # Fault path: partitions and probabilistic drops manifest as
        # extra delivery latency (retransmission, TCP-style), never as
        # silent loss — a lost message would deadlock the synchronous
        # protocols without any real-world analogue of ARQ to save them.
        extra = 0.0
        if fault_model is not None:
            rto = 2.0 * self._latency + tx.service_time(nbytes)
            extra = fault_model.delivery_delay(
                src_machine, dst_machine, nbytes, now, rto
            )
        engine._at(
            start_tx + self._latency + extra - now,
            self._on_rx,
            (dst_machine, nbytes, nbytes / tx.rate, fn, args),
        )

    # -- hierarchical inter-rack path -----------------------------------
    #
    # NIC tx → ToR uplink → spine → ToR downlink → NIC rx. Each stage
    # reserves its port at first-bit arrival (cut-through forwarding),
    # so FIFO order at every tier is arrival order. A ``gate`` — the
    # max over completed stages of (stage end + remaining downstream
    # latency) — rides along; delivery is ``max(end_rx, gate)`` so the
    # slowest tier, not the last one, bounds the flow. The edge latency
    # is split half before / half after the ToR tier, keeping the
    # uncontended end-to-end time at
    # ``network_latency + spine_latency + B/bottleneck_rate``.

    def _start_inter_rack(
        self,
        src_machine: int,
        dst_machine: int,
        nbytes: int,
        fn,
        args: tuple,
        tx_done: Signal | None,
        fault_model,
    ) -> None:
        engine = self.engine
        now = engine.now
        tx = self.tx[src_machine]
        start_tx, end_tx = tx.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(tx, now)
        if tx_done is not None:
            engine._at(end_tx - now, tx_done.trigger, (None, engine))
        extra = 0.0
        if fault_model is not None:
            rto = 2.0 * (self._latency + self._spine_latency) + tx.service_time(
                nbytes
            )
            extra = fault_model.delivery_delay(
                src_machine, dst_machine, nbytes, now, rto
            )
        half = self._half_latency
        gate = end_tx + half + self._spine_latency + half
        engine._at(
            start_tx + half + extra - now,
            self._on_uplink,
            (src_machine // self._mpr, dst_machine, nbytes, fn, args, gate),
        )

    def _on_uplink(
        self, src_rack: int, dst_machine: int, nbytes: int, fn, args: tuple,
        gate: float,
    ) -> None:
        engine = self.engine
        now = engine.now
        up = self.tor_up[src_rack]
        start_up, end_up = up.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(up, now)
        spine = self._spine_latency
        stage_gate = end_up + spine + self._half_latency
        if stage_gate > gate:
            gate = stage_gate
        engine._at(
            start_up + spine - now,
            self._on_downlink,
            (dst_machine, nbytes, fn, args, gate),
        )

    def _on_downlink(
        self, dst_machine: int, nbytes: int, fn, args: tuple, gate: float
    ) -> None:
        engine = self.engine
        now = engine.now
        down = self.tor_down[dst_machine // self._mpr]
        start_down, end_down = down.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(down, now)
        half = self._half_latency
        stage_gate = end_down + half
        if stage_gate > gate:
            gate = stage_gate
        engine._at(
            start_down + half - now,
            self._on_rx_gated,
            (dst_machine, nbytes, fn, args, gate),
        )

    def _on_rx_gated(
        self, dst_machine: int, nbytes: int, fn, args: tuple, gate: float
    ) -> None:
        engine = self.engine
        now = engine.now
        rx = self.rx[dst_machine]
        _, end_rx = rx.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(rx, now)
        delivery = end_rx if end_rx > gate else gate
        engine._at(delivery - now, fn, args)

    def _on_rx(
        self, dst_machine: int, nbytes: int, tx_time: float, fn, args: tuple
    ) -> None:
        """First bit reached the receiver: serialise on its rx port,
        then run the delivery callback once the last bit has also left
        the sender (``tx_time`` after the first)."""
        engine = self.engine
        now = engine.now
        rx = self.rx[dst_machine]
        _, end_rx = rx.reserve(now, nbytes)
        if self._obs_link_sample is not None:
            self._obs_link_sample(rx, now)
        gate = now + tx_time
        engine._at((end_rx if end_rx > gate else gate) - now, fn, args)

    def oob_delay(self, src_machine: int, dst_machine: int, nbytes: int) -> float:
        """Charge an out-of-band message and return its delivery delay.

        The control plane (heartbeats): the message travels the
        management network, so it pays latency but never queues behind
        data-plane traffic on the NIC ports. Partitions and outages
        still apply — the management network of a partitioned machine is
        unreachable too, which is what lets the failure detector notice.
        The caller schedules the delivery itself: one queue event per
        message, which keeps an armed-but-idle detector cheap.
        """
        self.total_bytes += nbytes
        self.total_messages += 1
        if src_machine == dst_machine:
            return self._intra_latency
        delay = self._latency
        if self._hier and src_machine // self._mpr != dst_machine // self._mpr:
            delay += self._spine_latency
        fault_model = self.fault_model
        if fault_model is not None and self.engine.now < fault_model.armed_until:
            rto = 2.0 * self._latency
            delay += fault_model.delivery_delay(
                src_machine, dst_machine, nbytes, self.engine.now, rto
            )
        return delay
