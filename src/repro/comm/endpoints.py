"""Node endpoints and the shared communication context.

A :class:`Node` is anything with a network identity: a worker, a PS
shard, a machine-local aggregator. Nodes send typed messages; each
(destination, kind) pair has its own FIFO mailbox, so concurrent
processes on one node can selectively receive different kinds without
stealing each other's messages (the paper's per-worker PS
communication threads reduce to this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.comm.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunObserver
from repro.sim.cluster import ClusterSpec
from repro.sim.costmodel import CommModel
from repro.sim.engine import Engine, Get, Signal, Store
from repro.sim.network import Network
from repro.sim.trace import PhaseTracer

__all__ = ["CommContext", "Node", "HEARTBEAT_BYTES", "last_per_port"]

#: Wire size of one heartbeat control message.
HEARTBEAT_BYTES = 32

# Shared meta for messages sent without one (ring chunks, broadcasts):
# never mutated — consumers only ever read keys their own senders set.
_EMPTY_META: dict[str, Any] = {}


def last_per_port(src_machine: int, dst_machines: Iterable[int]) -> frozenset[int]:
    """Indices of the messages that leave last through each of the
    sender's data ports, for messages sent in order to nodes on
    ``dst_machines``.

    A message to the sender's own machine takes the machine bus, any
    other the NIC. A port serialises in FIFO order with non-decreasing
    end times, so the last message through it is the last to finish:
    a blocking send completes with these (DESIGN §8).
    """
    last: dict[bool, int] = {}
    for index, machine in enumerate(dst_machines):
        last[machine == src_machine] = index
    return frozenset(last.values())


@dataclass
class CommContext:
    """Everything a node needs to communicate: the engine, the network,
    the cluster layout, cost constants, and the tracer."""

    engine: Engine
    network: Network
    cluster: ClusterSpec
    comm_model: CommModel = field(default_factory=CommModel)
    tracer: PhaseTracer = field(default_factory=lambda: PhaseTracer(enabled=False))
    observer: "RunObserver | None" = None
    # Membership epoch: bumped by the fault controller on every
    # eviction/rejoin. Messages are stamped with the epoch at send time
    # and dropped at delivery if the epoch moved on — an in-flight
    # gradient from a fenced-off worker must not corrupt the new round.
    epoch: int = 0
    dropped_messages: int = 0

    @property
    def now(self) -> float:
        return self.engine.now


class Node:
    """A network endpoint pinned to a machine.

    Node ids are global and unique across workers and PS shards; the
    registry in :class:`CommContext` is not needed because senders hold
    direct references to receiver nodes (the runner wires them up).
    """

    def __init__(self, ctx: CommContext, node_id: int, machine: int, name: str = "") -> None:
        if not 0 <= machine < ctx.cluster.machines:
            raise ValueError(f"machine {machine} out of range")
        self.ctx = ctx
        self.node_id = node_id
        self.machine = machine
        self.name = name or f"node{node_id}"
        self._mailboxes: dict[str, Store] = {}
        self.sent_messages = 0
        self.sent_bytes = 0
        # Tracer dispatch is specialized at construction: ``enabled``
        # is fixed for a tracer's lifetime, so a disabled tracer costs
        # nothing per delivery instead of a no-op method call.
        self._trace_record = ctx.tracer.record if ctx.tracer.enabled else None
        # Same discipline for the observer: the hook is None unless the
        # observer actually records something for delivered messages.
        self._obs_on_message = (
            ctx.observer.on_message_hook if ctx.observer is not None else None
        )

    def mailbox(self, kind: str) -> Store:
        box = self._mailboxes.get(kind)
        if box is None:
            box = self.ctx.engine.store()
            self._mailboxes[kind] = box
        return box

    def send_nowait(
        self,
        dst: "Node",
        kind: str,
        *,
        nbytes: int,
        payload: Any = None,
        meta: dict[str, Any] | None = None,
        trace_worker: int | None = None,
        tx_done: Signal | None = None,
    ) -> None:
        """Transmit a message; it lands in ``dst.mailbox(kind)`` when the
        simulated transfer completes.

        No delivery Signal: the mailbox deposit is scheduled directly on
        the event queue. Senders wait on *replies* (their own mailboxes),
        never on delivery of what they sent. ``tx_done``, if given, is
        triggered when this node's port has serialised the message —
        blocking-send (MPI_Send) semantics for the caller that waits on
        it. If ``trace_worker`` is set, the wire time is recorded as a
        ``comm`` span for that worker.
        """
        ctx = self.ctx
        msg = Message(
            self.node_id,
            dst.node_id,
            kind,
            nbytes,
            payload,
            meta if meta is not None else _EMPTY_META,
            ctx.engine.now,
        )
        self.sent_messages += 1
        self.sent_bytes += nbytes
        ctx.network.transfer_cb(
            self.machine,
            dst.machine,
            nbytes,
            self._deliver,
            (msg, ctx.epoch, dst, trace_worker),
            tx_done=tx_done,
        )

    def _deliver(
        self, msg: Message, epoch: int, dst: "Node", trace_worker: int | None
    ) -> None:
        """Land ``msg`` in the destination mailbox (delivery callback).

        The callback is the whole event and the put its last act, so
        the put is a tail (see :meth:`Store.put`).
        """
        ctx = self.ctx
        if ctx.epoch != epoch:
            ctx.dropped_messages += 1
            return
        now = ctx.engine.now
        msg.recv_time = now
        if trace_worker is not None and self._trace_record is not None:
            self._trace_record(trace_worker, "comm", msg.send_time, now)
        if self._obs_on_message is not None:
            self._obs_on_message(
                src_machine=self.machine,
                dst_machine=dst.machine,
                kind=msg.kind,
                nbytes=msg.nbytes,
                t_send=msg.send_time,
                t_recv=now,
                src_node=self.node_id,
                dst_node=dst.node_id,
            )
        dst.mailbox(msg.kind).put(msg, True)

    def recv(self, kind: str) -> Get:
        """Yieldable: next message of ``kind`` (FIFO)."""
        return Get(self.mailbox(kind))

    def pending(self, kind: str) -> int:
        """Messages of ``kind`` already queued (non-blocking probe)."""
        return len(self.mailbox(kind))

    def flush(self, kind: str | None = None) -> None:
        """Drop queued messages and cancel blocked receivers.

        Called by the fault controller on membership changes: the
        protocol restarts from a clean round, so messages addressed to
        the previous epoch must not leak into the new one.
        """
        if kind is not None:
            self.mailbox(kind).clear()
            return
        for box in self._mailboxes.values():
            box.clear()

    def drop_receivers(self) -> None:
        """Forget blocked receivers; buffered messages stay.

        The end-of-run counterpart of :meth:`flush`: the processes are
        gone, what they never consumed is still there to inspect.
        """
        for box in self._mailboxes.values():
            box._getters.clear()
