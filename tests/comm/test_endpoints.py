"""Tests for Node endpoints and message delivery."""

import numpy as np
import pytest

from repro.comm.endpoints import CommContext, Node
from repro.comm.messages import Message
from repro.sim.cluster import paper_cluster
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.trace import PhaseTracer


def make_ctx(machines=3, bw=10, trace=False):
    eng = Engine()
    spec = paper_cluster(bandwidth_gbps=bw, machines=machines, gpus_per_machine=4)
    net = Network(eng, spec)
    return CommContext(engine=eng, network=net, cluster=spec, tracer=PhaseTracer(enabled=trace))


class TestNode:
    def test_send_delivers_message(self):
        ctx = make_ctx()
        a = Node(ctx, 0, 0)
        b = Node(ctx, 1, 1)
        got = []

        def receiver():
            msg = yield b.recv("data")
            got.append(msg)

        ctx.engine.spawn(receiver())

        def sender():
            a.send_nowait(b, "data", nbytes=1000, payload=np.arange(3), meta={"k": 1})
            return
            yield

        ctx.engine.spawn(sender())
        ctx.engine.run()
        assert len(got) == 1
        msg = got[0]
        assert msg.src == 0 and msg.dst == 1
        assert np.array_equal(msg.payload, np.arange(3))
        assert msg.meta == {"k": 1}
        assert msg.recv_time > msg.send_time

    def test_per_kind_mailboxes_isolated(self):
        ctx = make_ctx()
        a = Node(ctx, 0, 0)
        b = Node(ctx, 1, 1)
        got = []

        def receiver():
            msg = yield b.recv("wanted")
            got.append(msg.kind)

        ctx.engine.spawn(receiver())

        def sender():
            a.send_nowait(b, "other", nbytes=10)
            a.send_nowait(b, "wanted", nbytes=10)
            return
            yield

        ctx.engine.spawn(sender())
        ctx.engine.run()
        assert got == ["wanted"]
        assert b.pending("other") == 1

    def test_in_order_delivery_per_pair(self):
        ctx = make_ctx()
        a = Node(ctx, 0, 0)
        b = Node(ctx, 1, 1)
        got = []

        def receiver():
            for _ in range(5):
                msg = yield b.recv("seq")
                got.append(msg.meta["i"])

        ctx.engine.spawn(receiver())

        def sender():
            for i in range(5):
                a.send_nowait(b, "seq", nbytes=1000 * (5 - i), meta={"i": i})
            return
            yield

        ctx.engine.spawn(sender())
        ctx.engine.run()
        assert got == [0, 1, 2, 3, 4]

    def test_send_stats(self):
        ctx = make_ctx()
        a = Node(ctx, 0, 0)
        b = Node(ctx, 1, 1)

        def sender():
            a.send_nowait(b, "x", nbytes=100)
            a.send_nowait(b, "x", nbytes=200)
            return
            yield

        ctx.engine.spawn(sender())
        ctx.engine.run()
        assert a.sent_messages == 2
        assert a.sent_bytes == 300

    def test_trace_worker_records_comm_span(self):
        ctx = make_ctx(trace=True)
        a = Node(ctx, 0, 0)
        b = Node(ctx, 1, 1)

        def sender():
            a.send_nowait(b, "x", nbytes=10_000_000, trace_worker=7)
            return
            yield

        ctx.engine.spawn(sender())
        ctx.engine.run()
        assert ctx.tracer.total("comm", worker=7) > 0

    def test_machine_out_of_range(self):
        ctx = make_ctx(machines=2)
        with pytest.raises(ValueError):
            Node(ctx, 0, 5)


class TestMessage:
    def test_keyword_and_positional_construction_agree(self):
        by_keyword = Message(
            src=1, dst=2, kind="grad", nbytes=40, payload="p", meta={"it": 3},
            send_time=0.5, recv_time=0.75,
        )
        by_position = Message(1, 2, "grad", 40, "p", {"it": 3}, 0.5, 0.75)
        assert by_keyword == by_position
        assert by_position.kind == "grad" and by_position.recv_time == 0.75

    def test_defaults(self):
        first, second = Message(0, 1, "x", 0), Message(0, 1, "x", 0)
        assert first.payload is None
        assert (first.send_time, first.recv_time) == (0.0, 0.0)
        first.meta["k"] = 1  # each message gets its own dict
        assert second.meta == {}

    def test_negative_nbytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            Message(0, 1, "x", -1)
        with pytest.raises(ValueError, match="nbytes"):
            Message(src=0, dst=1, kind="x", nbytes=-8)
