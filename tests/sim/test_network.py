"""Tests for the network model (ports, transfers, contention)."""

import pytest

from repro.sim.cluster import hierarchical_cluster, paper_cluster
from repro.sim.engine import Engine, Signal, Timeout
from repro.sim.network import Network, Port

from tests.conftest import port_stats


class TestPort:
    def test_service_time(self):
        port = Port("p", rate=1000.0)
        assert port.service_time(500) == pytest.approx(0.5)

    def test_fifo_reservations(self):
        port = Port("p", rate=100.0)
        s1, e1 = port.reserve(0.0, 100)
        s2, e2 = port.reserve(0.0, 100)
        assert (s1, e1) == (0.0, 1.0)
        assert (s2, e2) == (1.0, 2.0)

    def test_idle_gap_not_charged(self):
        port = Port("p", rate=100.0)
        port.reserve(0.0, 100)
        s, e = port.reserve(5.0, 100)
        assert (s, e) == (5.0, 6.0)
        assert port.busy_time == pytest.approx(2.0)

    def test_utilization(self):
        port = Port("p", rate=100.0)
        port.reserve(0.0, 100)
        assert port.utilization(4.0) == pytest.approx(0.25)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Port("p", rate=0)
        with pytest.raises(ValueError):
            Port("p", rate=10).reserve(0.0, -1)


class TestNetworkTransfer:
    def make(self, bw=10):
        eng = Engine()
        spec = paper_cluster(bandwidth_gbps=bw, machines=3, gpus_per_machine=4)
        return eng, spec, Network(eng, spec)

    def run_transfer(self, eng, net, src, dst, nbytes, start=0.0):
        done_at = []

        def proc():
            if start:
                yield Timeout(start)
            sig = net.transfer(src, dst, nbytes)
            yield sig
            done_at.append(eng.now)

        eng.spawn(proc())
        eng.run()
        return done_at[0]

    def test_uncontended_time_is_latency_plus_serialization(self):
        eng, spec, net = self.make()
        nbytes = 10_000_000
        expected = spec.network_latency_s + nbytes / spec.network_bytes_per_s
        assert self.run_transfer(eng, net, 0, 1, nbytes) == pytest.approx(expected)

    def test_intra_machine_uses_bus(self):
        eng, spec, net = self.make()
        nbytes = 10_000_000
        t = self.run_transfer(eng, net, 1, 1, nbytes)
        expected = spec.machine.intra_latency_s + nbytes / spec.intra_bytes_per_s
        assert t == pytest.approx(expected)
        assert t < spec.network_latency_s + nbytes / spec.network_bytes_per_s

    def test_sender_contention_serializes(self):
        """Two simultaneous sends from one machine share its tx port."""
        eng, spec, net = self.make()
        ends = []

        def proc(dst):
            sig = net.transfer(0, dst, 1_000_000)
            yield sig
            ends.append(eng.now)

        eng.spawn(proc(1))
        eng.spawn(proc(2))
        eng.run()
        serialization = 1_000_000 / spec.network_bytes_per_s
        assert min(ends) == pytest.approx(spec.network_latency_s + serialization)
        assert max(ends) == pytest.approx(spec.network_latency_s + 2 * serialization)

    def test_receiver_contention_serializes(self):
        """Incast: many senders to one machine queue at its rx port —
        this is the PS-bottleneck mechanism."""
        eng, spec, net = self.make()
        ends = []

        def proc(src):
            sig = net.transfer(src, 2, 1_000_000)
            yield sig
            ends.append(eng.now)

        eng.spawn(proc(0))
        eng.spawn(proc(1))
        eng.run()
        ser = 1_000_000 / spec.network_bytes_per_s
        assert max(ends) == pytest.approx(spec.network_latency_s + 2 * ser)

    def test_zero_byte_message_pays_latency(self):
        eng, spec, net = self.make()
        assert self.run_transfer(eng, net, 0, 1, 0) == pytest.approx(
            spec.network_latency_s
        )

    def test_higher_bandwidth_is_faster(self):
        t10 = self.run_transfer(*(lambda e, s, n: (e, n))(*self.make(10)), 0, 1, 50_000_000)
        t56 = self.run_transfer(*(lambda e, s, n: (e, n))(*self.make(56)), 0, 1, 50_000_000)
        assert t56 < t10 / 3

    def test_stats_accumulate(self):
        eng, spec, net = self.make()
        self.run_transfer(eng, net, 0, 1, 1234)
        assert net.total_bytes == 1234
        assert net.total_messages == 1
        stats = port_stats(net)
        assert stats["m0.tx"]["bytes"] == 1234
        assert stats["m1.rx"]["bytes"] == 1234

    def test_invalid_machine_raises(self):
        eng, spec, net = self.make()
        with pytest.raises(ValueError):
            net.transfer(0, 99, 10)


# -- tx_done on the one state machine ----------------------------------------


def reference_transfer(net, src, dst, nbytes, tx_done=None):
    """``Network.transfer`` as its own state machine, before it wrapped
    ``transfer_cb`` (fault-free): a delivery Signal, ``tx_done`` pushed
    right after the sender's port reservation."""
    engine = net.engine
    now = engine.now
    done = Signal()
    net.total_bytes += nbytes
    net.total_messages += 1
    if src == dst:
        _, end = net.intra[src].reserve(now, nbytes)
        if tx_done is not None:
            engine._at(end - now, tx_done.trigger, (None, engine))
        engine._at(end + net._intra_latency - now, done.trigger, (None,))
        return done
    if net._hier and src // net._mpr != dst // net._mpr:
        net._start_inter_rack(src, dst, nbytes, done.trigger, (None,), tx_done, None)
        return done
    start_tx, end_tx = net.tx[src].reserve(now, nbytes)
    if tx_done is not None:
        engine._at(end_tx - now, tx_done.trigger, (None, engine))
    tx_time = nbytes / net.tx[src].rate
    engine._at(start_tx + net._latency - now, _reference_arrival, (net, dst, nbytes, tx_time, done))
    return done


def _reference_arrival(net, dst, nbytes, tx_time, done):
    """Serialise on the receiver's port; land once the last bit has
    also left the sender (``tx_time`` after the first bit arrived)."""
    now = net.engine.now
    _, end_rx = net.rx[dst].reserve(now, nbytes)
    net.engine._at(max(end_rx, now + tx_time) - now, done.trigger, (None,))


def reference_oob_delay(net, src, dst, nbytes):
    """The control plane, fault-free: charged on the network's totals,
    latency only, never a port."""
    net.total_bytes += nbytes
    net.total_messages += 1
    if src == dst:
        return net._intra_latency
    if net._hier and src // net._mpr != dst // net._mpr:
        return net._latency + net._spine_latency
    return net._latency


def _callback_send(net, src, dst, nbytes, tx, record, i):
    net.transfer_cb(src, dst, nbytes, record, (None, "rx", i), tx_done=tx)


def _signal_send(net, src, dst, nbytes, tx, record, i):
    net.transfer(src, dst, nbytes, tx_done=tx)._waiters.append((record, ("rx", i)))


def _reference_send(net, src, dst, nbytes, tx, record, i):
    reference_transfer(net, src, dst, nbytes, tx)._waiters.append((record, ("rx", i)))


FLAT = paper_cluster(bandwidth_gbps=10, machines=3, gpus_per_machine=4)
RACKS = hierarchical_cluster(machines=4, machines_per_rack=2)
MB = 1_000_000

# (time, "send" or "oob", src, dst, nbytes) or (time, "rate", machine, fraction).
SCRIPTS = {
    "bus": (FLAT, [(0.0, "send", 1, 1, MB), (0.0, "send", 1, 1, MB),
                   (0.0, "send", 1, 1, 0), (1e-4, "send", 1, 1, MB)]),
    "flat": (FLAT, [(0.0, "send", 0, 1, MB), (0.0, "send", 0, 2, MB),
                    (0.0, "send", 2, 1, MB), (5e-4, "send", 0, 1, 4050)]),
    "inter-rack": (RACKS, [(0.0, "send", 0, 2, MB), (0.0, "send", 0, 1, MB),
                           (0.0, "send", 1, 3, MB), (0.0, "send", 3, 2, 0)]),
    "oob": (RACKS, [(0.0, "send", 0, 1, MB), (0.0, "oob", 0, 1, 32),
                    (0.0, "oob", 0, 2, 32), (0.0, "oob", 1, 1, 32)]),
    "zero-byte": (FLAT, [(0.0, "send", 0, 1, 0), (0.0, "send", 0, 1, 0),
                         (0.0, "send", 1, 1, 0), (0.0, "send", 2, 1, 0)]),
    "rate-change": (FLAT, [(0.0, "send", 0, 1, MB), (1e-4, "rate", 0, 0.25),
                           (1e-4, "send", 0, 2, MB), (2e-3, "rate", 0, 1.0),
                           (2e-3, "send", 0, 1, MB)]),
}


def replay(spec, script, send, oob_delay=Network.oob_delay):
    """Run ``script``; returns the ordered ``(time, what, index)`` log of
    sends, rate changes, ``tx_done`` wake-ups and deliveries, then the
    event count, the port statistics and the network's totals."""
    engine = Engine()
    net = Network(engine, spec)
    log = []

    def record(_value, what, i):
        log.append((engine.now, what, i))

    def act(i, step):
        if step[1] == "rate":
            net.scale_machine_rate(step[2], step[3])
            record(None, "rate", i)
            return
        _, what, src, dst, nbytes = step
        record(None, "send", i)
        if what == "oob":
            engine._at(oob_delay(net, src, dst, nbytes), record, (None, "rx", i))
            return
        tx = Signal()
        tx._waiters.append((record, ("tx", i)))
        send(net, src, dst, nbytes, tx, record, i)

    for i, step in enumerate(script):
        engine._at(step[0], act, (i, step))
    engine.run()
    return log, engine.events_processed, port_stats(net), (net.total_bytes, net.total_messages)


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_tx_done_fires_where_the_old_transfer_fired_it(name):
    spec, script = SCRIPTS[name]
    reference = replay(spec, script, _reference_send, reference_oob_delay)
    assert replay(spec, script, _callback_send) == reference
    assert replay(spec, script, _signal_send) == reference
    log = reference[0]
    sends = [i for i, step in enumerate(script) if step[1] == "send"]
    assert sorted(i for _, what, i in log if what == "tx") == sends
    assert sorted(i for _, what, i in log if what == "rx") == sorted(
        i for i, step in enumerate(script) if step[1] != "rate"
    )


def test_tx_done_is_the_end_of_serialisation():
    spec, script = SCRIPTS["rate-change"]
    log, *_ = replay(spec, script, _callback_send)
    tx = {i: t for t, what, i in log if what == "tx"}
    rate = spec.network_bytes_per_s
    assert tx[0] == pytest.approx(MB / rate)
    # Queued behind message 0, then served at a quarter of the rate.
    assert tx[2] == pytest.approx(MB / rate + MB / (0.25 * rate))
    # Restored while message 2 still serialises: queued behind it, full rate.
    assert tx[4] == pytest.approx(tx[2] + MB / rate)
    # Control-plane messages pay latency only, never the NIC behind
    # message 0.
    oob_log, *_ = replay(*SCRIPTS["oob"], _callback_send)
    rx = {i: t for t, what, i in oob_log if what == "rx"}
    racks = SCRIPTS["oob"][0]
    assert rx[1] == racks.network_latency_s
    assert rx[2] == racks.network_latency_s + racks.spine_latency
    assert rx[3] == racks.machine.intra_latency_s
    assert max(rx[1], rx[2], rx[3]) < rx[0]
