"""Link-level fault semantics: degrade, partition, drop, out-of-band.

Drops and partitions surface as retransmission *latency*, never silent
loss; degraded links keep the analytic port model monotone.
"""

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.faults.netfaults import LinkFaultModel
from repro.sim.cluster import hierarchical_cluster, paper_cluster
from repro.sim.engine import Engine, Timeout
from repro.sim.network import Network


def make_net(bw=10, machines=3):
    eng = Engine()
    spec = paper_cluster(bandwidth_gbps=bw, machines=machines, gpus_per_machine=4)
    return eng, spec, Network(eng, spec)


def run_transfer(eng, net, src, dst, nbytes, start=0.0):
    done_at = []

    def proc():
        if start:
            yield Timeout(start)
        yield net.transfer(src, dst, nbytes)
        done_at.append(eng.now)

    eng.spawn(proc())
    eng.run()
    return done_at[0]


def run_oob(eng, net, src, dst, nbytes):
    """Arrival time of a control-plane message sent at time 0."""
    done_at = []

    def proc():
        yield Timeout(net.oob_delay(src, dst, nbytes))
        done_at.append(eng.now)

    eng.spawn(proc())
    eng.run()
    return done_at[0]


class TestLinkDegrade:
    def test_degraded_rx_slows_incoming(self):
        eng, spec, net = make_net()
        net.scale_machine_rate(1, 0.25)
        nbytes = 10_000_000
        t = run_transfer(eng, net, 0, 1, nbytes)
        expected = spec.network_latency_s + nbytes / (spec.network_bytes_per_s * 0.25)
        assert t == pytest.approx(expected)

    def test_degraded_tx_gates_a_lone_message(self):
        """A message lands only once its last bit has left a degraded
        sender, even when the receiver's port is at full rate."""
        eng, spec, net = make_net(machines=2)
        net.scale_machine_rate(0, 0.1)
        nbytes = 10_000_000
        t = run_transfer(eng, net, 0, 1, nbytes)
        last_bit_leaves = nbytes / (spec.network_bytes_per_s * 0.1)
        assert t == pytest.approx(spec.network_latency_s + last_bit_leaves)
        assert t > last_bit_leaves

    def test_degraded_tx_throttles_sustained_sends(self):
        """Back-to-back sends queue behind the degraded tx port."""
        eng, spec, net = make_net()
        net.scale_machine_rate(0, 0.25)
        nbytes = 10_000_000
        ends = []

        def proc(dst):
            yield net.transfer(0, dst, nbytes)
            ends.append(eng.now)

        eng.spawn(proc(1))
        eng.spawn(proc(2))
        eng.run()
        # Second send can't start serialising before the first finishes
        # at the degraded rate.
        assert max(ends) > nbytes / (spec.network_bytes_per_s * 0.25)

    def test_restore_to_nominal(self):
        eng, spec, net = make_net()
        net.scale_machine_rate(1, 0.25)
        net.scale_machine_rate(1, 1.0)
        nbytes = 10_000_000
        t = run_transfer(eng, net, 0, 1, nbytes)
        assert t == pytest.approx(
            spec.network_latency_s + nbytes / spec.network_bytes_per_s
        )

    def test_other_machines_unaffected(self):
        eng, spec, net = make_net()
        net.scale_machine_rate(0, 0.1)
        nbytes = 10_000_000
        t = run_transfer(eng, net, 1, 2, nbytes)
        assert t == pytest.approx(
            spec.network_latency_s + nbytes / spec.network_bytes_per_s
        )

    def test_rejects_nonpositive_fraction(self):
        _, _, net = make_net()
        with pytest.raises(ValueError):
            net.scale_machine_rate(0, 0.0)


class TestPartition:
    def test_delay_is_heal_plus_rto(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.hold("machine", 1, until=5.0)
        delay = model.delivery_delay(0, 1, 100, now=2.0, rto=0.5)
        assert delay == pytest.approx(5.0 - 2.0 + 0.5)
        assert model.messages_delayed == 1

    def test_src_or_dst_partitioned_both_count(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.hold("machine", 0, until=3.0)
        assert model.delivery_delay(0, 2, 100, now=1.0, rto=0.1) > 0
        model.hold("machine", 2, until=3.0)
        assert model.delivery_delay(1, 2, 100, now=1.0, rto=0.1) > 0

    def test_healed_window_purged(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.hold("machine", 1, until=5.0)
        assert model.delivery_delay(0, 1, 100, now=6.0, rto=0.5) == 0.0
        assert ("machine", 1) not in model.held_until

    def test_overlapping_partitions_keep_latest_heal(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.hold("machine", 1, until=5.0)
        model.hold("machine", 1, until=3.0)  # shorter window must not shrink it
        assert model.held_until["machine", 1] == 5.0


class TestDrop:
    def test_delay_is_multiple_of_rto(self):
        model = LinkFaultModel(np.random.default_rng(7))
        model.drop("machine", 0, until=10.0, prob=0.9)
        delay = model.delivery_delay(0, 1, 100, now=1.0, rto=0.25)
        assert delay >= 0.0
        assert delay / 0.25 == pytest.approx(round(delay / 0.25))
        assert model.retransmits == round(delay / 0.25)

    def test_zero_prob_no_delay_no_rng_draw(self):
        model = LinkFaultModel(np.random.default_rng(7))
        delay = model.delivery_delay(0, 1, 100, now=1.0, rto=0.25)
        assert delay == 0.0
        assert model.messages_delayed == 0

    def test_expired_window_purged(self):
        model = LinkFaultModel(np.random.default_rng(7))
        model.drop("machine", 0, until=2.0, prob=0.9)
        assert model.delivery_delay(0, 1, 100, now=3.0, rto=0.25) == 0.0
        assert ("machine", 0) not in model.drop_until

    def test_seeded_rng_is_deterministic(self):
        def draws(seed):
            model = LinkFaultModel(np.random.default_rng(seed))
            model.drop("machine", 0, until=100.0, prob=0.5)
            return [
                model.delivery_delay(0, 1, 100, now=1.0, rto=0.25) for _ in range(32)
            ]

        assert draws(11) == draws(11)

    def test_retries_are_bounded(self):
        model = LinkFaultModel(np.random.default_rng(0))
        model.drop("machine", 0, until=10.0, prob=0.999999999)
        delay = model.delivery_delay(0, 1, 100, now=1.0, rto=1.0)
        assert delay <= 64.0  # _MAX_RETRIES cap


class TestOutOfBand:
    def test_oob_skips_port_queueing(self):
        """A heartbeat sent while the NIC serialises a huge gradient must
        arrive at bare latency, not after the data-plane backlog."""
        eng, spec, net = make_net()
        arrivals = {}

        def bulk():
            yield net.transfer(0, 1, 500_000_000)
            arrivals["bulk"] = eng.now

        def heartbeat():
            yield Timeout(0.001)
            yield Timeout(net.oob_delay(0, 1, 32))
            arrivals["hb"] = eng.now

        eng.spawn(bulk())
        eng.spawn(heartbeat())
        eng.run()
        assert arrivals["hb"] == pytest.approx(0.001 + spec.network_latency_s)
        assert arrivals["hb"] < arrivals["bulk"]

    def test_oob_still_subject_to_partition(self):
        """Partitions delay even the management network — otherwise the
        failure detector could never notice them."""
        eng, spec, net = make_net()
        model = LinkFaultModel(np.random.default_rng(0))
        model.hold("machine", 1, until=0.5)
        net.fault_model = model
        t = run_oob(eng, net, 0, 1, 32)
        assert t > 0.5

    def test_oob_intra_machine_pays_bus_latency_only(self):
        eng, spec, net = make_net()
        t = run_oob(eng, net, 1, 1, 32)
        assert t == pytest.approx(spec.machine.intra_latency_s)


class TestOverlappingWindows:
    """Two windows on one target: each closes only itself, the most
    severe open one applies (the rule partitions follow)."""

    #: (start, duration, severity) of a short window inside a long one,
    #: and probe instants: both open, long only, none.
    SHORT, LONG = (0.1, 0.2, 0.5), (0.2, 0.4, 0.25)
    PROBES = (0.15, 0.25, 0.45, 0.55, 0.7)

    @staticmethod
    def rates_seen(kind, target_field, read):
        """Degrade fraction ``read(network)`` returns at each probe of a
        run under the short and the long degrade window."""
        events = tuple(
            FaultEvent(
                time=start, kind=kind, duration=duration, rate_fraction=fraction,
                **({target_field: 1} if target_field else {}),
            )
            for start, duration, fraction in (TestOverlappingWindows.SHORT,
                                              TestOverlappingWindows.LONG)
        )
        cluster = hierarchical_cluster(machines=4, machines_per_rack=2, bandwidth_gbps=10)
        cfg = timing_config(
            "ar-sgd", num_workers=16, cluster=cluster, measure_iters=2, warmup_iters=1,
            trace=False, faults=FaultConfig(events=events),
        )
        runner = DistributedRunner(cfg)
        seen = []
        for t in TestOverlappingWindows.PROBES:
            runner.engine._at(t, lambda: seen.append(read(runner.network)), ())
        runner.run()
        return seen

    @pytest.mark.parametrize(
        "kind,target_field,port",
        [
            ("link_degrade", "machine", lambda net: (net.tx[1], net.spec.network_bytes_per_s)),
            ("uplink_degrade", "rack", lambda net: (net.tor_up[1], net.spec.uplink_bytes_per_s)),
            ("spine_degrade", None, lambda net: (net.tor_up[0], net.spec.uplink_bytes_per_s)),
        ],
        ids=["link_degrade", "uplink_degrade", "spine_degrade"],
    )
    def test_degrade_windows_close_only_themselves(self, kind, target_field, port):
        def fraction(net):
            link, nominal = port(net)
            return round(link.rate / nominal, 6)

        assert self.rates_seen(kind, target_field, fraction) == [0.5, 0.25, 0.25, 0.25, 1.0]

    @pytest.mark.parametrize("rack_scope", [False, True], ids=["drop", "uplink_flap"])
    def test_drop_windows_close_only_themselves(self, rack_scope):
        model = LinkFaultModel(np.random.default_rng(0))
        model.rack_of = lambda machine: machine // 2
        scope = "rack" if rack_scope else "machine"
        model.drop(scope, 1, until=0.7, prob=0.999999999)  # long, all but certain loss
        model.drop(scope, 1, until=0.3, prob=1e-9)  # short, all but harmless
        rto = 0.25
        delays = [model.delivery_delay(1, 2, 100, now=t, rto=rto) for t in (0.2, 0.5, 0.8)]
        assert delays == [64 * rto, 64 * rto, 0.0]  # _MAX_RETRIES cap, then healed
