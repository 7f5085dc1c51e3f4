"""Hierarchical fabric: spec geometry, tier timing, and scale pins.

The NIC → ToR → spine fabric must (a) leave flat-topology behaviour
bit-identical — every pre-existing pin in test_engine_pins.py plus the
degenerate-spec equivalence here, (b) price inter-rack transfers at
``network_latency + spine_latency + bytes/bottleneck_rate`` with the
oversubscribed uplink as the bottleneck, and (c) keep port state
O(machines + racks) so 10k-worker runs stay laptop-sized. The digest
pins at the bottom freeze one hierarchical run per wired-in schedule;
they gate every future engine/network change at rack scale the same
way the flat pins do at paper scale.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import DistributedRunner, RunConfig
from repro.io import to_jsonable
from repro.sim.cluster import (
    DEFAULT_SPINE_LATENCY_S,
    ClusterSpec,
    MachineSpec,
    hierarchical_cluster,
    paper_cluster,
)
from repro.sim.engine import Engine
from repro.sim.network import Network


class TestHierarchySpec:
    def test_flat_by_default(self):
        spec = paper_cluster(machines=6)
        assert not spec.hierarchical
        assert spec.num_racks == 1
        assert spec.rack_of_machine(5) == 0

    def test_rack_geometry(self):
        spec = hierarchical_cluster(machines=10, machines_per_rack=4)
        assert spec.hierarchical
        assert spec.num_racks == 3  # 4 + 4 + 2
        assert [spec.rack_of_machine(m) for m in range(10)] == [
            0, 0, 0, 0, 1, 1, 1, 1, 2, 2,
        ]

    def test_single_rack_degenerates_to_flat(self):
        spec = hierarchical_cluster(machines=4, machines_per_rack=16)
        assert not spec.hierarchical
        assert spec.num_racks == 1

    def test_oversubscription_sets_uplink_capacity(self):
        spec = hierarchical_cluster(
            machines=8, machines_per_rack=4, oversubscription=4.0
        )
        assert spec.uplink_bytes_per_s == pytest.approx(
            4 * spec.network_bytes_per_s / 4.0
        )

    def test_explicit_uplink_overrides_ratio(self):
        spec = hierarchical_cluster(
            machines=8,
            machines_per_rack=4,
            oversubscription=4.0,
            tor_uplink_gbps=100.0,
            bandwidth_gbps=56.0,
        )
        assert spec.uplink_bytes_per_s == pytest.approx(
            100.0 * 1e9 / 8 * spec.network_efficiency
        )

    def test_validation(self):
        base = dict(
            machines=4, machine=MachineSpec(gpus=4), network_bandwidth_gbps=10.0
        )
        with pytest.raises(ValueError):
            ClusterSpec(**base, machines_per_rack=0)
        with pytest.raises(ValueError):
            ClusterSpec(**base, machines_per_rack=2, oversubscription=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(**base, machines_per_rack=2, spine_latency_s=-1.0)
        with pytest.raises(ValueError):
            ClusterSpec(**base, machines_per_rack=2, tor_uplink_gbps=0.0)


class TestHierarchicalNetwork:
    def make(self, *, machines=4, machines_per_rack=2, oversub=4.0):
        eng = Engine()
        spec = hierarchical_cluster(
            machines=machines,
            machines_per_rack=machines_per_rack,
            oversubscription=oversub,
            bandwidth_gbps=10,
        )
        return eng, spec, Network(eng, spec)

    def run_transfer(self, eng, net, src, dst, nbytes):
        done_at = []

        def proc():
            sig = net.transfer(src, dst, nbytes)
            yield sig
            done_at.append(eng.now)

        eng.spawn(proc())
        eng.run()
        return done_at[0]

    def test_port_state_is_machines_plus_racks(self):
        eng, spec, net = self.make(machines=6, machines_per_rack=2)
        assert len(net.tor_up) == spec.num_racks == 3
        assert len(net.tor_down) == 3
        stats = net.port_stats()
        assert "r0.up" in stats and "r2.down" in stats

    def test_flat_spec_allocates_no_tor_ports(self):
        eng = Engine()
        spec = paper_cluster(machines=4)
        net = Network(eng, spec)
        assert net.tor_up == [] and net.tor_down == []

    def test_intra_rack_skips_the_tor(self):
        """Same-rack transfers follow the exact flat code path."""
        eng, spec, net = self.make()
        nbytes = 10_000_000
        t = self.run_transfer(eng, net, 0, 1, nbytes)
        expected = spec.network_latency_s + nbytes / spec.network_bytes_per_s
        assert t == pytest.approx(expected)
        assert net.port_stats()["r0.up"]["bytes"] == 0

    def test_inter_rack_pays_spine_latency_and_uplink_bottleneck(self):
        eng, spec, net = self.make(oversub=4.0)
        nbytes = 10_000_000
        t = self.run_transfer(eng, net, 0, 2, nbytes)
        bottleneck = min(spec.network_bytes_per_s, spec.uplink_bytes_per_s)
        assert spec.uplink_bytes_per_s < spec.network_bytes_per_s
        expected = (
            spec.network_latency_s + spec.spine_latency + nbytes / bottleneck
        )
        assert t == pytest.approx(expected)
        stats = net.port_stats()
        assert stats["r0.up"]["bytes"] == nbytes
        assert stats["r1.down"]["bytes"] == nbytes

    def test_fully_provisioned_uplink_adds_only_latency(self):
        """With 1:1 uplinks the only inter-rack penalty is the spine hop."""
        eng, spec, net = self.make(oversub=1.0)
        nbytes = 10_000_000
        t_inter = self.run_transfer(eng, net, 0, 2, nbytes)
        eng2, spec2, net2 = self.make(oversub=1.0)
        t_intra = self.run_transfer(eng2, net2, 0, 1, nbytes)
        assert t_inter == pytest.approx(t_intra + DEFAULT_SPINE_LATENCY_S)

    def test_uplink_contention_serializes(self):
        """Two same-rack senders crossing the spine share one uplink."""
        eng, spec, net = self.make(oversub=4.0)
        nbytes = 10_000_000
        ends = []

        def proc(src, dst):
            sig = net.transfer(src, dst, nbytes)
            yield sig
            ends.append(eng.now)

        eng.spawn(proc(0, 2))
        eng.spawn(proc(1, 3))
        eng.run()
        ser_up = nbytes / spec.uplink_bytes_per_s
        lat = spec.network_latency_s + spec.spine_latency
        assert min(ends) == pytest.approx(lat + ser_up)
        assert max(ends) == pytest.approx(lat + 2 * ser_up)


# ---------------------------------------------------------------------------
# bit-identity + rack-scale pins


def result_digest(result) -> str:
    # The pins predate metadata["worker_iterations"] (checked in
    # tests/core/test_worker_iterations.py) and metadata["aggregations"]
    # (tests/core/test_ps_pull.py, tests/core/test_adpsgd_exchanges.py);
    # both are left out of the hash.
    document = to_jsonable(result)
    document["metadata"].pop("worker_iterations")
    document["metadata"].pop("aggregations", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def test_degenerate_hierarchy_is_bit_identical_to_flat():
    """A hierarchical spec whose one rack covers the cluster must take
    the flat fast path and reproduce the flat run bit-for-bit."""
    flat = paper_cluster(bandwidth_gbps=10, machines=2, gpus_per_machine=4)
    hier = hierarchical_cluster(
        machines=2, gpus_per_machine=4, bandwidth_gbps=10, machines_per_rack=16
    )

    def run(cluster):
        cfg = RunConfig(
            algorithm="bsp",
            mode="timing",
            cluster=cluster,
            num_workers=8,
            batch_size=128,
            profile_name="resnet50",
            measure_iters=5,
            warmup_iters=1,
            num_ps_shards=2,
            seed=0,
        )
        runner = DistributedRunner(cfg)
        result = runner.run()
        return result_digest(result), runner.engine.events_processed

    assert run(flat) == run(hier)


def rack_config(algorithm: str, collective: str | None = None) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        mode="timing",
        cluster=hierarchical_cluster(
            machines=8,
            machines_per_rack=4,
            oversubscription=4.0,
            bandwidth_gbps=10,
        ),
        num_workers=32,
        batch_size=128,
        profile_name="resnet50",
        measure_iters=3,
        warmup_iters=1,
        num_ps_shards=8 if algorithm == "bsp" else 1,
        seed=0,
        collective=collective,
    )


# (digest, events) per (algorithm, collective): one pinned rack-scale
# run per schedule that touches the new fabric. Same contract as the
# flat pins: a digest change is a behaviour change and must be
# explained, not silently re-pinned.
RACK_PINS = {
    ("bsp", None): (
        "b807c880418f09644f0b07eba2a6eedcb4253197ea1807844bbc6ffa7d64e51c",
        3827,
    ),
    ("ar-sgd", "ring"): (
        "3f9fa2baa3673f863ed69035610cbec28f106287299d87d004fd47d09d39ebe6",
        17894,
    ),
    ("ar-sgd", "tree"): (
        "08e2c2754d38416944e8ebad2dde6cc7c9f0cac7fbe4372aeb520c21e7f3cd1e",
        1126,
    ),
    ("ar-sgd", "hring"): (
        "7aad7796fc3a15da43efc65a5a6aa7ce5430797681b00860889a6701abebd276",
        2590,
    ),
}


@pytest.mark.parametrize("algorithm,collective", sorted(RACK_PINS, key=str))
def test_rack_scale_pinned_digest(algorithm: str, collective: str | None):
    expected_digest, expected_events = RACK_PINS[(algorithm, collective)]
    runner = DistributedRunner(rack_config(algorithm, collective))
    result = runner.run()
    assert result.throughput > 0
    assert result_digest(result) == expected_digest, (
        f"{algorithm}/{collective}: rack-scale digest changed — "
        "hierarchical behaviour is no longer bit-identical"
    )
    assert runner.engine.events_processed == expected_events
