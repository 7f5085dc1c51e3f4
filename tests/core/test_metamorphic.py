"""Bandwidth, link faults and compute jitter move time, never the
arithmetic of synchronous training.

The mini MLP in full mode at 1, 10 and 56 Gbps: AR-SGD (ring, DGC's
sparse allgather, the robust ``median`` allgather) and BSP with two
machine leaders (1 or 2 shards, ± DGC, ± wait-free BP) end with
bit-identical replicas — two leader means sum the same in either
order. With three or more leaders a shard folds the leaders' means in
arrival order, which bandwidth moves, so the replicas differ in their
last bits; DESIGN §8 states the bound asserted here.

Link faults that evict no one become retransmission latency (flaky,
degrade, a partition that heals; uplink flaps and degrades on a rack
fabric), and jitter and persistent speed spread only stretch compute:
BSP and AR-SGD end on the fault-free run's replicas, to the same
contract.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, mini_dgc_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.robust.config import RobustConfig
from repro.sim.cluster import hierarchical_cluster, paper_cluster

GBPS = (1, 10, 56)
DGC = dict(dgc=True, dgc_config=mini_dgc_config(4))

#: label -> (algorithm, config overrides), each on 2 machines × 2 GPUs.
BIT_IDENTICAL = {
    "ar-sgd": ("ar-sgd", {}),
    "ar-sgd/dgc": ("ar-sgd", DGC),
    "ar-sgd/median": ("ar-sgd", {"robust": RobustConfig(aggregator="median")}),
}
for shards, dgc, wait_free in itertools.product((1, 2), (False, True), (False, True)):
    BIT_IDENTICAL[f"bsp/{shards}-shard{'/dgc' * dgc}{'/waitfree' * wait_free}"] = (
        "bsp", dict(num_ps_shards=shards, wait_free_bp=wait_free, **(DGC if dgc else {}))
    )


def run(algorithm, cluster, **overrides):
    """(virtual end time, every worker's final parameters, result
    metadata) of half an epoch of the mini MLP, one worker per GPU."""
    cfg = mini_accuracy_config(
        algorithm, num_workers=cluster.total_gpus, epochs=0.5, cluster=cluster, **overrides
    )
    runner = DistributedRunner(cfg)
    metadata = runner.run().metadata
    replicas = np.stack([s.comp.get_params() for s in runner.runtime.workers])
    return runner.engine.now, replicas, metadata


def final_replicas(algorithm, gbps, machines, gpus_per_machine, **overrides):
    cluster = paper_cluster(
        bandwidth_gbps=gbps, machines=machines, gpus_per_machine=gpus_per_machine
    )
    return run(algorithm, cluster, **overrides)[:2]


@pytest.mark.parametrize("label", list(BIT_IDENTICAL))
def test_bandwidth_leaves_the_replicas_bit_identical(label):
    algorithm, overrides = BIT_IDENTICAL[label]
    runs = [final_replicas(algorithm, gbps, 2, 2, **overrides) for gbps in GBPS]
    assert len({clock for clock, _ in runs}) == len(GBPS)  # the fabric moved time
    for _, replicas in runs[1:]:
        assert replicas.tobytes() == runs[0][1].tobytes()


@pytest.mark.parametrize("leaders", [3, 4, 6])
def test_bsp_leader_arrival_order_moves_only_the_last_bits(leaders):
    runs = [final_replicas("bsp", gbps, leaders, 1) for gbps in GBPS]
    for _, replicas in runs[1:]:
        assert np.abs(replicas - runs[0][1]).max() <= 2**-53


# -- link faults and compute jitter ------------------------------------------

#: geometry -> (machines, GPUs per machine): BSP with two leaders, and four.
GEOMETRIES = {"2x2": (2, 2), "4x1": (4, 1)}

#: schedule -> (FaultEvent kind, target field, severity field). The last
#: two need a rack fabric; every window heals before detection fires.
LINK_FAULTS = {
    "flaky": ("drop", "machine", "drop_prob"),
    "degrade": ("link_degrade", "machine", "rate_fraction"),
    "partition": ("partition", "machine", None),
    "uplink-flap": ("uplink_flap", "rack", "drop_prob"),
    "uplink-degrade": ("uplink_degrade", "rack", "rate_fraction"),
}
RACK_FAULTS = ("uplink-flap", "uplink-degrade")


def cluster_for(geometry, racks):
    """The geometry at 10 Gbps, flat or split into two racks."""
    machines, gpus = GEOMETRIES[geometry]
    if racks:
        return hierarchical_cluster(
            machines=machines, gpus_per_machine=gpus,
            machines_per_rack=machines // 2, bandwidth_gbps=10,
        )
    return paper_cluster(bandwidth_gbps=10, machines=machines, gpus_per_machine=gpus)


@functools.lru_cache(maxsize=None)
def fault_free(algorithm, geometry, racks):
    return run(algorithm, cluster_for(geometry, racks))[:2]


def assert_same_arithmetic(algorithm, geometry, replicas, reference):
    if algorithm == "bsp" and GEOMETRIES[geometry][0] >= 3:
        assert np.abs(replicas - reference).max() <= 2**-53
    else:
        assert replicas.tobytes() == reference.tobytes()


def faulted(algorithm, geometry, schedule, start, length, severity, target):
    """Final replicas under one link-fault window; asserts it evicted no one."""
    racks = schedule in RACK_FAULTS
    t0, _ = fault_free(algorithm, geometry, racks)
    kind, target_field, severity_field = LINK_FAULTS[schedule]
    fields = {target_field: target}
    if severity_field is not None:
        fields[severity_field] = severity
    event = FaultEvent(time=start * t0, kind=kind, duration=length * t0, **fields)
    faults = FaultConfig(
        events=(event,),
        heartbeat_interval=0.01 * t0,
        heartbeat_timeout=0.5 * t0,
        max_virtual_time=50 * t0,
    )
    _, replicas, metadata = run(algorithm, cluster_for(geometry, racks), faults=faults)
    assert metadata["faults"]["evictions"] == []
    return replicas


# Derandomized so that tier-1 draws the same windows on every run.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cell=st.sampled_from([("bsp", "2x2"), ("ar-sgd", "2x2"), ("ar-sgd", "4x1")]),
    schedule=st.sampled_from(sorted(LINK_FAULTS)),
    start=st.floats(0.05, 0.7),
    length=st.floats(0.02, 0.15),
    severity=st.floats(0.05, 0.5),
    target=st.integers(0, 1),
)
def test_link_faults_that_evict_no_one_leave_the_replicas_bit_identical(
    cell, schedule, start, length, severity, target
):
    replicas = faulted(*cell, schedule, start, length, severity, target)
    reference = fault_free(*cell, schedule in RACK_FAULTS)[1]
    assert replicas.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "schedule,start,length,severity,target",
    [pytest.param(schedule, 0.3, 0.1, 0.25, 1, id=schedule) for schedule in LINK_FAULTS]
    + [pytest.param("degrade", 0.125, 0.125, 0.125, 0, id="degrade-m0")],
)
def test_link_faults_move_bsp_four_leaders_only_in_the_last_bits(
    schedule, start, length, severity, target
):
    replicas = faulted("bsp", "4x1", schedule, start, length, severity, target)
    reference = fault_free("bsp", "4x1", schedule in RACK_FAULTS)[1]
    assert_same_arithmetic("bsp", "4x1", replicas, reference)


def jitter_cells():
    for cell in itertools.product(
        ("bsp", "ar-sgd"), sorted(GEOMETRIES), (0.0, 0.02, 0.05), (0.0, 0.05, 0.2)
    ):
        yield pytest.param(*cell, id="-".join(map(str, cell)))


@pytest.mark.parametrize("algorithm,geometry,sigma,spread", jitter_cells())
def test_jitter_and_speed_spread_leave_the_replicas(algorithm, geometry, sigma, spread):
    t0, reference = fault_free(algorithm, geometry, False)
    clock, replicas, _ = run(
        algorithm, cluster_for(geometry, False), jitter_sigma=sigma, speed_spread=spread
    )
    assert (clock == t0) == ((sigma, spread) == (0.02, 0.05))  # the defaults
    assert_same_arithmetic(algorithm, geometry, replicas, reference)
