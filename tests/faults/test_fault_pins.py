"""Neutrality pins for every fault kind.

Each case is a short run under one fault schedule; its pin is the
sha256 of the whole ``to_jsonable`` result (fault summary included),
so a change in the fault RNG draw order, a window's overlap rule or
``armed_until`` moves a digest. The ten cluster kinds run in timing
mode (the five fabric kinds on a two-rack leaf/spine cluster), the
five gradient kinds in full mode. Two observed chaos runs pin the
observer's ``fault_events`` records as well: the kind, worker, machine
and detail of every injection, detection and restore, in order.
"""

import hashlib
import json

import pytest

from repro.core.runner import DistributedRunner, execute_run
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.io import to_jsonable
from repro.obs import ObsConfig
from repro.sim.cluster import hierarchical_cluster

from tests.conftest import small_full_config, small_timing_config

# Detection sized to the ~6 s virtual timing runs and the ~0.2 s
# full-mode runs: a partitioned machine is suspected, then evicted.
TIMING_DETECTION = dict(
    heartbeat_interval=0.02, heartbeat_timeout=0.1, backoff_factor=1.5, max_suspect_rounds=1
)
FULL_DETECTION = dict(
    heartbeat_interval=0.002, heartbeat_timeout=0.01, backoff_factor=1.5, max_suspect_rounds=1
)


def flat_config(faults=None):
    """BSP, 8 workers on two machines; faults target machine 1."""
    return small_timing_config("bsp", faults=faults, trace=False)


def fabric_config(faults=None):
    """Ring AR-SGD, 16 workers on two racks of two machines; faults
    target rack 1 (the monitor lives in rack 0)."""
    cluster = hierarchical_cluster(
        machines=4, machines_per_rack=2, bandwidth_gbps=10, oversubscription=4.0
    )
    return timing_config(
        "ar-sgd", num_workers=16, cluster=cluster, measure_iters=5, warmup_iters=1,
        trace=False, faults=faults,
    )


def full_config(faults=None):
    return small_full_config("bsp", faults=faults)


# builder -> (t0 field, detection)
SETTINGS = {
    flat_config: ("measured_time", TIMING_DETECTION),
    fabric_config: ("measured_time", TIMING_DETECTION),
    full_config: ("total_virtual_time", FULL_DETECTION),
}

_t0: dict = {}


def baseline(build) -> float:
    """The fault-free run's duration, which the schedules scale by."""
    if build not in _t0:
        _t0[build] = getattr(execute_run(build()), SETTINGS[build][0])
    return _t0[build]


def schedule(build, *events, seed=5) -> FaultConfig:
    """``events`` as ``(time, kind, fields)`` with times and durations
    in fractions of the baseline duration."""
    t0 = baseline(build)
    scaled = []
    for time, kind, fields in events:
        fields = {k: v * t0 if k in ("duration", "rejoin_after") else v for k, v in fields.items()}
        scaled.append(FaultEvent(time=time * t0, kind=kind, **fields))
    return FaultConfig(events=tuple(scaled), seed=seed, **SETTINGS[build][1])


# case -> (builder, events)
CASES = {
    "crash": (flat_config, [(0.3, "crash", dict(worker=5, rejoin_after=0.2))]),
    "machine_outage": (flat_config, [(0.4, "machine_outage", dict(machine=1))]),
    "link_degrade": (
        flat_config, [(0.3, "link_degrade", dict(machine=1, duration=0.3, rate_fraction=0.25))]
    ),
    "partition": (flat_config, [(0.4, "partition", dict(machine=1, duration=0.05))]),
    "drop": (flat_config, [(0.3, "drop", dict(machine=1, duration=0.3, drop_prob=0.3))]),
    "rack_outage": (fabric_config, [(0.4, "rack_outage", dict(rack=1))]),
    "tor_outage": (fabric_config, [(0.3, "tor_outage", dict(rack=1, duration=0.05))]),
    "uplink_degrade": (
        fabric_config, [(0.3, "uplink_degrade", dict(rack=1, duration=0.3, rate_fraction=0.1))]
    ),
    "uplink_flap": (
        fabric_config, [(0.3, "uplink_flap", dict(rack=1, duration=0.3, drop_prob=0.3))]
    ),
    "spine_degrade": (
        fabric_config, [(0.3, "spine_degrade", dict(duration=0.3, rate_fraction=0.25))]
    ),
    "bitflip": (full_config, [(0.3, "bitflip", dict(worker=1))]),
    "nan_inject": (full_config, [(0.9, "nan_inject", dict(worker=1))]),
    "grad_scale": (full_config, [(0.3, "grad_scale", dict(worker=1, duration=0.2, scale=5.0))]),
    "sign_flip": (full_config, [(0.3, "sign_flip", dict(worker=1, duration=0.2))]),
    "byzantine": (full_config, [(0.3, "byzantine", dict(worker=1, duration=0.3))]),
    # Overlapping windows: the min-fraction, max-hold and max-drop rules.
    "two-link-degrades": (
        flat_config,
        [
            (0.2, "link_degrade", dict(machine=1, duration=0.4, rate_fraction=0.5)),
            (0.3, "link_degrade", dict(machine=1, duration=0.1, rate_fraction=0.2)),
        ],
    ),
    "partition-and-drop": (
        flat_config,
        [
            (0.3, "drop", dict(machine=1, duration=0.3, drop_prob=0.4)),
            (0.4, "partition", dict(machine=1, duration=0.03)),
        ],
    ),
    "tor-outage-and-uplink-flap": (
        fabric_config,
        [
            (0.3, "uplink_flap", dict(rack=1, duration=0.3, drop_prob=0.4)),
            (0.4, "tor_outage", dict(rack=1, duration=0.03)),
        ],
    ),
    # The failure detector's edges: beats still held when the run stops,
    # an epoch bump with beats in flight, a rejoin's own beat phase, and
    # beats that draw the drop window's shared RNG.
    "partition-past-stop": (flat_config, [(0.9, "partition", dict(machine=1, duration=1.0))]),
    "tor-outage-past-stop": (fabric_config, [(0.8, "tor_outage", dict(rack=1, duration=2.0))]),
    "partition-then-crash-rejoin": (
        flat_config,
        [
            (0.3, "partition", dict(machine=1, duration=0.1)),
            (0.35, "crash", dict(worker=1, rejoin_after=0.05)),
        ],
    ),
    "full-partition-past-stop": (full_config, [(0.8, "partition", dict(machine=1, duration=1.0))]),
    "monitor-drop-and-crash-rejoin": (
        flat_config,
        [
            (0.2, "drop", dict(machine=0, duration=0.5, drop_prob=0.5)),
            (0.3, "crash", dict(worker=6, rejoin_after=0.1)),
        ],
    ),
}

DIGESTS = {
    "crash": "904a0506ca980e70e6d52c858c9fd02bcd556fa66dc24165e9c8d451ab99ffce",
    "machine_outage": "5e8c742201925a8041181ad04ccf7010d38ef14327793bc4af6140f6267525e0",
    "link_degrade": "42e5449cb761e161f30bea4ff8be89dda80e009a96dae904dac93d6d92db083e",
    "partition": "bce1b17e1ee2be8c15b891f76498ac834f371a69fa49416cdbf18c8e12b40a84",
    "drop": "ec8a5a182a3fd95750bf59e3c4971e4b786c519e82a58d98d24df71cdb54299d",
    "rack_outage": "a0e686615c78bcda60e179e904ee540108495820740258ba5d6f87f4e1bc714f",
    "tor_outage": "b20cb471c2a9c8a3562d88c54b5287239545bfc66edbb6eca183aa17a91acaf1",
    "uplink_degrade": "37ed0e9cd4fedeea6510ff310ebbfe15b04218fde3feeeb126a9e76d1c12f491",
    "uplink_flap": "02dae993f0f0cee59c1f094004922e21b028776d8ebd6614ba1bce96306def72",
    "spine_degrade": "952d6c934ff46a1010e6ec3a81a8aebd5d3d08a127e866650b9e2a3efec1f5f9",
    "bitflip": "1414dc613397ec00fa11bfe2f182904e7a21d8e38180794be6d93f148fd199f9",
    "nan_inject": "3acceee2227bc2a6af9e2e9b7d52c2a220a38aa2867c78dc89f565c27958fb9c",
    "grad_scale": "04bf97e95f80210a12a86798bb09981eea546f397e3a7e0197704711748c45c0",
    "sign_flip": "5db903aad2eb5be775931d3177fa5234670e1695d8887625ab9bb24c7b5a92a1",
    "byzantine": "6f272d20e87fa608eef2a8d04ee71359a0974b5d45e1b63ccce8ae6388453833",
    "two-link-degrades": "1e6f5c1e05c0e2adae3766c6938a237f1f58223ee7693a130f1602c9a5863500",
    "partition-and-drop": "13fe17aceaf1c6d8d97a9b0a6d987616137983d9aa9cff1fc38a3f56b146e4f3",
    "tor-outage-and-uplink-flap": "6067dde271be24c1037c0db63aa31fd513b5d9e8a45ce1681c08ca16208338b0",
    "partition-past-stop": "bd8448bdc9cf44a89f9f488f3e5a8fa17f27d42f28be9dd35a08ec93fdda60bd",
    "tor-outage-past-stop": "701503c392bf694be383113a54f67ac4f6a305a71e4fddbe9d6b099b04f95992",
    "partition-then-crash-rejoin": "fbc6a9d08442f88e48b85e79ed47886d3717239cfa48612c66c3761c1fb9389f",
    "full-partition-past-stop": "7a9d219ef4597160491e5d3ad1860683780521911c0787de00fb831a1425c0ae",
    "monitor-drop-and-crash-rejoin": "1ace0584f99b1ab241ca4390d4b236d4885188a636ef9c150f444a3263f76c7a",
}


def digest(result) -> str:
    return hashlib.sha256(json.dumps(to_jsonable(result), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_fault_kind_digest(case):
    build, events = CASES[case]
    assert digest(execute_run(build(schedule(build, *events)))) == DIGESTS[case]


# Observed chaos runs: every cluster kind of a fabric at once, plus the
# gradient kinds' arm/apply records (timing mode has no data plane to
# corrupt, but the records are kept).
CHAOS = {
    "flat": (
        flat_config,
        [
            (0.10, "link_degrade", dict(machine=1, duration=0.2, rate_fraction=0.25)),
            (0.15, "link_degrade", dict(machine=1, duration=0.05, rate_fraction=0.5)),
            (0.20, "drop", dict(machine=1, duration=0.2, drop_prob=0.3)),
            (0.25, "partition", dict(machine=1, duration=0.02)),
            (0.30, "crash", dict(worker=2, rejoin_after=0.1)),
            (0.35, "bitflip", dict(worker=3)),
            (0.35, "grad_scale", dict(worker=3, duration=0.05)),
            (0.40, "byzantine", dict(worker=2, duration=0.05, scale=2.0)),
            (0.60, "machine_outage", dict(machine=1)),
        ],
    ),
    "fabric": (
        fabric_config,
        [
            (0.10, "tor_outage", dict(rack=1, duration=0.01)),
            (0.15, "uplink_degrade", dict(rack=0, duration=0.1, rate_fraction=0.5)),
            (0.18, "uplink_degrade", dict(rack=0, duration=0.2, rate_fraction=0.2)),
            (0.20, "uplink_flap", dict(rack=1, duration=0.1, drop_prob=0.2)),
            (0.22, "drop", dict(machine=1, duration=0.1, drop_prob=0.2)),
            (0.25, "spine_degrade", dict(duration=0.1, rate_fraction=0.5)),
            (0.28, "link_degrade", dict(machine=1, duration=0.1, rate_fraction=0.5)),
            (0.30, "partition", dict(machine=3, duration=0.01)),
            (0.50, "rack_outage", dict(rack=1)),
        ],
    ),
}


def observed_fault_events(chaos):
    build, events = CHAOS[chaos]
    runner = DistributedRunner(build(schedule(build, *events)), obs=ObsConfig(enabled=True))
    runner.run()
    return [
        (ev.time.hex(), ev.kind, ev.worker, ev.machine, ev.detail)
        for ev in runner.observer.fault_events
    ]


# chaos -> its observer's fault_events as (time.hex(), kind, worker, machine, detail)
FAULT_EVENTS = {
    "flat": [
        ('0x1.4d775f9474d17p-1', 'link_degrade', None, 1, 'fraction=0.25'),
        ('0x1.f4330f5eaf3a1p-1', 'link_degrade', None, 1, 'fraction=0.5'),
        ('0x1.4d775f9474d16p+0', 'link_restore', None, 1, ''),
        ('0x1.4d775f9474d17p+0', 'drop', None, 1, 'prob=0.3'),
        ('0x1.a0d537799205cp+0', 'partition', None, 1, 'duration=0.13026027429048717'),
        ('0x1.bd70a3d70a3dcp+0', 'suspect', 4, None, 'round=1'),
        ('0x1.bd70a3d70a3dcp+0', 'suspect', 5, None, 'round=1'),
        ('0x1.bd70a3d70a3dcp+0', 'suspect', 6, None, 'round=1'),
        ('0x1.bd70a3d70a3dcp+0', 'suspect', 7, None, 'round=1'),
        ('0x1.f4330f5eaf3a1p+0', 'crash', 2, 0, ''),
        ('0x1.f4330f5eaf3a2p+0', 'link_restore', None, 1, ''),
        ('0x1.07ae147ae147ep+1', 'suspect', 2, None, 'round=1'),
        ('0x1.0ccccccccccd0p+1', 'suspect', 2, None, 'round=2'),
        ('0x1.0ccccccccccd0p+1', 'evict', 2, 0, ''),
        ('0x1.23c873a1e6373p+1', 'arm_bitflip', 3, 0, ''),
        ('0x1.23c873a1e6373p+1', 'arm_grad_scale', 3, 0, ''),
        ('0x1.4d775f9474d17p+1', 'arm_byzantine', 2, 0, ''),
        ('0x1.50b2d09fe58bdp+1', 'rejoin', 2, 0, ''),
        ('0x1.50b2d09fe58bdp+1', 'byzantine', 2, 0, ''),
        ('0x1.50b2d09fe58bdp+1', 'bitflip', 3, 0, ''),
        ('0x1.f4330f5eaf3a1p+1', 'machine_outage', None, 1, ''),
        ('0x1.f4330f5eaf3a1p+1', 'crash', 4, 1, ''),
        ('0x1.f4330f5eaf3a1p+1', 'crash', 5, 1, ''),
        ('0x1.f4330f5eaf3a1p+1', 'crash', 6, 1, ''),
        ('0x1.f4330f5eaf3a1p+1', 'crash', 7, 1, ''),
        ('0x1.0147ae147ae17p+2', 'suspect', 4, None, 'round=1'),
        ('0x1.0147ae147ae17p+2', 'suspect', 5, None, 'round=1'),
        ('0x1.0147ae147ae17p+2', 'suspect', 6, None, 'round=1'),
        ('0x1.0147ae147ae17p+2', 'suspect', 7, None, 'round=1'),
        ('0x1.03d70a3d70a3fp+2', 'suspect', 4, None, 'round=2'),
        ('0x1.03d70a3d70a3fp+2', 'evict', 4, 1, ''),
        ('0x1.03d70a3d70a3fp+2', 'suspect', 5, None, 'round=2'),
        ('0x1.03d70a3d70a3fp+2', 'evict', 5, 1, ''),
        ('0x1.03d70a3d70a3fp+2', 'suspect', 6, None, 'round=2'),
        ('0x1.03d70a3d70a3fp+2', 'evict', 6, 1, ''),
        ('0x1.03d70a3d70a3fp+2', 'suspect', 7, None, 'round=2'),
        ('0x1.03d70a3d70a3fp+2', 'evict', 7, 1, ''),
    ],
    "fabric": [
        ('0x1.319378e497b2bp-1', 'tor_outage', None, None, 'rack=1 duration=0.059682824888645784'),
        ('0x1.ca5d3556e38bfp-1', 'uplink_degrade', None, None, 'rack=0 fraction=0.5'),
        ('0x1.1304b99a88873p+0', 'uplink_degrade', None, None, 'rack=0 fraction=0.2'),
        ('0x1.319378e497b2bp+0', 'uplink_flap', None, None, 'rack=1 prob=0.2'),
        ('0x1.5022382ea6de2p+0', 'drop', None, 1, 'prob=0.2'),
        ('0x1.7df8571dbd9f5p+0', 'uplink_restore', None, None, 'rack=0'),
        ('0x1.7df8571dbd9f5p+0', 'spine_degrade', None, None, 'fraction=0.5'),
        ('0x1.abce760cd4609p+0', 'link_degrade', None, 1, 'fraction=0.5'),
        ('0x1.ca5d3556e38bfp+0', 'partition', None, 3, 'duration=0.059682824888645784'),
        ('0x1.0b6109c804bc5p+1', 'spine_restore', None, None, ''),
        ('0x1.224c193f901cfp+1', 'uplink_restore', None, None, 'rack=0'),
        ('0x1.224c193f901cfp+1', 'link_restore', None, 1, ''),
        ('0x1.7df8571dbd9f5p+1', 'rack_outage', None, None, 'rack=1'),
        ('0x1.7df8571dbd9f5p+1', 'crash', 8, 2, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 9, 2, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 10, 2, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 11, 2, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 12, 3, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 13, 3, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 14, 3, ''),
        ('0x1.7df8571dbd9f5p+1', 'crash', 15, 3, ''),
        ('0x1.8ccccccccccd2p+1', 'suspect', 8, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 9, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 10, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 11, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 12, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 13, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 14, None, 'round=1'),
        ('0x1.8ccccccccccd2p+1', 'suspect', 15, None, 'round=1'),
        ('0x1.91eb851eb8524p+1', 'suspect', 8, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 8, 2, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 9, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 9, 2, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 10, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 10, 2, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 11, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 11, 2, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 12, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 12, 3, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 13, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 13, 3, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 14, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 14, 3, ''),
        ('0x1.91eb851eb8524p+1', 'suspect', 15, None, 'round=2'),
        ('0x1.91eb851eb8524p+1', 'evict', 15, 3, ''),
    ],
}


@pytest.mark.parametrize("chaos", list(CHAOS))
def test_observed_fault_records(chaos):
    assert observed_fault_events(chaos) == FAULT_EVENTS[chaos]


def events_per_virtual_second(config) -> float:
    runner = DistributedRunner(config)
    runner.run()
    return runner.engine.events_processed / runner.engine.now


TIMING_CASES = [case for case, (build, _) in CASES.items() if SETTINGS[build][0] == "measured_time"]


@pytest.mark.parametrize("case", TIMING_CASES)
def test_a_fault_costs_at_most_twice_the_armed_idle_event_rate(case):
    """The failure detector costs one tick per beat cohort per period,
    with arrivals folded in arithmetically and faults queued one at a
    time, so a faulty run's events per virtual second stay within twice
    the same run's armed-but-idle rate. (Per virtual second: a cluster
    that lost half its workers takes longer to finish its iterations,
    and its beats go on for as long.)"""
    build, events = CASES[case]
    idle = events_per_virtual_second(build(FaultConfig(**SETTINGS[build][1])))
    assert events_per_virtual_second(build(schedule(build, *events))) <= 2 * idle
