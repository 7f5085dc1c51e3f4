"""Every fault schedule terminates.

A run either completes or raises the runner's "ended before the
measurement window completed" error; it never spins until
``max_events``. The regression cases are the schedules that once did:
a crash that left no live worker (the last member could not be
evicted, so the failure detector polled forever), a sole worker's
rejoin (which waited for that eviction), and an eviction that left only
a crashed member behind.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.sim.cluster import paper_cluster

ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd")
PS_ALGORITHMS = ("bsp", "asp", "ssp", "easgd")
WAITFREE_ALGORITHMS = ("bsp", "asp", "ssp", "ar-sgd")

DETECTION = dict(
    heartbeat_interval=0.01, heartbeat_timeout=0.02, backoff_factor=1.0, max_suspect_rounds=0
)
WINDOW_ERROR = "timing run ended before the measurement window completed"
# A livelock shows long before this; every run here needs far fewer.
MAX_EVENTS = 1_000_000


def faulty_timing_config(algorithm, num_workers, events, **overrides):
    return timing_config(
        algorithm,
        num_workers=num_workers,
        measure_iters=2,
        warmup_iters=0,
        faults=FaultConfig(events=tuple(events), **DETECTION),
        **overrides,
    )


def crash(time, worker, rejoin_after=None):
    return FaultEvent(time=time, kind="crash", worker=worker, rejoin_after=rejoin_after)


@pytest.mark.parametrize("algorithm", ["bsp", "asp", "ar-sgd"])
def test_a_sole_worker_crash_ends_the_run(algorithm):
    cfg = faulty_timing_config(algorithm, 1, [crash(0.05, 0)])
    with pytest.raises(RuntimeError, match=WINDOW_ERROR):
        DistributedRunner(cfg).run(max_events=MAX_EVENTS)


def test_the_last_live_worker_crashing_ends_the_run():
    cfg = faulty_timing_config("bsp", 2, [crash(0.05, 0), crash(0.3, 1)])
    runner = DistributedRunner(cfg)
    with pytest.raises(RuntimeError, match=WINDOW_ERROR):
        runner.run(max_events=MAX_EVENTS)
    assert [e["worker"] for e in runner.fault_controller.evictions] == [0]


def test_evicting_a_partitioned_worker_beside_a_crashed_one_ends_the_run():
    # w1 is partitioned away and evicted while the crashed w0 is still a
    # member: the eviction leaves only a dead worker, so the run ends
    # rather than respawning w0 and then evicting it as the last member.
    cluster = paper_cluster(bandwidth_gbps=10.0, machines=2, gpus_per_machine=1)
    partition = FaultEvent(time=0.035, kind="partition", machine=1, duration=0.3)
    cfg = faulty_timing_config("bsp", 2, [partition, crash(0.045, 0)], cluster=cluster)
    runner = DistributedRunner(cfg)
    with pytest.raises(RuntimeError, match=WINDOW_ERROR):
        runner.run(max_events=MAX_EVENTS)
    assert [e["worker"] for e in runner.fault_controller.evictions] == [1]


@pytest.mark.parametrize("algorithm", ["bsp", "ar-sgd"])
def test_a_sole_worker_rejoins_and_completes_the_window(algorithm):
    cfg = faulty_timing_config(algorithm, 1, [crash(0.05, 0, rejoin_after=0.1)])
    result = DistributedRunner(cfg).run(max_events=MAX_EVENTS)
    faults = result.metadata["faults"]
    assert [e["worker"] for e in faults["evictions"]] == [0]
    assert [e["worker"] for e in faults["rejoins"]] == [0]
    assert faults["final_live_workers"] == [0]
    assert result.throughput > 0


def test_a_full_run_that_loses_every_worker_returns_its_short_history():
    cfg = mini_accuracy_config(
        "bsp", num_workers=1, epochs=1.0, faults=FaultConfig(events=(crash(0.3, 0),), **DETECTION)
    )
    history = DistributedRunner(cfg).run(max_events=MAX_EVENTS)
    assert 0 < history.epochs[-1] < 1.0
    assert history.total_virtual_time < 1.0
    assert history.metadata["faults"]["final_live_workers"] == [0]


@st.composite
def faulty_configs(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    num_workers = draw(st.integers(1, 12))
    gpus = draw(st.sampled_from((1, 2, 4)))
    machines = math.ceil(num_workers / gpus)
    cluster = paper_cluster(bandwidth_gbps=10.0, machines=machines, gpus_per_machine=gpus)
    overrides = dict(cluster=cluster)
    if algorithm in PS_ALGORITHMS:
        overrides["num_ps_shards"] = draw(st.integers(1, 8))
    if algorithm in WAITFREE_ALGORITHMS:
        overrides["wait_free_bp"] = draw(st.booleans())
    times = st.floats(0.0, 0.6)
    spans = st.floats(0.01, 0.3)
    machine = st.integers(0, machines - 1)
    event = st.one_of(
        st.builds(crash, times, st.integers(0, num_workers - 1), st.none() | spans),
        st.builds(FaultEvent, time=times, kind=st.just("machine_outage"), machine=machine),
        st.builds(
            FaultEvent, time=times, kind=st.just("partition"), machine=machine, duration=spans
        ),
        st.builds(
            FaultEvent,
            time=times,
            kind=st.just("link_degrade"),
            machine=machine,
            duration=spans,
            rate_fraction=st.floats(0.05, 1.0),
        ),
    )
    events = sorted(draw(st.lists(event, max_size=2)), key=lambda e: e.time)
    return faulty_timing_config(algorithm, num_workers, events, **overrides)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg=faulty_configs())
def test_every_fault_schedule_terminates(cfg):
    try:
        result = DistributedRunner(cfg).run(max_events=MAX_EVENTS)
    except RuntimeError as exc:
        assert WINDOW_ERROR in str(exc), str(exc)
    else:
        assert result.throughput > 0
