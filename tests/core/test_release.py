"""A run releases what it built (DESIGN §10): after ``run()`` nothing is
left for the cycle collector, the post-run inspection surface still
reads, timing runs share their interned plans, and no production import
path loads networkx or scipy."""

import dataclasses
import gc
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.runner import DistributedRunner, timing_plans
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs.config import ObsConfig
from repro.robust.config import RobustConfig
from repro.sim.cluster import hierarchical_cluster

from tests.conftest import small_full_config, small_timing_config
from tests.faults.test_determinism import DETECTION

ALGORITHMS = ["bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd"]
SRC = Path(__file__).resolve().parents[2] / "src"


def rack_config(algorithm: str, **overrides):
    """16 workers on two racks of two machines."""
    return small_timing_config(
        algorithm,
        cluster=hierarchical_cluster(machines=4, machines_per_rack=2),
        num_workers=16,
        measure_iters=3,
        **overrides,
    )


def crash_rejoin_config():
    """Worker 3 crashes a third of the way in and rejoins."""
    base = small_full_config("bsp")
    t0 = DistributedRunner(base).run().total_virtual_time
    faults = FaultConfig(
        events=(FaultEvent(time=0.3 * t0, kind="crash", worker=3, rejoin_after=0.2 * t0),),
        **DETECTION,
    )
    return dataclasses.replace(base, faults=faults)


def unreachable_after(make_runner, *, raises: bool = False, **run_kwargs) -> int:
    """Objects only the cycle collector can free after build → run →
    drop, with the collector off for the whole life of the runner.

    Measured on the second of two identical runs: the first pays the
    lazy imports (``numpy.ma`` behind ``np.median`` alone leaves ~300
    cyclic objects of ``inspect``/``ast`` closures).
    """

    def build_run_drop():
        runner = make_runner()
        if raises:
            with pytest.raises(RuntimeError):
                runner.run(**run_kwargs)
        else:
            runner.run(**run_kwargs)

    build_run_drop()
    gc.collect()
    gc.disable()
    try:
        build_run_drop()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_timing_run(self, algorithm):
        cfg = small_timing_config(algorithm)
        assert unreachable_after(lambda: DistributedRunner(cfg)) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_full_run(self, algorithm):
        cfg = small_full_config(algorithm)
        assert unreachable_after(lambda: DistributedRunner(cfg)) == 0

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: rack_config("ar-sgd", collective="tree"),
            lambda: rack_config("ar-sgd", collective="hring"),
            lambda: rack_config("bsp", ps_topology="tree", num_ps_shards=2),
            lambda: small_timing_config("asp", wait_free_bp=True, num_ps_shards=2),
            lambda: small_timing_config("ar-sgd", wait_free_bp=True),
            crash_rejoin_config,
            lambda: small_full_config(
                "ssp", robust=RobustConfig(aggregator="median", guard=True)
            ),
        ],
        ids=[
            "arsgd-tree", "arsgd-hring", "bsp-ps-tree", "asp-waitfree",
            "arsgd-waitfree", "crash-rejoin", "robust",
        ],
    )
    def test_variants(self, make_config):
        cfg = make_config()
        assert unreachable_after(lambda: DistributedRunner(cfg)) == 0

    def test_observed_run(self):
        cfg = small_timing_config("bsp")
        observed = ObsConfig(enabled=True)
        assert unreachable_after(lambda: DistributedRunner(cfg, obs=observed)) == 0

    def test_run_that_exceeds_max_events(self):
        cfg = small_timing_config("ar-sgd")
        assert (
            unreachable_after(lambda: DistributedRunner(cfg), raises=True, max_events=1000)
            == 0
        )

    def test_run_whose_process_fails(self):
        def broken():
            runner = DistributedRunner(small_timing_config("asp"))
            runner.runtime.compute_model = None  # first iteration raises
            return runner

        assert unreachable_after(broken, raises=True) == 0


class TestStallNamesLiveProcesses:
    def test_max_events_error_lists_them(self):
        # Driving the engine directly leaves the live set readable after
        # the error (runner.run() would release it), so the expectation
        # is whatever is live wherever event 200 happens to fall.
        runner = DistributedRunner(rack_config("bsp"))
        engine = runner.engine
        with pytest.raises(RuntimeError) as excinfo:
            engine.run(max_events=200)
        names = [process.name for process in engine.live_processes]
        assert names[:3] == ["ps0.t0", "bsp-lead-w0", "bsp-peer-w1"]
        assert len(names) > 10  # 16 workers never finish inside 200 events
        assert str(excinfo.value) == (
            "exceeded max_events=200; likely a livelock "
            f"({len(names)} live processes: {', '.join(names[:10])}, ...)"  # first ten only
        )
        runner._release()

    def test_live_set_follows_spawn_and_finish(self):
        runner = DistributedRunner(small_timing_config("gosgd"))
        engine = runner.engine
        assert [p.name for p in engine.live_processes] == [
            f"gosgd-w{w}" for w in range(8)
        ]
        runner.run()
        assert engine.live_processes == []


class TestStillInspectableAfterRelease:
    def test_gosgd_push_sum_mass(self):
        runner = DistributedRunner(
            small_full_config("gosgd", algorithm_params={"p": 0.5})
        )
        runner.run()
        buffered = sum(
            len(slot.node.mailbox("gossip")) for slot in runner.runtime.workers
        )
        assert buffered > 0  # undelivered shares are part of the mass
        assert runner.algorithm.total_weight == pytest.approx(1.0)

    def test_shards_ports_and_counters(self):
        runner = DistributedRunner(small_full_config("asp", num_ps_shards=2))
        history = runner.run()
        shards = runner.runtime.ps_nodes
        assert sum(shard.updates_applied for shard in shards) > 0
        assert all(shard.runtime.config is runner.config for shard in shards)
        assert runner.engine.events_processed > 0
        assert runner.engine.queue_high_water > 0
        assert len(runner.engine._queue) == 0
        stats = runner.network.port_stats()
        assert sum(port["bytes"] for port in stats.values()) > 0
        assert history.metadata["total_messages"] == runner.network.total_messages
        assert all(slot.iterations > 0 for slot in runner.runtime.workers)
        assert runner.algorithm.global_params() is not None

    def test_observer_and_fault_summary(self):
        runner = DistributedRunner(crash_rejoin_config(), obs=ObsConfig(enabled=True))
        history = runner.run()
        summary = runner.fault_controller.summary()
        assert history.metadata["faults"] == summary
        assert [e["worker"] for e in summary["evictions"]] == [3]
        assert [r["worker"] for r in summary["rejoins"]] == [3]
        assert runner.runtime.live_worker_ids() == [0, 1, 2, 3]
        registry = runner.observer.registry
        assert registry.counter("engine.events_processed").value == (
            runner.engine.events_processed
        )
        assert runner.observer.node_table


class TestInternedPlans:
    def test_equal_keys_share_the_same_objects(self):
        first = DistributedRunner(small_timing_config("bsp", num_ps_shards=2)).runtime
        second = DistributedRunner(small_timing_config("asp", num_ps_shards=2)).runtime
        assert first.profile is second.profile
        assert first.sharding is second.sharding
        assert first.comm_plan is second.comm_plan
        assert (first.profile, first.sharding, first.comm_plan) == timing_plans(
            "resnet50", 2, "layerwise-greedy", False
        )
        other = DistributedRunner(small_timing_config("bsp", num_ps_shards=4)).runtime
        assert other.sharding is not first.sharding
        assert other.profile is first.profile

    def test_shared_plans_cannot_be_mutated(self):
        profile, sharding, plan = timing_plans("resnet50", 2, "layerwise-greedy", False)
        for obj, name in [
            (profile, "layers"),
            (profile, "total_params"),
            (sharding, "shards"),
            (sharding.shards[0], "ranges"),
            (sharding.shards[0], "num_elements"),
            (plan, "entries"),
            (plan.entries[0], "nbytes"),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)


class TestImportGraph:
    def test_production_paths_load_neither_networkx_nor_scipy(self):
        script = (
            "import sys\n"
            "import repro.cli, repro.experiments.executor\n"
            "from repro.core.runner import execute_run\n"
            "from repro.experiments.config import timing_config\n"
            "execute_run(timing_config('ad-psgd', num_workers=8, measure_iters=3))\n"
            "bad = {'networkx', 'scipy'} & set(sys.modules)\n"
            "assert not bad, bad\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={"PYTHONPATH": str(SRC), "PATH": ""},
            timeout=120,
        )
