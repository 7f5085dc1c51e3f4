"""A run releases what it built (DESIGN §10): after ``run()`` nothing is
left for the cycle collector, a ring run holds O(N) memory, the
post-run inspection surface still reads, timing runs share their
interned plans, a run imports only the modules its config executes (no
production path loads networkx or scipy), and every package resolves
its public names on first use."""

import ast
import dataclasses
import gc
import importlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core.runner import DistributedRunner, timing_plans
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent
from repro.obs.config import ObsConfig
from repro.robust.config import RobustConfig
from repro.sim.cluster import hierarchical_cluster

from tests.conftest import port_stats, push_sum_mass, small_full_config, small_timing_config
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


class TestRingRunsHoldNothing:
    def test_a_ring_run_retains_and_peaks_at_o_of_n(self):
        """A ring AllReduce run keeps O(1) state per collective: nothing
        it builds outlives it, and its peak does not grow with N²."""

        def ring_config(n):
            return timing_config(
                "ar-sgd",
                num_workers=n,
                bandwidth_gbps=56.0,
                cluster=hierarchical_cluster(
                    machines=n // 4, machines_per_rack=16, oversubscription=4.0,
                    bandwidth_gbps=56.0,
                ),
                collective="ring",
                measure_iters=1,
                warmup_iters=1,
            )

        DistributedRunner(ring_config(96)).run()  # lazy imports and interned plans
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            DistributedRunner(ring_config(128)).run()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (retained - start) / 1e6 < 0.5
        assert (peak - start) / 1e6 < 2.5


class TestStallNamesLiveProcesses:
    def test_max_events_error_lists_them(self):
        # Driving the engine directly leaves the live set readable after
        # the error (runner.run() would release it), so the expectation
        # is whatever is live wherever event 200 happens to fall.
        runner = DistributedRunner(rack_config("bsp"))
        engine = runner.engine
        with pytest.raises(RuntimeError) as excinfo:
            engine.run(max_events=200)
        names = [process.name for process in engine._live]
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
        assert [p.name for p in engine._live] == [
            f"gosgd-w{w}" for w in range(8)
        ]
        runner.run()
        assert not engine._live


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
        assert push_sum_mass(runner.algorithm) == pytest.approx(1.0)

    def test_shards_ports_and_counters(self):
        runner = DistributedRunner(small_full_config("asp", num_ps_shards=2))
        history = runner.run()
        shards = runner.runtime.ps_nodes
        assert sum(shard.updates_applied for shard in shards) > 0
        assert all(shard.runtime.config is runner.config for shard in shards)
        assert runner.engine.events_processed > 0
        assert runner.engine.queue_high_water > 0
        assert len(runner.engine._queue) == 0
        stats = port_stats(runner.network)
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
        kinds = {e.kind for e in runner.observer.fault_events}
        assert {"crash", "evict", "rejoin"} <= kinds
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


#: Modules only some configs execute (DESIGN §10): full mode, the
#: observer and its analyses, faults, robust aggregation, DGC, and a
#: real worker pool.
FEATURE_MODULES = (
    "repro.nn.conv",
    "repro.nn.models",
    "repro.data",
    "repro.obs.recorder",
    "repro.obs.critpath",
    "repro.obs.perfetto",
    "repro.faults.controller",
    "repro.robust.runtime",
    "repro.optimizations.dgc",
    "multiprocessing",
)

#: Every package whose ``__init__`` resolves its names on first use.
LAZY_PACKAGES = (
    "nn", "obs", "faults", "robust", "optimizations",
    "data", "analysis", "comm", "sim", "perf",
)


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter that sees only ``src``."""
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        timeout=120,
    )


class TestImportGraph:
    def test_production_paths_load_neither_networkx_nor_scipy(self):
        run_fresh(
            "import sys\n"
            "import repro.cli, repro.experiments.executor\n"
            "from repro.core.runner import execute_run\n"
            "from repro.experiments.config import timing_config\n"
            "execute_run(timing_config('ad-psgd', num_workers=8, measure_iters=3))\n"
            "bad = {'networkx', 'scipy'} & set(sys.modules)\n"
            "assert not bad, bad\n"
        )

    def test_the_package_imports_with_networkx_blocked(self):
        # numpy is the only dependency.
        run_fresh(
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro.cli, repro.comm.gossip, repro.core\n"
        )

    def test_a_timing_run_loads_no_feature_module(self):
        run_fresh(
            "import sys\n"
            "from repro.core.runner import execute_run\n"
            "from repro.experiments.config import timing_config\n"
            "from repro.experiments.executor import SweepExecutor\n"
            "execute_run(timing_config('asp', num_workers=8, measure_iters=3))\n"
            "SweepExecutor(jobs=1, cache=False).map(\n"
            "    [timing_config(a, num_workers=8, measure_iters=3) for a in ('bsp', 'ar-sgd')]\n"
            ")\n"
            f"loaded = set({FEATURE_MODULES!r}) & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
        )

    def test_a_run_that_uses_every_feature_loads_them_and_works(self):
        run_fresh(
            "import sys\n"
            "from repro.core.runner import DistributedRunner\n"
            "from repro.experiments.config import mini_accuracy_config, mini_dgc_config, timing_config\n"
            "from repro.experiments.executor import SweepExecutor\n"
            "from repro.faults.config import FaultConfig\n"
            "from repro.obs import ObsConfig, analyze_run, build_trace\n"
            "from repro.robust.config import RobustConfig\n"
            "cfg = mini_accuracy_config(\n"
            "    'bsp', num_workers=4, epochs=1.0, dgc=True, dgc_config=mini_dgc_config(4),\n"
            "    faults=FaultConfig(), robust=RobustConfig(aggregator='median'),\n"
            ")\n"
            "runner = DistributedRunner(cfg, obs=ObsConfig(enabled=True))\n"
            "history = runner.run()\n"
            "assert history.epochs[-1] >= 1.0 and history.test_accuracy, history.epochs\n"
            "report = analyze_run(runner)\n"
            "trace = build_trace(observer=runner.observer, cluster=cfg.cluster, critpath=report)\n"
            "assert trace['traceEvents']\n"
            "pooled = SweepExecutor(jobs=2, cache=False).map(\n"
            "    [timing_config(a, num_workers=4, measure_iters=1) for a in ('asp', 'bsp')]\n"
            ")\n"
            "assert all(r.throughput > 0 for r in pooled)\n"
            f"missing = set({FEATURE_MODULES!r}) - set(sys.modules)\n"
            "assert not missing, sorted(missing)\n"
        )


class TestLazyPackageNames:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_is_its_submodules_object(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
        listed = dir(pkg)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert any(
                vars(module).get(name) is value
                for module_name, module in list(sys.modules.items())
                if module_name.startswith(f"repro.{package}.")
            ), name
            assert name in listed
        # Resolved on each access, never cached in the package.
        assert not set(pkg.__all__) & set(vars(pkg))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_an_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            pkg.nonesuch
        assert not hasattr(pkg, "nonesuch")

    def test_a_patched_function_is_seen_through_the_package(self, monkeypatch):
        import repro.perf
        import repro.perf.predict

        original = repro.perf.predict_run
        monkeypatch.setattr(repro.perf.predict, "predict_run", len)
        assert repro.perf.predict_run is len
        monkeypatch.undo()
        assert repro.perf.predict_run is original

    def test_the_ledger_probes_package_imports_resolve(self):
        probes = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "probes.py"
        lines = [
            node
            for node in ast.parse(probes.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.module in ("repro.nn", "repro.obs")
        ]
        assert {node.module for node in lines} == {"repro.nn", "repro.obs"}
        for node in lines:
            exec(compile(ast.Module(body=[node], type_ignores=[]), str(probes), "exec"), {})
