"""Per-algorithm behavioural tests (full and timing modes)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import timing_config
from repro.sim.cluster import paper_cluster

from tests.conftest import small_full_config, small_timing_config

ALL_ALGOS = [
    ("bsp", {}),
    ("asp", {}),
    ("ssp", {"staleness": 3}),
    ("easgd", {"tau": 2}),
    ("ar-sgd", {}),
    ("gosgd", {"p": 0.2}),
    ("ad-psgd", {}),
]


class TestAllAlgorithmsRun:
    @pytest.mark.parametrize("algo,params", ALL_ALGOS)
    def test_full_mode_trains(self, algo, params):
        # Well-separated blobs: every algorithm must clear chance (0.25)
        # by a wide margin within a few epochs.
        cfg = small_full_config(
            algo,
            algorithm_params=dict(params),
            epochs=4.0,
            dataset_name="gaussian_blobs",
            dataset_kwargs=dict(num_samples=400, num_classes=4, num_features=8, noise=0.5),
            model_kwargs=dict(in_features=8, hidden=(16,), num_classes=4),
        )
        history = DistributedRunner(cfg).run()
        assert history.total_iterations > 0
        assert np.isfinite(history.final_test_accuracy)
        assert history.final_test_accuracy > 0.6

    @pytest.mark.parametrize("algo,params", ALL_ALGOS)
    def test_timing_mode_measures(self, algo, params):
        cfg = small_timing_config(algo, algorithm_params=dict(params))
        result = DistributedRunner(cfg).run()
        assert result.throughput > 0

    @pytest.mark.parametrize("algo,params", ALL_ALGOS)
    def test_single_worker_works(self, algo, params):
        """One worker runs every iteration of its two epochs. Which
        algorithms are then plain SGD bit for bit, and why ASP, SSP and
        EASGD are not, is tests/core/test_single_worker.py."""
        cfg = small_full_config(
            algo,
            algorithm_params=dict(params),
            num_workers=1,
            cluster=paper_cluster(machines=1, gpus_per_machine=1),
            epochs=2.0,
        )
        history = DistributedRunner(cfg).run()
        assert history.total_iterations == 80

    @pytest.mark.parametrize("algo,params", ALL_ALGOS)
    def test_global_params_finite(self, algo, params):
        cfg = small_full_config(algo, algorithm_params=dict(params), epochs=1.0)
        runner = DistributedRunner(cfg)
        runner.run()
        params_vec = runner.algorithm.global_params()
        assert params_vec is not None
        assert np.all(np.isfinite(params_vec))


class TestBSP:
    def test_local_aggregation_reduces_network_traffic(self):
        """2MN/l vs 2MN: local aggregation must cut inter-machine bytes
        by ~the machine's worker count."""
        def inter_bytes(local_agg):
            cfg = small_timing_config(
                "bsp",
                num_workers=8,
                cluster=paper_cluster(machines=2, gpus_per_machine=4),
                local_aggregation=local_agg,
                measure_iters=5,
            )
            runner = DistributedRunner(cfg)
            runner.run()
            return sum(p.bytes_served for p in runner.runtime.ctx.network.tx)

        with_local = inter_bytes(True)
        without = inter_bytes(False)
        assert without > 2.5 * with_local

    def test_ps_updates_once_per_round(self):
        cfg = small_full_config("bsp", epochs=2.0)
        runner = DistributedRunner(cfg)
        runner.run()
        shard = runner.runtime.ps_nodes[0]
        rounds = min(w.iterations for w in runner.runtime.workers)
        assert abs(shard.updates_applied - rounds) <= 1

    def test_sharded_bsp_consistent(self):
        cfg = small_full_config("bsp", num_ps_shards=3, epochs=1.0)
        runner = DistributedRunner(cfg)
        runner.run()
        params = [w.comp.get_params() for w in runner.runtime.workers]
        for p in params[1:]:
            np.testing.assert_allclose(p, params[0], atol=1e-12)


class TestASP:
    def test_ps_updates_once_per_worker_iteration(self):
        cfg = small_full_config("asp", epochs=2.0)
        runner = DistributedRunner(cfg)
        runner.run()
        shard = runner.runtime.ps_nodes[0]
        total_iters = sum(w.iterations for w in runner.runtime.workers)
        assert abs(shard.updates_applied - total_iters) <= runner.runtime.config.num_workers

    def test_no_straggler_blocking(self):
        """With a strong persistent straggler, fast ASP workers run far
        ahead — the no-waiting property."""
        cfg = small_full_config("asp", epochs=4.0, speed_spread=0.6, jitter_sigma=0.0)
        runner = DistributedRunner(cfg)
        runner.run()
        counts = [w.iterations for w in runner.runtime.workers]
        assert max(counts) > min(counts) * 1.5


class TestSSP:
    def test_fetches_are_intermittent(self):
        """SSP pulls parameters roughly every s+1 iterations, so its
        reply traffic is far below ASP's one-reply-per-iteration."""
        def reply_count(algo, params):
            cfg = small_timing_config(
                algo, algorithm_params=params, num_workers=8,
                cluster=paper_cluster(machines=2, gpus_per_machine=4),
                measure_iters=20,
            )
            runner = DistributedRunner(cfg)
            runner.run()
            return runner.runtime.ps_nodes[0].sent_messages

        asp_replies = reply_count("asp", {})
        ssp_replies = reply_count("ssp", {"staleness": 9})
        assert ssp_replies < asp_replies / 3


class TestEASGD:
    def test_center_variable_moves_toward_workers(self):
        cfg = small_full_config("easgd", algorithm_params={"tau": 2}, epochs=2.0)
        runner = DistributedRunner(cfg)
        init = runner.runtime.init_params.copy()
        runner.run()
        center = runner.algorithm.global_params()
        assert not np.allclose(center, init)

    def test_larger_tau_less_traffic(self):
        def volume(tau):
            cfg = small_timing_config(
                "easgd", algorithm_params={"tau": tau}, measure_iters=16
            )
            runner = DistributedRunner(cfg)
            runner.run()
            return runner.runtime.ctx.network.total_bytes

        assert volume(8) < volume(2) / 2.5


class TestARSGD:
    def test_no_ps_nodes(self):
        cfg = small_full_config("ar-sgd", epochs=1.0)
        runner = DistributedRunner(cfg)
        assert runner.runtime.ps_nodes == []

    def test_waitfree_runs_layerwise_rings(self):
        cfg = small_full_config("ar-sgd", wait_free_bp=True, epochs=1.0)
        history = DistributedRunner(cfg).run()
        assert history.total_iterations > 0


class TestGoSGD:
    def test_p_zero_trains_independently(self):
        cfg = small_full_config("gosgd", algorithm_params={"p": 0.0}, epochs=1.0)
        runner = DistributedRunner(cfg)
        runner.run()
        assert runner.runtime.ctx.network.total_messages == 0
        # Workers diverge without communication.
        params = [w.comp.get_params() for w in runner.runtime.workers]
        assert not np.allclose(params[0], params[1])

    def test_p_one_gossips_every_iteration(self):
        cfg = small_full_config("gosgd", algorithm_params={"p": 1.0}, epochs=1.0)
        runner = DistributedRunner(cfg)
        runner.run()
        total_iters = runner.runtime.sample_clock.total_iterations
        assert runner.runtime.ctx.network.total_messages >= total_iters * 0.9


class TestADPSGD:
    def test_workers_stay_close(self):
        """Every-iteration symmetric averaging keeps the replicas'
        parameter spread far below gossip with p=0.01."""
        def spread(algo, params):
            cfg = small_full_config(algo, algorithm_params=params, epochs=3.0)
            runner = DistributedRunner(cfg)
            runner.run()
            vecs = [w.comp.get_params() for w in runner.runtime.workers]
            center = np.mean(vecs, axis=0)
            return max(np.linalg.norm(v - center) for v in vecs)

        assert spread("ad-psgd", {}) < spread("gosgd", {"p": 0.01})

    def test_odd_worker_count(self):
        cfg = small_full_config(
            "ad-psgd",
            num_workers=3,
            cluster=paper_cluster(machines=1, gpus_per_machine=3),
            epochs=1.0,
        )
        history = DistributedRunner(cfg).run()
        assert history.total_iterations > 0

    @pytest.mark.parametrize("world", [1, 2, 7, 8])
    def test_spawned_roles_are_the_bipartite_split(self, world):
        """With every worker live, ``spawn_workers``' positional split
        is the paper's evens-active / odds-passive split (its
        deadlock-freedom: ``tests/comm/test_pairwise.py``)."""
        cfg = small_timing_config(
            "ad-psgd",
            num_workers=world,
            cluster=paper_cluster(machines=2, gpus_per_machine=4),
        )
        names = [p.name for p in DistributedRunner(cfg).engine._live]
        serving = [w for w in range(world) if f"adpsgd-serve-w{w}" in names]
        initiating = [w for w in range(world) if f"adpsgd-comm-w{w}" in names]
        active, passive = list(range(0, world, 2)), list(range(1, world, 2))
        assert serving == passive
        assert initiating == (active if passive else [])

    def test_build_at_n1024_allocates_no_exchange_graph(self):
        """The (N/2)²-edge graph is a checkable statement, not a runtime
        structure: building it cost 0.5 s and a 76 MB peak here."""
        cfg = timing_config("ad-psgd", num_workers=1024)
        tracemalloc.start()
        try:
            runner = DistributedRunner(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runner.engine._live) == 2 * 1024
        assert peak < 10e6
