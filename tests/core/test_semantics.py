"""Cross-algorithm semantic invariants.

These tests pin the *defining properties* of each aggregation scheme —
the things that make the paper's comparison meaningful.
"""

import numpy as np
import pytest

from repro.core import bsp
from repro.core.complexity import communication_complexity
from repro.core.runner import DistributedRunner
from repro.faults.config import FaultConfig, FaultEvent
from repro.sim.cluster import hierarchical_cluster, paper_cluster

from tests.conftest import small_full_config, small_timing_config
from tests.core.test_single_worker import single_worker_run


class TestSynchronousConsistency:
    def test_bsp_workers_identical_after_run(self):
        """BSP's defining property: every worker holds the same
        parameters (equal to the PS global parameters) between rounds."""
        runner = DistributedRunner(small_full_config("bsp", num_ps_shards=2))
        runner.run()
        params = [w.comp.get_params() for w in runner.runtime.workers]
        for p in params[1:]:
            np.testing.assert_allclose(p, params[0], atol=1e-12)
        global_params = runner.algorithm.global_params()
        np.testing.assert_allclose(params[0], global_params, atol=1e-12)

    def test_arsgd_workers_identical_after_run(self):
        runner = DistributedRunner(small_full_config("ar-sgd"))
        runner.run()
        params = [w.comp.get_params() for w in runner.runtime.workers]
        for p in params[1:]:
            np.testing.assert_allclose(p, params[0], atol=1e-9)

    def test_bsp_equals_arsgd_trajectory(self):
        """BSP (PS, mean gradient, central momentum) and AR-SGD
        (AllReduce, mean gradient, replicated momentum) are the same
        algorithm — their parameter trajectories must agree to float
        reassociation error over a short run."""
        cfg_bsp = small_full_config("bsp", epochs=0.5, jitter_sigma=0.0, speed_spread=0.0)
        cfg_ar = small_full_config("ar-sgd", epochs=0.5, jitter_sigma=0.0, speed_spread=0.0)
        r1 = DistributedRunner(cfg_bsp)
        r2 = DistributedRunner(cfg_ar)
        r1.run()
        r2.run()
        p1 = r1.algorithm.global_params()
        p2 = r2.algorithm.global_params()
        np.testing.assert_allclose(p1, p2, rtol=1e-6, atol=1e-8)

    def test_bsp_iteration_counts_equal_across_workers(self):
        runner = DistributedRunner(small_full_config("bsp"))
        runner.run()
        counts = {w.iterations for w in runner.runtime.workers}
        assert max(counts) - min(counts) <= 1


def applied_minus_live_mean(cfg, monkeypatch):
    """Run BSP and return the live workers and, for every round since the
    last (re)spawn, the largest gap between the update the shard applied
    and the mean of the live workers' gradients of that round."""
    phase = [0]
    grads, applied = {}, {}
    spawn, produce = bsp.BSP.spawn_workers, bsp.produce_gradient
    apply = bsp.BSPShard.apply_gradient

    def spawn_workers(self, runtime, wids):
        phase[0] += 1
        spawn(self, runtime, wids)

    def produce_gradient(rt, slot):
        grad = produce(rt, slot)
        grads.setdefault((phase[0], slot.wid), []).append(grad.copy())
        return grad

    def apply_gradient(self, grad, lr):
        applied.setdefault(phase[0], []).append(grad.copy())
        apply(self, grad, lr)

    monkeypatch.setattr(bsp.BSP, "spawn_workers", spawn_workers)
    monkeypatch.setattr(bsp, "produce_gradient", produce_gradient)
    monkeypatch.setattr(bsp.BSPShard, "apply_gradient", apply_gradient)
    runner = DistributedRunner(cfg)
    runner.run()
    live = runner.runtime.live_worker_ids()
    shard = runner.runtime.ps_nodes[0]
    return live, [
        np.abs(update - shard.assignment.gather(
            np.mean([grads[phase[0], w][k] for w in live], axis=0)
        )).max()
        for k, update in enumerate(applied[phase[0]])
    ]


class TestBSPAppliesTheMeanGradient:
    """Machine leaders forward group means and rack aggregators forward
    rack means; each carries its worker count, so groups of unequal size
    still apply the mean over the live workers, not a mean of means."""

    @pytest.mark.parametrize("workers,gpus", [(3, 2), (5, 4)], ids=["3-on-2x2", "5-on-2x4"])
    def test_unequal_machine_groups(self, workers, gpus, monkeypatch):
        cfg = small_full_config(
            "bsp", num_workers=workers, epochs=1.0,
            cluster=paper_cluster(machines=2, gpus_per_machine=gpus),
        )
        _, gaps = applied_minus_live_mean(cfg, monkeypatch)
        assert gaps and max(gaps) <= 1e-15

    def test_unequal_racks(self, monkeypatch):
        """Racks of two machines and one: the PS tree's aggregators
        cover four workers and two."""
        cluster = hierarchical_cluster(machines=3, machines_per_rack=2, gpus_per_machine=2)
        cfg = small_full_config(
            "bsp", num_workers=6, epochs=1.0, cluster=cluster, ps_topology="tree"
        )
        _, gaps = applied_minus_live_mean(cfg, monkeypatch)
        assert gaps and max(gaps) <= 1e-15

    def test_after_an_eviction(self, monkeypatch):
        """Worker 1's crash leaves machine 0 a group of one beside
        machine 1's group of two."""
        faults = FaultConfig(
            events=(FaultEvent(time=0.05, kind="crash", worker=1),),
            heartbeat_interval=0.005,
            heartbeat_timeout=0.02,
        )
        cfg = small_full_config("bsp", epochs=2.0, faults=faults)
        live, gaps = applied_minus_live_mean(cfg, monkeypatch)
        assert live == [0, 2, 3]
        assert gaps and max(gaps) <= 1e-15


class TestStalenessBound:
    def test_ssp_bounds_worker_divergence(self):
        """With a strong persistent straggler, SSP's staleness bound
        must cap the iteration spread near s; ASP must not."""
        cfg = small_full_config(
            "ssp",
            algorithm_params={"staleness": 2},
            epochs=4.0,
            speed_spread=0.5,
            jitter_sigma=0.0,
        )
        runner = DistributedRunner(cfg)
        runner.run()
        counts = [w.iterations for w in runner.runtime.workers]
        assert max(counts) - min(counts) <= 2 + 2  # bound + in-flight slack

        cfg_asp = small_full_config(
            "asp", epochs=4.0, speed_spread=0.5, jitter_sigma=0.0
        )
        runner_asp = DistributedRunner(cfg_asp)
        runner_asp.run()
        counts_asp = [w.iterations for w in runner_asp.runtime.workers]
        assert max(counts_asp) - min(counts_asp) > 4  # free-running

    def test_ssp_zero_staleness_behaves_like_bsp_spread(self):
        cfg = small_full_config(
            "ssp", algorithm_params={"staleness": 0}, epochs=2.0, speed_spread=0.3
        )
        runner = DistributedRunner(cfg)
        runner.run()
        counts = [w.iterations for w in runner.runtime.workers]
        assert max(counts) - min(counts) <= 2


class TestEASGDInvariants:
    def test_elastic_update_symmetry(self):
        """The elastic force is equal and opposite: x̃ + xᵢ is invariant
        under one exchange."""
        from repro.core.easgd import EASGDShard

        runner = DistributedRunner(
            small_full_config("easgd", algorithm_params={"tau": 2})
        )
        shard = runner.runtime.ps_nodes[0]
        assert isinstance(shard, EASGDShard)
        x_tilde = shard.params.copy()
        x_i = x_tilde + np.random.default_rng(0).normal(size=x_tilde.size)
        alpha = 0.3
        diff = alpha * (x_i - x_tilde)
        new_center = x_tilde + diff
        new_local = x_i - diff
        np.testing.assert_allclose(new_center + new_local, x_tilde + x_i, atol=1e-12)

    def test_exchange_every_tau_iterations(self):
        tau = 3
        runner = DistributedRunner(
            small_full_config("easgd", algorithm_params={"tau": tau}, epochs=2.0)
        )
        runner.run()
        shard = runner.runtime.ps_nodes[0]
        total_iters = sum(w.iterations for w in runner.runtime.workers)
        expected = sum(w.iterations // tau for w in runner.runtime.workers)
        assert abs(shard.updates_applied - expected) <= runner.runtime.config.num_workers


class TestGossipInvariants:
    def test_push_sum_weight_conserved(self):
        runner = DistributedRunner(
            small_full_config("gosgd", algorithm_params={"p": 0.5}, epochs=2.0)
        )
        runner.run()
        assert runner.algorithm.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_push_frequency_tracks_p(self):
        cfg = small_full_config("gosgd", algorithm_params={"p": 0.25}, epochs=4.0)
        runner = DistributedRunner(cfg)
        runner.run()
        pushes = runner.runtime.ctx.network.total_messages
        iters = runner.runtime.sample_clock.total_iterations
        assert pushes / iters == pytest.approx(0.25, abs=0.08)


class TestADPSGDInvariants:
    def test_only_actives_initiate(self):
        runner = DistributedRunner(small_full_config("ad-psgd", epochs=1.0))
        runner.run()
        # Exchange pairs: every message is xreq (active→passive) or the
        # matching xrep; counts must be equal within in-flight slack.
        total = runner.runtime.ctx.network.total_messages
        assert total > 0
        assert total % 1 == 0  # smoke: messages flowed

    def test_all_workers_progress(self):
        runner = DistributedRunner(small_full_config("ad-psgd", epochs=1.0))
        runner.run()
        assert all(w.iterations > 0 for w in runner.runtime.workers)

    def test_single_worker_degenerates_to_sgd(self):
        assert single_worker_run("ad-psgd") == single_worker_run("ar-sgd")


class TestCommunicationVolumes:
    """Measured per-iteration wire volume must match Table I."""

    def measured_volume(self, algo, *, shards=1, iters=20, **kw):
        cluster = paper_cluster(bandwidth_gbps=56, machines=8, gpus_per_machine=1)
        cfg = small_timing_config(
            algo,
            cluster=cluster,
            num_workers=8,
            num_ps_shards=shards,
            measure_iters=iters,
            warmup_iters=0,
            jitter_sigma=0.0,
            speed_spread=0.0,
            **kw,
        )
        runner = DistributedRunner(cfg)
        runner.run()
        net = runner.runtime.ctx.network
        total_iters = runner.runtime.sample_clock.total_iterations
        return net.total_bytes / (total_iters / 8), runner.runtime.profile.total_bytes

    def test_asp_volume_is_2mn(self):
        volume, m = self.measured_volume("asp")
        expected = communication_complexity("asp", m=m, n=8)
        assert volume == pytest.approx(expected, rel=0.05)

    def test_bsp_without_local_agg_is_2mn(self):
        volume, m = self.measured_volume("bsp", local_aggregation=False)
        expected = communication_complexity("bsp", m=m, n=8, l=1)
        assert volume == pytest.approx(expected, rel=0.05)

    def test_arsgd_ring_volume(self):
        # Ring AllReduce wire volume: 2·M·(N−1) total per iteration.
        volume, m = self.measured_volume("ar-sgd")
        assert volume == pytest.approx(2 * m * 7, rel=0.05)

    def test_easgd_volume_divided_by_tau(self):
        volume, m = self.measured_volume("easgd", algorithm_params={"tau": 4}, iters=40)
        expected = communication_complexity("easgd", m=m, n=8, tau=4)
        assert volume == pytest.approx(expected, rel=0.15)

    def test_adpsgd_volume_is_mn(self):
        volume, m = self.measured_volume("ad-psgd", iters=40)
        expected = communication_complexity("ad-psgd", m=m, n=8)
        assert volume == pytest.approx(expected, rel=0.15)

    def test_gosgd_volume_scales_with_p(self):
        volume, m = self.measured_volume("gosgd", algorithm_params={"p": 0.5}, iters=60)
        expected = communication_complexity("gosgd", m=m, n=8, p=0.5)
        assert volume == pytest.approx(expected, rel=0.25)

    def test_ssp_volume_between_mn_and_2mn(self):
        volume, m = self.measured_volume("ssp", algorithm_params={"staleness": 4}, iters=40)
        assert m * 8 * 0.9 < volume < 2 * m * 8 * 1.05

    def test_dgc_shrinks_asp_volume(self):
        dense, m = self.measured_volume("asp", iters=10)
        compressed, _ = self.measured_volume("asp", iters=10, dgc=True)
        assert compressed < dense / 20
