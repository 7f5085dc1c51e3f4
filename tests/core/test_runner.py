"""Tests for RunConfig validation and DistributedRunner orchestration."""

import numpy as np
import pytest

from repro.core.history import ThroughputResult, TrainingHistory
from repro.core.runner import DistributedRunner, RunConfig, SampleClock
from repro.sim.cluster import paper_cluster

from tests.conftest import small_full_config, small_timing_config


class TestRunConfigValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            small_full_config("bsp", mode="hybrid")

    def test_rejects_too_many_workers(self):
        with pytest.raises(ValueError, match="exceed"):
            small_full_config("bsp", num_workers=100)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            small_timing_config("bsp", profile_name="alexnet")

    def test_rejects_unknown_dataset(self):
        with pytest.raises(ValueError):
            small_full_config("bsp", dataset_name="imagenet")

    def test_rejects_sharding_for_decentralized(self):
        with pytest.raises(ValueError, match="decentralized"):
            DistributedRunner(small_full_config("ar-sgd", num_ps_shards=2))

    def test_rejects_waitfree_for_parameter_senders(self):
        with pytest.raises(ValueError, match="wait-free"):
            DistributedRunner(small_full_config("easgd", wait_free_bp=True))

    def test_rejects_dgc_for_parameter_senders(self):
        with pytest.raises(ValueError, match="DGC"):
            DistributedRunner(small_full_config("gosgd", dgc=True))

    def test_rejects_dgc_config_without_dgc(self):
        # It would run uncompressed yet fingerprint (and cache) apart
        # from the same run without the unused dgc_config.
        from repro.optimizations.dgc import DGCConfig

        with pytest.raises(ValueError, match="dgc_config given without dgc=True"):
            small_timing_config("bsp", dgc_config=DGCConfig(num_workers=2))
        assert small_timing_config("bsp", dgc=True, dgc_config=DGCConfig(num_workers=2)).dgc


class TestSampleClock:
    def test_epoch_progression(self):
        clock = SampleClock(dataset_size=100, batch_size=10)
        for _ in range(25):
            clock.on_batch()
        assert clock.epoch() == pytest.approx(2.5)
        assert clock.total_iterations == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleClock(0, 10)


class TestFullModeRun:
    def test_returns_history_with_evaluations(self):
        history = DistributedRunner(small_full_config("bsp")).run()
        assert isinstance(history, TrainingHistory)
        assert len(history.test_accuracy) >= 2  # initial + final at least
        assert history.total_iterations > 0
        assert history.total_virtual_time > 0
        assert history.epochs[-1] >= 2.0

    def test_deterministic_given_seed(self):
        h1 = DistributedRunner(small_full_config("bsp", seed=3)).run()
        h2 = DistributedRunner(small_full_config("bsp", seed=3)).run()
        assert h1.test_accuracy == h2.test_accuracy
        assert h1.times == h2.times

    def test_different_seeds_differ(self):
        h1 = DistributedRunner(small_full_config("asp", seed=1)).run()
        h2 = DistributedRunner(small_full_config("asp", seed=2)).run()
        assert h1.test_accuracy != h2.test_accuracy

    def test_workers_start_from_identical_params(self):
        runner = DistributedRunner(small_full_config("bsp"))
        params = [w.comp.get_params() for w in runner.runtime.workers]
        for p in params[1:]:
            assert np.array_equal(p, params[0])

    def test_sample_clock_epochs_reached(self):
        cfg = small_full_config("bsp", epochs=1.5)
        runner = DistributedRunner(cfg)
        runner.run()
        assert runner.runtime.sample_clock.epoch() >= 1.5

    def test_learning_happens(self):
        cfg = small_full_config("bsp", epochs=6.0)
        history = DistributedRunner(cfg).run()
        assert history.final_test_accuracy > history.test_accuracy[0] + 0.1


class TestTimingModeRun:
    def test_returns_throughput_result(self):
        result = DistributedRunner(small_timing_config("bsp")).run()
        assert isinstance(result, ThroughputResult)
        assert result.throughput > 0
        assert result.measured_images == 8 * 5 * 128

    def test_trace_breakdown_populated(self):
        result = DistributedRunner(small_timing_config("bsp", trace=True)).run()
        assert result.breakdown["compute"] > 0
        assert abs(sum(result.breakdown.values()) - 1.0) < 1e-9

    def test_more_workers_more_throughput(self):
        r4 = DistributedRunner(
            small_timing_config("ad-psgd", num_workers=4, cluster=paper_cluster(machines=1))
        ).run()
        r8 = DistributedRunner(
            small_timing_config("ad-psgd", num_workers=8, cluster=paper_cluster(machines=2))
        ).run()
        assert r8.throughput > 1.5 * r4.throughput

    def test_deterministic(self):
        r1 = DistributedRunner(small_timing_config("asp", seed=5)).run()
        r2 = DistributedRunner(small_timing_config("asp", seed=5)).run()
        assert r1.measured_time == r2.measured_time

    def test_network_bytes_recorded(self):
        result = DistributedRunner(small_timing_config("asp")).run()
        assert result.metadata["total_network_bytes"] > 0

    def test_bsp_with_more_shards_than_layers(self):
        """S > layer count leaves S − L shards empty (layerwise sharding
        cannot split a layer). Empty shards must park — not spin the
        round loop — and leaders must not wait for their replies.
        Regression: BSP at N ≥ 512 (S = N/4 > 107 ResNet-50 layers)
        used to livelock."""
        cfg = small_timing_config("bsp", num_ps_shards=128, wait_free_bp=True)
        result = DistributedRunner(cfg).run()
        assert result.throughput > 0


class TestLRSemantics:
    def test_lr_scaled_vs_local(self):
        runner = DistributedRunner(small_full_config("bsp", num_workers=4))
        rt = runner.runtime
        assert rt.lr() == pytest.approx(4 * rt.lr_local())
