"""Tests for compute/communication cost models."""

import pickle

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import timing_config
from repro.nn.zoo import resnet50_profile, vgg16_profile
from repro.sim.cluster import TITAN_V
from repro.sim.costmodel import CommModel, ComputeModel

from tests.sim.test_engine_pins import result_digest


class TestComputeModel:
    def make(self, **kw):
        defaults = dict(
            profile=resnet50_profile(),
            batch_size=128,
            gpu=TITAN_V,
            num_workers=24,
            seed=0,
        )
        defaults.update(kw)
        return ComputeModel(**defaults)

    def test_base_time_formula(self):
        model = self.make()
        expected = resnet50_profile().train_flops * 128 / TITAN_V.effective_flops
        assert model.base_time == pytest.approx(expected)

    def test_resnet_iteration_in_plausible_range(self):
        """TITAN V, batch 128, fp32: a few hundred ms per iteration."""
        model = self.make()
        assert 0.1 < model.base_time < 1.5

    def test_vgg_slower_than_resnet(self):
        resnet = self.make()
        vgg = self.make(profile=vgg16_profile(), batch_size=96)
        assert vgg.base_time > resnet.base_time

    def test_speed_spread_bounds(self):
        model = self.make(speed_spread=0.05)
        assert np.all(model.speeds <= 1.0)
        assert np.all(model.speeds >= 0.95)

    def test_persistent_straggler_identity(self):
        """The same worker stays slow: its mean iteration time is fixed."""
        model = self.make(speed_spread=0.05, jitter_sigma=0.0)
        slow = int(np.argmin(model.speeds))
        fast = int(np.argmax(model.speeds))
        assert model.iteration_time(slow) > model.iteration_time(fast)
        assert model.iteration_time(slow) == pytest.approx(
            model.base_time / model.speeds[slow]
        )

    def test_paper_straggler_spread(self):
        """§VI-C: fastest vs slowest differ by up to ~5 %."""
        model = self.make(speed_spread=0.05, jitter_sigma=0.0)
        times = [model.iteration_time(w) for w in range(24)]
        assert (max(times) - min(times)) / min(times) < 0.06

    def test_jitter_varies_per_iteration(self):
        model = self.make(jitter_sigma=0.05)
        draws = {model.iteration_time(0) for _ in range(10)}
        assert len(draws) == 10

    def test_zero_jitter_deterministic(self):
        model = self.make(jitter_sigma=0.0)
        assert model.iteration_time(0) == model.iteration_time(0)

    def test_override(self):
        model = self.make(base_time_override=0.5, jitter_sigma=0.0, speed_spread=0.0)
        assert model.iteration_time(0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(batch_size=0)
        with pytest.raises(ValueError):
            self.make(speed_spread=1.5)
        with pytest.raises(ValueError):
            self.make(base_time_override=-1.0)
        model = self.make()
        with pytest.raises(ValueError):
            model.iteration_time(99)


class TestCommModel:
    def test_agg_time_linear_in_bytes(self):
        cm = CommModel(agg_seconds_per_byte=1e-9, per_message_overhead_s=1e-5)
        assert cm.agg_time(0) == pytest.approx(1e-5)
        assert cm.agg_time(10**9) == pytest.approx(1.0 + 1e-5)

    @pytest.mark.parametrize("algorithm", ["asp", "ar-sgd"])
    def test_a_run_leaves_the_configs_pickle_alone(self, algorithm):
        """The per-size caches a run fills are not pickled: a config
        ships to a pool worker at its own size, run or not."""
        cfg = timing_config(algorithm, num_workers=24, wait_free_bp=True, measure_iters=2)
        before = pickle.dumps(cfg)
        digest = result_digest(DistributedRunner(cfg).run())
        assert cfg.comm_model._timeout_cache  # the run filled them
        assert pickle.dumps(cfg) == before
        loaded = pickle.loads(before)
        assert loaded.comm_model._cache == loaded.comm_model._timeout_cache == {}
        assert loaded == cfg
        assert result_digest(DistributedRunner(loaded).run()) == digest
