"""Tests for learning-rate schedules (the paper's recipe)."""

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import timing_config
from repro.nn.schedules import StepDecaySchedule, WarmupStepSchedule, scaled_learning_rate


class TestScalingRule:
    def test_linear_in_workers(self):
        assert scaled_learning_rate(0.05, 24) == pytest.approx(1.2)
        assert scaled_learning_rate(0.05, 1) == pytest.approx(0.05)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scaled_learning_rate(0.05, 0)
        with pytest.raises(ValueError):
            scaled_learning_rate(-1.0, 4)


class TestStepDecay:
    def test_paper_milestones(self):
        s = StepDecaySchedule(1.2, [30, 60, 80])
        assert s(0) == pytest.approx(1.2)
        assert s(29.9) == pytest.approx(1.2)
        assert s(30) == pytest.approx(0.12)
        assert s(60) == pytest.approx(0.012)
        assert s(80) == pytest.approx(0.0012)

    def test_monotone_nonincreasing(self):
        s = StepDecaySchedule(1.0, [10, 20])
        values = [s(e) for e in np.linspace(0, 30, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_unsorted_milestones_raise(self):
        with pytest.raises(ValueError):
            StepDecaySchedule(1.0, [20, 10])


class TestWarmup:
    def test_warmup_ramps_linearly(self):
        s = WarmupStepSchedule(1.0, warmup_epochs=5, milestones=[30], warmup_start_fraction=0.1)
        assert s(0) == pytest.approx(0.1)
        assert s(2.5) == pytest.approx(0.55)
        assert s(5) == pytest.approx(1.0)

    def test_warmup_must_precede_first_milestone(self):
        with pytest.raises(ValueError):
            WarmupStepSchedule(1.0, warmup_epochs=40, milestones=[30])

    def test_no_warmup(self):
        s = WarmupStepSchedule(1.0, warmup_epochs=0, milestones=[10])
        assert s(0) == pytest.approx(1.0)


class TestPaperSchedule:
    """The schedule the runner builds from ``RunConfig``'s defaults is
    the paper's: η = 0.05·n, warm-up over 5/90 of the run from the
    single-worker rate, decays at 30/90, 60/90 and 80/90."""

    @staticmethod
    def runner_schedule(num_workers: int, epochs: float):
        config = timing_config("bsp", num_workers=num_workers, epochs=epochs)
        return DistributedRunner(config).runtime.schedule

    def test_exact_paper_settings_at_90_epochs(self):
        s = self.runner_schedule(24, 90.0)
        assert s(90 * 5 / 90) == pytest.approx(0.05 * 24)  # warm-up done at epoch 5
        assert s(45) == pytest.approx(0.12)  # after first decay
        assert s(85) == pytest.approx(0.05 * 24 * 1e-3)

    def test_rescaled_run_keeps_fractions(self):
        s90 = self.runner_schedule(8, 90.0)
        s9 = self.runner_schedule(8, 9.0)
        for frac in (0.1, 0.4, 0.7, 0.95):
            assert s90(frac * 90) == pytest.approx(s9(frac * 9))

    def test_warmup_starts_at_single_worker_lr(self):
        s = self.runner_schedule(8, 90.0)
        assert s(0) == pytest.approx(0.05)  # base_lr · n / n
