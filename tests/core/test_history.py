"""Tests for result containers."""

import pytest

from repro.core.history import ThroughputResult, TrainingHistory


class TestTrainingHistory:
    def make(self):
        h = TrainingHistory(algorithm="BSP", num_workers=4)
        h.record(epoch=0, time=0.0, test_accuracy=0.1, train_loss=2.3)
        h.record(epoch=1, time=10.0, test_accuracy=0.5, train_loss=1.2)
        h.record(epoch=2, time=20.0, test_accuracy=0.7, train_loss=0.8)
        return h

    def test_final_and_best(self):
        h = self.make()
        assert h.final_test_accuracy == 0.7
        h.record(epoch=3, time=30.0, test_accuracy=0.65, train_loss=0.9)
        assert h.final_test_accuracy == 0.65

    def test_error_curve(self):
        h = self.make()
        assert h.error_curve() == pytest.approx([0.9, 0.5, 0.3])

    def test_out_of_order_epochs_rejected(self):
        h = self.make()
        with pytest.raises(ValueError):
            h.record(epoch=1.5, time=40.0, test_accuracy=0.7, train_loss=0.5)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final_test_accuracy


class TestThroughputResult:
    def test_throughput(self):
        r = ThroughputResult(measured_time=2.0, measured_images=1000)
        assert r.throughput == 500.0

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            ThroughputResult().throughput
