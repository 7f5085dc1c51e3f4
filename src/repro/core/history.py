"""Result containers for training and throughput runs.

Both round-trip through :func:`repro.io.to_jsonable` and
:func:`repro.io.from_jsonable`, which is how the sweep executor ships
results across process boundaries and stores them in its
content-addressed run cache. A history the executor returns carries
its ``RunConfig`` in ``metadata["config"]``; the cache key already
determines the config, so the executor attaches it after decoding and
it is never serialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainingHistory", "ThroughputResult"]


@dataclass
class TrainingHistory:
    """Accuracy/loss trajectory of a full-mode run.

    ``epochs[i]`` is the global epoch (total samples ÷ dataset size) at
    the i-th evaluation, ``times[i]`` the virtual wall-clock, so the
    same history yields both the epoch-wise (Fig 1a) and time-wise
    (Fig 1b) convergence curves.
    """

    algorithm: str = ""
    num_workers: int = 0
    epochs: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    total_iterations: int = 0
    total_virtual_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    def record(
        self, *, epoch: float, time: float, test_accuracy: float, train_loss: float
    ) -> None:
        if self.epochs and epoch < self.epochs[-1]:
            raise ValueError("evaluations must be recorded in epoch order")
        self.epochs.append(epoch)
        self.times.append(time)
        self.test_accuracy.append(test_accuracy)
        self.train_loss.append(train_loss)

    @property
    def final_test_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ValueError("no evaluations recorded")
        return self.test_accuracy[-1]

    def error_curve(self) -> list[float]:
        """Top-1 error per evaluation (Fig 1 plots errors)."""
        return [1.0 - acc for acc in self.test_accuracy]



@dataclass
class ThroughputResult:
    """Throughput measurement of a timing-only run.

    ``throughput`` is in images/second of simulated time, measured over
    the post-warm-up window, matching the paper's "throughput per unit
    time" metric (§VI-C).
    """

    algorithm: str = ""
    num_workers: int = 0
    model: str = ""
    bandwidth_gbps: float = 0.0
    iterations_per_worker: int = 0
    batch_size: int = 0
    measured_time: float = 0.0
    measured_images: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.measured_time <= 0:
            raise ValueError("no measured window")
        return self.measured_images / self.measured_time
