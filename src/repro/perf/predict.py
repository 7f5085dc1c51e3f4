"""Prediction API: analytic fast path + cross-validation harness.

``predict_run`` turns a :class:`~repro.core.config.RunConfig` into a
:class:`Prediction` in well under 10 ms — the O(1)-ish counterpart of
``execute_run``'s discrete-event simulation, suitable for sweeping
thousands of configurations (N = 10,000 included) that the engine
cannot reach in reasonable time.

``cross_validate`` runs both paths on the same config and reports the
relative error, which is how the models' 10 %-at-N≤64 accuracy claim
is enforced (tests/perf) and how a new regime should be spot-checked
before its analytic curves are trusted.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

from repro.core.config import RunConfig
from repro.core.history import ThroughputResult
from repro.core.runner import execute_run, timing_profile
from repro.perf.models import PerfEstimate, estimate_iteration
from repro.sim.costmodel import base_iteration_time

__all__ = ["Prediction", "predict_run", "prediction_to_result", "cross_validate", "CrossValidation"]


@dataclass
class Prediction:
    """Analytic timing estimate for one configuration."""

    algorithm: str
    num_workers: int
    model: str
    bandwidth_gbps: float
    batch_size: int
    iteration_time: float  # mean seconds per worker iteration
    throughput: float  # images/s, cluster aggregate
    speedup: float  # vs the ideal single-worker throughput
    regime: str
    breakdown: dict[str, float]  # seconds by category along the iteration
    bounds: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0  # wall time spent producing this prediction


def ideal_single_worker_throughput(config: RunConfig) -> float:
    """Images/s of one jitter-free full-speed worker with no
    communication: the paper's normalisation baseline ("the throughput
    of a single worker", Fig 2)."""
    base = base_iteration_time(
        timing_profile(config.profile_name),
        config.batch_size,
        config.cluster.machine.gpu,
        config.compute_time_override,
    )
    return config.batch_size / base


def predict_run(config: RunConfig, *, strict: bool = False) -> Prediction:
    """Analytic fast-path counterpart of ``execute_run`` (timing mode).

    The closed-form models assume a fault-free run; a configured
    :class:`~repro.faults.FaultConfig` cannot be honoured analytically.
    Rather than silently predicting the wrong thing, a faulted config
    warns and is predicted *as if fault-free* (default), or raises
    (``strict=True``).
    """
    if config.faults is not None:
        msg = (
            "predict_run ignores config.faults: the analytic models assume a "
            "fault-free run — use execute_run to simulate fault schedules"
        )
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
        config = dataclasses.replace(config, faults=None)
    t0 = time.perf_counter()
    est: PerfEstimate = estimate_iteration(config)
    baseline = ideal_single_worker_throughput(config)
    elapsed = time.perf_counter() - t0
    return Prediction(
        algorithm=est.algorithm,
        num_workers=config.num_workers,
        model=config.profile_name,
        bandwidth_gbps=config.cluster.network_bandwidth_gbps,
        batch_size=config.batch_size,
        iteration_time=est.round_time / config.num_workers
        if est.round_time and config.num_workers
        else est.round_time,
        throughput=est.throughput,
        speedup=est.throughput / baseline if baseline else 0.0,
        regime=est.regime,
        breakdown=est.breakdown,
        bounds=est.bounds,
        elapsed_s=elapsed,
    )


def prediction_to_result(prediction: Prediction, config: RunConfig) -> ThroughputResult:
    """Shape a prediction like an engine measurement so downstream
    analysis (speedup series, crossover detection, plots) is reusable.

    The synthetic measurement window covers ``measure_iters`` rounds at
    the predicted rate; ``metadata['analytic']`` marks the provenance.
    """
    measured_images = config.measure_iters * config.num_workers * config.batch_size
    measured_time = (
        measured_images / prediction.throughput if prediction.throughput else 0.0
    )
    return ThroughputResult(
        algorithm=prediction.algorithm,
        num_workers=prediction.num_workers,
        model=prediction.model,
        bandwidth_gbps=prediction.bandwidth_gbps,
        iterations_per_worker=config.measure_iters,
        batch_size=prediction.batch_size,
        measured_time=measured_time,
        measured_images=measured_images,
        breakdown=prediction.breakdown,
        metadata={"analytic": True, "regime": prediction.regime},
    )


@dataclass
class CrossValidation:
    """Analytic vs discrete-event comparison for one config."""

    prediction: Prediction
    simulated: ThroughputResult
    predict_seconds: float
    simulate_seconds: float

    @property
    def rel_error(self) -> float:
        """(analytic − simulated) / simulated throughput."""
        sim = self.simulated.throughput
        if sim == 0:
            return float("inf")
        return (self.prediction.throughput - sim) / sim

    @property
    def speedup_vs_engine(self) -> float:
        if self.predict_seconds <= 0:
            return float("inf")
        return self.simulate_seconds / self.predict_seconds

    def to_dict(self) -> dict:
        """The ``--output`` record, with the derived error; ``save_json``
        encodes the prediction it holds."""
        return {
            "prediction": self.prediction,
            "simulated_throughput": self.simulated.throughput,
            "rel_error": self.rel_error,
            "predict_seconds": self.predict_seconds,
            "simulate_seconds": self.simulate_seconds,
        }


def cross_validate(config: RunConfig, *, max_events: int = 50_000_000) -> CrossValidation:
    """Run both the analytic model and the engine on ``config``."""
    t0 = time.perf_counter()
    prediction = predict_run(config)
    t_predict = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulated = execute_run(config, max_events=max_events)
    t_sim = time.perf_counter() - t0
    if not isinstance(simulated, ThroughputResult):
        raise TypeError("cross_validate requires a timing-mode config")
    return CrossValidation(
        prediction=prediction,
        simulated=simulated,
        predict_seconds=t_predict,
        simulate_seconds=t_sim,
    )
