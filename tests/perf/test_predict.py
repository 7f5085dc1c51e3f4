"""Analytic fast path: accuracy (vs the engine) and speed contracts.

The headline claim (ISSUE 9 / EXPERIMENTS.md) is that ``predict_run``
agrees with discrete-event throughput within 10 % at N ≤ 64 for all
seven algorithms at fig-2 settings, and evaluates any single config in
well under 10 ms — including N = 10,000. The property test here draws
a deterministic random sample of small configs (algorithm × workers ×
bandwidth × seed) and enforces the tolerance through the same
``cross_validate`` harness users are told to trust; the full 126-point
calibration grid lives in benchmarks/bench_scale.py.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import PAPER_HYPERPARAMS, timing_config
from repro.experiments.scalability import scale_worker_counts
from repro.perf import (
    SUPPORTED_ALGORITHMS,
    cross_validate,
    expected_max_lognormal,
    models,
    predict_run,
    prediction_to_result,
)
from repro.perf.models import build_inputs, estimate_iteration
from repro.perf.predict import ideal_single_worker_throughput
from repro.sim.cluster import hierarchical_cluster

TOLERANCE = 0.10


def fig2_config(algorithm: str, num_workers: int, bandwidth: float, seed: int = 0):
    """The settings the models are calibrated at (fig-2 protocol)."""
    return timing_config(
        algorithm,
        num_workers=num_workers,
        bandwidth_gbps=bandwidth,
        measure_iters=20,
        wait_free_bp=algorithm in ("bsp", "asp", "ssp"),
        seed=seed,
    )


def sample_configs(count: int = 10):
    """Deterministic random sample over the calibrated envelope."""
    rng = random.Random(0)
    cases = []
    for _ in range(count):
        cases.append(
            (
                rng.choice(list(SUPPORTED_ALGORITHMS)),
                rng.choice([1, 2, 4, 8, 16, 24]),
                rng.choice([10.0, 56.0]),
                rng.choice([0, 1, 2]),
            )
        )
    return cases


@pytest.mark.parametrize("algorithm,num_workers,bandwidth,seed", sample_configs())
def test_prediction_within_tolerance_of_engine(
    algorithm: str, num_workers: int, bandwidth: float, seed: int
):
    cv = cross_validate(fig2_config(algorithm, num_workers, bandwidth, seed))
    assert abs(cv.rel_error) <= TOLERANCE, (
        f"{algorithm} N={num_workers} {bandwidth:g}G seed={seed}: analytic "
        f"{cv.prediction.throughput:.1f} vs simulated "
        f"{cv.simulated.throughput:.1f} images/s "
        f"({cv.rel_error * 100:+.1f}% > ±{TOLERANCE * 100:.0f}%)"
    )


def _tree_point(num_workers, bandwidth, error, machines_per_rack=None):
    """One BSP ``ps_topology="tree"`` point; a measured ``error`` beyond
    the tolerance marks it as the known defect it is."""
    marks = ()
    if error:
        marks = pytest.mark.xfail(strict=True, reason=f"tree predictor off by {error}")
    return pytest.param(num_workers, bandwidth, machines_per_rack, marks=marks)


@pytest.mark.parametrize(
    "num_workers,bandwidth,machines_per_rack",
    [
        _tree_point(4, 10.0, None),
        _tree_point(4, 56.0, None),
        _tree_point(8, 10.0, None),
        _tree_point(8, 56.0, None),
        _tree_point(16, 10.0, None),
        _tree_point(16, 56.0, None),
        _tree_point(24, 10.0, None),
        _tree_point(24, 56.0, "+14.0 … +15.5 % (seeds 0–2)"),
        # Leaf/spine fabrics, wait-free off; flat BSP stays within
        # 6.5 % at N = 64 and 11.4 % at N = 256 on the same fabrics.
        _tree_point(64, 56.0, "+29.6 %", machines_per_rack=4),
        _tree_point(64, 56.0, "+78.5 %", machines_per_rack=16),
        _tree_point(256, 56.0, "+97.2 %", machines_per_rack=16),
    ],
)
def test_bsp_tree_prediction_within_tolerance_of_engine(
    num_workers: int, bandwidth: float, machines_per_rack: int | None
):
    fabric = {}
    if machines_per_rack is not None:
        fabric["cluster"] = hierarchical_cluster(
            machines=num_workers // 4,
            machines_per_rack=machines_per_rack,
            oversubscription=4,
            bandwidth_gbps=bandwidth,
        )
    cfg = timing_config(
        "bsp",
        num_workers=num_workers,
        bandwidth_gbps=bandwidth,
        measure_iters=20,
        wait_free_bp=machines_per_rack is None,
        ps_topology="tree",
        **fabric,
    )
    cv = cross_validate(cfg)
    assert abs(cv.rel_error) <= TOLERANCE, f"{cv.rel_error * 100:+.1f}%"


class TestIdealThroughput:
    def test_resnet_plausible(self):
        tput = ideal_single_worker_throughput(timing_config("bsp", num_workers=1))
        # TITAN V, fp32, batch 128: low hundreds of images/second.
        assert 100 < tput < 600

    def test_vgg_slower_than_resnet(self):
        resnet = ideal_single_worker_throughput(timing_config("bsp", num_workers=1))
        vgg = ideal_single_worker_throughput(
            timing_config("bsp", num_workers=1, model="vgg16")
        )
        assert vgg < resnet / 2


@pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
def test_predict_reaches_ten_thousand_workers(algorithm: str):
    """The whole point: sane, finite output at N = 10,000, quickly."""
    cfg = fig2_config(algorithm, 10_000, 56.0)
    t0 = time.perf_counter()
    pred = predict_run(cfg)
    elapsed = time.perf_counter() - t0
    assert pred.throughput > 0
    assert pred.iteration_time > 0
    assert 0 < pred.speedup <= 10_000
    assert pred.regime
    # <10 ms is the calibrated-machine budget; allow slack for loaded
    # CI boxes while still catching a fall back to O(N·S) behaviour.
    assert elapsed < 0.25, f"predict_run took {elapsed * 1e3:.1f} ms"


def test_prediction_to_result_is_engine_shaped():
    cfg = fig2_config("bsp", 8, 10.0)
    pred = predict_run(cfg)
    res = prediction_to_result(pred, cfg)
    assert res.algorithm == "bsp"
    assert res.num_workers == 8
    assert res.metadata["analytic"] is True
    # throughput must round-trip through the synthetic window
    assert res.throughput == pytest.approx(pred.throughput, rel=1e-9)
    assert set(res.breakdown) == set(pred.breakdown)


def test_predictions_are_deterministic():
    cfg = fig2_config("asp", 16, 10.0)
    a, b = predict_run(cfg), predict_run(cfg)
    assert a.throughput == b.throughput
    assert a.breakdown == b.breakdown
    assert a.bounds == b.bounds


def test_speedup_monotone_in_bandwidth():
    """More bandwidth can only help at fixed N (throughput-bound regimes)."""
    for algo in ("bsp", "asp", "ar-sgd"):
        slow = predict_run(fig2_config(algo, 24, 10.0)).throughput
        fast = predict_run(fig2_config(algo, 24, 56.0)).throughput
        assert fast >= slow * 0.999, f"{algo}: 56G {fast:.0f} < 10G {slow:.0f}"


def test_scale_worker_counts_ladder():
    assert scale_worker_counts(24) == (1, 2, 4, 8, 16, 24)
    ladder = scale_worker_counts(10_000)
    assert ladder[0] == 1
    assert ladder[-1] == 10_000
    assert ladder == tuple(sorted(set(ladder)))
    # roughly-doubling keeps curves to 10k around a dozen points
    assert len(ladder) <= 16


def test_expected_max_lognormal_properties():
    import numpy as np

    one = expected_max_lognormal(np.ones(1), 0.05)
    assert one == pytest.approx(1.0, rel=1e-2)
    many = [expected_max_lognormal(np.ones(n), 0.05) for n in (1, 2, 8, 64, 1024)]
    assert all(b >= a for a, b in zip(many, many[1:]))  # monotone in n
    assert expected_max_lognormal(np.ones(64), 0.0) == pytest.approx(1.0, rel=1e-6)
    # the barrier is never shorter than the slowest mean
    assert expected_max_lognormal(np.array([1.0, 3.0]), 0.05) >= 3.0


def sweep_ops_ladder():
    """The ledger's ``sweep_ops`` predict ladder: 224 configs, 16 worker sets."""
    return [
        timing_config(algo, num_workers=workers, bandwidth_gbps=bandwidth, seed=0)
        for algo in PAPER_HYPERPARAMS
        for bandwidth in (10.0, 56.0)
        for workers in scale_worker_counts(10_000)
    ]


def test_trapezoid_is_numpys_on_the_ladder(monkeypatch):
    """The barrier integral equals the installed ``np.trapezoid`` bit for
    bit on every worker set of the ladder."""
    integrals = []

    def checked(y, x):
        value = original(y, x)
        assert value == float(np.trapezoid(y, x))
        integrals.append(value)
        return value

    original = models._trapezoid
    monkeypatch.setattr(models, "_trapezoid", checked)
    models._expected_max.cache_clear()
    for cfg in sweep_ops_ladder():
        build_inputs(cfg)
    assert len(integrals) == len(scale_worker_counts(10_000)) == 16


def test_barrier_memo_changes_no_estimate():
    def summary(est):
        return est.throughput, est.round_time, est.regime, est.bounds

    ladder = sweep_ops_ladder()
    cold = []
    for cfg in ladder:
        models._expected_max.cache_clear()
        cold.append(summary(estimate_iteration(cfg)))
    models._expected_max.cache_clear()
    warm = [summary(estimate_iteration(cfg)) for cfg in ladder]
    assert warm == cold
    info = models._expected_max.cache_info()
    assert info.misses == 16 and info.hits == len(ladder) - 16
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for n in range(2 * info.maxsize):
        expected_max_lognormal(np.full(n + 1, 0.1), 0.05)
    assert models._expected_max.cache_info().currsize == info.maxsize


@pytest.mark.parametrize("num_workers", [1, 3, 4, 9, 24, 10_000])
def test_workers_per_machine_matches_the_loop(num_workers: int):
    """``build_inputs`` fills ``gm`` with array arithmetic; the loop it
    replaced is the reference."""
    cfg = timing_config("ar-sgd", num_workers=num_workers)
    mi = build_inputs(cfg)
    g = cfg.cluster.machine.gpus
    reference = np.zeros(cfg.cluster.machines, dtype=np.int64)
    for m in range(mi.L):
        reference[m] = min(g, num_workers - m * g)
    assert mi.gm.dtype == reference.dtype
    assert np.array_equal(mi.gm, reference)
    assert mi.gm.sum() == num_workers and mi.g == reference.max()


def test_prediction_and_engine_read_the_same_plan_objects():
    cfg = fig2_config("bsp", 8, 10.0)
    mi = build_inputs(cfg)
    runtime = DistributedRunner(cfg).runtime
    assert mi.profile is runtime.profile
    assert mi.sharding is runtime.sharding
    assert mi.plan is runtime.comm_plan
