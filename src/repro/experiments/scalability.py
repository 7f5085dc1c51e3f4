"""Fig 2 / Fig 3 drivers — throughput scalability and time breakdown.

Fig 2: speedup (vs one communication-free worker) of BSP, ASP, SSP,
AR-SGD and AD-PSGD for 1–24 workers, on 10 and 56 Gbps, for ResNet-50
and VGG-16 (parameter sharding and wait-free BP enabled where
applicable, as in the paper's protocol).

Fig 3: the per-iteration breakdown (compute / local agg / global agg /
comm) of the same configurations at 24 workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.breakdown import breakdown_table, normalize_breakdown
from repro.analysis.scalability import ideal_single_worker_throughput
from repro.analysis.tables import format_table
from repro.core.base import is_centralized
from repro.core.history import ThroughputResult
from repro.core.runner import PROFILES
from repro.experiments.config import timing_config
from repro.experiments.executor import SweepExecutor, default_executor
from repro.sim.cluster import TITAN_V

__all__ = [
    "ScalabilityResult",
    "run_fig2",
    "BreakdownResult",
    "run_fig3",
    "FIG2_ALGORITHMS",
    "scale_worker_counts",
]

# EASGD and GoSGD are excluded "because they incur a substantial model
# accuracy loss" (§VI-C).
FIG2_ALGORITHMS = ("bsp", "asp", "ssp", "ar-sgd", "ad-psgd")


def scale_worker_counts(max_workers: int) -> tuple[int, ...]:
    """Fig-2 worker ladder extended to ``max_workers``: the paper's
    counts below 24, then roughly-doubling steps, ending exactly at
    ``max_workers`` (so curves to N = 10,000 stay a dozen points)."""
    ladder = [1, 2, 4, 8, 16, 24]
    n = 32
    while n < max_workers:
        ladder.append(n)
        n *= 2
    ladder.append(max_workers)
    return tuple(sorted({c for c in ladder if c <= max_workers}))


def _supports(algo: str, what: str) -> bool:
    if what == "sharding":
        return is_centralized(algo)
    # Wait-free BP overlap: the paper's AR-SGD uses standard (blocking)
    # MPICH AllReduce, so per-layer overlap applies to the PS-based
    # gradient senders only.
    return algo in ("bsp", "asp", "ssp")


@dataclass
class ScalabilityResult:
    """speedup[algorithm][(bandwidth, num_workers)] plus raw results."""

    model: str
    worker_counts: tuple[int, ...]
    bandwidths: tuple[float, ...]
    baseline_throughput: float = 0.0
    speedup: dict[str, dict[tuple[float, int], float]] = field(default_factory=dict)
    raw: dict[str, dict[tuple[float, int], ThroughputResult]] = field(default_factory=dict)

    def series(self, algorithm: str, bandwidth: float) -> list[tuple[int, float]]:
        return sorted(
            (n, s) for (bw, n), s in self.speedup[algorithm].items() if bw == bandwidth
        )

    def render(self) -> str:
        blocks = []
        for bw in self.bandwidths:
            headers = ["# workers", *(a.upper() for a in self.speedup)]
            rows = [
                [n, *(self.speedup[a][(bw, n)] for a in self.speedup)]
                for n in self.worker_counts
            ]
            blocks.append(
                format_table(
                    headers,
                    rows,
                    title=f"Fig 2 — {self.model} speedup over 1 worker @ {bw:g} Gbps",
                    float_format="{:.2f}",
                )
            )
        return "\n\n".join(blocks)


def run_fig2(
    *,
    model: str = "resnet50",
    algorithms=FIG2_ALGORITHMS,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24),
    bandwidths: tuple[float, ...] = (10.0, 56.0),
    measure_iters: int = 20,
    with_optimizations: bool = True,
    seed: int = 0,
    executor: SweepExecutor | None = None,
    analytic: bool = False,
    max_workers: int | None = None,
) -> ScalabilityResult:
    """Run the Fig 2 protocol.

    ``with_optimizations`` applies the two accuracy-neutral techniques
    (sharding + wait-free BP) where each algorithm supports them, as
    the paper does for this experiment. The whole grid is submitted
    through the sweep ``executor`` (parallel + cached when configured).

    ``analytic=True`` swaps the discrete-event engine for the closed-form
    models of :mod:`repro.perf` (milliseconds per cell instead of
    minutes at large N); ``max_workers`` extends the worker ladder past
    the paper's 24 (see :func:`scale_worker_counts`) — the combination
    is how the fig2 curves reach N = 10,000.
    """
    if max_workers is not None:
        worker_counts = scale_worker_counts(max_workers)
    executor = executor or default_executor()
    profile = PROFILES[model]()
    batch = 128 if model == "resnet50" else 96
    baseline = ideal_single_worker_throughput(profile, batch, TITAN_V)
    result = ScalabilityResult(
        model=model,
        worker_counts=tuple(worker_counts),
        bandwidths=tuple(bandwidths),
        baseline_throughput=baseline,
    )
    cells = [
        (algo, bw, n)
        for algo in algorithms
        for bw in bandwidths
        for n in worker_counts
    ]
    configs = [
        timing_config(
            algo,
            num_workers=n,
            bandwidth_gbps=bw,
            model=model,
            measure_iters=measure_iters,
            wait_free_bp=with_optimizations and _supports(algo, "waitfree"),
            seed=seed,
        )
        for algo, bw, n in cells
    ]
    for algo in algorithms:
        result.speedup[algo] = {}
        result.raw[algo] = {}
    if analytic:
        from repro.perf.predict import predict_run, prediction_to_result

        measurements = [prediction_to_result(predict_run(cfg), cfg) for cfg in configs]
    else:
        measurements = executor.map(configs)
    for (algo, bw, n), res in zip(cells, measurements):
        result.raw[algo][(bw, n)] = res
        result.speedup[algo][(bw, n)] = res.throughput / baseline
    return result


@dataclass
class BreakdownResult:
    """Fig 3: normalised breakdown per (algorithm, model, bandwidth)."""

    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        return breakdown_table(self.rows, title="Fig 3 — time breakdown (fractions)")


def run_fig3(
    *,
    algorithms=("bsp", "asp", "ssp", "ad-psgd"),
    models: tuple[str, ...] = ("resnet50", "vgg16"),
    bandwidths: tuple[float, ...] = (10.0, 56.0),
    num_workers: int = 24,
    measure_iters: int = 15,
    seed: int = 0,
    executor: SweepExecutor | None = None,
) -> BreakdownResult:
    """Run the Fig 3 protocol: breakdowns at full cluster scale."""
    executor = executor or default_executor()
    result = BreakdownResult()
    cells = [
        (model, bw, algo)
        for model in models
        for bw in bandwidths
        for algo in algorithms
    ]
    configs = [
        timing_config(
            algo,
            num_workers=num_workers,
            bandwidth_gbps=bw,
            model=model,
            measure_iters=measure_iters,
            seed=seed,
        )
        for model, bw, algo in cells
    ]
    for (model, bw, algo), res in zip(cells, executor.map(configs)):
        key = f"{algo.upper()} {model} {bw:g}G"
        result.rows[key] = normalize_breakdown(res.breakdown)
    return result
