"""Fig 2 / Fig 3 — throughput scalability and time breakdown.

Fig 2: speedup (vs one communication-free worker) of BSP, ASP, SSP,
AR-SGD and AD-PSGD for 1–24 workers, on 10 and 56 Gbps, for ResNet-50
and VGG-16 (parameter sharding and wait-free BP enabled where
applicable, as in the paper's protocol).

Fig 3: the per-iteration breakdown (compute / local agg / global agg /
comm) of the same configurations at 24 workers.
"""

from __future__ import annotations

from repro.analysis.ascii import fig2_chart
from repro.analysis.breakdown import breakdown_table, normalize_breakdown
from repro.core.config import PROFILES
from repro.experiments.artefact import Artefact
from repro.experiments.config import timing_config
from repro.sim.cluster import TITAN_V

__all__ = ["ARTEFACTS", "Analytic", "FIG2_ALGORITHMS", "WAITFREE_ALGORITHMS", "scale_worker_counts"]

# EASGD and GoSGD are excluded "because they incur a substantial model
# accuracy loss" (§VI-C).
FIG2_ALGORITHMS = ("bsp", "asp", "ssp", "ar-sgd", "ad-psgd")

# Wait-free BP overlap: the paper's AR-SGD uses standard (blocking)
# MPICH AllReduce, so per-layer overlap applies to the PS-based
# gradient senders only.
WAITFREE_ALGORITHMS = ("bsp", "asp", "ssp")


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


class Analytic:
    """Stands in for the sweep executor: each config is evaluated with
    the closed-form models of :mod:`repro.perf` instead of the
    discrete-event engine (milliseconds per cell instead of minutes at
    large N) — with ``max_workers``, how the fig2 curves reach
    N = 10,000."""

    @staticmethod
    def map(configs: list) -> list:
        from repro.perf.predict import predict_run, prediction_to_result

        return [prediction_to_result(predict_run(cfg), cfg) for cfg in configs]


def _fig2_config(c):
    return timing_config(
        c.algorithm, num_workers=c.workers, bandwidth_gbps=c.bandwidth, model=c.model,
        measure_iters=c.measure_iters, seed=c.seed,
        wait_free_bp=c.with_optimizations and c.algorithm in WAITFREE_ALGORITHMS,
    )


def _speedup(result, config, base) -> float:
    """Throughput over one communication-free worker's at the config's
    batch size (the paper's normalisation)."""
    from repro.analysis.scalability import ideal_single_worker_throughput

    profile = PROFILES[config.profile_name]()
    return result.throughput / ideal_single_worker_throughput(profile, config.batch_size, TITAN_V)


def _fig3_config(c):
    return timing_config(
        c.algorithm, num_workers=c.num_workers, bandwidth_gbps=c.bandwidth, model=c.model,
        measure_iters=c.measure_iters, seed=c.seed,
    )


def _fig3_table(table) -> str:
    rows = {}
    for model, bandwidth, algorithm in table.values:
        label = f"{algorithm.upper()} {model} {bandwidth:g}G"
        rows[label] = table.value(model, bandwidth, algorithm)
    return breakdown_table(rows, title="Fig 3 — time breakdown (fractions)")


ARTEFACTS = {
    "fig2": Artefact(
        "fig2",
        title="Fig 2 — {model} speedup over 1 worker @ {bandwidth:g} Gbps",
        axes={"algorithm": "algorithms", "bandwidth": "bandwidths", "workers": "worker_counts"},
        shape=dict(
            model="resnet50", algorithms=FIG2_ALGORITHMS, worker_counts=(1, 2, 4, 8, 16, 24),
            bandwidths=(10.0, 56.0), measure_iters=20, with_optimizations=True, max_workers=None,
        ),
        prepare=lambda shape: (
            {"worker_counts": scale_worker_counts(shape["max_workers"])}
            if shape["max_workers"] is not None
            else {}
        ),
        config=_fig2_config,
        metric=_speedup,
        rows=("workers",),
        columns="algorithm",
        split="bandwidth",
        headers=("# workers",),
        labels={"algorithm": str.upper},
        float_format="{:.2f}",
        notes=fig2_chart,
        cli=("model", "iters", "max_workers"),
    ),
    "fig3": Artefact(
        "fig3",
        axes={"model": "models", "bandwidth": "bandwidths", "algorithm": "algorithms"},
        shape=dict(
            algorithms=("bsp", "asp", "ssp", "ad-psgd"), models=("resnet50", "vgg16"),
            bandwidths=(10.0, 56.0), num_workers=24, measure_iters=15,
        ),
        config=_fig3_config,
        metric=lambda result, config, base: normalize_breakdown(result.breakdown),
        draw=_fig3_table,
        cli=("iters",),
    ),
}
