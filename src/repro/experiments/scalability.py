"""Fig 2 / Fig 3 — throughput scalability and time breakdown.

Fig 2: speedup (vs one communication-free worker) of BSP, ASP, SSP,
AR-SGD and AD-PSGD for 1–24 workers, on 10 and 56 Gbps, for ResNet-50
and VGG-16 (parameter sharding and wait-free BP enabled where
applicable, as in the paper's protocol).

Fig 3: the per-iteration breakdown (compute / local agg / global agg /
comm) of the same configurations at 24 workers.
"""

from __future__ import annotations

import itertools

from repro.analysis.ascii import fig2_chart
from repro.analysis.breakdown import breakdown_table, normalize_breakdown
from repro.experiments.artefact import Artefact, only
from repro.experiments.config import timing_config

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
    from repro.perf.predict import ideal_single_worker_throughput

    return result.throughput / ideal_single_worker_throughput(config)


def _gain(v, *algorithms: str) -> float:
    """The largest speedup gain from 10 to 56 Gbps among ``algorithms``, 24 workers."""
    return max(v(a, 56.0, 24) / v(a, 10.0, 24) for a in algorithms)


def _beats(v, a: str, b: str) -> bool:
    return all(v(a, bw, 24) > v(b, bw, 24) for bw in (10.0, 56.0))


#: §VI-C: on ResNet-50 the PS bottleneck inverts ASP vs BSP at 10 Gbps
#: and AD-PSGD scales near-linearly; on VGG-16 the centralized async
#: algorithms collapse at 10 Gbps and the decentralized ones beat them
FIG2_CLAIMS = {
    "ASP < BSP @ 10G, N=24": lambda v: v("asp", 10.0, 24) < v("bsp", 10.0, 24),
    **only({
        "monotone in N @ 10G (steps ≥ 0.95×)": lambda v: all(
            v(a, 10.0, m) >= v(a, 10.0, n) * 0.95
            for a in v.shape["algorithms"]
            for n, m in itertools.pairwise(v.shape["worker_counts"])
        ),
        "BSP, AR-SGD gain < 1.55× from 56G": lambda v: _gain(v, "bsp", "ar-sgd") < 1.55,
        "ASP gains > 1.4× from 56G": lambda v: _gain(v, "asp") > 1.4,
        "ASP gains more from 56G than BSP, AR-SGD": lambda v: (
            _gain(v, "asp") > _gain(v, "bsp", "ar-sgd")
        ),
        "ASP > BSP @ 56G, N=24": lambda v: v("asp", 56.0, 24) > v("bsp", 56.0, 24),
        "AD-PSGD > 0.8 × 24 @ 10G": lambda v: v("ad-psgd", 10.0, 24) > 0.8 * 24,
        "AD-PSGD @ 10G ≥ BSP @ any bandwidth, N=24": lambda v: (
            v("ad-psgd", 10.0, 24) >= max(v("bsp", bw, 24) for bw in v.shape["bandwidths"])
        ),
    }, model="resnet50"),
    **only({
        "ASP < 8 @ 10G, N=24": lambda v: v("asp", 10.0, 24) < 8,
        "SSP < 8 @ 10G, N=24": lambda v: v("ssp", 10.0, 24) < 8,
        "SSP < BSP @ 10G, N=24": lambda v: v("ssp", 10.0, 24) < v("bsp", 10.0, 24),
        "AR-SGD > ASP @ 10G and 56G, N=24": lambda v: _beats(v, "ar-sgd", "asp"),
        "AD-PSGD > SSP @ 10G and 56G, N=24": lambda v: _beats(v, "ad-psgd", "ssp"),
    }, model="vgg16"),
}


def _fig3_config(c):
    return timing_config(
        c.algorithm, num_workers=c.num_workers, bandwidth_gbps=c.bandwidth, model=c.model,
        measure_iters=c.measure_iters, seed=c.seed,
    )


def _r(v, algorithm: str, *phases: str, bw: float = 10.0) -> float:
    """The share of ``phases`` in ``algorithm``'s ResNet-50 iteration."""
    return sum(v("resnet50", bw, algorithm)[phase] for phase in phases)


#: §VI-C: ResNet-50 @ 10 Gbps — BSP spends its time aggregating, ASP and
#: SSP on the network; VGG-16 moves time out of compute
FIG3_CLAIMS = {
    "BSP compute < 0.62": lambda v: _r(v, "bsp", "compute") < 0.62,
    "BSP local + global agg > 0.2": lambda v: _r(v, "bsp", "local_agg", "global_agg") > 0.2,
    "ASP comm > 0.5": lambda v: _r(v, "asp", "comm") > 0.5,
    "SSP comm > 0.4": lambda v: _r(v, "ssp", "comm") > 0.4,
    "SSP comm > global agg": lambda v: _r(v, "ssp", "comm") > _r(v, "ssp", "global_agg"),
    "56G cuts ASP's comm more than BSP's": lambda v: (
        _r(v, "asp", "comm") - _r(v, "asp", "comm", bw=56.0)
        > _r(v, "bsp", "comm") - _r(v, "bsp", "comm", bw=56.0)
    ),
    "VGG-16 compute < ResNet-50's (BSP, ASP, SSP)": lambda v: all(
        v("vgg16", 10.0, a)["compute"] < _r(v, a, "compute") for a in ("bsp", "asp", "ssp")
    ),
}


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
        claims=FIG2_CLAIMS,
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
        claims=FIG3_CLAIMS,
        cli=("iters",),
    ),
}
