"""Fig 4 — cumulative effect of the three optimizations.

The paper measures the throughput of the centralized gradient-sending
algorithms (BSP, ASP, SSP) with 8/16/24 workers while applying
parameter sharding, then +wait-free BP, then +DGC, on both models and
both fabrics.

The ladder's baseline is the *unsharded* single-PS configuration
(1 shard); "sharding" moves to the paper's profiled 1-PS-per-4-workers
ratio.
"""

from __future__ import annotations

from repro.experiments.artefact import Artefact, only
from repro.experiments.config import timing_config

__all__ = ["ARTEFACTS", "LADDER"]

#: rung label -> config overrides applied on top of the timing defaults
LADDER: dict[str, dict] = {
    "baseline": dict(num_ps_shards=1),
    "+sharding": dict(),
    "+waitfree": dict(wait_free_bp=True),
    "+dgc": dict(wait_free_bp=True, dgc=True),
}


def _fig4_config(c):
    return timing_config(
        c.algorithm, num_workers=c.workers, bandwidth_gbps=c.bandwidth_gbps, model=c.model,
        measure_iters=c.measure_iters, seed=c.seed, **LADDER[c.rung],
    )


def _gain(v, algorithm: str, rung: str) -> float:
    """A rung's throughput over the previous rung's, 24 workers."""
    previous = list(LADDER)[list(LADDER).index(rung) - 1]
    return v(algorithm, 24, rung) / v(algorithm, 24, previous)


#: §VI-D: sharding helps the async PS algorithms, wait-free BP helps
#: little, DGC is the big lever on the 10 Gbps network
FIG4_CLAIMS = {
    **only({
        "sharding gains ASP > BSP - 0.02": lambda v: (
            _gain(v, "asp", "+sharding") > _gain(v, "bsp", "+sharding") - 0.02
        ),
        "wait-free BP gains 0.85–1.5× (BSP, ASP, SSP)": lambda v: all(
            0.85 < _gain(v, a, "+waitfree") < 1.5 for a in ("bsp", "asp", "ssp")
        ),
        "DGC gains > wait-free BP's - 0.25 (BSP, ASP, SSP)": lambda v: all(
            _gain(v, a, "+dgc") > _gain(v, a, "+waitfree") - 0.25 for a in ("bsp", "asp", "ssp")
        ),
        "DGC gains ASP > 1.2×": lambda v: _gain(v, "asp", "+dgc") > 1.2,
        "DGC gains SSP > 1.1×": lambda v: _gain(v, "ssp", "+dgc") > 1.1,
        "ASP +dgc > 1.3× baseline": lambda v: (
            v("asp", 24, "+dgc") > v("asp", 24, "baseline") * 1.3
        ),
    }, model="resnet50", bandwidth_gbps=10.0),
    **only({
        "DGC gains ASP > 2×": lambda v: _gain(v, "asp", "+dgc") > 2.0,
        "DGC gains SSP > 2×": lambda v: _gain(v, "ssp", "+dgc") > 2.0,
    }, model="vgg16", bandwidth_gbps=10.0),
}

ARTEFACTS = {
    "fig4": Artefact(
        "fig4",
        title=(
            "Fig 4 — throughput (img/s) with cumulative optimizations, "
            "{model} @ {bandwidth_gbps:g} Gbps"
        ),
        axes={"algorithm": "algorithms", "workers": "worker_counts", "rung": "rungs"},
        shape=dict(
            algorithms=("bsp", "asp", "ssp"), model="resnet50", bandwidth_gbps=10.0,
            worker_counts=(8, 16, 24), rungs=tuple(LADDER), measure_iters=20,
        ),
        config=_fig4_config,
        rows=("algorithm", "workers"),
        columns="rung",
        headers=("algorithm", "# workers"),
        labels={"algorithm": str.upper},
        float_format="{:.0f}",
        claims=FIG4_CLAIMS,
        cli=("model", "bandwidth", "iters"),
    ),
}
