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

from repro.experiments.artefact import Artefact
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
        cli=("model", "bandwidth", "iters"),
    ),
}
