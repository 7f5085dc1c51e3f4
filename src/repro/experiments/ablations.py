"""Ablation studies beyond the paper's figures (DESIGN.md §7).

Three ablations that probe the *design choices* the paper's analysis
calls out:

* ``sharding`` — layer-wise vs fine-grained (element-balanced)
  sharding on VGG-16. The paper's conclusion: "fine-grained sharding
  for parallel parameter aggregation is necessary for large DNN models
  such as VGG-16" — this ablation measures how much it would have
  bought.
* ``stragglers`` — synchronous vs asynchronous sensitivity to
  compute-time variance. The paper attributes BSP's waiting to a ~5 %
  fastest-to-slowest spread; this sweeps the spread and shows the
  asynchronous algorithms' immunity.
* ``ps-ratio`` — the PS:worker ratio profiling of §VI-D (the paper
  tested 1:4, 2:4 and 4:4 per VM and picked the optimum empirically).
"""

from __future__ import annotations

from repro.core.config import PROFILES
from repro.experiments.artefact import Artefact
from repro.experiments.config import timing_config
from repro.optimizations.sharding import make_sharding_plan

__all__ = ["ARTEFACTS"]


def _timing(c, **overrides):
    return timing_config(
        c.algorithm, num_workers=c.num_workers, bandwidth_gbps=c.bandwidth_gbps,
        measure_iters=c.measure_iters, seed=c.seed, **overrides,
    )


def _sharding_metric(result, config, base) -> dict[str, float]:
    # The plan is a pure function of (profile, shards, strategy), so it
    # can be derived without touching the runner.
    plan = make_sharding_plan(
        PROFILES[config.profile_name](), config.num_ps_shards, strategy=config.sharding_strategy
    )
    return {
        "throughput (img/s)": result.throughput,
        "max shard fraction": plan.max_shard_fraction(),
    }


def _ps_shards(c) -> int:
    """``ratio`` PS shards per 4-GPU VM (§VI-D)."""
    return c.ratio * max(1, (c.num_workers + 3) // 4)


ARTEFACTS = {
    "sharding": Artefact(
        "sharding",
        title=lambda s: (
            f"Ablation — sharding strategy, {s['algorithm'].upper()} / "
            f"{s['model']} @ {s['bandwidth_gbps']:g} Gbps, {s['num_workers']} workers"
        ),
        axes={"strategy": "strategies"},
        shape=dict(
            algorithm="asp", model="vgg16", bandwidth_gbps=56.0, num_workers=24, measure_iters=10,
            strategies=("layerwise-rr", "layerwise-greedy", "element-balanced"),
        ),
        config=lambda c: _timing(c, model=c.model, sharding_strategy=c.strategy),
        metric=_sharding_metric,
        rows=("strategy",),
        headers=("sharding strategy", "throughput (img/s)", "max shard fraction"),
        float_format="{:.2f}",
    ),
    "stragglers": Artefact(
        "stragglers",
        title="Ablation — straggler sensitivity ({num_workers} workers, img/s)",
        axes={"algorithm": "algorithms", "spread": "spreads"},
        shape=dict(
            algorithms=("bsp", "asp", "ad-psgd"), spreads=(0.0, 0.05, 0.2, 0.4), num_workers=16,
            bandwidth_gbps=56.0, measure_iters=10,
        ),
        config=lambda c: _timing(c, speed_spread=c.spread),
        rows=("spread",),
        columns="algorithm",
        headers=("speed spread",),
        labels={"algorithm": str.upper, "spread": "{:.0%}".format},
        float_format="{:.0f}",
        sort=True,
    ),
    "ps-ratio": Artefact(
        "ps-ratio",
        title=lambda s: (
            f"Ablation — PS:worker ratio profiling, {s['algorithm'].upper()} / "
            f"{s['model']} @ {s['bandwidth_gbps']:g} Gbps"
        ),
        axes={"ratio": "ratios"},
        shape=dict(
            algorithm="asp", model="resnet50", bandwidth_gbps=56.0, num_workers=24,
            ratios=(1, 2, 4), measure_iters=10,
        ),
        config=lambda c: _timing(c, model=c.model, num_ps_shards=_ps_shards(c)),
        rows=("ratio",),
        headers=("PS per VM : workers per VM", "throughput (img/s)"),
        labels={"ratio": "{}:4".format},
        float_format="{:.0f}",
        sort=True,
    ),
}
