"""The paper's findings (§VI), checked at the scale they were tuned at.

Each artefact states its findings as named ``claims`` beside its grid
(:mod:`repro.experiments.artefact`), and ``repro run`` prints how many
seeds each holds in. This suite runs every artefact at the shapes below
and asserts that each claim is measured there and holds; the findings
that compare two tables, read the tracer or need no run are plain
tests at the end.

    PYTHONPATH=src pytest benchmarks/test_paper_claims.py -s   # -s prints each table
"""

import functools

import pytest

from repro.analysis.tables import format_table
from repro.core.complexity import (
    COMPLEXITY_TABLE,
    communication_complexity,
    convergence_rate,
    table1_rows,
)
from repro.core.runner import DistributedRunner, RunConfig
from repro.experiments.artefact import MODULES, artefact, render, run_artefact
from repro.experiments.config import timing_config
from repro.experiments.optimizations import LADDER
from repro.sim.cluster import paper_cluster

#: table key -> (artefact, shape)
SHAPES = {
    "table2": ("table2", {}),
    "fig1": ("fig1", dict(fabric="56g")),
    "table3": ("table3", {}),
    "table4": ("table4", {}),
    "fig2-resnet50": ("fig2", dict(model="resnet50", measure_iters=12)),
    "fig2-vgg16": ("fig2", dict(model="vgg16", measure_iters=8)),
    "fig3": ("fig3", dict(measure_iters=10)),
    "fig4-resnet50-10g": ("fig4", dict(model="resnet50", bandwidth_gbps=10.0, measure_iters=12)),
    "fig4-vgg16-10g": ("fig4", dict(model="vgg16", bandwidth_gbps=10.0, measure_iters=8)),
    "fig4-resnet50-56g": ("fig4", dict(model="resnet50", bandwidth_gbps=56.0, measure_iters=12)),
    "sharding": ("sharding", {}),
    "stragglers": ("stragglers", {}),
    "ps-ratio": ("ps-ratio", {}),
}


@functools.cache
def table(key: str):
    name, shape = SHAPES[key]
    return run_artefact(artefact(name), **shape)


@pytest.mark.parametrize("key", list(SHAPES))
def test_claims_hold(key):
    t = table(key)
    print("\n" + render(t))
    failing = {name: seeds for name, seeds in t.claims().items() if not all(seeds)}
    assert not failing, f"{key}: claims not holding in every seed: {failing}"


def test_every_claim_is_checked():
    """No claim goes unmeasured at every shape above (a typo in a cell
    or a shape condition no table meets would leave it out silently)."""
    for name in {name for names in MODULES.values() for name in names}:
        keys = [key for key, (art, _) in SHAPES.items() if art == name]
        measured = {claim for key in keys for claim in table(key).claims()}
        assert measured == set(artefact(name).claims), name


# -- findings across two tables ------------------------------------------


def test_fig2_vgg16_scales_worse_than_resnet50():
    # AD-PSGD's fully overlapped communication exempts it (EXPERIMENTS.md deviations).
    vgg, resnet = table("fig2-vgg16"), table("fig2-resnet50")
    for algo in ("bsp", "asp", "ssp", "ar-sgd"):
        for bw in (10.0, 56.0):
            assert vgg.value(algo, bw, 24) < resnet.value(algo, bw, 24), f"{algo}@{bw}"


def _gain(t, algorithm: str, rung: str) -> float:
    """A Fig 4 rung's throughput over the previous rung's, 24 workers."""
    previous = list(LADDER)[list(LADDER).index(rung) - 1]
    return t.value(algorithm, 24, rung) / t.value(algorithm, 24, previous)


def test_fig4_sharding_helps_resnet50_more_than_vgg16():
    # Layer-wise sharding cannot split VGG-16's fc6.
    resnet, vgg = table("fig4-resnet50-10g"), table("fig4-vgg16-10g")
    assert _gain(resnet, "asp", "+sharding") > _gain(vgg, "asp", "+sharding") - 0.05


def test_fig4_dgc_helps_more_at_10g_than_56g():
    at10, at56 = table("fig4-resnet50-10g"), table("fig4-resnet50-56g")
    assert _gain(at10, "asp", "+dgc") > _gain(at56, "asp", "+dgc") - 0.02


# -- findings that read the tracer ---------------------------------------


def test_fig3_ps_waits_within_bsp_rounds():
    """§VI-C: '70–80 % of the aggregation stages is waiting'. At the PS,
    the gap between a BSP round's first and last gradient arrival is
    pure waiting."""
    cfg = timing_config("bsp", num_workers=24, bandwidth_gbps=10, measure_iters=10)
    runner = DistributedRunner(cfg)
    runner.run()
    totals = runner.runtime.ctx.tracer.breakdown()
    print(
        f"\nPS-side waiting within BSP rounds: {totals['agg_wait']:.2f}s across shards; "
        f"worker-observed global aggregation: {totals['global_agg']:.2f}s"
    )
    assert totals["agg_wait"] > 0


# -- Table I: closed forms, and the measured traffic against them ---------


def _measured_volume_per_round(algo: str, **kw) -> tuple[float, float]:
    """(measured bytes per collective round, model bytes)."""
    defaults = dict(
        algorithm=algo,
        mode="timing",
        cluster=paper_cluster(bandwidth_gbps=56, machines=8, gpus_per_machine=1),
        num_workers=8,
        batch_size=128,
        profile_name="resnet50",
        measure_iters=20,
        warmup_iters=0,
        num_ps_shards=1,
        jitter_sigma=0.0,
        speed_spread=0.0,
        seed=0,
    )
    defaults.update(kw)
    runner = DistributedRunner(RunConfig(**defaults))
    runner.run()
    rounds = runner.runtime.sample_clock.total_iterations / 8
    return runner.runtime.ctx.network.total_bytes / rounds, runner.runtime.profile.total_bytes


def test_table1_catalogue():
    assert len(table1_rows()) == 7


def test_table1_measured_volumes():
    """The implementations' measured per-round traffic matches the
    closed forms of Table I."""
    measured = {
        "asp": _measured_volume_per_round("asp"),
        "bsp(l=1)": _measured_volume_per_round("bsp", local_aggregation=False),
        "easgd(t=4)": _measured_volume_per_round(
            "easgd", algorithm_params={"tau": 4}, measure_iters=40
        ),
        "ad-psgd": _measured_volume_per_round("ad-psgd", measure_iters=40),
        "gosgd(p=.5)": _measured_volume_per_round(
            "gosgd", algorithm_params={"p": 0.5}, measure_iters=60
        ),
    }
    checks = {
        "asp": lambda m: communication_complexity("asp", m=m, n=8),
        "bsp(l=1)": lambda m: communication_complexity("bsp", m=m, n=8, l=1),
        "easgd(t=4)": lambda m: communication_complexity("easgd", m=m, n=8, tau=4),
        "ad-psgd": lambda m: communication_complexity("ad-psgd", m=m, n=8),
        "gosgd(p=.5)": lambda m: communication_complexity("gosgd", m=m, n=8, p=0.5),
    }
    rows = []
    for name, (volume, model_bytes) in measured.items():
        expected = checks[name](model_bytes)
        rows.append([name, volume / 1e6, expected / 1e6, volume / expected])
        assert 0.7 < volume / expected < 1.3, f"{name}: {volume} vs {expected}"
    print(
        "\n"
        + format_table(
            ["algorithm", "measured MB/round", "Table I MB/round", "ratio"],
            rows,
            title="Table I cross-check — measured vs closed-form traffic (8 workers)",
            float_format="{:.2f}",
        )
    )


def test_table1_convergence_ordering():
    """SSP's bound degrades with staleness; AD-PSGD's is N-free; EASGD's
    is unproven."""
    assert convergence_rate("ssp", n=8, k=10_000, s=10) > convergence_rate(
        "ssp", n=8, k=10_000, s=3
    )
    assert convergence_rate("ad-psgd", n=8, k=100) == convergence_rate("ad-psgd", n=24, k=100)
    assert COMPLEXITY_TABLE["easgd"].convergence is None
