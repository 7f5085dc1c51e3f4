"""Table II / Fig 1 / Table IV — model accuracy experiments.

Table II: final top-1 accuracy of all seven algorithms at 24 workers
with the authors' hyperparameters. Fig 1 reuses the same runs and
plots the first seed's top-1 *error* trajectories against epochs (a)
and wall time (b). Table IV compares BSP/ASP/SSP with and without DGC.
"""

from __future__ import annotations

from repro.analysis.ascii import fig1_chart
from repro.experiments.artefact import Artefact, final_accuracy
from repro.experiments.config import MINI_EPOCHS, mini_accuracy_config, mini_dgc_config

__all__ = ["ARTEFACTS", "TABLE2_ALGORITHMS", "TABLE4_CONFIGS", "PAPER_TABLE2", "PAPER_TABLE4"]

TABLE2_ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd")

# Paper reference values (Table II: ResNet-50 on ImageNet-1K, 24 workers).
PAPER_TABLE2 = {
    "bsp": 0.7511,
    "asp": 0.7459,
    "ssp": 0.6448,  # s = 10
    "easgd": 0.4528,  # tau = 8
    "ar-sgd": 0.7513,
    "gosgd": 0.3938,  # p = 0.01
    "ad-psgd": 0.7411,
}

#: Table IV rows: name -> (algorithm, hyperparameters)
TABLE4_CONFIGS = {
    "bsp": ("bsp", {}),
    "asp": ("asp", {}),
    "ssp_s3": ("ssp", {"staleness": 3}),
    "ssp_s10": ("ssp", {"staleness": 10}),
}

# Paper Table IV (DGC accuracy effect, 24 workers): (without, with).
PAPER_TABLE4 = {
    "bsp": (0.7511, 0.7505),
    "asp": (0.7459, 0.7440),
    "ssp_s3": (0.7282, 0.7295),
    "ssp_s10": (0.6448, 0.6542),
}


def _table2_config(c):
    return mini_accuracy_config(
        c.algorithm, num_workers=c.num_workers, epochs=c.epochs, fabric=c.fabric, seed=c.seed,
        algorithm_params=c.algorithm_params,
    )


def _table4_config(c):
    algorithm, params = TABLE4_CONFIGS[c.variant]
    return mini_accuracy_config(
        algorithm, num_workers=c.num_workers, epochs=c.epochs, seed=c.seed,
        algorithm_params=params, dgc=c.dgc,
        dgc_config=mini_dgc_config(c.num_workers) if c.dgc else None,
    )


_TABLE2 = dict(
    axes={"algorithm": "algorithms"},
    shape=dict(
        algorithms=TABLE2_ALGORITHMS, num_workers=24, epochs=MINI_EPOCHS, fabric="56g",
        algorithm_params=None,
    ),
    config=_table2_config,
    metric=final_accuracy,
    paper=lambda cell: PAPER_TABLE2.get(cell["algorithm"]),
    cli=("workers", "epochs"),
)

ARTEFACTS = {
    "table2": Artefact(
        "table2",
        title=(
            "Table II — final accuracy, {num_workers} workers, {epochs:g} epochs, {seeds} seed(s)"
        ),
        rows=("algorithm",),
        headers=("algorithm", "measured top-1 (mini)"),
        paper_headers=("paper top-1 (ImageNet)",),
        labels={"algorithm": str.upper},
        **_TABLE2,
    ),
    "fig1": Artefact("fig1", draw=fig1_chart, **_TABLE2),
    "table4": Artefact(
        "table4",
        title="Table IV — effect of DGC on model accuracy",
        axes={"variant": "variants", "dgc": "dgc"},
        shape=dict(
            variants=tuple(TABLE4_CONFIGS), dgc=(False, True), num_workers=24, epochs=MINI_EPOCHS
        ),
        config=_table4_config,
        metric=final_accuracy,
        paper=lambda cell: PAPER_TABLE4.get(cell["variant"], (None, None))[cell["dgc"]],
        rows=("variant",),
        columns="dgc",
        headers=("config",),
        paper_headers=("paper no DGC", "paper DGC"),
        labels={"dgc": {False: "no DGC (mini)", True: "DGC (mini)"}.get},
        cli=("workers", "epochs"),
    ),
}
