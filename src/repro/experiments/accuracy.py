"""Table II / Fig 1 / Table IV — model accuracy experiments.

Table II: final top-1 accuracy of all seven algorithms at 24 workers
with the authors' hyperparameters. Fig 1 reuses the same runs and
plots the first seed's top-1 *error* trajectories against epochs (a)
and wall time (b). Table IV compares BSP/ASP/SSP with and without DGC.
"""

from __future__ import annotations

import math

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


_GOOD, _BAD = ("bsp", "ar-sgd", "asp", "ad-psgd"), ("ssp", "easgd", "gosgd")

#: §VI-A: synchronous ≈ frequent-async ≫ intermittent-async
TABLE2_CLAIMS = {
    "BSP ≈ AR-SGD (within 0.02)": lambda v: abs(v("bsp") - v("ar-sgd")) < 0.02,
    "BSP, AR-SGD lead (within 0.02)": lambda v: (
        min(v("bsp"), v("ar-sgd")) > max(map(v, v.shape["algorithms"])) - 0.02
    ),
    "ASP > min(BSP, AR-SGD) - 0.12": lambda v: v("asp") > min(v("bsp"), v("ar-sgd")) - 0.12,
    "AD-PSGD > min(BSP, AR-SGD) - 0.05": lambda v: v("ad-psgd") > min(v("bsp"), v("ar-sgd")) - 0.05,
    "SSP, EASGD, GoSGD < AD-PSGD - 0.15": lambda v: max(map(v, _BAD)) < v("ad-psgd") - 0.15,
    "BSP, AR-SGD, ASP, AD-PSGD > the rest": lambda v: min(map(v, _GOOD)) > max(map(v, _BAD)),
}


def _error(v, algorithm: str) -> float:
    return v.result(algorithm).error_curve()[-1]


def _secs_to(v, algorithm: str, error: float) -> float:
    """Virtual seconds until the run's top-1 error is ≤ ``error`` (inf: never)."""
    h = v.result(algorithm)
    return next((t for t, e in zip(h.times, h.error_curve()) if e <= error), math.inf)


def _rate(v, algorithm: str) -> float:
    h = v.result(algorithm)
    return h.total_iterations / h.total_virtual_time


#: §VI-A: (a) epoch-wise ordering; (b) ASP and AD-PSGD iterate faster, so
#: AD-PSGD reaches an early error level no later than BSP in wall time
FIG1_CLAIMS = {
    "final error BSP ≤ ASP + 0.02": lambda v: _error(v, "bsp") <= _error(v, "asp") + 0.02,
    "final error BSP ≤ AD-PSGD + 0.02": lambda v: _error(v, "bsp") <= _error(v, "ad-psgd") + 0.02,
    "final error SSP > AD-PSGD + 0.1": lambda v: _error(v, "ssp") > _error(v, "ad-psgd") + 0.1,
    "final error GoSGD > AD-PSGD + 0.1": lambda v: _error(v, "gosgd") > _error(v, "ad-psgd") + 0.1,
    "BSP, ASP, AD-PSGD reach error 0.45": lambda v: all(
        _secs_to(v, a, 0.45) < math.inf for a in ("bsp", "asp", "ad-psgd")
    ),
    "AD-PSGD reaches error 0.45 by 1.05 × BSP's time": lambda v: (
        _secs_to(v, "ad-psgd", 0.45) <= _secs_to(v, "bsp", 0.45) * 1.05
    ),
    "iterations per virtual second ASP > BSP": lambda v: _rate(v, "asp") > _rate(v, "bsp"),
    "iterations per virtual second AD-PSGD > BSP": lambda v: _rate(v, "ad-psgd") > _rate(v, "bsp"),
}

#: §VI-D: DGC is accuracy-neutral
TABLE4_CLAIMS = {
    "DGC costs < 0.12 (every config)": lambda v: all(
        v(c, True) > v(c, False) - 0.12 for c in v.shape["variants"]
    ),
    "ASP with DGC within 0.08": lambda v: abs(v("asp", True) - v("asp", False)) < 0.08,
    "SSP s=10 gains with DGC": lambda v: v("ssp_s10", True) > v("ssp_s10", False),
}

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
        claims=TABLE2_CLAIMS,
        **_TABLE2,
    ),
    "fig1": Artefact("fig1", draw=fig1_chart, claims=FIG1_CLAIMS, **_TABLE2),
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
        claims=TABLE4_CLAIMS,
        cli=("workers", "epochs"),
    ),
}
