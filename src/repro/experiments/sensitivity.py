"""Table III — hyperparameter / worker-count sensitivity.

The paper trains the five asynchronous algorithms with 4/8/16/24
workers, crossing SSP s∈{3,10}, EASGD τ∈{4,8}, GoSGD p∈{1,0.1,0.01},
plus BSP as the stability reference, and reports final accuracy for
every cell.
"""

from __future__ import annotations

from repro.experiments.artefact import Artefact, final_accuracy
from repro.experiments.config import MINI_EPOCHS, mini_accuracy_config

__all__ = ["ARTEFACTS", "TABLE3_COLUMNS", "PAPER_TABLE3"]

#: Table III columns, in its layout: label -> (algorithm, hyperparameters)
TABLE3_COLUMNS: dict[str, tuple[str, dict]] = {
    "BSP": ("bsp", {}),
    "ASP": ("asp", {}),
    "SSP s=3": ("ssp", {"staleness": 3}),
    "SSP s=10": ("ssp", {"staleness": 10}),
    "EASGD t=4": ("easgd", {"tau": 4}),
    "EASGD t=8": ("easgd", {"tau": 8}),
    "GoSGD p=1": ("gosgd", {"p": 1.0}),
    "GoSGD p=0.1": ("gosgd", {"p": 0.1}),
    "GoSGD p=0.01": ("gosgd", {"p": 0.01}),
    "AD-PSGD": ("ad-psgd", {}),
}

PAPER_TABLE3: dict[str, dict[int, float]] = {
    "BSP": {4: 0.7514, 8: 0.7509, 16: 0.7496, 24: 0.7511},
    "ASP": {4: 0.7508, 8: 0.7482, 16: 0.7447, 24: 0.7459},
    "SSP s=3": {4: 0.7480, 8: 0.7450, 16: 0.7393, 24: 0.7282},
    "SSP s=10": {4: 0.7462, 8: 0.7412, 16: 0.7147, 24: 0.6448},
    "EASGD t=4": {4: 0.7028, 8: 0.6357, 16: 0.5416, 24: 0.4709},
    "EASGD t=8": {4: 0.7027, 8: 0.6269, 16: 0.5237, 24: 0.4528},
    "GoSGD p=1": {4: 0.7160, 8: 0.6529, 16: 0.5492, 24: 0.4641},
    "GoSGD p=0.1": {4: 0.6892, 8: 0.6173, 16: 0.5135, 24: 0.4475},
    "GoSGD p=0.01": {4: 0.6775, 8: 0.5845, 16: 0.4922, 24: 0.3938},
    "AD-PSGD": {4: 0.7483, 8: 0.7447, 16: 0.7439, 24: 0.7411},
}



def _at(v, column: str, end: int = -1) -> float:
    """The column's accuracy at the largest (``end=0``: smallest) worker count."""
    return v(column, v.shape["worker_counts"][end])


def _drop(v, column: str) -> float:
    return _at(v, column, 0) - _at(v, column)


#: §VI-B: BSP holds; the async columns lose accuracy with N, the more
#: the more rarely they aggregate
TABLE3_CLAIMS = {
    "BSP stable in N (within 0.03)": lambda v: abs(_drop(v, "BSP")) < 0.03,
    "no async column gains > 0.02 with N": lambda v: all(
        _drop(v, c) > -0.02 for c in v.shape["columns"] if c != "BSP"
    ),
    "SSP s=10, EASGD t=8, GoSGD p=0.01 lose > 0.15": lambda v: all(
        _drop(v, c) > 0.15 for c in ("SSP s=10", "EASGD t=8", "GoSGD p=0.01")
    ),
    "SSP s=3 > SSP s=10 at max N": lambda v: _at(v, "SSP s=3") > _at(v, "SSP s=10"),
    "GoSGD p=1 ≥ GoSGD p=0.01 at max N": lambda v: _at(v, "GoSGD p=1") >= _at(v, "GoSGD p=0.01"),
    "AD-PSGD in the async top 3 at max N": lambda v: "AD-PSGD" in sorted(
        (c for c in v.shape["columns"] if c != "BSP"), key=lambda c: _at(v, c), reverse=True
    )[:3],
    "AD-PSGD > GoSGD p=0.01 + 0.2 at max N": lambda v: (
        _at(v, "AD-PSGD") > _at(v, "GoSGD p=0.01") + 0.2
    ),
}


def _table3_config(c):
    algorithm, params = TABLE3_COLUMNS[c.column]
    return mini_accuracy_config(
        algorithm, num_workers=c.num_workers, epochs=c.epochs, seed=c.seed, algorithm_params=params
    )


ARTEFACTS = {
    "table3": Artefact(
        "table3",
        title="Table III — accuracy vs workers and hyperparameters ({seeds} seed(s))",
        axes={"column": "columns", "num_workers": "worker_counts"},
        shape=dict(columns=tuple(TABLE3_COLUMNS), worker_counts=(4, 8, 16, 24), epochs=MINI_EPOCHS),
        config=_table3_config,
        metric=final_accuracy,
        paper=lambda cell: PAPER_TABLE3[cell["column"]].get(cell["num_workers"]),
        rows=("num_workers",),
        columns="column",
        headers=("# workers",),
        claims=TABLE3_CLAIMS,
        cli=("epochs",),
    ),
}
