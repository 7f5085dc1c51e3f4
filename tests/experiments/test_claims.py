"""Named claims on an artefact: each seed's verdict, ``holds k/S`` in the
rendered text, and the claims the grid cannot measure left out. Fixed
results from stub executors; no engine runs."""

from __future__ import annotations

import ast
import importlib
import inspect
from types import SimpleNamespace

import pytest

from repro.analysis.breakdown import MAIN_PHASES
from repro.experiments.artefact import MODULES, Artefact, artefact, render, run_artefact
from repro.experiments.session import FailedRun

ARTEFACTS = sorted({name for names in MODULES.values() for name in names})


class _Fixed:
    """An executor whose result for each config is ``values[(x, seed)]``
    (a failed run where that is None)."""

    def __init__(self, values: dict) -> None:
        self.values = values

    def map(self, configs):
        return [
            FailedRun("toy", "fp", "injected failure", attempts=1)
            if self.values[(c.x, c.seed)] is None
            else SimpleNamespace(value=self.values[(c.x, c.seed)])
            for c in configs
        ]


def toy(**claims) -> Artefact:
    return Artefact(
        "toy",
        axes={"x": "xs"},
        shape={"xs": (1, 2)},
        config=lambda c: SimpleNamespace(x=c.x, seed=c.seed),
        metric=lambda result, config, base: result.value,
        rows=("x",),
        headers=("x", "value"),
        claims=claims,
    )


#: seed 0 has x=2 above x=1, seed 1 the other way round
VALUES = {(1, 0): 1.0, (2, 0): 3.0, (1, 1): 2.0, (2, 1): 0.5}


def test_a_claim_holding_in_one_of_two_seeds_reads_1_of_2():
    art = toy(**{"2 > 1": lambda v: v(2) > v(1), "1 > 0": lambda v: v(1) > 0})
    table = run_artefact(art, seeds=(0, 1), executor=_Fixed(VALUES))
    assert table.claims() == {"2 > 1": [True, False], "1 > 0": [True, True]}
    assert render(table).endswith("\n\nclaims:\n  2 > 1: holds 1/2\n  1 > 0: holds 2/2")
    assert table.record()["claims"] == {"2 > 1": [True, False], "1 > 0": [True, True]}


def test_a_claim_that_does_not_apply_or_reads_a_missing_cell_is_left_out():
    art = toy(
        **{
            "not here": lambda v: None,
            "reads x=3": lambda v: v(3) > v(1),
            "raw result of x=3": lambda v: v.result(3).value > 0,
            "measured": lambda v: v(1) > 0,
        }
    )
    table = run_artefact(art, seeds=(0, 1), executor=_Fixed(VALUES))
    assert list(table.claims()) == ["measured"]
    assert render(table).endswith("\n\nclaims:\n  measured: holds 2/2")


def test_a_failed_seed_is_not_measured():
    art = toy(**{"2 > 1": lambda v: v(2) > v(1), "1 > 0": lambda v: v.result(1).value > 0})
    table = run_artefact(art, seeds=(0, 1), executor=_Fixed({**VALUES, (1, 0): None}))
    assert table.claims() == {"2 > 1": [None, False], "1 > 0": [None, True]}
    assert render(table).endswith("\n\nclaims:\n  2 > 1: holds 0/1\n  1 > 0: holds 1/1")
    assert table.value(1) == 2.0  # the mean of the seeds that ran


def test_no_measured_claim_adds_no_block():
    art = toy(**{"not here": lambda v: None})
    plain = toy()
    executor = _Fixed(VALUES)
    assert render(run_artefact(art, executor=executor)) == render(
        run_artefact(plain, executor=executor)
    )


@pytest.mark.parametrize(
    "claim, error",
    [
        (lambda v: 1 / 0, ZeroDivisionError),
        (lambda v: {}["column"], KeyError),
        (lambda v: v(1)["column"], TypeError),
    ],
)
def test_a_predicate_that_raises_propagates(claim, error):
    table = run_artefact(toy(broken=claim), executor=_Fixed(VALUES))
    with pytest.raises(error):
        table.claims()


def test_claim_names_are_unique_per_module():
    """A claims dict silently keeps the last of two equal keys (and
    ``{**a, **b}`` the last of two merged ones), so no claim name may be
    written twice in the module that declares it."""
    for module, names in MODULES.items():
        tree = ast.parse(inspect.getsource(importlib.import_module(f"repro.experiments.{module}")))
        keys = [
            key.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        ]
        for name in names:
            for claim in artefact(name).claims:
                assert keys.count(claim) == 1, f"{name}: claim {claim!r} is written twice"


class _Stub:
    """Stands in for every kind of result, with distinct positive numbers
    per config, so each claim can be evaluated without the engine."""

    def map(self, configs):
        return [self._result(i) for i in range(len(configs))]

    @staticmethod
    def _result(i: int) -> SimpleNamespace:
        accuracy = [0.2, 0.4 + 0.001 * i]
        return SimpleNamespace(
            throughput=100.0 + i,
            measured_time=1.0 + 0.01 * i,
            final_test_accuracy=accuracy[-1],
            test_accuracy=accuracy,
            error_curve=lambda: [1.0 - a for a in accuracy],
            epochs=[0.0, 1.0],
            times=[0.0, 1.0 + i],
            total_iterations=10 + i,
            total_virtual_time=1.0,
            breakdown={phase: 1.0 + i for phase in MAIN_PHASES},
            metadata={},
        )


#: artefact -> the default shapes its claims apply at, between them
DEFAULT_SHAPES = {
    "fig2": ({}, {"model": "vgg16"}),
    "fig4": ({}, {"model": "vgg16"}),
}


@pytest.mark.parametrize("name", ARTEFACTS)
def test_every_claim_reads_only_cells_of_the_default_grid(name):
    """At its default grid each claim is measured: it reads no cell the
    grid lacks and applies at one of the default shapes."""
    art = artefact(name)
    measured = set()
    for shape in DEFAULT_SHAPES.get(name, ({},)):
        measured |= set(run_artefact(art, executor=_Stub(), **shape).claims())
    assert measured == set(art.claims)


class _FailingFirst(_Stub):
    """The stub, with the first run of every stage failed."""

    def map(self, configs):
        return [FailedRun("stub", "fp", "injected failure", attempts=1), *super().map(configs)[1:]]


@pytest.mark.parametrize("name", ARTEFACTS)
def test_every_artefact_renders_a_failed_seed(name):
    table = run_artefact(artefact(name), seeds=(0, 1), executor=_FailingFirst())
    assert render(table)
    first = table.record()["cells"][0]
    assert first["values"][0] is None
    assert first["failed"][0] == {"seed": 0, "error": "injected failure"}
