"""Every artefact against what its former per-artefact driver produced.

``artefact_goldens.json`` was captured from the drivers the artefact
specs replaced:

* ``render`` — each artefact's text at a tiny shape (the shapes below);
* ``grids`` — at each default shape (and at two seeds), the count and
  sha256 of the newline-joined fingerprints its grid submits, in
  order, so caches and durable sessions made by the drivers still hit
  and resume;
* ``table2_two_seeds_stdout`` — ``repro run table2`` at two seeds.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments.artefact import MODULES, artefact, render, run_artefact
from repro.experiments.executor import SweepExecutor, config_fingerprint
from repro.experiments.scalability import Analytic

GOLDENS = json.loads((Path(__file__).parent / "artefact_goldens.json").read_text())

TINY = {
    "table2": ("table2", dict(algorithms=("bsp", "ssp"), num_workers=2, epochs=1.0, seeds=(0, 1))),
    "fig1": ("fig1", dict(algorithms=("bsp", "asp"), num_workers=2, epochs=1.0)),
    "table3": ("table3", dict(columns=("BSP", "SSP s=3"), worker_counts=(2, 4), epochs=1.0)),
    "table4": ("table4", dict(num_workers=2, epochs=0.5)),
    "fig2": (
        "fig2",
        dict(
            algorithms=("bsp", "ad-psgd"), worker_counts=(1, 4), bandwidths=(10.0, 56.0),
            measure_iters=2,
        ),
    ),
    "fig2-analytic": ("fig2", dict(model="vgg16", max_workers=64, executor=Analytic())),
    "fig3": (
        "fig3",
        dict(
            algorithms=("bsp", "asp"), models=("resnet50",), bandwidths=(10.0, 56.0),
            num_workers=4, measure_iters=2,
        ),
    ),
    "fig4": ("fig4", dict(algorithms=("asp", "bsp"), worker_counts=(4, 8), measure_iters=2)),
    "sharding": ("sharding", dict(num_workers=8, measure_iters=2)),
    "stragglers": (
        "stragglers",
        dict(algorithms=("bsp", "asp"), spreads=(0.0, 0.2), num_workers=4, measure_iters=2),
    ),
    "ps-ratio": ("ps-ratio", dict(num_workers=8, ratios=(1, 2), measure_iters=2)),
    "faults": (
        "faults",
        dict(
            scenarios=("crash-rejoin", "flaky"), algorithms=("bsp", "ad-psgd"), num_workers=4,
            measure_iters=4,
        ),
    ),
    "rack-faults": (
        "rack-faults",
        dict(
            cells=("bsp/tree", "ar-sgd/hring"), scenarios=("rack-outage",), num_workers=32,
            machines_per_rack=4, measure_iters=3,
        ),
    ),
    "byzantine": (
        "byzantine",
        dict(
            algorithms=("bsp", "gosgd"), aggregators=("mean", "median"), num_workers=4,
            epochs=2.0,
        ),
    ),
}

DEFAULTS = {
    "table2": ("table2", {}),
    "table2-two-seeds": ("table2", dict(seeds=(0, 1))),
    "fig1": ("fig1", {}),
    "table3": ("table3", {}),
    "table4": ("table4", {}),
    "table4-two-seeds": ("table4", dict(seeds=(0, 1))),
    "fig2": ("fig2", {}),
    "fig2-vgg16": ("fig2", dict(model="vgg16")),
    "fig3": ("fig3", {}),
    "fig4": ("fig4", {}),
    "fig4-vgg16-56": ("fig4", dict(model="vgg16", bandwidth_gbps=56.0)),
    "sharding": ("sharding", {}),
    "stragglers": ("stragglers", {}),
    "ps-ratio": ("ps-ratio", {}),
    "faults": ("faults", {}),
    "rack-faults": ("rack-faults", {}),
    "byzantine": ("byzantine", {}),
}


def test_every_artefact_is_covered():
    names = {name for names in MODULES.values() for name in names}
    assert {name for name, _ in TINY.values()} == names
    assert {name for name, _ in DEFAULTS.values()} == names
    assert set(GOLDENS["render"]) == set(TINY)
    assert set(GOLDENS["grids"]) == set(DEFAULTS)


@pytest.mark.parametrize("key", list(TINY))
def test_renders_as_the_driver_did(key):
    name, shape = TINY[key]
    shape = {"executor": SweepExecutor(jobs=1, cache=False), **shape}
    assert render(run_artefact(artefact(name), **shape)) == GOLDENS["render"][key]


class _Recorder:
    """Records each grid's fingerprints instead of running it. Baseline
    runs come back as stand-ins of distinct durations, so the second
    stage's fault times depend on which baseline each cell reads."""

    def __init__(self) -> None:
        self.fingerprints: list[str] = []

    def map(self, configs):
        self.fingerprints += [config_fingerprint(cfg) for cfg in configs]
        return [
            SimpleNamespace(
                measured_time=1.0 + 0.25 * i, throughput=100.0 + i, final_test_accuracy=0.5,
                breakdown={}, metadata={},
            )
            for i in range(len(configs))
        ]


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_submits_the_drivers_grid(key):
    name, shape = DEFAULTS[key]
    recorder = _Recorder()
    run_artefact(artefact(name), executor=recorder, **shape)
    digest = hashlib.sha256("\n".join(recorder.fingerprints).encode()).hexdigest()
    assert {"count": len(recorder.fingerprints), "sha256": digest} == GOLDENS["grids"][key]


def test_every_seed_is_kept(tmp_path, capsys, monkeypatch):
    """The table prints each cell's median [min–max] (of two seeds the
    median is the mean the drivers printed) and ``--output`` keeps each
    seed's value per cell."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "table2.json"
    argv = ["run", "table2", "--seeds", "0,1", "--epochs", "0.2", "--workers", "4"]
    assert main([*argv, "--jobs", "1", "--no-cache", "--output", str(out)]) == 0
    stdout = capsys.readouterr().out.split("\n[result written")[0]
    assert re.sub(r", [0-9.]+s\)", ", <t>s)", stdout) == GOLDENS["table2_two_seeds_stdout"]
    record = json.loads(out.read_text())["result"]
    assert record["seeds"] == [0, 1]
    assert len(record["cells"]) == 7
    for cell in record["cells"]:
        assert len(cell["values"]) == 2
        assert cell["paper"] is not None


#: seed -> a stub run's final accuracy: the median (0.62) is not the mean
SEED_ACCURACY = {0: 0.70, 1: 0.60, 2: 0.62}


class _Accuracies:
    """Runs nothing: each config's result is a one-evaluation history
    whose accuracy is its seed's."""

    def map(self, configs):
        return [
            SimpleNamespace(
                final_test_accuracy=SEED_ACCURACY[cfg.seed], epochs=[0.0, 1.0], times=[0.0, 1.0],
                error_curve=lambda seed=cfg.seed: [1.0, 1.0 - SEED_ACCURACY[seed]],
                total_iterations=10, total_virtual_time=1.0,
            )
            for cfg in configs
        ]


@pytest.mark.parametrize("name", ["table2", "table3", "table4", "fig1"])
def test_accuracy_cells_print_median_and_range_over_seeds(name):
    shape = {k: v for k, v in TINY[name][1].items() if k != "seeds"}
    table = run_artefact(artefact(name), seeds=(0, 1, 2), executor=_Accuracies(), **shape)
    text = render(table)
    cells = len(table.values)
    assert text.count("0.6200 [0.6000–0.7000]") == cells
    assert "median [min–max] over seeds" in text
    if name == "fig1":
        assert text.startswith("Fig 1(a)")  # the chart, then the table


# -- a degraded sweep: failed seeds contribute no value -------------------


def test_a_failed_cell_renders_nan_and_is_recorded(monkeypatch):
    """``--retries``/``--session`` degrade a failed cell to a FailedRun;
    the artefact renders it as nan and records the seed and its error."""
    import repro.experiments.executor as executor_module
    from repro.experiments.session import RunPolicy

    shape = dict(algorithms=("bsp",), worker_counts=(1, 4), bandwidths=(10.0,), measure_iters=2)
    real = executor_module._execute_payload

    def failing(cfg):
        if cfg.num_workers == 4:
            raise RuntimeError("injected failure")
        return real(cfg)

    monkeypatch.setattr(executor_module, "_execute_payload", failing)
    policy = RunPolicy(max_attempts=1, backoff_base_s=0.0, backoff_jitter=0.0)
    executor = SweepExecutor(jobs=1, cache=False, policy=policy)
    table = run_artefact(artefact("fig2"), executor=executor, **shape)
    assert table.values[("bsp", 10.0, 4)] == [None]
    assert table.value("bsp", 10.0, 1) > 0
    assert re.search(r"\n4 +\| nan *\n", render(table))
    (failed,) = [c for c in table.record()["cells"] if "failed" in c]
    assert failed["cell"] == {"algorithm": "bsp", "bandwidth": 10.0, "workers": 4}
    assert failed["values"] == [None]
    assert failed["failed"][0]["seed"] == 0
    assert "injected failure" in failed["failed"][0]["error"]


def test_duplicate_seeds_are_refused(capsys):
    with pytest.raises(ValueError, match="duplicate seeds"):
        run_artefact(artefact("table2"), seeds=(0, 0), executor=_Recorder())
    with pytest.raises(ValueError, match="duplicate seeds"):
        main(["run", "table2", "--seeds", "0,1,0", "--jobs", "1", "--no-cache"])
