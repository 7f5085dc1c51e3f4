"""The documented extension path (README: ``examples/custom_algorithm.py``)
keeps working against the current ``TrainingAlgorithm`` surface."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.base import ALGORITHMS, TrainingAlgorithm
from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config
from repro.experiments.faults import FAULT_SCENARIOS, _detection_params
from repro.faults.config import FaultConfig

ROOT = Path(__file__).resolve().parents[1]


def test_custom_algorithm_example_trains_above_chance():
    # A subprocess, so that ``localsgd`` never enters this process's
    # ALGORITHMS registry (other tests enumerate it).
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "custom_algorithm.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    match = re.search(r"Final test accuracy \(period=4\): ([0-9.]+)", done.stdout)
    assert match, done.stdout
    assert float(match.group(1)) > 0.3  # five classes: chance is 0.2


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("compare_algorithms.py", ("2", "0.5"), "ASP > min(BSP, AR-SGD)"),
        ("scalability_study.py", ("resnet50", "2"), "ASP > BSP @ 56G, N=24"),
    ],
)
def test_artefact_examples_run(script, args, expected):
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


# -- the same example under the five flat fault scenarios (ROADMAP 1(e)) ----

EPOCHS = 4.0
HORIZON = 60.0


@pytest.fixture(scope="module")
def localsgd():
    """Import the example in-process (its ``LocalSGD`` registers itself)
    and take ``localsgd`` out of ALGORITHMS again afterwards."""
    spec = importlib.util.spec_from_file_location(
        "custom_algorithm_example", ROOT / "examples" / "custom_algorithm.py"
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module.LocalSGD
    finally:
        ALGORITHMS.pop("localsgd", None)


def localsgd_config(faults=None):
    return mini_accuracy_config(
        "localsgd",
        num_workers=8,
        epochs=EPOCHS,
        algorithm_params={"period": 4},
        faults=faults,
    )


@pytest.mark.parametrize("scenario", list(FAULT_SCENARIOS))
def test_custom_algorithm_survives_the_flat_fault_scenarios(localsgd, scenario):
    """A third-party algorithm whose ring is the ``wids`` it was spawned
    with trains through every scenario with no recovery code of its own.
    With the ring over a fixed world the survivors of ``crash`` blocked
    on the dead neighbour until the horizon (332 of 1 200 iterations),
    and ``flaky``'s reordered chunks broke the reduce."""
    assert localsgd.on_membership_change is TrainingAlgorithm.on_membership_change
    assert localsgd.setup is TrainingAlgorithm.setup
    t0 = 5.0  # ≈ the fault-free run: the crash lands at t = 2 s
    cfg = localsgd_config()
    faults = FaultConfig(
        events=FAULT_SCENARIOS[scenario](t0, cfg.num_workers, cfg.cluster.machines),
        max_virtual_time=HORIZON,
        **_detection_params(t0),
    )
    history = DistributedRunner(localsgd_config(faults)).run()
    summary = history.metadata["faults"]
    assert history.epochs[-1] >= EPOCHS
    assert history.total_virtual_time < HORIZON
    assert history.final_test_accuracy > 0.3  # five classes: chance is 0.2
    if scenario == "crash":
        assert summary["final_live_workers"] == list(range(7))
    if scenario == "crash-rejoin":
        assert summary["final_live_workers"] == list(range(8))
    if scenario == "flaky":
        assert summary["retransmits"] > 0
