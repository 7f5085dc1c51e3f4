"""The documented extension path (README: ``examples/custom_algorithm.py``)
keeps working against the current ``TrainingAlgorithm`` surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
