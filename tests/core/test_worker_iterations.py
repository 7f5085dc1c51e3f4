"""Every result reports its workers' iteration spread.

``metadata["worker_iterations"]`` holds the fewest and the most
iterations any worker finished, in timing and in full mode, with or
without an observer. A synchronous protocol keeps them equal; an
asynchronous one spreads them — ASP on VGG-16 with a single PS shard
is the extreme case, where the workers co-resident with the shard
outrun the rest by 7×.
"""

from __future__ import annotations

import pytest

from repro.core.history import ThroughputResult, TrainingHistory
from repro.core.runner import execute_run
from repro.experiments.config import mini_accuracy_config, timing_config
from repro.io import from_jsonable, to_jsonable


@pytest.mark.parametrize(
    "config, spread, throughput",
    [
        (
            dict(algorithm="asp", model="vgg16", num_ps_shards=1, measure_iters=20),
            {"min": 12, "max": 90},
            238.1,
        ),
        (dict(algorithm="bsp", model="resnet50", measure_iters=5), {"min": 10, "max": 10}, None),
    ],
    ids=["asp-vgg16-one-shard", "bsp-resnet50"],
)
def test_timing_spread(config, spread, throughput):
    algorithm = config.pop("algorithm")
    result = execute_run(timing_config(algorithm, num_workers=24, bandwidth_gbps=10.0, **config))
    assert result.metadata["worker_iterations"] == spread
    if throughput is not None:
        assert round(result.throughput, 1) == throughput
    restored = from_jsonable(ThroughputResult, to_jsonable(result))
    assert restored.metadata["worker_iterations"] == spread


def test_full_mode_spread():
    history = execute_run(mini_accuracy_config("asp", num_workers=4, epochs=0.5))
    spread = history.metadata["worker_iterations"]
    assert 0 < spread["min"] <= spread["max"]
    restored = from_jsonable(TrainingHistory, to_jsonable(history))
    assert restored.metadata["worker_iterations"] == spread
