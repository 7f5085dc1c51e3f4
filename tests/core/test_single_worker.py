"""At N = 1 the synchronous and gossip algorithms are plain SGD, bit for bit.

One worker, 80 iterations of the small MLP: BSP with and without local
aggregation (the PS applies the one gradient with the replica's
momentum SGD), AR-SGD plain (a ring of one) and through the robust
allgather (a ring of one, one row, the ``mean`` rule), GoSGD (no peer
to push to) and AD-PSGD (no peer to average with) all end with the
same parameters. ASP, SSP and EASGD are not in this family, by design:
the ASP/SSP shards fold without momentum at the compensated rate
(DESIGN §8), and EASGD's worker is pulled toward the centre variable.
Their N = 1 runs differ from plain SGD and nothing here asserts
otherwise.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.runner import DistributedRunner
from repro.robust.config import RobustConfig
from repro.sim.cluster import paper_cluster

from tests.conftest import small_full_config

#: label -> (algorithm, config overrides). A screen makes the ``mean``
#: rule take the row-wise allgather; it never rejects the only row.
SGD_AT_N1 = {
    "ar-sgd": ("ar-sgd", {}),
    "ar-sgd/robust-mean": (
        "ar-sgd", {"robust": RobustConfig(aggregator="mean", screen_factor=10.0)}
    ),
    "bsp": ("bsp", {}),
    "bsp/no-local-aggregation": ("bsp", {"local_aggregation": False}),
    "gosgd": ("gosgd", {"algorithm_params": {"p": 0.2}}),
    "ad-psgd": ("ad-psgd", {}),
}


@functools.lru_cache(maxsize=None)
def single_worker_run(label: str) -> tuple[int, bytes]:
    """``(iterations, final parameters)`` of one worker for two epochs of
    40 batches."""
    algorithm, overrides = SGD_AT_N1[label]
    cfg = small_full_config(
        algorithm,
        num_workers=1,
        cluster=paper_cluster(machines=1, gpus_per_machine=1),
        **overrides,
    )
    runner = DistributedRunner(cfg)
    history = runner.run()
    if label == "ar-sgd/robust-mean":
        assert runner.runtime.robust.centralized_active
    return history.total_iterations, runner.algorithm.global_params().tobytes()


def test_the_reference_runs_every_iteration():
    assert single_worker_run("ar-sgd")[0] == 80


@pytest.mark.parametrize("label", [label for label in SGD_AT_N1 if label != "ar-sgd"])
def test_one_worker_is_plain_sgd(label):
    assert single_worker_run(label) == single_worker_run("ar-sgd")
