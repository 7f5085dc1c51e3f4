"""Bandwidth moves time, never the arithmetic of synchronous training.

The mini MLP in full mode at 1, 10 and 56 Gbps: AR-SGD (ring, DGC's
sparse allgather, the robust ``median`` allgather) and BSP with two
machine leaders (1 or 2 shards, ± DGC, ± wait-free BP) end with
bit-identical replicas — two leader means sum the same in either
order. With three or more leaders a shard folds the leaders' means in
arrival order, which bandwidth moves, so the replicas differ in their
last bits; DESIGN §8 states the bound asserted here.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.runner import DistributedRunner
from repro.experiments.config import mini_accuracy_config, mini_dgc_config
from repro.robust.config import RobustConfig
from repro.sim.cluster import paper_cluster

GBPS = (1, 10, 56)
DGC = dict(dgc=True, dgc_config=mini_dgc_config(4))

#: label -> (algorithm, config overrides), each on 2 machines × 2 GPUs.
BIT_IDENTICAL = {
    "ar-sgd": ("ar-sgd", {}),
    "ar-sgd/dgc": ("ar-sgd", DGC),
    "ar-sgd/median": ("ar-sgd", {"robust": RobustConfig(aggregator="median")}),
}
for shards, dgc, wait_free in itertools.product((1, 2), (False, True), (False, True)):
    BIT_IDENTICAL[f"bsp/{shards}-shard{'/dgc' * dgc}{'/waitfree' * wait_free}"] = (
        "bsp", dict(num_ps_shards=shards, wait_free_bp=wait_free, **(DGC if dgc else {}))
    )


def final_replicas(algorithm, gbps, machines, gpus_per_machine, **overrides):
    """(virtual end time, every worker's final parameters) of half an
    epoch of the mini MLP."""
    cluster = paper_cluster(
        bandwidth_gbps=gbps, machines=machines, gpus_per_machine=gpus_per_machine
    )
    cfg = mini_accuracy_config(
        algorithm, num_workers=machines * gpus_per_machine, epochs=0.5, cluster=cluster,
        **overrides,
    )
    runner = DistributedRunner(cfg)
    runner.run()
    return runner.engine.now, np.stack([s.comp.get_params() for s in runner.runtime.workers])


@pytest.mark.parametrize("label", list(BIT_IDENTICAL))
def test_bandwidth_leaves_the_replicas_bit_identical(label):
    algorithm, overrides = BIT_IDENTICAL[label]
    runs = [final_replicas(algorithm, gbps, 2, 2, **overrides) for gbps in GBPS]
    assert len({clock for clock, _ in runs}) == len(GBPS)  # the fabric moved time
    for _, replicas in runs[1:]:
        assert replicas.tobytes() == runs[0][1].tobytes()


@pytest.mark.parametrize("leaders", [3, 4, 6])
def test_bsp_leader_arrival_order_moves_only_the_last_bits(leaders):
    runs = [final_replicas("bsp", gbps, leaders, 1) for gbps in GBPS]
    for _, replicas in runs[1:]:
        assert np.abs(replicas - runs[0][1]).max() <= 1.1e-16
