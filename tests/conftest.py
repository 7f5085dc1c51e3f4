"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import RunConfig
from repro.sim.cluster import paper_cluster


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def small_full_config(algorithm: str, **overrides) -> RunConfig:
    """A fast full-mode config used across algorithm tests."""
    defaults = dict(
        algorithm=algorithm,
        mode="full",
        cluster=paper_cluster(bandwidth_gbps=56, machines=2, gpus_per_machine=2),
        num_workers=4,
        batch_size=8,
        model_name="mlp",
        model_kwargs=dict(in_features=2, hidden=(16,), num_classes=4),
        dataset_name="spirals",
        dataset_kwargs=dict(num_samples=400, num_classes=4),
        epochs=2.0,
        num_ps_shards=1,
        seed=0,
        compute_time_override=0.01,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def small_timing_config(algorithm: str, **overrides) -> RunConfig:
    """A fast timing-mode config used across algorithm tests."""
    defaults = dict(
        algorithm=algorithm,
        mode="timing",
        cluster=paper_cluster(bandwidth_gbps=10, machines=2, gpus_per_machine=4),
        num_workers=8,
        batch_size=128,
        profile_name="resnet50",
        measure_iters=5,
        warmup_iters=1,
        num_ps_shards=1,
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def push_sum_mass(algorithm) -> float:
    """GoSGD's push-sum invariant, which must equal 1 at all times:
    every worker's weight plus the shares still in gossip mailboxes
    (a share counts at its receiver only once merged)."""
    held = sum(state.weight for state in algorithm._states)
    in_flight = sum(
        message.meta["weight"]
        for slot in algorithm.runtime.workers
        for message in slot.node.mailbox("gossip")._items
    )
    return held + in_flight


def port_stats(network) -> dict[str, dict[str, float]]:
    """Served bytes, transfers, busy and queue time of every port of
    ``network``."""
    return {
        port.name: {
            "busy_time": port.busy_time,
            "bytes": float(port.bytes_served),
            "transfers": float(port.transfers),
            "queue_time": port.queue_time,
        }
        for port in [*network.tx, *network.rx, *network.intra, *network.tor_up, *network.tor_down]
    }


def densify(sparse) -> np.ndarray:
    """A DGC ``SparseGradient`` as the dense vector it stands for."""
    dense = np.zeros(sparse.num_elements)
    dense[sparse.indices] = sparse.values
    return dense
