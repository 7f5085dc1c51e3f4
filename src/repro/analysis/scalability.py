"""Fig 2 scalability analysis helpers."""

from __future__ import annotations

from repro.nn.zoo import ModelProfile
from repro.sim.cluster import GPUSpec

__all__ = ["ideal_single_worker_throughput"]


def ideal_single_worker_throughput(
    profile: ModelProfile, batch_size: int, gpu: GPUSpec
) -> float:
    """Images/second of one GPU with zero communication — the paper's
    normalisation baseline ("the throughput of a single worker")."""
    iteration_time = profile.train_flops * batch_size / gpu.effective_flops
    return batch_size / iteration_time
