"""Checkpoint/restore for elastic rejoin.

A rejoining worker's pre-crash local state is worthless (its replica
drifted, its momentum refers to a dead trajectory), so rejoin is a
*restore*: capture the cluster's current consensus parameters, ship
them over the simulated network as one snapshot-sized message, and
rebuild the worker's local state from them before it re-enters the
training loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.optimizations.dgc import DGCCompressor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TrainingAlgorithm
    from repro.core.runner import Runtime
    from repro.core.worker import WorkerSlot

__all__ = ["Snapshot", "capture_snapshot", "restore_snapshot"]


@dataclass
class Snapshot:
    """Consensus parameters plus the progress watermark at capture."""

    params: np.ndarray | None  # None in timing mode
    iterations: int
    nbytes: int


def capture_snapshot(rt: "Runtime", algorithm: "TrainingAlgorithm") -> Snapshot:
    """Snapshot the consensus model for a rejoining worker.

    Centralized algorithms snapshot the PS parameters; decentralized
    ones the live-worker average (None with no live worker: the
    rejoiner keeps its replica). The iteration watermark is the fastest
    live worker's count, so the rejoiner's learning-rate schedule
    resumes where the cluster is, not where the rejoiner died; with no
    live worker, where the furthest worker stopped.
    """
    params = algorithm.global_params()
    live = rt.live_worker_ids() or range(len(rt.workers))
    iterations = max(rt.workers[w].iterations for w in live)
    nbytes = rt.total_elements * rt.sharding.bytes_per_param
    return Snapshot(params=params, iterations=iterations, nbytes=nbytes)


def restore_snapshot(rt: "Runtime", slot: "WorkerSlot", snapshot: Snapshot) -> None:
    """Rebuild a worker slot from a snapshot (in place)."""
    if slot.comp is not None and snapshot.params is not None:
        slot.comp.set_params(snapshot.params)
        # Fresh momentum: the old velocity points along a trajectory the
        # restored parameters never followed.
        slot.comp.reset_velocity()
    if slot.dgc is not None:
        assert rt.dgc_config is not None
        slot.dgc = DGCCompressor(rt.total_elements, rt.dgc_config)
    slot.iterations = snapshot.iterations
    slot.extra.clear()
