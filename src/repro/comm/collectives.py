"""AllReduce plans.

The paper's AR-SGD uses MPICH's AllReduce, which for large messages is
reduce-scatter followed by allgather (§IV-A). On a ring of N workers
that is 2·(N−1) steps, each moving M/N bytes to the right neighbour —
per-worker traffic ``2·M·(N−1)/N``, the bandwidth-optimal schedule.

This module states the *plan* (who sends which chunk when); the timed
execution is :func:`repro.core.worker.ring_allreduce`, which walks the
same schedule through :class:`~repro.comm.endpoints.Node` messages so
that stragglers and link contention affect it emergently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ring_neighbors", "chunk_slices", "ring_allreduce_plan", "RingStep"]


def ring_neighbors(rank: int, world: int) -> tuple[int, int]:
    """(left, right) neighbours of ``rank`` on the ring."""
    if world <= 0:
        raise ValueError("world must be positive")
    if not 0 <= rank < world:
        raise ValueError("rank out of range")
    return ((rank - 1) % world, (rank + 1) % world)


@lru_cache(maxsize=32)
def chunk_slices(total: int, world: int) -> tuple[slice, ...]:
    """Split ``total`` elements into ``world`` near-equal chunks.

    Memoised per (total, world), at most 32 splits: every ring pass of a
    run asks for the same split, and the linspace dominates its cost.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    bounds = np.linspace(0, total, world + 1).astype(int).tolist()
    return tuple(slice(bounds[i], bounds[i + 1]) for i in range(world))


@dataclass(frozen=True)
class RingStep:
    """One step of the ring schedule for one rank.

    ``send_chunk``/``recv_chunk`` are chunk indices; ``reduce`` is True
    during the reduce-scatter half (received chunk is accumulated) and
    False during the allgather half (received chunk overwrites).
    """

    step: int
    send_chunk: int
    recv_chunk: int
    reduce: bool


def ring_allreduce_plan(rank: int, world: int) -> list[RingStep]:
    """The 2·(N−1)-step ring AllReduce schedule for ``rank``.

    Standard construction: at reduce-scatter step ``s`` the rank sends
    chunk ``(rank − s) mod N`` and receives (and reduces) chunk
    ``(rank − s − 1) mod N``; after N−1 steps it owns the fully reduced
    chunk ``(rank + 1) mod N``. The allgather half then circulates the
    reduced chunks.

    This is the schedule's specification: :func:`repro.core.worker.ring_allreduce`
    computes each step as it goes instead of holding a plan per rank,
    and the tests check the two agree.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if not 0 <= rank < world:
        raise ValueError("rank out of range")
    plan: list[RingStep] = []
    if world == 1:
        return plan
    for s in range(world - 1):
        plan.append(
            RingStep(
                step=s,
                send_chunk=(rank - s) % world,
                recv_chunk=(rank - s - 1) % world,
                reduce=True,
            )
        )
    for s in range(world - 1):
        plan.append(
            RingStep(
                step=world - 1 + s,
                send_chunk=(rank + 1 - s) % world,
                recv_chunk=(rank - s) % world,
                reduce=False,
            )
        )
    return plan
