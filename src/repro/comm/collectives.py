"""AllReduce plans.

The paper's AR-SGD uses MPICH's AllReduce, which for large messages is
reduce-scatter followed by allgather (§IV-A). On a ring of N workers
that is 2·(N−1) steps, each moving M/N bytes to the right neighbour —
per-worker traffic ``2·M·(N−1)/N``, the bandwidth-optimal schedule.

This module computes the *plan* (who sends which chunk when); the
timed execution is :func:`repro.core.worker.ring_allreduce`, which
pumps the plan through :class:`~repro.comm.endpoints.Node` messages so
that stragglers and link contention affect it emergently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ring_neighbors", "chunk_slices", "ring_allreduce_plan", "RingStep"]


def ring_neighbors(rank: int, world: int) -> tuple[int, int]:
    """(left, right) neighbours of ``rank`` on the ring."""
    if world <= 0:
        raise ValueError("world must be positive")
    if not 0 <= rank < world:
        raise ValueError("rank out of range")
    return ((rank - 1) % world, (rank + 1) % world)


_SLICE_CACHE: dict[tuple[int, int], list[slice]] = {}


def chunk_slices(total: int, world: int) -> list[slice]:
    """Split ``total`` elements into ``world`` near-equal chunks.

    Memoised per (total, world): every ring generator asks for the same
    split every iteration, and the linspace dominates its setup cost.
    The returned list is shared; callers must not mutate it.
    """
    cached = _SLICE_CACHE.get((total, world))
    if cached is not None:
        return cached
    if world <= 0:
        raise ValueError("world must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    bounds = np.linspace(0, total, world + 1).astype(int)
    slices = [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(world)]
    _SLICE_CACHE[(total, world)] = slices
    return slices


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


_PLAN_CACHE: dict[tuple[int, int], list[RingStep]] = {}


def ring_allreduce_plan(rank: int, world: int) -> list[RingStep]:
    """The 2·(N−1)-step ring AllReduce schedule for ``rank``.

    Standard construction: at reduce-scatter step ``s`` the rank sends
    chunk ``(rank − s) mod N`` and receives (and reduces) chunk
    ``(rank − s − 1) mod N``; after N−1 steps it owns the fully reduced
    chunk ``(rank + 1) mod N``. The allgather half then circulates the
    reduced chunks.

    Plans are memoised per (rank, world) — AR-SGD rebuilds the schedule
    every iteration, and the plan is pure in its arguments. The returned
    list is shared; callers must not mutate it.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if not 0 <= rank < world:
        raise ValueError("rank out of range")
    cached = _PLAN_CACHE.get((rank, world))
    if cached is not None:
        return cached
    plan: list[RingStep] = []
    if world == 1:
        _PLAN_CACHE[(rank, world)] = plan
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
    _PLAN_CACHE[(rank, world)] = plan
    return plan
