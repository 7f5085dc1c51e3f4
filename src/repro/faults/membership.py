"""Live worker set bookkeeping.

The fault controller owns one :class:`Membership` per run. Every
eviction or rejoin bumps ``generation`` (mirrored into
``CommContext.epoch``), which is what invalidates in-flight messages
from the previous view of the cluster.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Membership"]


class Membership:
    """Set algebra over worker ids: live, evicted, generation count."""

    def __init__(self, workers: Iterable[int]) -> None:
        self.live: set[int] = set(workers)
        if not self.live:
            raise ValueError("membership needs at least one worker")
        self.evicted: set[int] = set()
        self.generation = 0

    def evict(self, wid: int) -> None:
        if wid not in self.live:
            raise ValueError(f"worker {wid} is not live")
        self.live.discard(wid)
        self.evicted.add(wid)
        self.generation += 1

    def join(self, wid: int) -> None:
        if wid in self.live:
            raise ValueError(f"worker {wid} is already live")
        self.evicted.discard(wid)
        self.live.add(wid)
        self.generation += 1

    def live_sorted(self) -> list[int]:
        return sorted(self.live)

    def is_live(self, wid: int) -> bool:
        return wid in self.live

    def __len__(self) -> int:
        return len(self.live)
