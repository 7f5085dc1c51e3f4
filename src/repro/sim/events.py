"""Event queue for the discrete-event kernel.

Determinism is load-bearing for the whole reproduction: two runs with
the same seeds must produce bit-identical schedules. The queue
therefore breaks time ties with a monotonically increasing sequence
number — never with object identity or insertion hash order.

Hot-path layout: entries are plain lists ``[time, seq, fn, args]`` so
heap ordering is C-speed list comparison (``seq`` is unique, so the
comparison never reaches ``fn``), and scheduling a callback allocates
no closure. Two storage areas share one ``(time, seq)`` ordering
domain:

* ``_heap`` — the classic min-heap, for events at arbitrary times;
* ``_lane`` — a FIFO deque for *zero-delay* events. The engine only
  pushes here with ``time == now``, and ``now`` never decreases, so
  the lane is sorted by construction and push/pop are O(1) instead of
  O(log n). Between a thirtieth and a fifth of a run's events are
  zero-delay wake-ups (process starts, signal and barrier releases,
  store deliveries that tie with another event; a quarter to a third
  before mailbox deposits learnt to resume an idle-instant getter in
  place, DESIGN §8), which is what makes the lane worth its merge check.

The consumer must merge the two by comparing head ``(time, seq)``
pairs — a heap event pushed earlier at the same timestamp has a
smaller seq and must run first. :meth:`EventQueue.pop` does this;
``Engine.run`` inlines the same logic. Nothing is ever cancelled: a
wake-up that lost its reason carries a stale wait token and returns
without effect when it runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, NamedTuple

__all__ = ["Entry", "EventQueue"]


class Entry(NamedTuple):
    """A popped event: ``fn(*args)`` was due at ``time``."""

    time: float
    seq: int
    fn: Callable[..., None]
    args: tuple


class EventQueue:
    """Min-heap plus zero-delay FIFO lane with stable FIFO tie-breaking.

    ``_live`` counts pending events (``Engine.run`` pops inline and
    decrements it); ``high_water`` is the largest it has ever been — the
    backlog peak observability reports.
    """

    __slots__ = ("_heap", "_lane", "_seq", "_live", "high_water")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._lane: deque[list] = deque()
        self._seq = 0
        self._live = 0
        self.high_water = 0

    def push_call(self, time: float, fn: Callable[..., None], args: tuple) -> None:
        """Schedule ``fn(*args)`` at ``time`` on the heap."""
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, [time, seq, fn, args])
        live = self._live + 1
        self._live = live
        if live > self.high_water:
            self.high_water = live

    def push_lane(self, time: float, fn: Callable[..., None], args: tuple) -> None:
        """Schedule ``fn(*args)`` on the zero-delay lane.

        Caller contract: ``time`` is the engine's current clock, which
        never decreases — so lane entries are sorted by construction.
        """
        seq = self._seq
        self._seq = seq + 1
        self._lane.append([time, seq, fn, args])
        live = self._live + 1
        self._live = live
        if live > self.high_water:
            self.high_water = live

    def pop(self) -> Entry | None:
        """Pop the earliest event, merging heap and lane by ``(time, seq)``."""
        heap = self._heap
        lane = self._lane
        if lane and (not heap or lane[0] < heap[0]):
            entry = lane.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return None
        self._live -= 1
        return Entry._make(entry)

    def clear(self) -> None:
        """Drop every pending event; ``high_water`` stays."""
        self._heap.clear()
        self._lane.clear()
        self._live = 0

    def __len__(self) -> int:
        return self._live
