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
``Engine.run`` inlines the same logic.

Cancellation (``Event.cancel``) nulls the entry's ``fn`` in place;
pops skip dead entries lazily. Only the legacy :meth:`EventQueue.push`
returns a cancellable handle — the engine's internal fast paths
(:meth:`push_call` / :meth:`push_lane`) never cancel.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """Handle to a scheduled callback (legacy :meth:`EventQueue.push`).

    Exposes ``time``/``seq``/``callback`` and supports :meth:`cancel`.
    The underlying queue entry is shared: cancelling nulls the entry's
    callback slot so the queue skips it on pop.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_entry", "_queue")

    def __init__(self, entry: list, queue: "EventQueue | None") -> None:
        self.time: float = entry[0]
        self.seq: int = entry[1]
        self.callback: Callable[[], None] = entry[2]
        self.cancelled = False
        self._entry = entry
        # Owning queue, set on push; lets cancel() keep the queue's live
        # counter exact without a heap scan (cleared on pop so a late
        # cancel never double-decrements).
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event dead; the queue skips it on pop."""
        if self.cancelled:
            return
        self.cancelled = True
        self._entry[2] = None
        if self._queue is not None:
            self._queue._live -= 1
            self._queue = None


class EventQueue:
    """Min-heap plus zero-delay FIFO lane with stable FIFO tie-breaking.

    The number of *live* (non-cancelled) events is tracked on
    push/pop/cancel, so ``len(queue)`` is O(1) instead of a scan of
    the whole heap. ``high_water`` is the maximum live depth ever
    reached — the backlog peak observability reports.
    """

    __slots__ = ("_heap", "_lane", "_seq", "_live", "high_water")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._lane: deque[list] = deque()
        self._seq = 0
        self._live = 0
        self.high_water = 0

    # -- fast paths (engine-internal; no cancellation handles) ----------
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

    # -- legacy handle-returning API ------------------------------------
    def push(self, time: float, callback: Callable[[], None]) -> Event:
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, (), None]
        event = Event(entry, self)
        entry[4] = event
        heapq.heappush(self._heap, entry)
        live = self._live + 1
        self._live = live
        if live > self.high_water:
            self.high_water = live
        return event

    def pop(self) -> Event | None:
        """Pop the earliest live event, discarding cancelled ones.

        Merges the heap and the zero-delay lane by ``(time, seq)``.
        Returns the original handle for entries pushed via :meth:`push`,
        or a fresh read-only :class:`Event` for fast-path entries.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        lane = self._lane
        if lane and (not heap or lane[0] < heap[0]):
            entry = lane.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return None
        self._live -= 1
        handle = entry[4] if len(entry) == 5 else None
        if handle is not None:
            handle._queue = None  # cancel() after pop must not re-decrement
            return handle
        event = Event(entry, None)
        event._queue = None
        return event

    def clear(self) -> None:
        """Drop every pending event; ``high_water`` stays."""
        self._heap.clear()
        self._lane.clear()
        self._live = 0

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        lane = self._lane
        if lane:
            return min(lane[0][0], heap[0][0]) if heap else lane[0][0]
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None
