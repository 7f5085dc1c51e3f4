"""Process-based discrete-event engine.

Simulation processes are plain Python generators that ``yield``
waitable primitives:

* ``Timeout(dt)`` — advance this process's virtual clock by ``dt``;
* ``Get(store)`` — block until an item is available in a
  :class:`Store` (FIFO channel), resuming with the item;
* ``Signal`` — one-shot broadcast event (``yield signal`` blocks until
  somebody calls :meth:`Signal.trigger`);
* ``Barrier.wait()`` — cyclic barrier: the n-th arriving process
  releases everyone (this is how synchronous aggregation waits are
  modelled);
* ``AllOf([...])`` — conjunction of signals.

A process is waited on through its ``done`` signal, which carries its
return value.

Wake-ups are ordered by the event queue's ``(time, seq)`` and ties are
FIFO, so runs are deterministic given fixed seeds. One wake-up does not
pass through the queue: a mailbox deposit that ends a delivery event
resumes its waiting getter in place when nothing else is due at that
instant (:meth:`Store.put`, :meth:`Engine._idle_now`) — the zero-delay
event it replaces would have been popped next, so the order is the
queue's own (DESIGN §8). This mirrors the structure of SimPy but is
self-contained and dependency free.

Hot-path discipline (see ``sim/events.py``): wake-ups are scheduled as
preallocated ``(fn, args)`` pairs, never closures, and zero-delay
wake-ups ride the queue's FIFO lane (``Engine._immediate``) instead of
the heap. Both preserve the exact global ``(time, seq)`` order the
seed engine produced, so schedules stay bit-identical.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.sim.events import EventQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import RunObserver

__all__ = [
    "Engine",
    "Process",
    "Timeout",
    "Get",
    "Store",
    "Signal",
    "Barrier",
    "AllOf",
]

ProcessGen = Generator[Any, Any, Any]

#: An observed run samples the event-queue depth once every this many
#: processed events: depth changes event by event, and a stride keeps
#: the series (and the exported trace) bounded on long runs.
DEPTH_SAMPLE_EVERY = 32


class Timeout:
    """Wait for a fixed virtual-time duration."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = float(delay)

    def _subscribe(self, engine: "Engine", process: "Process") -> None:
        token = process._token
        if self.delay == 0.0:
            engine._immediate(process._resume, (None, token))
        else:
            engine._at(self.delay, process._resume, (None, token))


class Signal:
    """One-shot broadcast event carrying an optional value.

    Waiters are stored as ``(fn, extra)`` pairs invoked as
    ``fn(value, *extra)`` — a process waiter is ``(proc._resume,
    (token,))`` with no closure allocated.
    """

    __slots__ = ("triggered", "value", "_waiters")

    def __init__(self) -> None:
        self.triggered = False
        self.value: Any = None
        self._waiters: list[tuple[Callable[..., None], tuple]] = []

    def trigger(self, value: Any = None, engine: "Engine" | None = None) -> None:
        """Fire the signal, waking all current and future waiters.

        If ``engine`` is given, wake-ups are scheduled as zero-delay
        events (preserving FIFO fairness); otherwise they run inline.
        """
        if self.triggered:
            raise RuntimeError("signal already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        if engine is not None:
            for fn, extra in waiters:
                engine._immediate(fn, (value, *extra))
        else:
            for fn, extra in waiters:
                fn(value, *extra)

    def _subscribe(self, engine: "Engine", process: "Process") -> None:
        token = process._token
        if self.triggered:
            engine._immediate(process._resume, (self.value, token))
        else:
            self._waiters.append((process._resume, (token,)))


class AllOf:
    """Wait until every signal in the collection has triggered.

    Resumes with the list of signal values in input order.
    """

    __slots__ = ("signals",)

    def __init__(self, signals: Iterable[Signal]) -> None:
        self.signals = list(signals)

    def _subscribe(self, engine: "Engine", process: "Process") -> None:
        pending = [s for s in self.signals if not s.triggered]
        if not pending:
            engine._immediate(
                process._resume, ([s.value for s in self.signals], process._token)
            )
            return
        wait = _AllOfWait(self.signals, process, len(pending))
        process._cancel_wait = wait.cancel
        for signal in pending:
            signal._waiters.append((wait.on_one, ()))


class _AllOfWait:
    """One process parked on an :class:`AllOf`: counts the pending
    signals down and resumes the process at zero.

    The pending signals hold this object as their waiter and it holds
    the signals (for their values) — a cycle for as long as one of them
    never fires, which :meth:`cancel` cuts when the wait is abandoned.
    """

    __slots__ = ("signals", "process", "token", "remaining")

    def __init__(self, signals: list[Signal], process: "Process", remaining: int) -> None:
        self.signals = signals
        self.process = process
        self.token = process._token
        self.remaining = remaining

    def on_one(self, _value: Any) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.process._resume([s.value for s in self.signals], self.token)

    def cancel(self) -> None:
        # A late trigger still counts down, and its stale token makes
        # the resume a no-op.
        self.signals = ()


class Store:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``Get`` blocks until an item arrives. Items
    are delivered to getters in strict arrival order. Both queues are
    deques: channel ops are on the hot path of every PS message, and a
    ``list.pop(0)`` there would make each delivery O(queue length).
    """

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[tuple["Process", int]] = deque()

    def put(self, item: Any, tail: bool = False) -> None:
        """Deposit ``item``, waking the first live getter.

        ``tail`` is the caller's promise that this call is the last
        thing the current *event* does (a delivery callback, not code
        inside a running generator). The zero-delay wake-up is then the
        next event executed exactly when nothing else is due now, and
        in that case — only then — the getter resumes in place.
        """
        while self._getters:
            process, token = self._getters.popleft()
            if process.alive and token == process._token:
                if tail and self._engine._idle_now():
                    process._resume(item, token)
                else:
                    self._engine._immediate(self._deliver, (process, token, item))
                return
        self._items.append(item)

    def _deliver(self, process: "Process", token: int, item: Any) -> None:
        # The getter may have been killed between the put
        # and this zero-delay wake-up; re-queue the item instead of
        # losing it.
        if process.alive and token == process._token:
            process._resume(item, token)
        else:
            self.put(item)

    def clear(self) -> None:
        """Drop all buffered items and cancel blocked getters."""
        self._items.clear()
        self._getters.clear()

    def __len__(self) -> int:
        return len(self._items)


class Get:
    """Yieldable: receive the next item from a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: Store) -> None:
        self.store = store

    def _subscribe(self, engine: "Engine", process: "Process") -> None:
        store = self.store
        token = process._token
        if store._items:
            item = store._items.popleft()
            engine._immediate(store._deliver, (process, token, item))
        else:
            store._getters.append((process, token))


class _BarrierWait:
    """Yieldable returned by :meth:`Barrier.wait`."""

    __slots__ = ("barrier",)

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier

    def _subscribe(self, engine: "Engine", process: "Process") -> None:
        self.barrier._arrive(process)


class Barrier:
    """Cyclic barrier over ``parties`` processes.

    Each generation completes when ``parties`` processes are blocked in
    :meth:`wait`; all of them resume (FIFO order) and the barrier
    resets for the next generation. ``wait()`` resumes with the
    generation index, letting callers count synchronisation rounds.

    Arrivals are counted at *subscription* time and withdrawn again if
    the waiter is killed, so a dead process never leaks a barrier slot.
    """

    def __init__(self, engine: "Engine", parties: int) -> None:
        if parties <= 0:
            raise ValueError("parties must be positive")
        self._engine = engine
        self.parties = parties
        self.generation = 0
        self._arrivals: list[tuple["Process", int]] = []

    def wait(self) -> _BarrierWait:
        """Return the waitable to yield on for the current generation."""
        return _BarrierWait(self)

    def _arrive(self, process: "Process") -> None:
        entry = (process, process._token)
        self._arrivals.append(entry)
        process._cancel_wait = lambda: self._discard_entry(entry)
        if len(self._arrivals) >= self.parties:
            self._release()

    def _release(self) -> None:
        generation = self.generation
        self.generation += 1
        arrivals, self._arrivals = self._arrivals, []
        for process, token in arrivals:
            process._cancel_wait = None
            self._engine._immediate(process._resume, (generation, token))

    def _discard_entry(self, entry: tuple["Process", int]) -> None:
        try:
            self._arrivals.remove(entry)
        except ValueError:
            pass


class Process:
    """A running simulation process wrapping a generator.

    Every valid wake-up carries the *wait token* captured when the
    process subscribed to its current waitable; :meth:`kill` and
    :meth:`Engine.release` bump the token, so stale wake-ups (a timeout
    that fires after a crash, a barrier release racing one) are
    silently dropped instead of resuming a corpse.
    """

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        self._engine = engine
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal()
        self.alive = True
        self.error: BaseException | None = None
        self._token = 0
        # Set by waitables that hold the blocked process from their side
        # (Barrier arrivals, AllOf countdowns); invoked when the wait is
        # abandoned.
        self._cancel_wait: Callable[[], None] | None = None

    # -- fault delivery --------------------------------------------------
    def kill(self) -> None:
        """Terminate the process immediately (synchronously).

        The generator gets no chance to run on: it is closed
        (``GeneratorExit`` at the yield point, so ``finally`` blocks
        still execute), whatever it was blocked on is abandoned, and
        ``done`` fires with ``None``.
        """
        if not self.alive:
            return
        self._invalidate_wait()
        try:
            self._gen.close()
        except BaseException as exc:  # noqa: BLE001 - a yield inside finally etc.
            self.error = exc
            self._engine._on_process_error(self, exc)
            return
        self._finish(None)

    def _invalidate_wait(self) -> None:
        self._token += 1  # any pending wake-up is now stale
        if self._cancel_wait is not None:
            cancel, self._cancel_wait = self._cancel_wait, None
            cancel()

    # -- resumption ------------------------------------------------------
    def _resume(self, value: Any, token: int | None = None) -> None:
        if not self.alive:
            return
        if token is not None and token != self._token:
            return
        self._token += 1
        self._cancel_wait = None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self.error = exc
            self._engine._on_process_error(self, exc)
            return
        try:
            subscribe = target._subscribe
        except AttributeError:
            error = TypeError(
                f"process {self.name!r} yielded non-waitable {target!r}; "
                "yield Timeout/Get/Signal/AllOf/Barrier.wait()"
            )
            self.error = error
            self._engine._on_process_error(self, error)
            return
        subscribe(self._engine, self)

    def _finish(self, value: Any) -> None:
        self.alive = False
        engine = self._engine
        del engine._live[self]
        obs_finished = engine._obs_proc_finished
        if obs_finished is not None:
            obs_finished(self, engine.now)
        if not self.done.triggered:
            self.done.trigger(value, engine=engine)


class Engine:
    """The simulation executive.

    ``now`` is virtual time in seconds. ``run`` executes events until
    the queue drains, ``until`` is reached, or a process fails.
    Algorithms end a run by letting their processes return, so the
    queue drains.
    """

    def __init__(self, *, observer: "RunObserver | None" = None) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self._stopped = False
        self._events_processed = 0
        self._errors: list[tuple[Process, BaseException]] = []
        # Processes spawned and not yet finished, in spawn order (a dict
        # as an ordered set): what release() closes and what a stalled
        # run names.
        self._live: dict[Process, None] = {}
        # Observability is opt-in: with no observer these stay None and
        # the run loop takes the exact uninstrumented path.
        self._depth_sample = None
        self._obs_proc_started = None
        self._obs_proc_finished = None
        if observer is not None:
            self._depth_sample = observer.sampler("engine.queue_depth")
            self._obs_proc_started = observer.process_started
            self._obs_proc_finished = observer.process_finished

    # -- scheduling ----------------------------------------------------
    def _at(self, delay: float, fn: Callable[..., None], args: tuple) -> None:
        """Schedule ``fn(*args)`` after ``delay`` without a closure.

        Internal fast path: callers guarantee ``delay >= 0``.
        """
        self._queue.push_call(self.now + delay, fn, args)

    def _immediate(self, fn: Callable[..., None], args: tuple) -> None:
        """Schedule ``fn(*args)`` at the current time on the FIFO lane."""
        self._queue.push_lane(self.now, fn, args)

    def _idle_now(self) -> bool:
        """Whether no pending event is due at the current instant.

        When this holds inside a running event, a zero-delay event
        pushed now would be popped next — lane empty, every heap entry
        strictly later — so running its callback at the end of the
        current event *is* the queue order.
        """
        queue = self._queue
        if queue._lane:
            return False
        heap = queue._heap
        return not heap or heap[0][0] > self.now

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process; it first runs at the current time."""
        process = Process(self, gen, name)
        self._live[process] = None
        if self._obs_proc_started is not None:
            self._obs_proc_started(process, self.now)
        self._queue.push_lane(self.now, process._resume, (None, process._token))
        return process

    def store(self) -> Store:
        return Store(self)

    def barrier(self, parties: int) -> Barrier:
        return Barrier(self, parties)

    # -- error handling --------------------------------------------------
    def _on_process_error(self, process: Process, exc: BaseException) -> None:
        process.alive = False
        del self._live[process]
        self._errors.append((process, exc))
        self._stopped = True

    # -- execution ------------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run to completion. Returns the final virtual time.

        Raises the first process error (chained) if any process died.
        """
        self._stopped = False
        # The merge of heap and zero-delay lane is inlined here (see
        # sim/events.py for the ordering contract): this loop runs once
        # per simulated event and is the hottest code in the repo.
        queue = self._queue
        heap = queue._heap
        lane = queue._lane
        heappop = heapq.heappop
        depth_sample = self._depth_sample
        events = self._events_processed
        try:
            while not self._stopped:
                if heap:
                    entry = heap[0]
                    from_lane = False
                    if lane and lane[0] < entry:
                        entry = lane[0]
                        from_lane = True
                elif lane:
                    entry = lane[0]
                    from_lane = True
                else:
                    break
                now = entry[0]
                if until is not None and now > until:
                    self.now = until
                    break
                if from_lane:
                    lane.popleft()
                else:
                    heappop(heap)
                queue._live -= 1
                self.now = now
                entry[2](*entry[3])
                events += 1
                if depth_sample is not None and events % DEPTH_SAMPLE_EVERY == 0:
                    depth_sample(now, float(queue._live))
                if events >= max_events:
                    names = [process.name for process in self._live]
                    more = ", ..." if len(names) > 10 else ""
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; likely a livelock "
                        f"({len(names)} live processes: {', '.join(names[:10])}{more})"
                    )
        finally:
            self._events_processed = events
        if self._errors:
            # The cause is not bound to a local: its traceback reaches
            # this frame, and the frame would reach it back.
            name = self._errors[0][0].name
            raise RuntimeError(
                f"process {name!r} failed at t={self.now:.6f}"
            ) from self._errors[0][1]
        return self.now

    def release(self) -> None:
        """End the simulation's life: close every suspended generator
        and drop every pending event.

        A parked process and the engine reference each other through
        the generator's frame, the waitable it is parked on and the
        queue's bound callbacks; closing the frames and emptying the
        queue leaves nothing for the cycle collector. Clock, counters
        and whatever stores still buffer stay readable; nothing can be
        resumed afterwards.
        """
        live, self._live = self._live, {}
        for process in live:
            process.alive = False
            process._invalidate_wait()
            process._gen.close()
        self._queue.clear()
        for process, _ in self._errors:
            # Its traceback holds the process's own ``_resume`` frame;
            # the error raised by run() carries it as ``__cause__``.
            process.error = None
        self._errors.clear()

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def queue_high_water(self) -> int:
        """Peak number of simultaneously pending events."""
        return self._queue.high_water
