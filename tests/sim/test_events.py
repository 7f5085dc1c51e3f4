"""Tests for the event queue and the engine's one scheduling path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.events import EventQueue


def drain(queue):
    """Pop and run every event; returns the popped entries."""
    popped = []
    while (entry := queue.pop()) is not None:
        popped.append(entry)
        entry.fn(*entry.args)
    return popped


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        order = []
        for t in (3.0, 1.0, 2.0):
            q.push_call(t, order.append, (t,))
        drain(q)
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_tie_breaking(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push_call(1.0, order.append, (i,))
        drain(q)
        assert order == list(range(10))

    def test_lane_and_heap_merge_by_seq(self):
        q = EventQueue()
        order = []
        q.push_lane(0.5, order.append, ("lane-earlier",))
        q.push_call(1.0, order.append, ("heap-first",))
        q.push_lane(1.0, order.append, ("lane",))
        q.push_call(1.0, order.append, ("heap-last",))
        popped = drain(q)
        # Time first; at t=1 the three entries run in push order.
        assert order == ["lane-earlier", "heap-first", "lane", "heap-last"]
        assert [(e.time, e.seq) for e in popped] == [(0.5, 0), (1.0, 1), (1.0, 2), (1.0, 3)]

    def test_len_tracks_push_pop(self):
        q = EventQueue()
        for i in range(8):
            q.push_call(float(i), print, ())
        q.push_lane(0.0, print, ())
        assert len(q) == 9
        assert q.pop().time == 0.0
        assert len(q) == 8
        while q.pop() is not None:
            pass
        assert len(q) == 0
        assert not q

    def test_high_water_is_the_peak_depth(self):
        q = EventQueue()
        for i in range(5):
            q.push_call(float(i), print, ())
        q.push_lane(0.0, print, ())
        for _ in range(4):
            q.pop()
        q.push_call(9.0, print, ())
        assert (len(q), q.high_water) == (3, 6)
        q.clear()
        assert (len(q), q.high_water) == (0, 6)

    def test_popped_entry_is_read_only(self):
        q = EventQueue()
        q.push_call(2.0, print, ("x",))
        entry = q.pop()
        assert (entry.time, entry.seq, entry.fn, entry.args) == (2.0, 0, print, ("x",))
        with pytest.raises(AttributeError):
            entry.time = 3.0

    def test_empty_queue(self):
        q = EventQueue()
        assert not q
        assert q.pop() is None

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push_call(float("nan"), print, ())
        assert len(q) == 0


# -- the one scheduling path: Engine._at / Engine._immediate ------------------

#: An event is ``(delay, children)``: ``delay`` None schedules it with
#: ``_immediate``, a float with ``_at`` (zero and repeated delays
#: included); its children are scheduled from inside its callback.
DELAYS = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 2.0))
EVENTS = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda children: st.tuples(DELAYS, st.lists(children, max_size=4).map(tuple)),
    max_leaves=40,
)


class Program:
    """Schedules a forest of events on an engine and logs, for every
    event that runs, the ``(time, seq)`` it was pushed with."""

    def __init__(self, engine):
        self.engine = engine
        self.pushed = 0
        self.log = []

    def schedule(self, events):
        engine = self.engine
        for delay, children in events:
            key = (engine.now if delay is None else engine.now + delay, self.pushed)
            self.pushed += 1
            if delay is None:
                engine._immediate(self.run, (key, children))
            else:
                engine._at(delay, self.run, (key, children))

    def run(self, key, children):
        assert self.engine.now == key[0]
        self.log.append(key)
        self.schedule(children)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots=st.lists(EVENTS, min_size=1, max_size=6))
def test_events_run_in_time_seq_order_under_run_and_pop(roots):
    by_run = Program(Engine())
    by_run.schedule(roots)
    by_run.engine.run()

    by_pop = Program(Engine())
    by_pop.schedule(roots)
    queue = by_pop.engine._queue
    while (entry := queue.pop()) is not None:
        assert entry.seq == entry.args[0][1]  # the queue's seq is the model's
        by_pop.engine.now = entry.time
        entry.fn(*entry.args)

    assert by_run.log == by_pop.log
    assert len(by_run.log) == by_run.pushed == by_run.engine.events_processed
    assert by_run.log == sorted(by_run.log)
