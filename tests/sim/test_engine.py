"""Tests for the process-based discrete-event engine."""

import pytest

from repro.sim.engine import AllOf, Barrier, Engine, Get, Signal, Timeout


class TestTimeout:
    def test_advances_virtual_time(self):
        eng = Engine()
        times = []

        def proc():
            yield Timeout(1.5)
            times.append(eng.now)
            yield Timeout(0.5)
            times.append(eng.now)

        eng.spawn(proc())
        eng.run()
        assert times == [1.5, 2.0]

    def test_zero_delay_allowed(self):
        eng = Engine()
        done = []

        def proc():
            yield Timeout(0.0)
            done.append(True)

        eng.spawn(proc())
        eng.run()
        assert done == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)


class TestProcessLifecycle:
    def test_return_value_via_done_signal(self):
        eng = Engine()
        results = []

        def child():
            yield Timeout(1.0)
            return 42

        def parent():
            proc = eng.spawn(child())
            value = yield proc.done
            results.append(value)

        eng.spawn(parent())
        eng.run()
        assert results == [42]

    def test_process_error_propagates(self):
        eng = Engine()

        def bad():
            yield Timeout(1.0)
            raise RuntimeError("boom")

        eng.spawn(bad(), name="bad")
        with pytest.raises(RuntimeError, match="bad"):
            eng.run()

    def test_yielding_non_waitable_fails(self):
        eng = Engine()

        def bad():
            yield 42

        eng.spawn(bad())
        with pytest.raises(RuntimeError):
            eng.run()

    def test_max_events_guards_livelock(self):
        eng = Engine()

        def spinner():
            while True:
                yield Timeout(0.0)

        eng.spawn(spinner())
        with pytest.raises(RuntimeError, match="max_events"):
            eng.run(max_events=100)


class TestSignal:
    def test_broadcast_wakes_all(self):
        eng = Engine()
        sig = Signal()
        woken = []

        def waiter(i):
            value = yield sig
            woken.append((i, value, eng.now))

        def trigger():
            yield Timeout(2.0)
            sig.trigger("hello", engine=eng)

        for i in range(3):
            eng.spawn(waiter(i))
        eng.spawn(trigger())
        eng.run()
        assert woken == [(0, "hello", 2.0), (1, "hello", 2.0), (2, "hello", 2.0)]

    def test_wait_on_triggered_signal_resumes_immediately(self):
        eng = Engine()
        sig = Signal()
        sig.trigger("early")
        got = []

        def waiter():
            value = yield sig
            got.append(value)

        eng.spawn(waiter())
        eng.run()
        assert got == ["early"]

    def test_double_trigger_raises(self):
        sig = Signal()
        sig.trigger()
        with pytest.raises(RuntimeError):
            sig.trigger()


class TestAllOf:
    def test_waits_for_all(self):
        eng = Engine()
        sigs = [Signal() for _ in range(3)]
        result = []

        def waiter():
            values = yield AllOf(sigs)
            result.append((values, eng.now))

        def trigger(i, t):
            yield Timeout(t)
            sigs[i].trigger(i, engine=eng)

        eng.spawn(waiter())
        for i, t in enumerate([3.0, 1.0, 2.0]):
            eng.spawn(trigger(i, t))
        eng.run()
        values, t = result[0]
        assert values == [0, 1, 2]  # input order, not trigger order
        assert t == 3.0

    def test_empty_or_pretriggered(self):
        eng = Engine()
        sig = Signal()
        sig.trigger("x")
        out = []

        def waiter():
            values = yield AllOf([sig])
            out.append(values)

        eng.spawn(waiter())
        eng.run()
        assert out == [["x"]]


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = eng.store()
        got = []

        def producer():
            yield Timeout(1.0)
            store.put("a")
            store.put("b")

        def consumer():
            item = yield Get(store)
            got.append((item, eng.now))
            item = yield Get(store)
            got.append((item, eng.now))

        eng.spawn(consumer())
        eng.spawn(producer())
        eng.run()
        assert got == [("a", 1.0), ("b", 1.0)]

    def test_fifo_across_getters(self):
        eng = Engine()
        store = eng.store()
        got = []

        def consumer(i):
            item = yield Get(store)
            got.append((i, item))

        for i in range(3):
            eng.spawn(consumer(i))

        def producer():
            yield Timeout(1.0)
            for x in "xyz":
                store.put(x)

        eng.spawn(producer())
        eng.run()
        assert got == [(0, "x"), (1, "y"), (2, "z")]

    def test_len_counts_buffered(self):
        eng = Engine()
        store = eng.store()
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestBarrier:
    def test_releases_all_at_nth(self):
        eng = Engine()
        barrier = eng.barrier(3)
        released = []

        def proc(i, t):
            yield Timeout(t)
            gen = yield barrier.wait()
            released.append((i, gen, eng.now))

        for i, t in enumerate([1.0, 5.0, 3.0]):
            eng.spawn(proc(i, t))
        eng.run()
        assert all(t == 5.0 for _, _, t in released)
        assert all(gen == 0 for _, gen, _ in released)

    def test_cyclic_reuse(self):
        eng = Engine()
        barrier = eng.barrier(2)
        gens = []

        def proc():
            for _ in range(3):
                yield Timeout(1.0)
                gen = yield barrier.wait()
                gens.append(gen)

        eng.spawn(proc())
        eng.spawn(proc())
        eng.run()
        assert sorted(gens) == [0, 0, 1, 1, 2, 2]

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            Engine().barrier(0)


class TestRunControl:
    def test_until_stops_clock(self):
        eng = Engine()

        def proc():
            while True:
                yield Timeout(1.0)

        eng.spawn(proc())
        final = eng.run(until=10.5)
        assert final == 10.5

    def test_process_error_halts_the_run_immediately(self):
        eng = Engine()
        ticks = []

        def ticker():
            while True:
                yield Timeout(1.0)
                ticks.append(eng.now)

        def bad():
            yield Timeout(2.5)
            raise RuntimeError("boom")

        eng.spawn(ticker())
        eng.spawn(bad(), name="bad")
        with pytest.raises(RuntimeError, match="'bad' failed at t=2.5"):
            eng.run()
        assert ticks == [1.0, 2.0]

    def test_determinism(self):
        """Two identical engines produce identical event interleavings."""

        def make_trace():
            eng = Engine()
            trace = []

            def proc(i):
                for step in range(5):
                    yield Timeout(0.5 * (i + 1))
                    trace.append((i, step, eng.now))

            for i in range(4):
                eng.spawn(proc(i))
            eng.run()
            return trace

        assert make_trace() == make_trace()


class TestTailDelivery:
    """``Store.put(item, tail=True)`` — the last act of a delivery event —
    resumes the getter in place exactly when the zero-delay wake-up would
    have been the next event anyway. Every scenario runs twice, once
    with the predicate forced false (the lane-only engine this one
    replaced), and must log the same order."""

    @staticmethod
    def scenario(build, *, lane_only):
        eng = Engine()
        if lane_only:
            eng._idle_now = lambda: False
        log = []
        build(eng, log)
        eng.run()
        return log, eng.events_processed

    @staticmethod
    def getter(eng, store, log, name):
        def body():
            item = yield Get(store)
            log.append((name, item, eng.now))

        return eng.spawn(body(), name)

    @staticmethod
    def deliver(store, item, log):
        log.append(("deliver", item))
        store.put(item, True)

    def both(self, build):
        tail = self.scenario(build, lane_only=False)
        lane = self.scenario(build, lane_only=True)
        assert tail[0] == lane[0]
        return tail[0], lane[1] - tail[1]

    def test_idle_instant_resumes_in_place(self):
        def build(eng, log):
            store = eng.store()
            self.getter(eng, store, log, "g")
            eng._at(1.0, self.deliver, (store, "a", log))

        log, saved = self.both(build)
        assert log == [("deliver", "a"), ("g", "a", 1.0)]
        assert saved == 1

    def test_two_deliveries_at_one_instant_take_the_lane(self):
        def build(eng, log):
            first, second = eng.store(), eng.store()
            self.getter(eng, first, log, "g1")
            self.getter(eng, second, log, "g2")
            eng._at(1.0, self.deliver, (first, "a", log))
            eng._at(1.0, self.deliver, (second, "b", log))

        log, saved = self.both(build)
        # Both deposits land before either getter runs: the first sees
        # the second delivery due now, the second sees the first's
        # wake-up on the lane.
        assert log == [
            ("deliver", "a"), ("deliver", "b"), ("g1", "a", 1.0), ("g2", "b", 1.0),
        ]
        assert saved == 0

    def test_heap_event_due_now_runs_before_the_getter(self):
        def build(eng, log):
            store = eng.store()
            self.getter(eng, store, log, "g")

            def timer():
                yield Timeout(1.0)
                log.append(("timer", eng.now))

            eng._at(1.0, self.deliver, (store, "a", log))
            eng.spawn(timer())  # its wake-up at t=1 is pushed after the delivery

        log, saved = self.both(build)
        assert log == [("deliver", "a"), ("timer", 1.0), ("g", "a", 1.0)]
        assert saved == 0

    def test_non_empty_lane_runs_before_the_getter(self):
        def build(eng, log):
            store = eng.store()
            self.getter(eng, store, log, "g")

            def fill_lane():
                eng._immediate(log.append, ("lane",))

            eng._at(1.0, fill_lane, ())
            eng._at(1.0, self.deliver, (store, "a", log))

        log, saved = self.both(build)
        assert log == [("deliver", "a"), "lane", ("g", "a", 1.0)]
        assert saved == 0

    def test_put_inside_a_generator_is_never_a_tail(self):
        def build(eng, log):
            store = eng.store()
            self.getter(eng, store, log, "g")

            def producer():
                yield Timeout(1.0)
                store.put("a")
                log.append("after put")

            eng.spawn(producer())

        log, saved = self.both(build)
        assert log == ["after put", ("g", "a", 1.0)]
        assert saved == 0

    def test_getter_killed_before_delivery_leaves_item_buffered(self):
        def build(eng, log):
            store = eng.store()
            victim = self.getter(eng, store, log, "victim")
            eng._at(0.5, victim.kill, ())
            eng._at(1.0, self.deliver, (store, "a", log))
            eng._at(2.0, lambda: log.append(("buffered", len(store))), ())

        log, saved = self.both(build)
        assert log == [("deliver", "a"), ("buffered", 1)]
        assert saved == 0

    def test_getter_killed_between_put_and_wakeup_requeues_item(self):
        def build(eng, log):
            store = eng.store()
            victim = self.getter(eng, store, log, "victim")
            eng._at(1.0, self.deliver, (store, "a", log))
            eng._at(1.0, victim.kill, ())  # due now: the put takes the lane
            eng._at(2.0, lambda: self.getter(eng, store, log, "heir"), ())

        log, _ = self.both(build)
        assert log == [("deliver", "a"), ("heir", "a", 2.0)]

    def test_getter_killed_at_the_delivery_instant(self):
        def build(eng, log):
            store = eng.store()
            victim = self.getter(eng, store, log, "victim")
            eng._at(1.0, victim.kill, ())  # due first at the instant
            eng._at(1.0, self.deliver, (store, "a", log))
            eng._at(1.0, lambda: log.append(("buffered", len(store))), ())
            eng._at(2.0, lambda: self.getter(eng, store, log, "heir"), ())

        log, _ = self.both(build)
        # The kill voided the wait before the deposit: the stale getter
        # is skipped, the item waits in the mailbox for the next getter.
        assert log == [("deliver", "a"), ("buffered", 1), ("heir", "a", 2.0)]


class TestKill:
    """``Process.kill`` abandons whatever the process is blocked on: the
    wait token moves on, so no stale wake-up ever resumes it."""

    def test_kill_runs_finally(self):
        eng = Engine()
        log = []

        def victim():
            try:
                yield Timeout(100.0)
            finally:
                log.append("cleanup")

        def attacker(p):
            yield Timeout(1.0)
            p.kill()
            log.append("killed")

        p = eng.spawn(victim())
        eng.spawn(attacker(p))
        eng.run()
        # kill is synchronous: cleanup precedes the attacker's next line
        assert log == ["cleanup", "killed"]
        assert not p.alive and p.error is None

    def test_kill_in_timeout(self):
        eng = Engine()
        log = []

        def victim():
            yield Timeout(100.0)
            log.append("woke")

        p = eng.spawn(victim())
        eng._at(1.0, p.kill, ())
        # The stale wake-up at t=100 still pops, as a no-op.
        assert eng.run() == 100.0
        assert log == [] and not p.alive

    def test_killed_process_dies_cleanly(self):
        eng = Engine()
        done = []

        def victim():
            yield Timeout(100.0)

        def watcher(p):
            value = yield p.done
            done.append((value, eng.now))

        p = eng.spawn(victim())
        eng.spawn(watcher(p))
        eng._at(1.0, p.kill, ())
        eng.run()  # must not raise
        assert not p.alive and p.error is None
        assert done == [(None, 1.0)]

    def test_kill_dead_process_is_noop(self):
        eng = Engine()

        def quick():
            yield Timeout(0.1)

        p = eng.spawn(quick())
        eng.run()
        assert not p.alive
        p.kill()  # no exception, no effect
        eng.run()
        assert p.error is None

    def test_kill_in_get(self):
        eng = Engine()
        store = eng.store()
        log = []

        def victim():
            log.append((yield Get(store)))

        def attacker(p):
            yield Timeout(1.0)
            p.kill()
            yield Timeout(1.0)
            store.put("late")  # nobody is waiting any more

        p = eng.spawn(victim())
        eng.spawn(attacker(p))
        eng.run()
        assert log == []
        assert len(store) == 1  # the late item stays queued

    def test_killed_getter_does_not_swallow_item(self):
        """An item scheduled for delivery to a since-killed getter is
        re-queued, not lost."""
        eng = Engine()
        store = eng.store()
        log = []

        def victim():
            log.append(("victim-got", (yield Get(store))))

        def attacker(p):
            store.put("item")  # schedules delivery to the victim
            p.kill()  # ...which dies before the delivery event
            yield Timeout(0.1)
            msg = yield Get(store)
            log.append(("rescued", msg))

        p = eng.spawn(victim())
        eng.spawn(attacker(p))
        eng.run()
        assert log == [("rescued", "item")]

    def test_kill_in_allof(self):
        eng = Engine()
        signals = [Signal(), Signal()]
        log = []

        def victim():
            yield AllOf(signals)
            log.append("woke")

        p = eng.spawn(victim())
        eng._at(1.0, p.kill, ())
        eng._at(2.0, signals[0].trigger, ())
        eng._at(2.0, signals[1].trigger, ())
        eng.run()
        assert log == []

    def test_kill_in_barrier_wait(self):
        eng = Engine()
        barrier = Barrier(eng, parties=3)
        log = []

        def waiter(i):
            gen = yield barrier.wait()
            log.append((i, gen, eng.now))

        victim = eng.spawn(waiter(0))
        eng.spawn(waiter(1))

        def script():
            yield Timeout(1.0)
            victim.kill()
            assert len(barrier._arrivals) == 1  # only the victim's arrival left
            eng.spawn(waiter(2))
            yield Timeout(1.0)
            eng.spawn(waiter(3))

        eng.spawn(script())
        eng.run()
        assert log == [(1, 0, 2.0), (2, 0, 2.0), (3, 0, 2.0)]

    def test_killed_barrier_waiter_releases_slot(self):
        eng = Engine()
        barrier = Barrier(eng, parties=2)
        log = []

        def waiter(i):
            gen = yield barrier.wait()
            log.append((i, gen))

        doomed = eng.spawn(waiter(0))

        def script():
            yield Timeout(1.0)
            doomed.kill()
            assert len(barrier._arrivals) == 0  # the dead waiter left no count
            eng.spawn(waiter(1))  # a third party takes the freed slot
            eng.spawn(waiter(2))

        eng.spawn(script())
        eng.run()
        assert log == [(1, 0), (2, 0)]

    def test_kill_schedule_is_deterministic(self):
        """The same kill script yields the same event trace twice."""

        def run_once():
            eng = Engine()
            trace = []

            def worker(i):
                while True:
                    yield Timeout(0.5 + i * 0.1)
                    trace.append(("tick", i, round(eng.now, 6)))

            procs = [eng.spawn(worker(i)) for i in range(3)]

            def chaos():
                for victim in (1, 0):
                    yield Timeout(0.75)
                    procs[victim].kill()
                    trace.append(("kill", victim, round(eng.now, 6)))

            eng.spawn(chaos())
            eng.run(until=3.0)
            return trace

        assert run_once() == run_once()

    def test_fifo_tie_break_preserved_under_kill(self):
        """Two processes resumed at the same instant keep spawn order
        even when a third between them is killed."""
        eng = Engine()
        order = []

        def worker(i):
            yield Timeout(1.0)
            order.append(i)

        procs = [eng.spawn(worker(i)) for i in range(3)]
        eng._at(0.5, procs[1].kill, ())
        eng.run()
        assert order == [0, 2]
