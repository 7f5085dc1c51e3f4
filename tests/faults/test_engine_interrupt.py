"""Barrier membership under the fault layer's one engine primitive, kill.

A killed waiter withdraws exactly its own arrival: the barrier's count,
its generation number and the other waiters are left as they were.
"""

import pytest

from repro.sim.engine import Barrier, Engine, Timeout


class TestInterruptWhileBlocked:
    def test_interrupt_in_barrier_wait(self):
        eng = Engine()
        barrier = Barrier(eng, parties=3)
        log = []

        def waiter(i):
            try:
                gen = yield barrier.wait()
                log.append((i, gen, eng.now))
            finally:
                log.append((i, "exit"))

        procs = [eng.spawn(waiter(i)) for i in range(2)]

        def attacker():
            yield Timeout(1.0)
            procs[0].kill()
            eng.spawn(waiter(2))
            eng.spawn(waiter(3))  # with the survivor, a full generation

        eng.spawn(attacker())
        eng.run()
        assert log[0] == (0, "exit")
        assert (0, 0, 1.0) not in log
        assert (1, 0, 1.0) in log
        assert not procs[0].alive and procs[0].error is None


class TestBarrierMembership:
    def test_cyclic_reuse_after_resize(self):
        """A withdrawn arrival completes no generation: the barrier's
        first full round after the kill is still generation 0."""
        eng = Engine()
        barrier = Barrier(eng, parties=2)
        rounds = []

        def waiter():
            yield barrier.wait()
            rounds.append("doomed")

        def worker(i):
            for _ in range(2):
                gen = yield barrier.wait()
                rounds.append((gen, i))

        doomed = eng.spawn(waiter())

        def script():
            yield Timeout(1.0)
            doomed.kill()
            eng.spawn(worker(0))
            eng.spawn(worker(1))

        eng.spawn(script())
        eng.run()
        assert sorted(rounds) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_discard_removes_specific_waiter(self):
        """Killing a waiter in the middle of the arrival order removes
        that waiter, not the first or the last to arrive."""
        eng = Engine()
        barrier = Barrier(eng, parties=4)
        woke = []

        def waiter(i):
            yield barrier.wait()
            woke.append(i)

        procs = [eng.spawn(waiter(i)) for i in range(3)]

        def script():
            yield Timeout(1.0)
            procs[1].kill()
            assert barrier.waiting == 2
            eng.spawn(waiter(3))
            eng.spawn(waiter(4))

        eng.spawn(script())
        eng.run()
        assert sorted(woke) == [0, 2, 3, 4]

    def test_rejects_nonpositive_parties(self):
        eng = Engine()
        for parties in (0, -1):
            with pytest.raises(ValueError):
                Barrier(eng, parties=parties)
            with pytest.raises(ValueError):
                eng.barrier(parties)
