"""Unit tests for the process model (including interrupts)."""

import pytest

from repro.sim import Event, Interrupt, Simulator
from repro.sim.errors import SimulationError
from repro.sim.resources import FifoLock


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return {"answer": 42}

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == {"answer": 42}


def test_process_name_defaults_to_generator_name():
    sim = Simulator()

    def my_worker(sim):
        yield sim.timeout(1)

    p = sim.process(my_worker(sim))
    assert p.name == "my_worker"
    sim.run()


def test_processes_can_wait_on_each_other():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(500)
        return "done"

    def parent(sim):
        c = sim.process(child(sim))
        result = yield c
        return (result, sim.now)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("done", 500)


def test_nested_subgenerators_via_yield_from():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(10)
        return "inner-value"

    def outer(sim):
        value = yield from inner(sim)
        yield sim.timeout(5)
        return value + "!"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "inner-value!"
    assert sim.now == 15


class TestInterrupt:
    def test_interrupt_waiting_process(self):
        sim = Simulator()

        def victim(sim):
            try:
                yield sim.timeout(10_000)
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        def attacker(sim, target):
            yield sim.timeout(100)
            target.interrupt("cancelled")

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        sim.run()
        assert v.value == ("interrupted", "cancelled", 100)

    def test_stale_wakeup_after_interrupt_is_ignored(self):
        """The abandoned timeout must not resume the process again."""
        sim = Simulator()
        resumes = []

        victim_box = []

        def victim(sim):
            try:
                yield sim.timeout(50)
            except Interrupt:
                pass
            resumes.append(sim.now)
            yield sim.timeout(1000)
            resumes.append(sim.now)

        def attacker(sim):
            yield sim.timeout(50)  # same instant as the victim's timeout
            victim_box[0].interrupt()

        # The attacker is created first, so at t=50 its wakeup processes
        # before the victim's own timeout: the interrupt races with (and
        # must beat) the timeout that fires at the very same instant.
        sim.process(attacker(sim))
        v = sim.process(victim(sim))
        victim_box.append(v)
        sim.run()
        assert v.triggered
        # Exactly two resumes: after the interrupt and after the new wait.
        assert resumes == [50, 1050]

    def test_interrupt_completed_process_rejected(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self):
        sim = Simulator()

        def victim(sim):
            yield sim.timeout(10_000)

        def attacker(sim, target):
            yield sim.timeout(1)
            target.interrupt()

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        sim.run(check_deadlock=False)
        assert v.failed
        assert isinstance(v.value, Interrupt)


class TestParkingToken:
    """Inside a process, lock/semaphore/gate waits are the process's own
    reusable token; outside one they stay plain events."""

    def test_waits_outside_a_process_are_plain_events(self):
        sim = Simulator()
        lock = FifoLock(sim)
        assert type(lock.acquire()) is Event
        assert type(sim.gate().wait_true()) is Event

        def proc(sim):
            yield 5

        sim.process(proc(sim))
        sim.run()
        assert type(lock.acquire()) is Event  # no stale active process

    def test_waits_inside_a_process_reuse_one_token(self):
        sim = Simulator()
        lock = FifoLock(sim)
        gate = sim.gate(value=True)
        seen = []

        def proc(sim):
            for wait in (lock.acquire, gate.wait_true, lock.release):
                token = wait()
                if token is not None:
                    seen.append(token)
                    got = yield token
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert seen[0] is seen[1] and type(seen[0]) is not Event
        assert p.value is True  # the gate level, as the event delivered

    def test_interrupted_gate_wait_is_not_resumed_by_a_later_set(self):
        sim = Simulator()
        gate = sim.gate()
        resumes = []

        def victim(sim):
            try:
                yield gate.wait_true()
            except Interrupt:
                resumes.append(("interrupt", sim.now))
            yield 1000
            resumes.append(("hold", sim.now))

        def attacker(sim, target):
            yield 10
            target.interrupt()
            yield 10
            gate.set()  # wakes the retired token: must resume nobody

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        sim.run()
        assert resumes == [("interrupt", 10), ("hold", 1010)]

    @pytest.mark.parametrize("then", ["hold", "event", "other"])
    def test_claimed_wait_must_be_yielded_next(self, then):
        """A token queued on a lock cannot also serve another wait."""
        sim = Simulator()
        lock = FifoLock(sim, name="cpu0")
        lock.try_acquire()

        def bad(sim):
            lock.acquire()
            yield {"hold": 5, "event": sim.timeout(5), "other": "x"}[then]

        p = sim.process(bad(sim))
        sim.run(check_deadlock=False)
        assert p.failed and isinstance(p.value, SimulationError)
        assert "pending acquire(cpu0)" in str(p.value)

    def test_second_wait_in_one_step_is_a_plain_event(self):
        sim = Simulator()
        a, b = FifoLock(sim), FifoLock(sim)

        def proc(sim):
            first, second = a.acquire(), b.acquire()
            assert type(second) is Event
            yield first
            yield second
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 0 and a.locked and b.locked

    def test_yielding_an_unclaimed_token_fails_the_process(self):
        sim = Simulator()
        lock = FifoLock(sim)

        def bad(sim):
            token = lock.acquire()
            yield token
            yield token  # nothing will ever wake it

        p = sim.process(bad(sim))
        sim.run(check_deadlock=False)
        assert p.failed and isinstance(p.value, SimulationError)

