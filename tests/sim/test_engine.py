"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim import DeadlockError, Simulator
from repro.sim.errors import SimulationError


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0


def test_timeout_advances_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1500)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 1500
    assert sim.now == 1500


def test_timeout_zero_is_legal():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    seen = []

    def proc(sim):
        for d in (10, 20, 30):
            yield sim.timeout(d)
            seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [10, 30, 60]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        for _ in range(3):
            yield sim.timeout(delay)
            order.append((name, sim.now))

    sim.process(proc(sim, "a", 10))
    sim.process(proc(sim, "b", 15))
    sim.run()
    # At t=30 both are due; b's timeout entered the heap earlier (at t=15,
    # vs a's at t=20), so FIFO tie-breaking resumes b first.
    assert order == [
        ("a", 10), ("b", 15), ("a", 20), ("b", 30), ("a", 30), ("b", 45),
    ]


def test_simultaneous_events_fifo_order():
    """Events at the same instant process in insertion order."""
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(100)
        order.append(name)

    for name in ("p0", "p1", "p2"):
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["p0", "p1", "p2"]


def test_run_until_stops_early():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1000)
        yield sim.timeout(1000)

    p = sim.process(proc(sim))
    sim.run(until=1500)
    assert sim.now == 1500
    assert p.is_alive


def test_run_until_processes():
    sim = Simulator()

    def short(sim):
        yield sim.timeout(10)
        return "short"

    def long(sim):
        yield sim.timeout(10_000)
        return "long"

    s = sim.process(short(sim))
    sim.process(long(sim))
    sim.run_until_processes([s])
    assert sim.now == 10
    assert s.value == "short"


def test_deadlock_detection():
    sim = Simulator()

    def waiter(sim, ev):
        yield ev  # never fires

    sim.process(waiter(sim, sim.event()), name="stuck")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck" in str(exc.value)


def test_deadlock_check_can_be_disabled():
    sim = Simulator()

    def waiter(sim, ev):
        yield ev

    sim.process(waiter(sim, sim.event()))
    assert sim.run(check_deadlock=False) == 0


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(5)
        raise RuntimeError("boom")

    def waiter(sim, target):
        try:
            yield target
        except RuntimeError as e:
            return str(e)

    b = sim.process(boom(sim))
    w = sim.process(waiter(sim, b))
    sim.run()
    assert w.value == "boom"
    assert b.failed


def _assert_yield_fails_process(value):
    sim = Simulator()

    def bad(sim):
        yield value

    p = sim.process(bad(sim))
    sim.run(check_deadlock=False)
    assert p.failed
    assert isinstance(p.value, SimulationError)
    assert repr(value) in str(p.value)


def test_yielding_non_event_fails_process():
    _assert_yield_fails_process("soon")


@pytest.mark.parametrize("value", [-1, True, 2.5])
def test_only_a_non_negative_int_is_a_hold(value):
    _assert_yield_fails_process(value)


def test_yielding_an_int_holds_that_many_picoseconds():
    sim = Simulator()

    def proc(sim):
        got = yield 42
        yield 0
        return (got, sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (None, 42)
    assert sim.events_processed == 4  # start, two holds, completion


def test_schedule_into_past_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.succeed(delay=-5)


def test_pending_events_counter():
    sim = Simulator()
    assert sim.pending_events == 0
    sim.timeout(100)
    assert sim.pending_events == 1


def test_live_processes_listing():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    p = sim.process(proc(sim), name="live")
    assert p in sim.live_processes
    sim.run()
    assert sim.live_processes == []


def test_determinism_across_runs():
    """Two identical simulations give identical event orderings."""

    def build():
        sim = Simulator()
        log = []

        def proc(sim, name, delays):
            for d in delays:
                yield sim.timeout(d)
                log.append((name, sim.now))

        sim.process(proc(sim, "x", [7, 7, 7]))
        sim.process(proc(sim, "y", [3, 11, 7]))
        sim.process(proc(sim, "z", [21]))
        sim.run()
        return log

    assert build() == build()
