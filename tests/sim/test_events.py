"""Unit tests for events, conditions and gates."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Gate, Simulator
from repro.sim.errors import StaleEventError


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()

        def proc(sim, ev):
            value = yield ev
            return value

        ev = sim.event()
        p = sim.process(proc(sim, ev))
        ev.succeed("payload")
        sim.run()
        assert p.value == "payload"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(StaleEventError):
            ev.succeed()
        with pytest.raises(StaleEventError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_unavailable_before_trigger(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            _ = sim.event().value

    def test_ok_and_failed_flags(self):
        sim = Simulator()
        ok = sim.event().succeed(1)
        bad = sim.event().fail(ValueError("v"))
        assert ok.ok and not ok.failed
        assert bad.failed and not bad.ok

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        ev = sim.event().succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_succeed_with_delay(self):
        sim = Simulator()

        def proc(sim, ev):
            yield ev
            return sim.now

        ev = sim.event()
        p = sim.process(proc(sim, ev))
        ev.succeed(delay=250)
        sim.run()
        assert p.value == 250

    def test_inlined_constructors_write_every_event_slot(self):
        # Timeout, AllOf/AnyOf and Process skip Event.__init__ and write
        # its slots themselves; a slot one of them misses would raise here.
        sim = Simulator()

        def idle():
            yield 0

        for event in (sim.timeout(5), AllOf(sim, [sim.event()]),
                      AnyOf(sim, [sim.event()]), sim.process(idle())):
            for slot in Event.__slots__:
                getattr(event, slot)


class TestConditions:
    def test_allof_waits_for_all(self):
        sim = Simulator()

        def child(sim, d):
            yield sim.timeout(d)
            return d

        def parent(sim, kids):
            result = yield AllOf(sim, kids)
            return (sim.now, sorted(result.values()))

        kids = [sim.process(child(sim, d)) for d in (5, 20, 10)]
        p = sim.process(parent(sim, kids))
        sim.run()
        assert p.value == (20, [5, 10, 20])

    def test_anyof_fires_on_first(self):
        sim = Simulator()

        def child(sim, d):
            yield sim.timeout(d)
            return d

        def parent(sim, kids):
            result = yield AnyOf(sim, kids)
            return (sim.now, result.values())

        kids = [sim.process(child(sim, d)) for d in (50, 5, 500)]
        p = sim.process(parent(sim, kids))
        sim.run()
        assert p.value == (5, [5])

    def test_empty_allof_fires_immediately(self):
        sim = Simulator()

        def parent(sim):
            yield AllOf(sim, [])
            return sim.now

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 0

    def test_allof_propagates_failure(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(3)
            raise KeyError("broken")

        def good(sim):
            yield sim.timeout(100)

        def parent(sim, kids):
            try:
                yield AllOf(sim, kids)
            except KeyError:
                return "caught"

        kids = [sim.process(bad(sim)), sim.process(good(sim))]
        p = sim.process(parent(sim, kids))
        sim.run()
        assert p.value == "caught"

    def test_mixed_simulators_rejected(self):
        a, b = Simulator(), Simulator()
        with pytest.raises(ValueError):
            AllOf(a, [a.event(), b.event()])


class TestGate:
    def test_wait_true_resumes_on_set(self):
        sim = Simulator()
        gate = sim.gate()

        def setter(sim, gate):
            yield sim.timeout(100)
            gate.set()

        def waiter(sim, gate):
            yield gate.wait_true()
            return sim.now

        sim.process(setter(sim, gate))
        w = sim.process(waiter(sim, gate))
        sim.run()
        assert w.value == 100

    def test_wait_true_on_already_set_is_immediate(self):
        sim = Simulator()
        gate = sim.gate(value=True)

        def waiter(sim, gate):
            yield gate.wait_true()
            return sim.now

        w = sim.process(waiter(sim, gate))
        sim.run()
        assert w.value == 0

    def test_notify_delay_models_poll_latency(self):
        sim = Simulator()
        gate = sim.gate()

        def setter(sim, gate):
            yield sim.timeout(100)
            gate.set()

        def waiter(sim, gate):
            yield gate.wait_true(notify_delay=40)
            return sim.now

        sim.process(setter(sim, gate))
        w = sim.process(waiter(sim, gate))
        sim.run()
        assert w.value == 140

    def test_wait_false(self):
        sim = Simulator()
        gate = sim.gate(value=True)

        def clearer(sim, gate):
            yield sim.timeout(30)
            gate.clear()

        def waiter(sim, gate):
            yield gate.wait_false()
            return sim.now

        sim.process(clearer(sim, gate))
        w = sim.process(waiter(sim, gate))
        sim.run()
        assert w.value == 30

    def test_set_is_idempotent(self):
        sim = Simulator()
        gate = sim.gate()
        gate.set()
        gate.set()  # no error, no double wakeup
        assert gate.value

    def test_toggle(self):
        sim = Simulator()
        gate = sim.gate()
        gate.toggle()
        assert gate.value
        gate.toggle()
        assert not gate.value

    def test_gate_handshake_cycle(self):
        """A full sent/ready handshake as used by RCCE's Fig. 3 protocol."""
        sim = Simulator()
        sent = sim.gate(name="sent")
        ready = sim.gate(name="ready")

        def sender(sim):
            yield sim.timeout(10)   # put data into MPB
            sent.set()
            yield ready.wait_true()
            ready.clear()
            return sim.now

        def receiver(sim):
            yield sent.wait_true()
            sent.clear()
            yield sim.timeout(25)   # copy data out
            ready.set()
            return sim.now

        s = sim.process(sender(sim))
        r = sim.process(receiver(sim))
        sim.run()
        assert r.value == 35
        assert s.value == 35
        assert not sent.value and not ready.value

    def test_wait_level(self):
        sim = Simulator()
        gate = sim.gate(value=True)
        ev_true = gate.wait_level(True)
        ev_false = gate.wait_level(False)
        assert ev_true.triggered
        assert not ev_false.triggered
