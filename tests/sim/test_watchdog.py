"""Watchdog timeouts and enriched hang diagnostics.

Two complementary failure modes of a silent hang:

* the heap *drains* with processes parked -> :class:`DeadlockError`,
  now carrying one :class:`WaitInfo` per blocked process (which
  primitive, which flag/event, how long),
* the heap stays *live* but virtual time blows past a budget ->
  :class:`WatchdogTimeout` from ``run_until_processes(watchdog_ps=...)``.
"""

import pytest

from repro.sim import DeadlockError, Simulator
from repro.sim.errors import WaitInfo, WatchdogTimeout
from repro.sim.events import Gate
from repro.sim.resources import FifoLock, Semaphore


def test_deadlock_carries_waitinfo_for_gate_waiters():
    sim = Simulator()
    gate = Gate(sim, name="flag[3].rcce.sent.0")

    def blocked(sim):
        yield sim.timeout(100)
        yield gate.wait_true()

    sim.process(blocked(sim), name="core3")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    err = exc_info.value
    assert err.waiting == ["core3"]
    assert len(err.blocked) == 1
    info = err.blocked[0]
    assert isinstance(info, WaitInfo)
    assert info.process == "core3"
    assert info.primitive == "wait_true"
    assert info.target == "flag[3].rcce.sent.0"
    assert info.waited_ps == 0  # parked at t=100, heap drained at t=100
    # The diagnostics are in the message, not just the attributes.
    assert "wait_true(flag[3].rcce.sent.0)" in str(err)


def test_deadlock_waitinfo_reports_elapsed_wait_time():
    sim = Simulator()
    gate = Gate(sim, name="never")

    def runner(sim):
        yield sim.timeout(5000)

    def blocked(sim):
        yield gate.wait_true()

    sim.process(runner(sim), name="runner")
    sim.process(blocked(sim), name="stuck")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    (info,) = exc_info.value.blocked
    assert info.process == "stuck"
    assert info.waited_ps == 5000  # parked at t=0, heap drained at t=5000


def test_deadlock_waitinfo_covers_lock_waiters():
    sim = Simulator()
    lock = FifoLock(sim, name="mpbport7")

    def holder(sim):
        yield lock.acquire()
        yield Gate(sim, name="never").wait_true()  # never releases

    def contender(sim):
        yield lock.acquire()

    sim.process(holder(sim), name="holder")
    sim.process(contender(sim), name="contender")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    by_name = {i.process: i for i in exc_info.value.blocked}
    assert by_name["contender"].primitive == "acquire"
    assert by_name["contender"].target == "mpbport7"


def test_waits_parked_on_the_process_token_keep_their_diagnostics():
    """Holds, lock/semaphore grants and flag waits park on the process's
    reusable token instead of an event of their own; the
    ``primitive(target)`` strings are those the events printed."""
    from repro.hw.config import SCCConfig
    from repro.hw.machine import Machine

    m = Machine(SCCConfig(topology="mesh:2x1"))
    sim = m.sim
    lock = FifoLock(sim, name="cpu9")
    assert lock.try_acquire()
    window = Semaphore(sim, 0, name="rckmpi.win.0-1")
    flag = m.flag(3, "rcce.sent.0")

    def holding(sim):
        yield 1_000_000

    def locked(sim):
        yield lock.acquire()

    def starved(sim):
        yield window.acquire()

    def polling(sim):
        yield from flag.wait_set(m.cores[0])

    procs = [sim.process(body(sim), name=body.__name__)
             for body in (holding, locked, starved, polling)]
    with pytest.raises(WatchdogTimeout) as exc_info:
        sim.run_until_processes(procs, watchdog_ps=1000)
    assert [i.describe() for i in exc_info.value.blocked] == [
        "holding: blocked in wait_event(Timeout) for 0 ps",
        "locked: blocked in acquire(cpu9) for 0 ps",
        "starved: blocked in acquire(rckmpi.win.0-1) for 0 ps",
        "polling: blocked in wait_set(flag[3].rcce.sent.0) for 0 ps",
    ]
    # Past the hold the heap drains: the other three are a deadlock.
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    assert [i.describe() for i in exc_info.value.blocked] == [
        "locked: blocked in acquire(cpu9) for 1000000 ps",
        "starved: blocked in acquire(rckmpi.win.0-1) for 1000000 ps",
        "polling: blocked in wait_set(flag[3].rcce.sent.0) for 1000000 ps",
    ]


def test_watchdog_fires_on_livelock():
    sim = Simulator()

    def spinner(sim):
        while True:  # live forever: poll-loop livelock
            yield sim.timeout(1000)

    def finisher(sim):
        yield sim.timeout(10)

    spin = sim.process(spinner(sim), name="spinner")
    done = sim.process(finisher(sim), name="finisher")
    with pytest.raises(WatchdogTimeout) as exc_info:
        sim.run_until_processes([spin, done], watchdog_ps=50_000)
    err = exc_info.value
    assert err.watchdog_ps == 50_000
    assert err.now_ps <= 50_000
    assert isinstance(err, TimeoutError)  # typed for generic handlers
    assert "watchdog expired" in str(err)


def test_watchdog_reports_blocked_processes():
    sim = Simulator()
    gate = Gate(sim, name="stuck.flag")

    def ticker(sim):
        while True:
            yield sim.timeout(1000)

    def blocked(sim):
        yield gate.wait_true()

    sim.process(ticker(sim), name="ticker")
    target = sim.process(blocked(sim), name="core5")
    with pytest.raises(WatchdogTimeout) as exc_info:
        sim.run_until_processes([target], watchdog_ps=10_000)
    infos = {i.process: i for i in exc_info.value.blocked}
    assert infos["core5"].primitive == "wait_true"
    assert infos["core5"].target == "stuck.flag"
    assert infos["core5"].waited_ps >= 10_000


def test_watchdog_not_triggered_when_run_completes_in_budget():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(500)
        return sim.now

    proc = sim.process(quick(sim))
    sim.run_until_processes([proc], watchdog_ps=1_000_000)
    assert proc.value == 500


def test_watchdog_budget_measured_from_current_instant():
    sim = Simulator()

    def warmup(sim):
        yield sim.timeout(9_000)

    first = sim.process(warmup(sim))
    sim.run_until_processes([first])
    assert sim.now == 9_000

    def slow(sim):
        yield sim.timeout(8_000)
        return sim.now

    # 8k ps of new work fits an 8k budget even though absolute time
    # ends at 17k: the deadline is relative, not absolute.
    proc = sim.process(slow(sim))
    sim.run_until_processes([proc], watchdog_ps=8_000)
    assert proc.value == 17_000


def test_waitinfo_describe_format():
    info = WaitInfo(process="core1", primitive="wait_set",
                    target="flag[0].rcce.ready.1", waited_ps=4200)
    text = info.describe()
    assert "core1" in text
    assert "wait_set(flag[0].rcce.ready.1)" in text
    assert "4200" in text
