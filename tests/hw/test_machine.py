"""Unit tests for Machine, Core, CoreEnv and the SPMD launcher."""

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.mpb import MPBRegion
from repro.hw.protocol import CHARGE, COMPUTE, COPY, PUT, bind, run_ops
from repro.sim import Interrupt


def small_machine(**over):
    """A 2x1-tile (4-core) machine for cheap tests."""
    cfg = SCCConfig(topology="mesh:2x1", **over)
    return Machine(cfg)


def put_at(m, core_id, owner, nbytes):
    """``core_id`` copies ``nbytes`` into ``owner``'s MPB: one priced PUT
    micro-op, the charge that holds the CPU and then the MPB port."""
    mpb = m.mpbs[owner]
    region = MPBRegion(mpb, mpb.payload_offset, nbytes)
    core = m.cores[core_id]
    return run_ops(core, bind(core, ((PUT, 0, COPY),), (region,), nbytes),
                   np.zeros(nbytes, dtype=np.uint8))


class TestConstruction:
    def test_default_machine_has_48_cores(self):
        m = Machine()
        assert m.num_cores == 48
        assert len(m.cores) == 48
        assert len(m.mpbs) == 48

    def test_small_machine(self):
        m = small_machine()
        assert m.num_cores == 4


class TestFlags:
    def test_flag_created_on_demand_and_cached(self):
        m = small_machine()
        f1 = m.flag(0, "sent")
        f2 = m.flag(0, "sent")
        assert f1 is f2
        assert not f1.value

    def test_flag_distinct_per_owner_and_name(self):
        m = small_machine()
        assert m.flag(0, "sent") is not m.flag(1, "sent")
        assert m.flag(0, "sent") is not m.flag(0, "ready")

    def test_flag_owner_range_checked(self):
        m = small_machine()
        with pytest.raises(ValueError):
            m.flag(99, "x")

    def test_flag_timed_set_and_wait(self):
        m = small_machine()
        flag = m.flag(1, "sync")

        def setter(env):
            yield from env.compute(100)
            yield from flag.set_by(env.core)

        def waiter(env):
            yield from flag.wait_set(env.core)
            return env.now

        def program(env):
            if env.rank == 0:
                return (yield from setter(env))
            elif env.rank == 1:
                return (yield from waiter(env))
            yield from env.compute(0)

        result = m.run_spmd(program)
        # Waiter resumed after: 100 compute cycles + remote flag write +
        # notify latency. All positive -> strictly after the set.
        assert result.values[1] > m.latency.core_cycles(100)


class TestRunSPMD:
    def test_all_ranks_run_and_return(self):
        m = small_machine()

        def program(env):
            yield from env.compute(10)
            return env.rank * 2

        result = m.run_spmd(program)
        assert result.values == [0, 2, 4, 6]

    def test_elapsed_is_makespan(self):
        m = small_machine()

        def program(env):
            yield from env.compute(100 * (env.rank + 1))

        result = m.run_spmd(program)
        assert result.elapsed_ps == m.latency.core_cycles(400)

    def test_rank_subset(self):
        m = small_machine()

        def program(env):
            yield from env.compute(1)
            return (env.rank, env.size, env.core_id)

        result = m.run_spmd(program, ranks=[1, 3])
        assert result.values == [(0, 2, 1), (1, 2, 3)]

    def test_args_passed_through(self):
        m = small_machine()

        def program(env, a, b=0):
            yield from env.compute(1)
            return a + b + env.rank

        result = m.run_spmd(program, 10, b=5)
        assert result.values[2] == 17

    def test_empty_ranks_rejected(self):
        m = small_machine()
        with pytest.raises(ValueError):
            m.run_spmd(lambda env: iter(()), ranks=[])

    def test_accounts_collected(self):
        m = small_machine()

        def program(env):
            yield from env.compute(1000)

        result = m.run_spmd(program)
        for acct in result.accounts:
            assert acct.get("compute") == m.latency.core_cycles(1000)
        assert result.account_fraction("compute") == 1.0

    def test_sequential_launches_share_clock(self):
        m = small_machine()

        def program(env):
            yield from env.compute(10)

        r1 = m.run_spmd(program)
        r2 = m.run_spmd(program)
        # Both launches measure their own elapsed time.
        assert r1.elapsed_ps == r2.elapsed_ps > 0


class TestCore:
    def test_consume_serializes_on_cpu_lock(self):
        m = small_machine()
        core = m.cores[0]
        done = []

        def user(env_unused, tag, dur):
            yield from core.consume(dur, "compute")
            done.append((tag, m.sim.now))

        m.sim.process(user(None, "a", 1000))
        m.sim.process(user(None, "b", 500))
        m.sim.run()
        # b started only after a released the lock.
        assert done == [("a", 1000), ("b", 1500)]

    def test_wait_accounts_time(self):
        m = small_machine()
        core = m.cores[0]

        def waiter():
            yield from core.wait(m.sim.timeout(777), "wait_flag")

        m.sim.process(waiter())
        m.sim.run()
        assert core.account.get("wait_flag") == 777


class TestInterruptedWhileQueued:
    """A process interrupted while queued for a lock must back out of the
    queue: the grant would otherwise go to a dead waiter and the next
    user of the core (or MPB port) would block forever."""

    PS = 1_000_000

    def _run(self, m, holder, charge, locks):
        """``holder`` owns the lock for 1 us; a victim queues behind it
        with ``charge()`` and is interrupted at 100 ps; a third process
        then makes the same charge and must get through."""
        sim = m.sim

        def victim():
            try:
                yield from charge()
            except Interrupt:
                return "interrupted"

        def attacker(target):
            yield sim.timeout(100)
            target.interrupt()

        def third():
            yield sim.timeout(200)
            yield from charge()
            return sim.now

        sim.process(holder, name="holder")
        v = sim.process(victim(), name="victim")
        sim.process(attacker(v), name="attacker")
        t = sim.process(third(), name="third")
        sim.run()  # DeadlockError when the grant leaks
        assert v.value == "interrupted"
        assert t.value > self.PS
        assert not any(lock.locked or lock.queue_length for lock in locks)

    def test_core_consume(self):
        m = small_machine()
        core = m.cores[0]
        self._run(m, core.consume(self.PS, "compute"),
                  lambda: core.consume(500, "compute"), [core.cpu])

    def test_core_consume_with_fault_injector(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        m = small_machine()
        FaultInjector(FaultPlan()).install(m)
        core = m.cores[0]
        self._run(m, core.consume(self.PS, "compute"),
                  lambda: core.consume(500, "compute"), [core.cpu])

    def test_flag_write(self):
        m = small_machine()
        core = m.cores[0]
        flag = m.flag(1, "sync")
        self._run(m, core.consume(self.PS, "compute"),
                  lambda: flag.set_by(core), [core.cpu])
        assert flag.value  # written once, by the third process

    # The two below drive the interpreter's hold (CPU first, then the
    # MPB port) through a priced PUT; they kept their ids from the
    # ``Core.consume_at_mpb`` they used to call.
    def test_consume_at_mpb_cpu_queue(self):
        m = small_machine(model_mpb_contention=True)
        core = m.cores[0]
        self._run(m, core.consume(self.PS, "compute"),
                  lambda: put_at(m, 0, 1, 32),
                  [core.cpu, m.mpb_ports[1]])

    def test_consume_at_mpb_port_queue(self):
        m = small_machine(model_mpb_contention=True)
        self._run(m, put_at(m, 0, 2, 4096),     # holds port 2 for > 1 us
                  lambda: put_at(m, 1, 2, 32),
                  [m.cores[0].cpu, m.cores[1].cpu, m.mpb_ports[2]])
        assert m.cores[1].account.get("wait_port") > 0

    def test_interpreter_charge_is_core_consume(self):
        """``run_ops`` inlines ``Core.consume``'s hold: the same scenario
        charged either way ends at the same time, after the same number
        of events, with the same accounts (stalls drawn included)."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        def outcome(charge):
            m = small_machine()
            FaultInjector(FaultPlan(core_stall_prob=0.5, seed=3)).install(m)
            core = m.cores[0]
            self._run(m, charge(core, self.PS),
                      lambda: charge(core, 500), [core.cpu])
            for _ in range(8):      # uncontended, some of them stalled
                m.sim.process(charge(core, 700))
            m.sim.run()
            return (m.sim.now, m.sim.events_processed,
                    sorted(core.account.states.items()))

        assert (outcome(lambda core, ps: core.consume(ps, "compute"))
                == outcome(lambda core, ps: run_ops(
                    core, bind(core, ((CHARGE, 0, COMPUTE),), cost=ps))))


class TestCoreEnv:
    def test_env_handles(self):
        m = small_machine()

        def program(env):
            yield from env.compute(1)
            assert env.my_mpb() is m.mpbs[env.core_id]
            assert env.mpb_of_rank(0) is m.mpbs[0]
            assert env.config is m.config
            assert env.latency is m.latency
            return env.flag(0, "f").owner

        result = m.run_spmd(program)
        assert result.values == [0, 0, 0, 0]

    def test_sleep_does_not_hold_cpu(self):
        m = small_machine()

        def program(env):
            if env.rank == 0:
                yield from env.sleep(1000)
            else:
                yield from env.compute(1)

        result = m.run_spmd(program)
        assert result.accounts[0].get("idle") == 1000
