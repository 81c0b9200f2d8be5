"""Dedicated tests for MPB flags and their modeled access costs."""

import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine


def machine(erratum=True):
    return Machine(SCCConfig(topology="mesh:2x1",
                             erratum_enabled=erratum))


def test_set_costs_writer_the_mpb_write_latency():
    m = machine()
    flag = m.flag(3, "x")  # remote to core 0

    def program(env):
        if env.rank == 0:
            t0 = env.now
            yield from flag.set_by(env.core)
            return env.now - t0
        yield from env.compute(0)

    result = m.run_spmd(program)
    assert result.values[0] == m.latency.flag_write(0, 3)


def test_local_set_cheaper_without_erratum():
    def cost(erratum):
        m = machine(erratum)
        flag = m.flag(0, "x")

        def program(env):
            if env.rank == 0:
                t0 = env.now
                yield from flag.set_by(env.core)
                return env.now - t0
            yield from env.compute(0)

        return m.run_spmd(program).values[0]

    assert cost(erratum=False) < cost(erratum=True)


def test_wait_accounts_as_wait_flag():
    m = machine()
    flag = m.flag(1, "y")

    def program(env):
        if env.rank == 0:
            yield from env.compute(4000)
            yield from flag.set_by(env.core)
        elif env.rank == 1:
            yield from flag.wait_set(env.core)
        else:
            yield from env.compute(0)

    result = m.run_spmd(program)
    assert result.accounts[1].get("wait_flag") > 0


def test_wait_includes_notify_latency():
    m = machine()
    flag = m.flag(1, "z")

    def program(env):
        if env.rank == 0:
            yield from env.compute(1000)
            yield from flag.set_by(env.core)
            return env.now
        elif env.rank == 1:
            yield from flag.wait_set(env.core)
            return env.now
        yield from env.compute(0)

    result = m.run_spmd(program)
    set_time, observed = result.values[0], result.values[1]
    assert observed == set_time + m.latency.flag_notify(1, 1)


def test_wait_clear_and_force():
    m = machine()
    flag = m.flag(0, "w")
    flag.force(True)
    assert flag.value

    def program(env):
        if env.rank == 1:
            yield from env.compute(500)
            yield from flag.clear_by(env.core)
        elif env.rank == 0:
            yield from flag.wait_clear(env.core)
            return env.now
        else:
            yield from env.compute(0)

    result = m.run_spmd(program)
    assert result.values[0] > 0
    assert not flag.value


def test_many_waiters_all_resume():
    m = machine()
    flag = m.flag(0, "broadcasty")

    def program(env):
        if env.rank == 0:
            yield from env.compute(2000)
            yield from flag.set_by(env.core)
            return None
        yield from flag.wait_set(env.core)
        return env.now

    result = m.run_spmd(program)
    resumed = [v for v in result.values[1:]]
    assert all(t is not None and t > 0 for t in resumed)
    # Different cores have different notify latencies (hop counts).
    assert len(set(resumed)) >= 1
