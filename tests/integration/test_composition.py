"""Stress: random compositions of collectives on one machine must keep
producing correct results and strictly advancing simulated time."""

import numpy as np
import pytest

from repro.core.ops import SUM
from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 8


@pytest.mark.parametrize("stack", list(STACKS))
def test_mixed_collective_sequence(stack):
    """A fixed but diverse sequence: every collective back-to-back, with
    all results checked against NumPy."""
    machine = Machine(SCCConfig(topology=f"mesh:{P // 2}x1"))
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(0)
    vec = [rng.normal(size=96) for _ in range(P)]
    rows = [rng.normal(size=(P, 12)) for _ in range(P)]

    def program(env):
        r = env.rank
        checks = []

        ar = yield from comm.allreduce(env, vec[r])
        checks.append(("allreduce", ar, np.sum(vec, axis=0)))

        yield from comm.barrier(env)

        bc = np.array(vec[0]) if r == 0 else np.empty(96)
        yield from comm.bcast(env, bc, 0)
        checks.append(("bcast", bc, vec[0]))

        rd = yield from comm.reduce(env, vec[r], SUM, 3)
        if r == 3:
            checks.append(("reduce", rd, np.sum(vec, axis=0)))

        ag = yield from comm.allgather(env, vec[r][:8])
        checks.append(("allgather", ag,
                       np.stack([v[:8] for v in vec])))

        a2a = yield from comm.alltoall(env, rows[r])
        checks.append(("alltoall", a2a,
                       np.stack([rows[src][r] for src in range(P)])))

        ar2 = yield from comm.allreduce(env, ar)
        checks.append(("allreduce2", ar2, P * np.sum(vec, axis=0)))

        for name, got, want in checks:
            np.testing.assert_allclose(got, want, rtol=1e-9,
                                       err_msg=f"{name} on rank {r}")
        return env.now

    result = machine.run_spmd(program)
    assert min(result.values) > 0


def test_time_advances_monotonically_across_operations():
    machine = Machine(SCCConfig(topology=f"mesh:{P // 2}x1"))
    comm = make_communicator(machine, "lightweight_balanced")
    data = np.zeros(64)

    def program(env):
        stamps = [env.now]
        for _ in range(5):
            yield from comm.allreduce(env, data)
            stamps.append(env.now)
        return stamps

    result = machine.run_spmd(program)
    for stamps in result.values:
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


def test_two_machines_do_not_interfere():
    """State (flags, services, MPBs) is per-machine."""
    m1 = Machine(SCCConfig(topology="mesh:2x1"))
    m2 = Machine(SCCConfig(topology="mesh:2x1"))
    c1 = make_communicator(m1, "lightweight")
    c2 = make_communicator(m2, "blocking")
    data = np.arange(32, dtype=np.float64)

    def program_for(comm):
        def program(env):
            return (yield from comm.allreduce(env, data + env.rank))
        return program

    r1 = m1.run_spmd(program_for(c1))
    r2 = m2.run_spmd(program_for(c2))
    expected = 4 * data + 6
    np.testing.assert_allclose(r1.values[0], expected)
    np.testing.assert_allclose(r2.values[0], expected)
    assert m1.sim is not m2.sim
