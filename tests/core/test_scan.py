"""Unit tests for Scan / Exscan."""

import numpy as np
import pytest

from repro.core.ops import MAX, SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

from tests.core.conftest import make_inputs


def run(stack, cores, program_factory):
    machine = Machine(SCCConfig(topology=f"mesh:{(cores + 1) // 2}x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm), ranks=range(cores))


@pytest.mark.parametrize("stack", ["blocking", "lightweight", "rckmpi"])
@pytest.mark.parametrize("p", [2, 5, 8])
def test_inclusive_scan_prefixes(stack, p):
    inputs = make_inputs(p, 20, seed=4)

    def factory(comm):
        def program(env):
            return (yield from comm.scan(env, inputs[env.rank]))
        return program

    result = run(stack, p, factory)
    for rank in range(p):
        expected = np.sum(inputs[:rank + 1], axis=0)
        np.testing.assert_allclose(result.values[rank], expected, rtol=1e-12)


def test_scan_with_max():
    p = 6
    inputs = make_inputs(p, 10, seed=8)

    def factory(comm):
        def program(env):
            return (yield from comm.scan(env, inputs[env.rank], MAX))
        return program

    result = run("lightweight", p, factory)
    for rank in range(p):
        expected = np.max(inputs[:rank + 1], axis=0)
        np.testing.assert_array_equal(result.values[rank], expected)


@pytest.mark.parametrize("p", [2, 7])
def test_exscan(p):
    inputs = make_inputs(p, 12, seed=6)

    def factory(comm):
        def program(env):
            return (yield from comm.exscan(env, inputs[env.rank], SUM))
        return program

    result = run("lightweight", p, factory)
    assert result.values[0] is None
    for rank in range(1, p):
        expected = np.sum(inputs[:rank], axis=0)
        np.testing.assert_allclose(result.values[rank], expected, rtol=1e-12)


def test_scan_single_rank():
    machine = Machine(SCCConfig(topology="mesh:1x1"))
    comm = make_communicator(machine, "lightweight")
    data = np.arange(5, dtype=np.float64)

    def program(env):
        inc = yield from comm.scan(env, data)
        exc = yield from comm.exscan(env, data)
        return inc, exc

    result = machine.run_spmd(program, ranks=[0])
    inc, exc = result.values[0]
    np.testing.assert_array_equal(inc, data)
    assert exc is None
