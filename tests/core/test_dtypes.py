"""Collectives over non-double dtypes (the MPB moves raw bytes)."""

import numpy as np
import pytest

from repro.core.ops import MAX, SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 4


def run(stack, program_factory):
    machine = Machine(SCCConfig(topology="mesh:2x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm))


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.int64,
                                   np.complex128])
@pytest.mark.parametrize("stack", ["blocking", "lightweight", "mpb"])
def test_allreduce_dtypes(dtype, stack):
    rng = np.random.default_rng(1)
    if np.issubdtype(dtype, np.complexfloating):
        inputs = [(rng.integers(-9, 9, 60)
                   + 1j * rng.integers(-9, 9, 60)).astype(dtype)
                  for _ in range(P)]
    elif np.issubdtype(dtype, np.integer):
        inputs = [rng.integers(-100, 100, 60).astype(dtype)
                  for _ in range(P)]
    else:
        inputs = [rng.integers(-9, 9, 60).astype(dtype) for _ in range(P)]
    expected = np.sum(inputs, axis=0, dtype=dtype)

    def factory(comm):
        def program(env):
            return (yield from comm.allreduce(env, inputs[env.rank]))
        return program

    result = run(stack, factory)
    for value in result.values:
        assert value.dtype == dtype
        np.testing.assert_array_equal(value, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_bcast_dtypes(dtype):
    data = np.arange(50).astype(dtype)

    def factory(comm):
        def program(env):
            buf = data.copy() if env.rank == 0 else np.empty(50, dtype=dtype)
            return (yield from comm.bcast(env, buf, 0))
        return program

    result = run("lightweight", factory)
    for value in result.values:
        assert value.dtype == dtype
        np.testing.assert_array_equal(value, data)


def test_allgather_complex():
    inputs = [np.full(10, r + 1j * r, dtype=np.complex128) for r in range(P)]

    def factory(comm):
        def program(env):
            return (yield from comm.allgather(env, inputs[env.rank]))
        return program

    result = run("lightweight", factory)
    np.testing.assert_array_equal(result.values[2], np.stack(inputs))


def test_reduce_int_max():
    inputs = [np.array([r, -r, 100 - r], dtype=np.int64) for r in range(P)]

    def factory(comm):
        def program(env):
            return (yield from comm.reduce(env, inputs[env.rank], MAX, 0))
        return program

    result = run("blocking", factory)
    np.testing.assert_array_equal(result.values[0],
                                  np.max(inputs, axis=0))


def test_alltoall_int32():
    sends = [np.arange(P * 6, dtype=np.int32).reshape(P, 6) + 100 * r
             for r in range(P)]

    def factory(comm):
        def program(env):
            return (yield from comm.alltoall(env, sends[env.rank]))
        return program

    result = run("lightweight", factory)
    for dst in range(P):
        for src in range(P):
            np.testing.assert_array_equal(result.values[dst][src],
                                          sends[src][dst])
