"""Unit tests for Communicator.split (sub-group collectives)."""

import numpy as np
import pytest

from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 8


def run(stack, program_factory):
    machine = Machine(SCCConfig(topology=f"mesh:{P // 2}x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm))


@pytest.mark.parametrize("stack", ["blocking", "lightweight", "mpb"])
def test_split_halves_allreduce_independently(stack):
    inputs = [np.full(16, float(r)) for r in range(P)]

    def factory(comm):
        def program(env):
            sub = yield from comm.split(env, env.rank % 2)
            result = yield from comm.allreduce(sub, inputs[env.rank])
            return sub.rank, sub.size, result
        return program

    result = run(stack, factory)
    even_sum = np.sum([inputs[r] for r in range(0, P, 2)], axis=0)
    odd_sum = np.sum([inputs[r] for r in range(1, P, 2)], axis=0)
    for rank in range(P):
        sub_rank, sub_size, value = result.values[rank]
        assert sub_size == P // 2
        assert sub_rank == rank // 2
        expected = even_sum if rank % 2 == 0 else odd_sum
        np.testing.assert_allclose(value, expected, rtol=1e-12)


def test_split_key_reorders_ranks():
    def factory(comm):
        def program(env):
            # All one color; keys reverse the ordering.
            sub = yield from comm.split(env, 0, key=env.size - env.rank)
            return sub.rank
        return program

    result = run("lightweight", factory)
    assert result.values == [P - 1 - r for r in range(P)]


def test_split_undefined_color_returns_none():
    def factory(comm):
        def program(env):
            color = None if env.rank == 0 else 1
            sub = yield from comm.split(env, color)
            if sub is None:
                return None
            return sub.size
        return program

    result = run("lightweight", factory)
    assert result.values[0] is None
    assert result.values[1:] == [P - 1] * (P - 1)


def test_split_groups_of_one():
    def factory(comm):
        def program(env):
            sub = yield from comm.split(env, env.rank)  # singleton groups
            data = np.full(4, 2.0 + env.rank)
            result = yield from comm.allreduce(sub, data)
            return result
        return program

    result = run("lightweight", factory)
    for rank in range(P):
        np.testing.assert_array_equal(result.values[rank],
                                      np.full(4, 2.0 + rank))


def test_nested_split():
    def factory(comm):
        def program(env):
            half = yield from comm.split(env, env.rank % 2)
            quarter = yield from comm.split(half, half.rank % 2)
            data = np.array([1.0])
            total = yield from comm.allreduce(quarter, data)
            return quarter.size, total[0]
        return program

    result = run("lightweight", factory)
    for size, total in result.values:
        assert size == 2
        assert total == 2.0


def test_barrier_within_group():
    def factory(comm):
        def program(env):
            sub = yield from comm.split(env, env.rank % 2)
            if env.rank % 2 == 0:
                yield from env.compute(10_000 * sub.rank)
            yield from comm.barrier(sub)
            return env.now
        return program

    result = run("lightweight", factory)  # must simply not deadlock
    assert all(t > 0 for t in result.values)
