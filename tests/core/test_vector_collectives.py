"""Unit tests for the variable-count collectives (scatterv/gatherv)."""

import numpy as np
import pytest

from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 4


def run(stack, program_factory):
    machine = Machine(SCCConfig(topology="mesh:2x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm))


COUNTS = [5, 0, 12, 3]  # includes an empty contribution
TOTAL = sum(COUNTS)
DATA = np.arange(TOTAL, dtype=np.float64)


@pytest.mark.parametrize("stack", ["blocking", "lightweight"])
def test_scatterv_distributes_counts(stack):
    def factory(comm):
        def program(env):
            buf = DATA.copy() if env.rank == 0 else np.empty(TOTAL)
            block = yield from comm.scatterv(env, buf, COUNTS, root=0)
            return block
        return program

    result = run(stack, factory)
    offset = 0
    for rank in range(P):
        np.testing.assert_array_equal(
            result.values[rank], DATA[offset:offset + COUNTS[rank]])
        offset += COUNTS[rank]


@pytest.mark.parametrize("stack", ["blocking", "lightweight"])
def test_gatherv_reassembles(stack):
    def factory(comm):
        def program(env):
            offset = sum(COUNTS[:env.rank])
            block = DATA[offset:offset + COUNTS[env.rank]].copy()
            full = yield from comm.gatherv(env, block, COUNTS, root=0)
            return full
        return program

    result = run(stack, factory)
    np.testing.assert_array_equal(result.values[0], DATA)
    assert result.values[1] is None


def test_scatterv_gatherv_roundtrip_nonzero_root():
    root = 2

    def factory(comm):
        def program(env):
            buf = DATA.copy() if env.rank == root else np.empty(TOTAL)
            block = yield from comm.scatterv(env, buf, COUNTS, root=root)
            full = yield from comm.gatherv(env, block, COUNTS, root=root)
            return full
        return program

    result = run("lightweight", factory)
    np.testing.assert_array_equal(result.values[root], DATA)


def test_wrong_count_arity_rejected():
    def factory(comm):
        def program(env):
            yield from comm.gatherv(env, np.zeros(1), [1, 1], root=0)
        return program

    with pytest.raises(ValueError):
        run("lightweight", factory)


def test_wrong_block_size_rejected():
    def factory(comm):
        def program(env):
            yield from comm.gatherv(env, np.zeros(99), COUNTS, root=0)
        return program

    with pytest.raises(ValueError):
        run("lightweight", factory)


def test_scatterv_needs_full_buffer():
    def factory(comm):
        def program(env):
            yield from comm.scatterv(env, np.zeros(3), COUNTS, root=0)
        return program

    with pytest.raises(ValueError):
        run("lightweight", factory)
