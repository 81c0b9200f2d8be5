"""Property-based correctness of collectives over random shapes/ops.

Uses small simulated machines (4 cores) to keep hypothesis examples fast;
integer dtypes make result comparison exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import MAX, MIN, SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 4

vectors = st.integers(min_value=1, max_value=200)
ops = st.sampled_from([SUM, MIN, MAX])
stacks = st.sampled_from(["blocking", "lightweight", "lightweight_balanced",
                          "mpb"])
seeds = st.integers(min_value=0, max_value=2**31)


def run(stack, program_factory):
    machine = Machine(SCCConfig(topology="mesh:2x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm))


def int_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(-1000, 1000, size=n).astype(np.float64)
            for _ in range(P)]


@given(n=vectors, op=ops, stack=stacks, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_allreduce_matches_numpy(n, op, stack, seed):
    inputs = int_inputs(n, seed)
    npfunc = {"sum": np.sum, "min": np.min, "max": np.max}[op.name]
    expected = npfunc(inputs, axis=0)

    def factory(comm):
        def program(env):
            return (yield from comm.allreduce(env, inputs[env.rank], op))
        return program

    result = run(stack, factory)
    for value in result.values:
        assert np.array_equal(value, expected)


@given(n=vectors, seed=seeds, stack=st.sampled_from(["blocking",
                                                     "lightweight"]))
@settings(max_examples=15, deadline=None)
def test_allgather_matches_inputs(n, seed, stack):
    inputs = int_inputs(n, seed)
    expected = np.stack(inputs)

    def factory(comm):
        def program(env):
            return (yield from comm.allgather(env, inputs[env.rank]))
        return program

    result = run(stack, factory)
    for value in result.values:
        assert np.array_equal(value, expected)


@given(n=vectors, seed=seeds,
       root=st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=15, deadline=None)
def test_bcast_delivers_roots_buffer(n, seed, root):
    rng = np.random.default_rng(seed)
    data = rng.integers(-9, 9, size=n).astype(np.float64)

    def factory(comm):
        def program(env):
            buf = data.copy() if env.rank == root else np.empty(n)
            return (yield from comm.bcast(env, buf, root))
        return program

    result = run("lightweight_balanced", factory)
    for value in result.values:
        assert np.array_equal(value, data)


@given(n=vectors, seed=seeds,
       root=st.integers(min_value=0, max_value=P - 1))
@settings(max_examples=15, deadline=None)
def test_reduce_root_only(n, seed, root):
    inputs = int_inputs(n, seed)
    expected = np.sum(inputs, axis=0)

    def factory(comm):
        def program(env):
            return (yield from comm.reduce(env, inputs[env.rank], SUM, root))
        return program

    result = run("lightweight", factory)
    assert np.array_equal(result.values[root], expected)
    for rank, value in enumerate(result.values):
        if rank != root:
            assert value is None


@given(n=vectors, seed=seeds)
@settings(max_examples=12, deadline=None)
def test_reduce_scatter_blocks_tile_the_sum(n, seed):
    inputs = int_inputs(n, seed)
    expected = np.sum(inputs, axis=0)

    def factory(comm):
        def program(env):
            block, part = yield from comm.reduce_scatter(env,
                                                         inputs[env.rank])
            return block, part
        return program

    result = run("lightweight_balanced", factory)
    reassembled = np.empty(n)
    for rank in range(P):
        block, part = result.values[rank]
        reassembled[part.slice_of(rank)] = block
    assert np.array_equal(reassembled, expected)


@given(seed=seeds, n=st.integers(min_value=1, max_value=60))
@settings(max_examples=12, deadline=None)
def test_alltoall_is_global_transpose(seed, n):
    rng = np.random.default_rng(seed)
    sends = [rng.integers(-9, 9, size=(P, n)).astype(np.float64)
             for _ in range(P)]

    def factory(comm):
        def program(env):
            return (yield from comm.alltoall(env, sends[env.rank]))
        return program

    result = run("lightweight", factory)
    for dst in range(P):
        for src in range(P):
            assert np.array_equal(result.values[dst][src], sends[src][dst])
