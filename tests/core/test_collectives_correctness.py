"""Correctness of every collective on every stack, against NumPy.

These are the load-bearing integration tests: data actually travels
through simulated MPBs, so a protocol bug (wrong block index, wrong round
partner, clobbered buffer half) shows up as a wrong result, not just a
wrong latency.
"""

import numpy as np
import pytest

from repro.core.ops import MAX, MIN, PROD, SUM
from repro.core.registry import launch
from repro.hw.config import SCCConfig

from tests.core.conftest import make_inputs, run_collective


P = 8  # ranks in the small test machine


class TestAllreduce:
    @pytest.mark.parametrize("n", [1, 7, 48, 96, 97, 552])
    def test_sum_matches_numpy(self, stack, n):
        inputs = make_inputs(P, n)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                result = yield from comm.allreduce(env, inputs[env.rank])
                return result
            return program

        result = run_collective(stack, factory)
        for rank in range(P):
            np.testing.assert_allclose(result.values[rank], expected,
                                       rtol=1e-12)

    @pytest.mark.parametrize("op,npfunc", [
        (PROD, np.prod), (MIN, np.min), (MAX, np.max),
    ])
    def test_other_ops(self, op, npfunc):
        inputs = make_inputs(P, 96, seed=3)
        expected = npfunc(inputs, axis=0)

        def factory(comm):
            def program(env):
                result = yield from comm.allreduce(env, inputs[env.rank], op)
                return result
            return program

        for stack in ("blocking", "lightweight_balanced", "mpb"):
            result = run_collective(stack, factory)
            np.testing.assert_allclose(result.values[0], expected, rtol=1e-12)

    def test_short_vector_path(self, stack):
        """Vectors below the long threshold take the reduce+bcast path."""
        inputs = make_inputs(P, 4)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                result = yield from comm.allreduce(env, inputs[env.rank])
                return result
            return program

        result = run_collective(stack, factory)
        np.testing.assert_allclose(result.values[3], expected, rtol=1e-12)

    def test_all_ranks_get_identical_results(self, stack):
        inputs = make_inputs(P, 201)

        def factory(comm):
            def program(env):
                result = yield from comm.allreduce(env, inputs[env.rank])
                return result
            return program

        result = run_collective(stack, factory)
        for rank in range(1, P):
            np.testing.assert_array_equal(result.values[0],
                                          result.values[rank])


class TestReduceScatter:
    @pytest.mark.parametrize("n", [48, 96, 101, 552])
    def test_blocks_match_numpy(self, non_mpb_stack, n):
        inputs = make_inputs(P, n)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                block, part = yield from comm.reduce_scatter(
                    env, inputs[env.rank])
                return block, part
            return program

        result = run_collective(non_mpb_stack, factory)
        for rank in range(P):
            block, part = result.values[rank]
            np.testing.assert_allclose(
                block, expected[part.slice_of(rank)], rtol=1e-12)


class TestAllgather:
    @pytest.mark.parametrize("n", [1, 16, 600])
    def test_matches_inputs(self, non_mpb_stack, n):
        inputs = make_inputs(P, n, seed=11)
        expected = np.stack(inputs)

        def factory(comm):
            def program(env):
                result = yield from comm.allgather(env, inputs[env.rank])
                return result
            return program

        result = run_collective(non_mpb_stack, factory)
        for rank in range(P):
            np.testing.assert_array_equal(result.values[rank], expected)


class TestAlltoall:
    @pytest.mark.parametrize("n", [1, 13, 600])
    def test_transpose_property(self, non_mpb_stack, n):
        """alltoall(rows) == transpose of the global send matrix."""
        rng = np.random.default_rng(5)
        sends = [rng.normal(size=(P, n)) for _ in range(P)]

        def factory(comm):
            def program(env):
                result = yield from comm.alltoall(env, sends[env.rank])
                return result
            return program

        result = run_collective(non_mpb_stack, factory)
        for rank in range(P):
            expected = np.stack([sends[src][rank] for src in range(P)])
            np.testing.assert_array_equal(result.values[rank], expected)


class TestBroadcast:
    @pytest.mark.parametrize("n", [3, 64, 600])
    @pytest.mark.parametrize("root", [0, 3])
    def test_all_ranks_receive_roots_data(self, non_mpb_stack, n, root):
        rng = np.random.default_rng(13)
        data = rng.normal(size=n)

        def factory(comm):
            def program(env):
                buf = data.copy() if env.rank == root else np.empty(n)
                yield from comm.bcast(env, buf, root)
                return buf
            return program

        result = run_collective(non_mpb_stack, factory)
        for rank in range(P):
            np.testing.assert_array_equal(result.values[rank], data)


class TestReduce:
    @pytest.mark.parametrize("n", [4, 96, 552])
    @pytest.mark.parametrize("root", [0, 5])
    def test_root_gets_sum(self, non_mpb_stack, n, root):
        inputs = make_inputs(P, n, seed=17)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                result = yield from comm.reduce(env, inputs[env.rank],
                                                SUM, root)
                return result
            return program

        result = run_collective(non_mpb_stack, factory)
        np.testing.assert_allclose(result.values[root], expected, rtol=1e-12)
        for rank in range(P):
            if rank != root:
                assert result.values[rank] is None


class TestScatterGather:
    def test_scatter_blocks(self, non_mpb_stack):
        data = np.arange(100, dtype=np.float64)

        def factory(comm):
            def program(env):
                buf = data.copy() if env.rank == 0 else np.empty(100)
                block = yield from comm.scatter(env, buf, root=0)
                part = comm.partition(100, env.size)
                return block, part.slice_of(env.rank)
            return program

        result = run_collective(non_mpb_stack, factory)
        for rank in range(P):
            block, sl = result.values[rank]
            np.testing.assert_array_equal(block, data[sl])

    def test_gather_reassembles(self, non_mpb_stack):
        data = np.arange(100, dtype=np.float64)

        def factory(comm):
            def program(env):
                part = comm.partition(100, env.size)
                block = data[part.slice_of(env.rank)].copy()
                full = yield from comm.gather(env, block, 100, root=0)
                return full
            return program

        result = run_collective(non_mpb_stack, factory)
        np.testing.assert_array_equal(result.values[0], data)
        assert result.values[1] is None

    def test_gather_wrong_block_size_rejected(self):
        def factory(comm):
            def program(env):
                block = np.zeros(99)  # wrong size for every partition
                yield from comm.gather(env, block, 100, root=0)
            return program

        with pytest.raises(ValueError):
            run_collective("lightweight", factory)


class TestBarrier:
    def test_barrier_synchronizes(self, stack):
        def factory(comm):
            def program(env):
                yield from env.compute(10_000 * env.rank)
                yield from comm.barrier(env)
                return env.now
            return program

        result = run_collective(stack, factory)
        machine_cycles = max(result.values)
        # Nobody may leave before the slowest rank arrived.
        slowest_arrival = result.values[P - 1]
        assert min(result.values) >= slowest_arrival - machine_cycles * 0.5
        assert min(result.values) > 0


@pytest.mark.xfail(strict=True, reason=(
    "mpb back-to-back race (ROADMAP item 7): the long mpb Allreduce's "
    "final allgather write gets no ready hand-back, so the next "
    "collective reuses mpb[k][192:200] while ranks still read it"))
def test_mpb_allreduce_back_to_back_on_cluster():
    """A 552-element Allreduce (the ``mpb`` algorithm) then a scalar
    one (``reduce_bcast``) on ``cluster:2x24`` at p = 48: every rank
    must get both sums."""
    p = 48
    machine, comm = launch("mpb", p,
                           config=SCCConfig(topology="cluster:2x24"))
    inputs = make_inputs(p, 552)
    scalars = make_inputs(p, 1, seed=8)

    def program(env):
        long = yield from comm.allreduce(env, inputs[env.rank])
        short = yield from comm.allreduce(env, scalars[env.rank])
        return long, short

    result = machine.run_spmd(program)
    for long, short in result.values:
        np.testing.assert_allclose(long, np.sum(inputs, axis=0), rtol=1e-12)
        np.testing.assert_allclose(short, np.sum(scalars, axis=0),
                                   rtol=1e-12)


class TestSingleRank:
    def test_collectives_degenerate_gracefully(self, stack):
        data = np.arange(10, dtype=np.float64)

        def factory(comm):
            def program(env):
                ar = yield from comm.allreduce(env, data)
                bc = yield from comm.bcast(env, data.copy())
                rd = yield from comm.reduce(env, data)
                yield from comm.barrier(env)
                return ar, bc, rd
            return program

        machine = __import__("tests.core.conftest", fromlist=["small_machine"]
                             ).small_machine()
        from repro.core.registry import make_communicator
        comm = make_communicator(machine, stack)
        result = machine.run_spmd(factory(comm), ranks=[0])
        ar, bc, rd = result.values[0]
        np.testing.assert_array_equal(ar, data)
        np.testing.assert_array_equal(bc, data)
        np.testing.assert_array_equal(rd, data)
