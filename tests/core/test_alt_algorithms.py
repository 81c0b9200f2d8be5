"""Unit tests for the alternative collective algorithms."""

import numpy as np
import pytest

from repro.core.ops import MAX, SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

from tests.core.conftest import make_inputs


def run(stack, cores, program_factory):
    cols = (cores + 1) // 2
    machine = Machine(SCCConfig(topology=f"mesh:{cols}x1"))
    comm = make_communicator(machine, stack)
    return machine.run_spmd(program_factory(comm), ranks=range(cores))


class TestRecursiveDoubling:
    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 17, 96])
    def test_power_of_two(self, p, n):
        inputs = make_inputs(p, n)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], SUM, algo="recursive_doubling"))
            return program

        result = run("lightweight", p, factory)
        for value in result.values:
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_non_power_of_two_folding(self, p):
        inputs = make_inputs(p, 50)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], SUM, algo="recursive_doubling"))
            return program

        result = run("lightweight", p, factory)
        for value in result.values:
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_blocking_stack(self):
        inputs = make_inputs(4, 32)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], SUM, algo="recursive_doubling"))
            return program

        result = run("blocking", 4, factory)
        np.testing.assert_allclose(result.values[0],
                                   np.sum(inputs, axis=0), rtol=1e-12)


class TestRecursiveHalving:
    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("n", [8, 96, 97, 101])
    def test_power_of_two_various_sizes(self, p, n):
        """n not divisible by p exercises the unequal-halves range stack."""
        inputs = make_inputs(p, n, seed=5)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], SUM, algo="recursive_halving"))
            return program

        result = run("lightweight", p, factory)
        for value in result.values:
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [3, 6, 7])
    def test_non_power_of_two(self, p):
        inputs = make_inputs(p, 40, seed=9)
        expected = np.sum(inputs, axis=0)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], SUM, algo="recursive_halving"))
            return program

        result = run("lightweight", p, factory)
        for value in result.values:
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_max_op(self):
        inputs = make_inputs(4, 64, seed=2)

        def factory(comm):
            def program(env):
                return (yield from comm.allreduce(
                    env, inputs[env.rank], MAX, algo="recursive_halving"))
            return program

        result = run("lightweight", 4, factory)
        np.testing.assert_array_equal(result.values[2],
                                      np.max(inputs, axis=0))


class TestBruckAllgather:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8])
    def test_matches_inputs(self, p):
        inputs = make_inputs(p, 13, seed=3)
        expected = np.stack(inputs)

        def factory(comm):
            def program(env):
                return (yield from comm.allgather(env, inputs[env.rank],
                                                  algo="bruck"))
            return program

        result = run("lightweight", p, factory)
        for value in result.values:
            np.testing.assert_array_equal(value, expected)

    def test_fewer_rounds_than_ring(self):
        """Bruck's log-round structure must beat the ring at many ranks
        with small vectors (latency-bound regime)."""
        from repro.bench.runner import measure_collective  # noqa: F401
        machine_ring = Machine(SCCConfig())
        comm_ring = make_communicator(machine_ring, "lightweight")
        machine_bruck = Machine(SCCConfig())
        comm_bruck = make_communicator(machine_bruck, "lightweight")
        data = np.zeros(4)

        def prog(comm, algo):
            def program(env):
                yield from comm.allgather(env, data, algo=algo)
            return program

        t_ring = machine_ring.run_spmd(prog(comm_ring, "ring")).elapsed_ps
        t_bruck = machine_bruck.run_spmd(
            prog(comm_bruck, "bruck")).elapsed_ps
        assert t_bruck < t_ring

    def test_unknown_algo_rejected(self):
        def factory(comm):
            def program(env):
                yield from comm.allgather(env, np.zeros(4), algo="magic")
            return program

        with pytest.raises(KeyError):
            run("lightweight", 4, factory)


class TestAlgoSelection:
    def test_unknown_allreduce_algo_rejected(self):
        def factory(comm):
            def program(env):
                yield from comm.allreduce(env, np.zeros(4), SUM,
                                          algo="quantum")
            return program

        with pytest.raises(KeyError):
            run("lightweight", 4, factory)

    def test_all_allreduce_algos_agree(self):
        inputs = make_inputs(8, 96, seed=11)
        expected = np.sum(inputs, axis=0)
        for algo in ("rsag", "reduce_bcast", "recursive_doubling",
                     "recursive_halving", "mpb"):
            def factory(comm, algo=algo):
                def program(env):
                    return (yield from comm.allreduce(
                        env, inputs[env.rank], SUM, algo=algo))
                return program

            result = run("mpb", 8, factory)
            np.testing.assert_allclose(result.values[5], expected,
                                       rtol=1e-12, err_msg=algo)
