"""Unit tests for RCCE's naive native collectives (related-work baseline)."""

import numpy as np
import pytest

from repro.core.ops import MAX, SUM
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import RCCE
from repro.rcce.native import native_allreduce, native_bcast, native_reduce


def machine(cores=4):
    return Machine(SCCConfig(topology=f"mesh:{cores // 2}x1"))


def run(cores, program):
    m = machine(cores)
    rcce = RCCE(m)
    result = m.run_spmd(program, rcce)
    return m, result


class TestNativeBcast:
    def test_delivers_data(self):
        data = np.arange(32, dtype=np.float64)

        def program(env, rcce):
            buf = data.copy() if env.rank == 0 else np.empty(32)
            yield from native_bcast(rcce, env, buf, 0)
            return buf

        _, result = run(4, program)
        for value in result.values:
            assert np.array_equal(value, data)

    def test_nonzero_root(self):
        data = np.full(8, 3.25)

        def program(env, rcce):
            buf = data.copy() if env.rank == 2 else np.empty(8)
            yield from native_bcast(rcce, env, buf, 2)
            return buf[0]

        _, result = run(4, program)
        assert result.values == [3.25] * 4

    def test_latency_linear_in_ranks(self):
        """The root sends serially: latency ~ (p-1) messages."""
        def bcast_time(cores):
            m = machine(cores)
            rcce = RCCE(m)

            def program(env):
                buf = np.zeros(64) if env.rank == 0 else np.empty(64)
                yield from native_bcast(rcce, env, buf, 0)

            return m.run_spmd(program).elapsed_ps

        t4 = bcast_time(4)
        t8 = bcast_time(8)
        ratio = t8 / t4
        assert 1.8 < ratio < 3.2  # ~(8-1)/(4-1) = 2.33


class TestNativeReduce:
    def test_root_gets_sum(self):
        def program(env, rcce):
            vec = np.full(16, float(env.rank + 1))
            return (yield from native_reduce(rcce, env, vec, SUM, 0))

        _, result = run(4, program)
        assert np.array_equal(result.values[0], np.full(16, 10.0))
        assert result.values[1] is None

    def test_other_ops(self):
        def program(env, rcce):
            vec = np.full(4, float(env.rank))
            return (yield from native_reduce(rcce, env, vec, MAX, 0))

        _, result = run(4, program)
        assert np.array_equal(result.values[0], np.full(4, 3.0))

    def test_root_does_all_reduction_work(self):
        """The defining inefficiency: only the root computes."""
        m = machine(4)
        rcce = RCCE(m)

        def program(env):
            vec = np.full(256, 1.0)
            yield from native_reduce(rcce, env, vec, SUM, 0)

        result = m.run_spmd(program)
        root_compute = result.accounts[0].get("compute")
        others = [result.accounts[r].get("compute") for r in (1, 2, 3)]
        assert root_compute > 0
        assert all(c == 0 for c in others)


class TestNativeAllreduce:
    def test_everyone_gets_sum(self):
        def program(env, rcce):
            vec = np.full(8, float(env.rank))
            return (yield from native_allreduce(rcce, env, vec, SUM, 0))

        _, result = run(4, program)
        for value in result.values:
            assert np.array_equal(value, np.full(8, 6.0))
