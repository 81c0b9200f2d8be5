"""Unit tests for the gory RCCE interface."""

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.gory import FlagHandle, GoryError, GoryRCCE


def machine():
    return Machine(SCCConfig(topology="mesh:2x1"))


class TestSymmetricAllocation:
    def test_malloc_line_aligned_and_symmetric(self):
        m = machine()
        gory = GoryRCCE(m)
        buf = gory.malloc(100)
        assert buf.offset % 32 == 0
        assert buf.offset >= m.config.mpb_flag_bytes
        # Same offset names a region on every core.
        for core in range(4):
            region = buf.region(m, core)
            assert region.owner == core
            assert region.offset == buf.offset

    def test_sequential_allocations_disjoint(self):
        gory = GoryRCCE(machine())
        a = gory.malloc(64)
        b = gory.malloc(64)
        assert b.offset >= a.offset + 64

    def test_exhaustion(self):
        gory = GoryRCCE(machine())
        gory.malloc(7000)
        with pytest.raises(GoryError):
            gory.malloc(4096)

    def test_free_all(self):
        gory = GoryRCCE(machine())
        first = gory.malloc(64)
        gory.free_all()
        again = gory.malloc(64)
        assert again.offset == first.offset

    def test_invalid_size(self):
        with pytest.raises(GoryError):
            GoryRCCE(machine()).malloc(0)

    def test_state_shared_between_instances(self):
        m = machine()
        a = GoryRCCE(m).malloc(64)
        b = GoryRCCE(m).malloc(64)
        assert a.offset != b.offset


class TestFlags:
    def test_alloc_free_reuse(self):
        gory = GoryRCCE(machine())
        f1 = gory.flag_alloc()
        f2 = gory.flag_alloc()
        assert f1.index != f2.index
        gory.flag_free(f1)
        f3 = gory.flag_alloc()
        assert f3.index == f1.index

    def test_capacity(self):
        m = machine()
        gory = GoryRCCE(m)
        for _ in range(gory.flag_capacity):
            gory.flag_alloc()
        with pytest.raises(GoryError):
            gory.flag_alloc()

    def test_flag_write_and_wait(self):
        m = machine()
        gory = GoryRCCE(m)
        flag = gory.flag_alloc()

        def program(env):
            if env.rank == 0:
                yield from env.compute(5000)
                yield from gory.flag_write(env, flag, True, 1)
                return None
            elif env.rank == 1:
                yield from gory.wait_until(env, flag, True)
                return env.now
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[1] > m.latency.core_cycles(5000)

    def test_flag_read_remote(self):
        m = machine()
        gory = GoryRCCE(m)
        flag = gory.flag_alloc()

        def program(env):
            if env.rank == 0:
                before = yield from gory.flag_read(env, flag, 1)
                yield from gory.flag_write(env, flag, True, 1)
                after = yield from gory.flag_read(env, flag, 1)
                return before, after
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[0] == (False, True)


class TestPutGet:
    def test_put_get_roundtrip(self):
        m = machine()
        gory = GoryRCCE(m)
        buf = gory.malloc(256)
        flag = gory.flag_alloc()
        payload = np.linspace(0, 1, 32)

        def program(env):
            if env.rank == 0:
                yield from gory.put(env, buf, payload, target_rank=2)
                yield from gory.flag_write(env, flag, True, 2)
            elif env.rank == 2:
                yield from gory.wait_until(env, flag, True)
                raw = yield from gory.get(env, buf, payload.nbytes,
                                          source_rank=2)
                return raw.view(np.float64).copy()
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        np.testing.assert_array_equal(result.values[2], payload)

    def test_bounds_checked(self):
        m = machine()
        gory = GoryRCCE(m)
        buf = gory.malloc(64)

        def program(env):
            if env.rank == 0:
                yield from gory.put(env, buf, np.zeros(100), 1)
            else:
                yield from env.compute(0)

        with pytest.raises(GoryError):
            m.run_spmd(program)

    def test_custom_ring_protocol(self):
        """Build a one-shot neighbour exchange purely from gory
        primitives — what RCCE application authors actually did."""
        m = machine()
        gory = GoryRCCE(m)
        buf = gory.malloc(64)
        full = gory.flag_alloc()

        def program(env):
            p = env.size
            right = (env.rank + 1) % p
            # Write my rank into my right neighbour's buffer, flag it,
            # then wait for my own buffer to be flagged and read it.
            data = np.full(8, float(env.rank))
            yield from gory.put(env, buf, data, target_rank=right)
            yield from gory.flag_write(env, full, True, right)
            yield from gory.wait_until(env, full, True)
            raw = yield from gory.get(env, buf, 64, source_rank=env.rank)
            return raw.view(np.float64)[0]

        result = m.run_spmd(program)
        assert result.values == [3.0, 0.0, 1.0, 2.0]
