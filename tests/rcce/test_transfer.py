"""Unit tests for the low-level put/get transfer layer."""

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import comm_buffer
from repro.rcce.transfer import get_bytes, put_bytes, putget_calls


class TestPutgetCalls:
    def test_zero_bytes(self):
        assert putget_calls(0, 32) == 0

    def test_exact_lines_one_call(self):
        assert putget_calls(32, 32) == 1
        assert putget_calls(4800, 32) == 1  # 600 doubles

    def test_padded_tail_costs_extra_call(self):
        assert putget_calls(33, 32) == 2
        assert putget_calls(4808, 32) == 2  # 601 doubles

    def test_tail_only(self):
        assert putget_calls(8, 32) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            putget_calls(-1, 32)

    def test_period_four_doubles(self):
        """Multiples of 4 doubles need one call; everything else two —
        the mechanism behind Fig. 9's period-4 spikes."""
        for doubles in range(496, 520):
            calls = putget_calls(doubles * 8, 32)
            assert calls == (1 if doubles % 4 == 0 else 2)


def tiny_machine():
    return Machine(SCCConfig(topology="mesh:2x1"))


class TestPutGet:
    def test_roundtrip_moves_real_bytes(self):
        m = tiny_machine()
        payload = np.arange(100, dtype=np.float64)

        def program(env):
            region = comm_buffer(m, env.core_of_rank(1))
            if env.rank == 0:
                yield from put_bytes(env, region, payload.view(np.uint8))
                return None
            elif env.rank == 1:
                # Wait until rank 0 is done (no flags here: poll sim time).
                yield from env.sleep(10_000_000)
                raw = yield from get_bytes(env, region, payload.nbytes)
                return raw.view(np.float64).copy()
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert np.array_equal(result.values[1], payload)

    def test_put_time_charged_as_copy(self):
        m = tiny_machine()
        data = np.zeros(4800, dtype=np.uint8)

        def program(env):
            if env.rank == 0:
                region = comm_buffer(m, env.core_of_rank(1))
                yield from put_bytes(env, region, data)
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.accounts[0].get("copy") > 0

    def test_padded_message_slower_than_aligned(self):
        """601 doubles must cost more than 604 bytes' worth over 600:
        the tail triggers a whole extra software call + line."""
        def elapsed(nbytes):
            m = tiny_machine()
            data = np.zeros(nbytes, dtype=np.uint8)

            def program(env):
                if env.rank == 0:
                    region = comm_buffer(m, env.core_of_rank(1))
                    yield from put_bytes(env, region, data)
                else:
                    yield from env.compute(0)

            return m.run_spmd(program).elapsed_ps

        t600 = elapsed(600 * 8)
        t601 = elapsed(601 * 8)
        t604 = elapsed(604 * 8)
        assert t601 > t600
        # 604 doubles is line-aligned again: cheaper than 601 despite
        # being a longer message.
        assert t604 < t601
