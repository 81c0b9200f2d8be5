"""Unit tests for RCCE blocking send/recv (the Fig.-3 protocol)."""

import inspect

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import RCCE, RCCEError
from repro.sim.errors import DeadlockError


def machine(cores=4):
    assert cores % 2 == 0
    return Machine(SCCConfig(topology=f"mesh:{cores // 2}x1"))


class TestBasicExchange:
    def test_simple_send_recv(self):
        m = machine()
        rcce = RCCE(m)
        payload = np.linspace(0, 1, 64)

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, payload, 1)
                return None
            elif env.rank == 1:
                out = np.empty(64)
                yield from rcce.recv(env, out, 0)
                return out
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert np.array_equal(result.values[1], payload)

    def test_recv_returns_out(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, np.arange(4.0), 1)
            elif env.rank == 1:
                out = np.empty(4)
                got = yield from rcce.recv(env, out, 0)
                return got is out
            else:
                yield from env.compute(0)

        assert m.run_spmd(program).values[1] is True

    def test_recv_before_send_posted(self):
        """Receiver arriving first just waits on the sent flag."""
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from env.compute(50_000)  # sender is late
                yield from rcce.send(env, np.array([3.5]), 1)
            elif env.rank == 1:
                out = np.empty(1)
                yield from rcce.recv(env, out, 0)
                return out[0]
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[1] == 3.5

    def test_send_blocks_until_receive(self):
        """Double synchronization: send cannot return before the matching
        receive has picked the data up (paper Section IV-A)."""
        m = machine()
        rcce = RCCE(m)
        times = {}

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, np.zeros(16), 1)
                times["send_done"] = env.now
            elif env.rank == 1:
                yield from env.compute(500_000)  # receiver is very late
                out = np.empty(16)
                yield from rcce.recv(env, out, 0)
                times["recv_done"] = env.now
            else:
                yield from env.compute(0)

        m.run_spmd(program)
        late = m.latency.core_cycles(500_000)
        assert times["send_done"] > late  # sender was held hostage

    def test_multiple_messages_in_order(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                for i in range(3):
                    yield from rcce.send(env, np.full(8, float(i)), 1)
            elif env.rank == 1:
                seen = []
                for _ in range(3):
                    out = np.empty(8)
                    yield from rcce.recv(env, out, 0)
                    seen.append(out[0])
                return seen
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[1] == [0.0, 1.0, 2.0]

    def test_bidirectional_pair_with_ordering(self):
        """Two cores exchanging messages must order send/recv opposite
        ways (here: rank 0 sends first) or they would deadlock."""
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, np.array([1.0]), 1)
                out = np.empty(1)
                yield from rcce.recv(env, out, 1)
                return out[0]
            elif env.rank == 1:
                out = np.empty(1)
                yield from rcce.recv(env, out, 0)
                yield from rcce.send(env, np.array([2.0]), 0)
                return out[0]
            yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[0] == 2.0
        assert result.values[1] == 1.0


class TestChunking:
    def test_message_larger_than_mpb(self):
        """A 3x-MPB message must arrive intact through chunked handshakes."""
        m = machine()
        rcce = RCCE(m)
        n = (m.config.mpb_payload_bytes // 8) * 3 + 5
        payload = np.arange(n, dtype=np.float64)

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, payload, 1)
            elif env.rank == 1:
                out = np.empty(n)
                yield from rcce.recv(env, out, 0)
                return out
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert np.array_equal(result.values[1], payload)

    def test_zero_length_message_synchronizes(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from env.compute(100_000)
                yield from rcce.send(env, np.empty(0), 1)
                return env.now
            elif env.rank == 1:
                out = np.empty(0)
                yield from rcce.recv(env, out, 0)
                return env.now
            yield from env.compute(0)

        result = m.run_spmd(program)
        # The empty message still forced a full handshake.
        assert result.values[1] >= m.latency.core_cycles(100_000)


class TestErrors:
    def test_calls_are_generator_functions(self):
        # Misuse surfaces when the call is run (``yield from``), not when
        # the generator is made.
        assert inspect.isgeneratorfunction(RCCE.send)
        assert inspect.isgeneratorfunction(RCCE.recv)

    def test_send_to_self_rejected(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, np.zeros(1), 0)
            else:
                yield from env.compute(0)

        with pytest.raises(RCCEError):
            m.run_spmd(program)

    def test_recv_from_self_rejected(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from rcce.recv(env, np.zeros(1), 0)
            else:
                yield from env.compute(0)

        with pytest.raises(RCCEError):
            m.run_spmd(program)


class TestDeadlock:
    def test_unordered_cyclic_sends_deadlock(self):
        """Paper IV-A: every core sending first in a ring deadlocks with
        blocking doubly-synchronizing primitives."""
        m = machine(4)
        rcce = RCCE(m)

        def program(env):
            right = (env.rank + 1) % env.size
            left = (env.rank - 1) % env.size
            out = np.empty(4)
            yield from rcce.send(env, np.zeros(4), right)  # everyone sends
            yield from rcce.recv(env, out, left)

        with pytest.raises(DeadlockError):
            m.run_spmd(program)

    def test_odd_even_ordering_avoids_deadlock(self):
        """RCCE_comm's fix: odd ranks receive first."""
        m = machine(4)
        rcce = RCCE(m)

        def program(env):
            right = (env.rank + 1) % env.size
            left = (env.rank - 1) % env.size
            out = np.empty(4)
            if env.rank % 2 == 0:
                yield from rcce.send(env, np.full(4, float(env.rank)), right)
                yield from rcce.recv(env, out, left)
            else:
                yield from rcce.recv(env, out, left)
                yield from rcce.send(env, np.full(4, float(env.rank)), right)
            return out[0]

        result = m.run_spmd(program)
        assert result.values == [3.0, 0.0, 1.0, 2.0]


class TestBarrier:
    def test_barrier_aligns_ranks(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            yield from env.compute(1000 * env.rank)
            yield from rcce.barrier(env)
            return env.now

        result = m.run_spmd(program)
        slowest_work = m.latency.core_cycles(3000)
        for t in result.values:
            assert t >= slowest_work

    def test_barrier_reusable(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            for _ in range(3):
                yield from rcce.barrier(env)
            return env.now

        result = m.run_spmd(program)
        assert len(set(r > 0 for r in result.values)) == 1

    def test_wait_time_accounted(self):
        m = machine()
        rcce = RCCE(m)

        def program(env):
            if env.rank == 0:
                yield from env.compute(1_000_000)
                yield from rcce.send(env, np.zeros(4), 1)
            elif env.rank == 1:
                out = np.empty(4)
                yield from rcce.recv(env, out, 0)
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        # Rank 1 spent nearly all its time in rcce_wait_until.
        assert result.accounts[1].fraction("wait_flag") > 0.9
