"""Failure injection: misuse must fail loudly, not hang silently.

The simulator's deadlock detector turns every would-be infinite hang into
a :class:`~repro.sim.errors.DeadlockError` naming the stuck processes, so
programming errors that stall a real SCC forever (missing participants,
length mismatches, wrong roots) surface as clean test failures here.
"""

import numpy as np
import pytest

from repro.core import MPBAllreduceError, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sim.errors import DeadlockError


def machine(cores=4):
    return Machine(SCCConfig(topology=f"mesh:{cores // 2}x1"))


class TestMissingParticipant:
    @pytest.mark.parametrize("stack", ["blocking", "lightweight"])
    def test_rank_skipping_collective_deadlocks(self, stack):
        m = machine()
        comm = make_communicator(m, stack)
        data = np.zeros(64)

        def program(env):
            if env.rank == 2:
                return None  # silently drops out of the collective
            yield from comm.allreduce(env, data)

        with pytest.raises(DeadlockError) as exc:
            m.run_spmd(program)
        # The error names at least one stuck rank.
        assert "rank" in str(exc.value)

    def test_missing_barrier_participant_deadlocks(self):
        m = machine()
        comm = make_communicator(m, "blocking")

        def program(env):
            if env.rank == 0:
                return None
            yield from comm.barrier(env)

        with pytest.raises(DeadlockError):
            m.run_spmd(program)


class TestSizeMismatch:
    def test_receiver_expecting_more_chunks_deadlocks(self):
        """Sender transmits one MPB chunk; receiver waits for a second
        sent-flag round that never comes."""
        m = machine()
        from repro.rcce.api import RCCE
        rcce = RCCE(m)
        chunk = m.config.mpb_payload_bytes

        def program(env):
            if env.rank == 0:
                yield from rcce.send(env, np.zeros(chunk, dtype=np.uint8), 1)
            elif env.rank == 1:
                out = np.empty(chunk * 2, dtype=np.uint8)
                yield from rcce.recv(env, out, 0)
            else:
                yield from env.compute(0)

        with pytest.raises(DeadlockError):
            m.run_spmd(program)


class TestRootMismatch:
    def test_disagreeing_bcast_roots_deadlock(self):
        m = machine()
        comm = make_communicator(m, "blocking")

        def program(env):
            buf = np.zeros(16)
            root = 0 if env.rank < 2 else 1  # half the ranks disagree
            yield from comm.bcast(env, buf, root)

        with pytest.raises(DeadlockError):
            m.run_spmd(program)


class TestResourceLimits:
    def test_mpb_allreduce_rejects_oversized_blocks(self):
        """Vectors whose blocks exceed the MPB double-buffer half must be
        rejected with a clear error, not corrupt neighbouring state."""
        m = machine()
        comm = make_communicator(m, "mpb")
        half_doubles = (m.config.mpb_payload_bytes // 2) // 8
        n = (half_doubles + 8) * 4  # blocks of half_doubles + 8 at p=4

        def program(env):
            data = np.zeros(n)
            yield from comm.allreduce(env, data)

        with pytest.raises(MPBAllreduceError):
            m.run_spmd(program)

    def test_oversized_mpb_write_raises(self):
        from repro.hw.mpb import MPBError
        m = machine()
        with pytest.raises(MPBError):
            m.mpbs[0].alloc(m.config.mpb_bytes_per_core * 2)


class TestExceptionPropagation:
    def test_application_exception_reaches_caller(self):
        m = machine()

        def program(env):
            yield from env.compute(10)
            if env.rank == 1:
                raise RuntimeError("application bug on rank 1")

        with pytest.raises(RuntimeError, match="rank 1"):
            m.run_spmd(program)

    def test_machine_stays_usable_after_failed_run(self):
        m = machine()

        def bad(env):
            yield from env.compute(1)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            m.run_spmd(bad)

        def good(env):
            yield from env.compute(1)
            return env.rank

        result = m.run_spmd(good)
        assert result.values == [0, 1, 2, 3]
