"""Message-count invariants: the algorithms' structure, made testable."""

import math

import numpy as np
import pytest

from repro.bench.stats import CommStats, comm_stats
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

P = 8


def run_with_stats(stack, program_factory, cores=P):
    machine = Machine(SCCConfig(topology=f"mesh:{(cores + 1) // 2}x1"))
    stats = comm_stats(machine)  # enable recording
    comm = make_communicator(machine, stack)
    machine.run_spmd(program_factory(comm), ranks=range(cores))
    return stats


class TestCommStatsObject:
    def test_record_and_totals(self):
        stats = CommStats()
        stats.record(0, 1, 100)
        stats.record(0, 1, 50)
        stats.record(2, 0, 10)
        assert stats.total_messages == 3
        assert stats.total_bytes == 160
        assert stats.messages_sent_by(0) == 2
        assert stats.messages_received_by(0) == 1
        assert stats.bytes_sent_by(0) == 150
        assert stats.partners_of(0) == {1, 2}

    def test_reset(self):
        stats = CommStats()
        stats.record(0, 1, 8)
        stats.reset()
        assert stats.total_messages == 0

    def test_disabled_by_default(self):
        """Without comm_stats(machine), nothing is recorded (zero cost)."""
        machine = Machine(SCCConfig(topology="mesh:2x1"))
        comm = make_communicator(machine, "lightweight")

        def program(env):
            yield from comm.barrier(env)

        machine.run_spmd(program)
        assert "p2p.stats" not in machine.services


class TestAlgorithmStructure:
    def test_ring_reduce_scatter_message_count(self):
        """Ring: every rank sends exactly p-1 messages."""
        data = np.arange(64, dtype=np.float64)

        def factory(comm):
            def program(env):
                yield from comm.reduce_scatter(env, data + env.rank)
            return program

        stats = run_with_stats("lightweight", factory)
        for core in range(P):
            assert stats.messages_sent_by(core) == P - 1
            # Ring neighbours only.
            assert stats.partners_of(core) == {(core - 1) % P,
                                               (core + 1) % P}

    def test_rsag_allreduce_message_count(self):
        """ReduceScatter + Allgather: 2(p-1) messages per rank."""
        data = np.arange(96, dtype=np.float64)

        def factory(comm):
            def program(env):
                yield from comm.allreduce(env, data)
            return program

        stats = run_with_stats("lightweight", factory)
        for core in range(P):
            assert stats.messages_sent_by(core) == 2 * (P - 1)

    def test_binomial_bcast_total_messages(self):
        """A broadcast tree delivers exactly p-1 messages in total."""
        def factory(comm):
            def program(env):
                buf = np.zeros(4)  # below the long threshold -> binomial
                yield from comm.bcast(env, buf, 0)
            return program

        stats = run_with_stats("lightweight", factory)
        assert stats.total_messages == P - 1

    def test_alltoall_all_pairs_exactly_once(self):
        def factory(comm):
            def program(env):
                matrix = np.zeros((env.size, 8))
                yield from comm.alltoall(env, matrix)
            return program

        stats = run_with_stats("lightweight", factory)
        for src in range(P):
            for dst in range(P):
                if src == dst:
                    continue
                assert stats.by_pair.get((src, dst), (0, 0))[0] == 1

    def test_allgather_bytes_conserved(self):
        """Ring allgather moves exactly (p-1) * n doubles per rank."""
        n = 100

        def factory(comm):
            def program(env):
                yield from comm.allgather(env, np.zeros(n))
            return program

        stats = run_with_stats("lightweight", factory)
        for core in range(P):
            assert stats.bytes_sent_by(core) == (P - 1) * n * 8

    def test_dissemination_barrier_rounds(self):
        """ceil(log2 p) zero-byte sends per rank."""
        def factory(comm):
            def program(env):
                yield from comm.barrier(env)
            return program

        stats = run_with_stats("lightweight", factory)
        rounds = math.ceil(math.log2(P))
        for core in range(P):
            assert stats.messages_sent_by(core) == rounds
        assert stats.total_bytes == 0

    def test_rckmpi_records_too(self):
        def factory(comm):
            def program(env):
                yield from comm.allreduce(env, np.zeros(64))
            return program

        stats = run_with_stats("rckmpi", factory)
        assert stats.total_messages > 0
