"""Unit tests for the RCKMPI packetized channel."""

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.core.registry import make_communicator
from repro.rckmpi.channel import RCKMPIP2P, WINDOW_PACKETS


def machine(cores=4):
    return Machine(SCCConfig(topology=f"mesh:{cores // 2}x1"))


class TestChannel:
    def test_roundtrip(self):
        m = machine()
        layer = RCKMPIP2P(m)
        payload = np.linspace(0, 9, 777)  # multiple packets, odd tail

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, payload, 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                out = np.empty(777)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
                return out
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert np.array_equal(result.values[1], payload)

    def test_eager_send_completes_without_receiver(self):
        """MPICH-style eager protocol: a small send does not rendezvous."""
        m = machine()
        layer = RCKMPIP2P(m)
        done_at = {}

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(16), 1)
                yield from layer.wait(env, req)
                done_at["send"] = env.now
            elif env.rank == 1:
                yield from env.compute(10_000_000)  # receiver very late
                out = np.empty(16)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
                done_at["recv"] = env.now
            else:
                yield from env.compute(0)

        m.run_spmd(program)
        # The sender finished long before the receiver even posted.
        assert done_at["send"] < m.latency.core_cycles(10_000_000)

    def test_window_backpressure(self):
        """A long message stalls after WINDOW_PACKETS packets until the
        receiver drains the channel."""
        m = machine()
        layer = RCKMPIP2P(m)
        packet = m.config.rckmpi_packet_bytes
        nbytes = packet * (WINDOW_PACKETS + 3)
        done_at = {}

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(
                    env, np.zeros(nbytes, dtype=np.uint8), 1)
                yield from layer.wait(env, req)
                done_at["send"] = env.now
            elif env.rank == 1:
                yield from env.compute(5_000_000)
                out = np.empty(nbytes, dtype=np.uint8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        m.run_spmd(program)
        # The sender could NOT finish before the receiver started.
        assert done_at["send"] > m.latency.core_cycles(5_000_000)

    def test_unordered_ring_does_not_deadlock(self):
        """Eager buffering removes the odd-even requirement entirely."""
        m = machine(4)
        comm = make_communicator(m, "rckmpi")

        def program(env):
            right = (env.rank + 1) % env.size
            left = (env.rank - 1) % env.size
            out = np.empty(32)
            sreq = yield from comm.p2p.isend(env, np.full(32, 1.0), right)
            rreq = yield from comm.p2p.irecv(env, out, left)
            yield from comm.p2p.wait_all(env, [sreq, rreq])
            return out[0]

        result = m.run_spmd(program)
        assert result.values == [1.0] * 4

    def test_zero_byte_message(self):
        m = machine()
        layer = RCKMPIP2P(m)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.empty(0), 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                out = np.empty(0)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
                return True
            else:
                yield from env.compute(0)

        result = m.run_spmd(program)
        assert result.values[1] is True

    def test_receive_of_another_size_is_rejected(self):
        m = machine()
        layer = RCKMPIP2P(m)

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(100, np.uint8), 1)
                yield from layer.wait(env, req)
            elif env.rank == 1:
                out = np.empty(50, dtype=np.uint8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)
            else:
                yield from env.compute(0)

        with pytest.raises(ValueError, match="100-B packet, expected 50 B"):
            m.run_spmd(program)

    def test_cancelled_send_gives_its_window_slot_back(self):
        """A send cancelled while it waits on a full window leaves the
        window's queue: once the receiver drains the queued packets the
        window is whole again, and a full window's worth of packets is
        sent eagerly."""
        m = Machine(SCCConfig(topology="mesh:2x1"))
        layer = RCKMPIP2P(m)
        packet = m.config.rckmpi_packet_bytes
        late = m.latency.core_cycles(10_000_000)
        done_at = {}

        def program(env):
            if env.rank == 0:
                req = yield from layer.isend(env, np.zeros(
                    packet * (WINDOW_PACKETS + 1), dtype=np.uint8), 1)
                # Idle while the send fills the window and blocks on it.
                yield from env.sleep(m.latency.core_cycles(1_000_000))
                yield from layer.cancel(env, req)
                yield from env.sleep(m.latency.core_cycles(2_000_000))
                req = yield from layer.isend(env, np.zeros(
                    packet * WINDOW_PACKETS, dtype=np.uint8), 1)
                yield from layer.wait(env, req)
                done_at["send"] = env.now
            elif env.rank == 1:
                yield from env.sleep(m.latency.core_cycles(2_000_000))
                out = np.empty(packet, dtype=np.uint8)
                for _ in range(WINDOW_PACKETS):   # the cancelled packets
                    req = yield from layer.irecv(env, out, 0)
                    yield from layer.wait(env, req)
                yield from env.sleep(late - env.now)
                out = np.empty(packet * WINDOW_PACKETS, dtype=np.uint8)
                req = yield from layer.irecv(env, out, 0)
                yield from layer.wait(env, req)

        m.run_spmd(program, ranks=[0, 1])
        assert done_at["send"] < late


class TestRCKMPICommunicator:
    @pytest.mark.parametrize("stack", ["lightweight", "rckmpi"])
    def test_messages_are_bracketed(self, stack):
        """Every stack's messages carry ``send``/``recv`` records in a
        traced run (p=4 ring Allgather: 3 messages each way per rank),
        and the records do not move RCKMPI's virtual time or events."""
        from collections import Counter

        from repro.core.registry import launch
        from repro.sim.trace import Tracer

        tracer = Tracer(enabled=True)
        m, comm = launch(stack, 4, tracer=tracer)

        def program(env):
            return (yield from comm.allgather(
                env, np.full(300, float(env.rank))))

        result = m.run_spmd(program, ranks=list(range(4)))
        tags = Counter(rec.tag for rec in tracer.records)
        assert [tags[f"{kind}.{edge}"] for kind in ("send", "recv")
                for edge in ("begin", "end")] == [12] * 4
        if stack == "rckmpi":
            assert (result.elapsed_ps, m.sim.events_processed) == (
                306_613_392, 253)

    def test_is_a_plain_communicator(self):
        from repro.core.comm import Communicator

        comm = make_communicator(machine(), "rckmpi")
        assert type(comm) is Communicator
        assert type(comm.p2p) is RCKMPIP2P
        assert comm.name == "rckmpi"

    def test_uses_balanced_partition(self):
        m = machine()
        comm = make_communicator(m, "rckmpi")
        part = comm.partition(10, 4)
        assert part.sizes == (3, 3, 2, 2)

    def test_allreduce_correct_at_48_cores(self):
        m = Machine(SCCConfig())
        comm = make_communicator(m, "rckmpi")
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=100) for _ in range(48)]

        def program(env):
            return (yield from comm.allreduce(env, inputs[env.rank]))

        result = m.run_spmd(program)
        np.testing.assert_allclose(result.values[17],
                                   np.sum(inputs, axis=0), rtol=1e-12)

    def test_smooth_scaling_no_line_spikes(self):
        """RCKMPI's byte-granular channel: no period-4 spike (Fig. 9)."""
        from repro.bench.runner import measure_collective
        lat = {n: measure_collective("allreduce", "rckmpi", n, cores=8,
                                     config=SCCConfig(topology="mesh:4x1"))
               for n in (600, 601, 602, 603, 604)}
        aligned = 0.5 * (lat[600] + lat[604])
        for n in (601, 602, 603):
            assert lat[n] / aligned < 1.02, f"spike at {n}"
