"""Unit tests for the optional MPB port-contention model."""

import numpy as np
import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import comm_buffer
from repro.rcce.transfer import put_bytes


def machine(contention):
    return Machine(SCCConfig(topology="mesh:2x1",
                             model_mpb_contention=contention))


def test_ports_created_only_when_enabled():
    assert machine(False).mpb_ports is None
    ports = machine(True).mpb_ports
    assert ports is not None and len(ports) == 4


def _two_writers_elapsed(contention: bool) -> tuple[int, int]:
    """Cores 0 and 1 write simultaneously into core 2's MPB; returns
    (elapsed, wait_port_total)."""
    m = machine(contention)
    data = np.zeros(3200, dtype=np.uint8)

    def program(env):
        if env.rank in (0, 1):
            region = comm_buffer(m, env.core_of_rank(2))
            yield from put_bytes(env, region, data, at=env.rank * 3200)
        else:
            yield from env.compute(0)

    result = m.run_spmd(program)
    waits = sum(a.get("wait_port") for a in result.accounts)
    return result.elapsed_ps, waits


def test_contention_serializes_same_target():
    free, waits_free = _two_writers_elapsed(False)
    contended, waits = _two_writers_elapsed(True)
    assert waits_free == 0
    assert waits > 0
    # Serialized: roughly twice the single-copy time.
    assert contended > 1.7 * free


def _two_disjoint_writers_elapsed(contention: bool) -> int:
    """Cores 0 and 1 write into different MPBs: no port conflict."""
    m = machine(contention)
    data = np.zeros(3200, dtype=np.uint8)

    def program(env):
        if env.rank in (0, 1):
            region = comm_buffer(m, env.core_of_rank(env.rank + 2))
            yield from put_bytes(env, region, data)
        else:
            yield from env.compute(0)

    return m.run_spmd(program).elapsed_ps


def test_disjoint_targets_unaffected():
    assert (_two_disjoint_writers_elapsed(True)
            == _two_disjoint_writers_elapsed(False))


def test_collectives_still_correct_with_contention():
    m = machine(True)
    from repro.core.registry import make_communicator
    comm = make_communicator(m, "lightweight")
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=100) for _ in range(4)]

    def program(env):
        return (yield from comm.allreduce(env, inputs[env.rank]))

    result = m.run_spmd(program)
    np.testing.assert_allclose(result.values[0], np.sum(inputs, axis=0),
                               rtol=1e-12)


def test_contention_never_speeds_collectives_up():
    """With the rendezvous flag protocol, the owner's put and the
    neighbour's get of the same MPB are already serialized by the
    handshake, so the ring collectives see little to no port contention —
    a structural property this test documents (the direct two-writer test
    above shows the lock does bite when accesses genuinely overlap)."""
    def allgather_time(contention):
        m = Machine(SCCConfig(model_mpb_contention=contention))
        from repro.core.registry import make_communicator
        comm = make_communicator(m, "lightweight")
        data = np.zeros(552)

        def program(env):
            yield from comm.allgather(env, data)

        return m.run_spmd(program).elapsed_ps

    assert allgather_time(True) >= allgather_time(False)
