"""Determinism: identical runs produce identical simulated timings."""

import numpy as np

from repro.bench.runner import measure_collective
from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine


def test_every_stack_latency_reproducible():
    for stack in STACKS:
        a = measure_collective("allreduce", stack, 96, cores=8,
                               config=SCCConfig())
        b = measure_collective("allreduce", stack, 96, cores=8,
                               config=SCCConfig())
        assert a == b, f"stack {stack} non-deterministic"


def test_repeated_ops_on_one_machine_have_stable_cost():
    """After the first call warms flags up, repeated collectives on the
    same machine cost the same simulated time."""
    machine = Machine(SCCConfig(topology="mesh:4x1"))
    comm = make_communicator(machine, "lightweight_balanced")
    data = np.arange(96, dtype=np.float64)

    def program(env):
        stamps = []
        for _ in range(4):
            t0 = env.now
            yield from comm.allreduce(env, data + env.rank)
            stamps.append(env.now - t0)
        return stamps

    result = machine.run_spmd(program)
    durations = result.values[0]
    # All iterations after the first must be identical.
    assert len(set(durations[1:])) == 1


def test_trace_records_are_reproducible():
    from repro.sim.trace import Tracer

    def run():
        tracer = Tracer(enabled=True)
        machine = Machine(SCCConfig(topology="mesh:2x1"),
                          tracer=tracer)
        comm = make_communicator(machine, "lightweight")

        def program(env):
            yield from comm.barrier(env)

        machine.run_spmd(program)
        return machine.sim.now

    assert run() == run()
