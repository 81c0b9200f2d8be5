"""Bound protocol programs follow the configuration they were priced at.

A message's program is priced once per channel side and size and kept
in the latency model's table of the erratum level it was bound at.  Two
things can change a price after that, and both must reach the run
exactly as per-op pricing did:

* the fault injector's scheduled erratum toggle flips
  ``config.erratum_enabled`` mid-run (programs bound before it, some of
  them in flight, must price their remaining rows at the new level);
* a timing field mutated on a live machine followed by
  ``LatencyModel.invalidate()`` (which must drop the programs with the
  latencies).

The pins — event count and every rank's exit picosecond, as a digest —
were recorded on the per-op pricing interpreter, before programs were
bound.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.runner import program_for
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

#: Erratum toggle instant per rank count: mid-Allreduce for all three
#: stacks (their p=8 runs take 289-654 us, their p=48 runs 1049-2987 us).
TOGGLE_PS = {8: 150_000_000, 48: 600_000_000}

#: (stack, cores) -> (events, digest of (events, exits)) under the toggle.
TOGGLED = {
    ("blocking", 8): (1260, "59d6df56eb9a87ca"),
    ("blocking", 48): (47900, "bc26f5d409fb626e"),
    ("lightweight_balanced", 8): (2778, "56893417fb4f3ab9"),
    ("lightweight_balanced", 48): (104642, "2d028234b2eaeca6"),
    ("mpb", 8): (1362, "96a8d33ad5edfa81"),
    ("mpb", 48): (41474, "94f251acbeb57b76"),
}

#: stack -> the same, for a second p=8 Allreduce on a machine whose
#: remote-MPB and put-line cycles were raised (then invalidated) after
#: a first one.
INVALIDATED = {
    "blocking": (1259, "1c50a26272126a19"),
    "lightweight_balanced": (2776, "1ce0427ce6b8c786"),
}


def allreduce(machine: Machine, comm, cores: int) -> tuple[int, str]:
    """Run one n=552 Allreduce; (events it took, digest of those and
    every rank's exit ps)."""
    rng = np.random.default_rng(20120901)
    inputs = [rng.normal(size=552) for _ in range(cores)]
    measured = program_for("allreduce", comm, inputs, SUM)

    def program(env):
        yield from measured(env)
        return env.now

    before = machine.sim.events_processed
    exits = machine.run_spmd(program, ranks=list(range(cores))).values
    events = machine.sim.events_processed - before
    return events, hashlib.sha256(
        repr((events, exits)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("stack,cores", sorted(TOGGLED))
def test_erratum_toggle_reprices_bound_rows(stack, cores):
    machine = Machine(SCCConfig())
    injector = FaultInjector(
        FaultPlan(erratum_toggle_at_ps=TOGGLE_PS[cores])).install(machine)
    comm = make_communicator(machine, stack)
    assert allreduce(machine, comm, cores) == TOGGLED[(stack, cores)]
    assert injector.counts == {"erratum_toggle": 1}


@pytest.mark.parametrize("stack", sorted(INVALIDATED))
def test_invalidate_drops_bound_programs(stack):
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    allreduce(machine, comm, 8)
    machine.config.mpb_remote_core_cycles += 7
    machine.config.put_line_core_cycles += 3
    machine.latency.invalidate()
    assert allreduce(machine, comm, 8) == INVALIDATED[stack]
