"""Exactly one place decides which algorithm a collective call runs.

For every kind with an algorithm choice, on the six Fig.-9 stacks and
``tuned``, at p in {2, 47, 48}, one operand just below and one exactly at
the 512-byte threshold: the label on the run's ``schedule`` span, the
name the analytic engine prices and ``comm.resolve(...)`` are the same
string.  (The MPB-direct Allreduce is not a schedule: it opens no
``schedule`` span and the analytic engine hands the point to the
simulator; ``synth/...`` picks are simulated too.)
"""

import numpy as np
import pytest

from repro.bench.analytic import _priced_schedule_name
from repro.core.comm import LONG_THRESHOLD_BYTES
from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import CoreEnv, Machine
from repro.sched.builders import SCHEDULED_KINDS
from repro.sched.select import TunedCommunicator
from repro.sim.trace import Tracer

LONG = LONG_THRESHOLD_BYTES // 8  # doubles: the first "long" operand
SHORT = LONG - 1


class ScheduleLabels(Tracer):
    """Keeps only the labels of the ``schedule`` spans."""

    def emit(self, time_ps, actor, tag, detail=None):
        if tag == "schedule.begin":
            self.records.append(detail)


def assert_single_decision(kind, stack, cores, size, config=None):
    config = config or SCCConfig()
    tracer = ScheduleLabels()
    machine = Machine(config, tracer=tracer)
    comm = make_communicator(machine, stack)
    vec = np.arange(size, dtype=np.float64)
    name = comm.resolve(kind, cores, size, size * 8, None)
    priced = _priced_schedule_name(comm, kind, size, cores, None)

    def program(env):
        buf = np.tile(vec, (env.size, 1)) if kind == "alltoall" else vec
        yield from getattr(comm, kind)(env, buf.copy())

    ranks = list(range(cores))
    if name == "mpb":
        machine.run_spmd(program, ranks=ranks)
        assert tracer.records == [] and priced is None
        return name
    # A rank opens its schedule span right after the collective layer's
    # entry overhead; what follows cannot change the label, so the
    # launch stops there instead of simulating the whole collective.
    for rank in ranks:
        machine.sim.process(program(CoreEnv(machine, rank, cores, ranks)))
    entry_ps = machine.latency.core_cycles(config.collective_call_cycles)
    machine.sim.run(until=2 * entry_ps, check_deadlock=False)
    assert tracer.records == [f"{kind}:{name}"] * cores
    assert priced == (None if name.startswith("synth/") else name)
    # Either spelling of the resolved name resolves to itself.
    assert comm.resolve(kind, cores, size, size * 8, name) == name
    assert comm.resolve(kind, cores, size, size * 8, f"sched:{name}") == name
    return name


@pytest.mark.parametrize("cores", [2, 47, 48])
@pytest.mark.parametrize("stack", STACKS + ("tuned",))
@pytest.mark.parametrize("kind", SCHEDULED_KINDS)
def test_span_label_analytic_and_resolver_agree(kind, stack, cores):
    short = assert_single_decision(kind, stack, cores, SHORT)
    long = assert_single_decision(kind, stack, cores, LONG)
    if stack == "mpb" and kind == "allreduce":
        assert (short, long) == ("reduce_bcast", "mpb")
    elif stack != "tuned" and kind in ("allreduce", "reduce", "bcast"):
        assert short != long  # the threshold sits between the two sizes


def test_cluster_point_resolves_to_the_hierarchy():
    config = SCCConfig(topology="cluster:2x24")
    assert assert_single_decision("allreduce", "tuned", 48, 8,
                                  config) == "hier/g2"


def test_tuned_stack_defines_no_collective_method():
    # Its whole difference is the default decision.
    own = set(vars(TunedCommunicator)) - {"__module__", "__doc__",
                                          "__init__"}
    assert own == {"resolve", "pick_algo", "_load_table"}
