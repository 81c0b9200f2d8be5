"""The sanitizer's cost contract, both directions.

* **Disabled = absent.**  With no sanitizer installed, every hook site
  is one ``is not None`` check; collective latencies and the simulator's
  event count must be bit-identical to the pre-subsystem goldens (the
  calibration lock's values, same table the fault subsystem pins).
* **Enabled = pure observation.**  Even *with* the sanitizer installed,
  latencies and event counts are unchanged — it reads the machine but
  never consumes virtual time — and the wall-clock slowdown stays under
  a 5x budget on the smoke point.
"""

import time

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.bench.runner import program_for
from repro.core.ops import SUM
from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

# Pre-subsystem golden latencies (see tests/faults/test_zero_overhead.py:
# the calibration lock's values for allreduce n=552 p=48, in us).
GOLDEN_ALLREDUCE_552 = {
    "blocking": 2927.6,
    "ircce": 2315.8,
    "lightweight": 1405.9,
    "lightweight_balanced": 1125.4,
    "mpb": 1024.8,
    "rckmpi": 5831.2,
}


def _run(stack, size, cores, sanitized):
    machine = Machine(SCCConfig())
    if sanitized:
        Sanitizer().install(machine)
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(20120901)
    inputs = [rng.normal(size=size) for _ in range(cores)]
    program = program_for("allreduce", comm, inputs, SUM)
    result = machine.run_spmd(program, ranks=list(range(cores)))
    return int(result.values[0]), machine.sim.events_processed


@pytest.mark.parametrize("stack", STACKS)
def test_goldens_without_sanitizer(stack):
    """The hook wiring alone (no sanitizer installed) left the seed
    latencies untouched."""
    elapsed_ps, _ = _run(stack, 552, 48, sanitized=False)
    assert elapsed_ps / 1e6 == pytest.approx(GOLDEN_ALLREDUCE_552[stack],
                                             rel=1e-3)


@pytest.mark.parametrize("stack", STACKS)
def test_enabled_sanitizer_is_bit_identical(stack):
    bare_ps, bare_events = _run(stack, 64, 8, sanitized=False)
    on_ps, on_events = _run(stack, 64, 8, sanitized=True)
    assert on_ps == bare_ps
    assert on_events == bare_events


def test_kernel_events_metric_path_unchanged():
    """The events/sec baseline (``benchmarks/perf``'s ``sim_events_per_s``)
    counts the same events with the sanitizer installed: observation
    adds zero simulator events."""
    bare_ps, bare_events = _run("lightweight_balanced", 552, 48,
                                sanitized=False)
    on_ps, on_events = _run("lightweight_balanced", 552, 48,
                            sanitized=True)
    assert (on_ps, on_events) == (bare_ps, bare_events)


def test_enabling_costs_under_budget():
    """Wall-clock budget: sanitizing the smoke point costs < 5x.

    Measured overhead is ~1.5-2.5x; 5x is the contract so the check
    stays robust on loaded CI hosts (best-of-two on each side).
    """
    def best(sanitized):
        samples = []
        for _ in range(2):
            started = time.perf_counter()
            _run("lightweight", 96, 48, sanitized=sanitized)
            samples.append(time.perf_counter() - started)
        return min(samples)

    assert best(True) < 5 * best(False)
