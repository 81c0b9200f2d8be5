"""Deterministic, seed-driven fault injection for the simulated SCC.

The subsystem has three parts:

* :class:`~repro.faults.plan.FaultPlan` — an immutable description of
  *what* can go wrong and how often (per-fault probabilities and
  magnitudes) plus the hardening knobs (retry budget, checksums,
  fallback threshold).
* :class:`~repro.faults.injector.FaultInjector` — the live hook object a
  :class:`~repro.hw.machine.Machine` carries as ``machine.faults``.  The
  hardware layers consult it at every fault site; with no injector
  installed every hook is a single ``is None`` check, so fault-free runs
  are bit-identical to a build without this subsystem (the
  zero-overhead guarantee asserted by
  ``tests/faults/test_zero_overhead.py``).
* :mod:`~repro.faults.campaign` — randomized chaos campaigns over all
  collectives × stacks with per-trial correctness verdicts, behind
  ``python -m repro chaos``.

See ``docs/robustness.md`` for the fault model and the hardening
protocols (watchdog, flag write-verify, checksum/retransmit, MPB
fallback).
"""

from repro.faults.errors import (
    FaultError,
    FlagFaultError,
    MPBFaultError,
    TransferFaultError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = [
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FlagFaultError",
    "MPBFaultError",
    "TransferFaultError",
]
