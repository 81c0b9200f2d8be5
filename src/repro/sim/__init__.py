"""Deterministic discrete-event simulation kernel.

This package is the substrate everything else runs on.  It provides a
minimal, fast, generator-based process model in the style of SimPy:

* :class:`~repro.sim.engine.Simulator` — the event loop.  Time is kept as an
  integer number of **picoseconds**, which lets the two SCC clock domains
  (533 MHz cores, 800 MHz mesh/DRAM) coexist without floating-point drift.
* :class:`~repro.sim.events.Event` and friends — one-shot waitables.
* :class:`~repro.sim.process.Process` — a simulated thread of control
  wrapped around a Python generator.  Processes ``yield`` events, or a
  number of picoseconds to hold, to wait.
* :class:`~repro.sim.events.Gate` — a level-triggered boolean signal used to
  model the SCC's MPB synchronization flags.
* :class:`~repro.sim.clock.Clock` — cycle/time conversion for a frequency
  domain.
* :class:`~repro.sim.trace.Tracer` — optional structured tracing and
  per-process busy/wait accounting (used to reproduce the paper's profiling
  claims, e.g. "cores spend up to 50% of their time in rcce_wait_until").

The kernel is deterministic: ties in the event heap are broken by insertion
sequence number, so two runs of the same program produce identical event
orders and identical simulated timestamps.
"""

from repro.sim.clock import Clock, PS_PER_SECOND, PS_PER_MICROSECOND
from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Gate, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Clock",
    "DeadlockError",
    "Event",
    "Gate",
    "Interrupt",
    "PS_PER_MICROSECOND",
    "PS_PER_SECOND",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
