"""The discrete-event loop.

Time is an integer count of picoseconds.  The heap holds ``(time, seq,
item)`` entries; ``seq`` is a monotonically increasing insertion counter
that makes simultaneous entries process in a deterministic order.  An item
is an :class:`~repro.sim.events.Event` (its callbacks run) or a process's
:class:`~repro.sim.process.ParkingToken` (its generator is resumed) — the
loops dispatch both through ``item._process()``.

The run loops are deliberately flat: a collective sweep pushes tens of
millions of events through this file, so the hot loops bind the heap and
the heappop primitive locally and dispatch events inline instead of going
through :meth:`Simulator.step`.  :attr:`Simulator.events_processed` counts
dispatched events — ``benchmarks/perf`` divides it by wall-clock time to
track the kernel's events/sec trajectory (``sim_events_per_s``).
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Generator, Iterable, Optional

from repro.sim.errors import (
    DeadlockError,
    SimulationError,
    WaitInfo,
    WatchdogTimeout,
)
from repro.sim.events import AllOf, AnyOf, Event, Gate, Timeout
from repro.sim.process import ParkingToken, Process
from repro.sim.trace import Tracer

_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1000)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    1000
    >>> proc.value
    1000
    """

    #: Pause CPython's cyclic garbage collector while a run loop is
    #: executing (re-enabled on exit, even on error).  The kernel allocates
    #: hundreds of thousands of short-lived event/process/generator
    #: structures per collective, some of them cyclic (a waiting process
    #: and its event reference each other), which keeps the generational
    #: collector permanently busy; pausing it during the loop is the
    #: standard discrete-event-simulation discipline and is worth ~10% of
    #: wall-clock.  Set to False on the class or an instance to opt out
    #: (e.g. extremely long single runs on memory-constrained hosts).
    pause_gc: bool = True

    def __init__(self, tracer: Optional[Tracer] = None):
        self._heap: list[tuple[int, int, Event | ParkingToken]] = []
        self._now: int = 0
        self._seq: int = 0
        self._processes: dict[int, Process] = {}
        #: Parking token of the process whose generator is running, until
        #: a lock, semaphore or gate claims it for a wait; None otherwise.
        self._active: Optional[ParkingToken] = None
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Total events dispatched by this simulator (perf accounting).
        self.events_processed: int = 0
        #: Attached runtime sanitizer, or None.  Lives on the simulator so
        #: observation layers that only see ``env.sim`` (the obs spans)
        #: can feed it protocol context without a machine reference.
        self.san = None

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def gate(self, value: bool = False, name: str = "") -> Gate:
        return Gate(self, value, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a simulated process, started at `now`.

        The process removes itself from the registry when its generator
        finishes (see :meth:`ParkingToken._process`), so no cleanup callback is
        registered here — keeping the event's inline callback slot free
        for the actual waiter.
        """
        proc = Process(self, generator, name=name)
        self._processes[id(proc)] = proc
        return proc

    # -- scheduling (kernel internal) ---------------------------------------
    def _waiter(self, label: tuple[str, str]) -> Event | ParkingToken:
        """What a lock, semaphore or gate queues for a wait that starts now.

        Called from a running process it is that process's parking token
        (claimed: the process must yield it next, see
        :meth:`ParkingToken._process`); called from outside any process,
        or for a second wait in one step, a plain one-shot event.
        """
        waiter = self._active
        if waiter is None:
            waiter = Event(self)
        else:
            self._active = None
        waiter.label = label
        return waiter

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        _heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    # -- running ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event from the heap."""
        when, _seq, event = _heappop(self._heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event heap time went backwards")
        self._now = when
        self.events_processed += 1
        event._process()

    def run(self, until: Optional[int] = None, *, check_deadlock: bool = True) -> int:
        """Run until the heap drains (or simulated time passes ``until``).

        Returns the final simulated time.  If the heap drains while
        registered processes are still alive, a :class:`DeadlockError` is
        raised (unless ``check_deadlock=False``).
        """
        heap = self._heap
        count = 0
        paused_gc = self.pause_gc and gc.isenabled()
        if paused_gc:
            gc.disable()
        try:
            if until is None:
                # Hot path: no horizon check per event.
                while heap:
                    when, _seq, event = _heappop(heap)
                    self._now = when
                    count += 1
                    event._process()
            else:
                while heap:
                    when = heap[0][0]
                    if when > until:
                        self._now = until
                        return self._now
                    when, _seq, event = _heappop(heap)
                    self._now = when
                    count += 1
                    event._process()
        finally:
            self.events_processed += count
            if paused_gc:
                gc.enable()
        if until is not None:
            # The horizon is authoritative: the clock advances to it even
            # if no event was left to carry it there.
            self._now = max(self._now, until)
            return self._now
        if check_deadlock:
            waiting = [p.name or repr(p) for p in self._processes.values()
                       if not p.triggered]
            if waiting:
                raise DeadlockError(waiting, self.blocked_info())
        return self._now

    def blocked_info(self) -> list[WaitInfo]:
        """One :class:`WaitInfo` snapshot per live (blocked) process."""
        infos = []
        for proc in self._processes.values():
            if proc.triggered:
                continue
            event = proc.waiting_on
            if event is None:  # parked on its own token
                event = proc._token
            if event.label is not None:
                primitive, target = event.label
            elif isinstance(event, Process):
                primitive, target = "wait_process", event.name
            else:
                primitive, target = "wait_event", type(event).__name__
            infos.append(WaitInfo(proc.name or repr(proc), primitive,
                                  target, self._now - proc.wait_since))
        return infos

    def run_until_processes(self, processes: Iterable[Process], *,
                            watchdog_ps: Optional[int] = None) -> int:
        """Run until every process in ``processes`` has completed.

        ``watchdog_ps`` bounds the *virtual* time the run may take (measured
        from the current instant): if the next heap event lies beyond the
        deadline while target processes are unfinished, a
        :class:`WatchdogTimeout` is raised carrying per-process wait
        diagnostics.  This converts silent livelocks/hangs into a rich,
        typed error, complementing the drain-only :class:`DeadlockError`.
        """
        target = AllOf(self, list(processes))
        deadline = self._now + watchdog_ps if watchdog_ps is not None else None
        start = self._now
        heap = self._heap
        count = 0
        paused_gc = self.pause_gc and gc.isenabled()
        if paused_gc:
            gc.disable()
        try:
            if deadline is None:
                # Hot path for the common no-watchdog launch: one heappop
                # and an inline dispatch per event, no per-event deadline
                # check; the dispatch count is accumulated locally and
                # flushed once (an attribute store per event is measurable
                # at this loop's intensity).
                while not target.processed:
                    if not heap:
                        self._raise_drained_deadlock()
                    when, _seq, event = _heappop(heap)
                    self._now = when
                    count += 1
                    event._process()
            else:
                while not target.processed:
                    if not heap:
                        self._raise_drained_deadlock()
                    if heap[0][0] > deadline:
                        raise WatchdogTimeout(watchdog_ps, self._now - start,
                                              self.blocked_info())
                    when, _seq, event = _heappop(heap)
                    self._now = when
                    count += 1
                    event._process()
        finally:
            self.events_processed += count
            if paused_gc:
                gc.enable()
        if target.failed:
            raise target.value
        return self._now

    def _raise_drained_deadlock(self) -> None:
        waiting = [p.name or repr(p) for p in self._processes.values()
                   if not p.triggered]
        raise DeadlockError(waiting or ["<unknown>"], self.blocked_info())

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def live_processes(self) -> list[Process]:
        return [p for p in self._processes.values() if not p.triggered]
