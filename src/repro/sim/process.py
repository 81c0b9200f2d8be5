"""Generator-backed simulated processes."""

from __future__ import annotations

from heapq import heappush as _heappush
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.errors import SimulationError
from repro.sim.events import _PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Diagnostics of a process parked on a timed hold / not yet started: the
#: strings the ``Timeout`` and bootstrap ``Event`` these replace printed.
_HOLD_LABEL = ("wait_event", "Timeout")
_START_LABEL = ("wait_event", "Event")


class ParkingToken:
    """A process's reusable heap entry: popping it resumes the generator.

    Timed holds, lock/semaphore grants and gate level waits — nearly every
    wait of a collective — have exactly one subscriber, the process that
    started them.  Instead of a fresh :class:`Event` per wait, the process
    parks on this one token: a hold pushes it on the heap directly, and
    :class:`~repro.sim.resources.FifoLock`, ``Semaphore`` and
    :class:`~repro.sim.events.Gate` queue it and later :meth:`succeed` it
    exactly where they would an event, so ``(time, seq)`` order is that of
    the event-per-wait kernel.

    ``proc`` is cleared when the process is interrupted (the token is
    *retired*: it may still sit on the heap or in a waiter queue, and must
    wake nobody) and when the generator finishes — the token and its
    process must not keep each other alive, because runs pause the cyclic
    collector.
    """

    __slots__ = ("sim", "proc", "label", "_value", "__weakref__")

    def __init__(self, sim: "Simulator", proc: "Process"):
        self.sim = sim
        self.proc: Process | None = proc
        #: ``(primitive, target)`` of the current wait (diagnostics).
        self.label = _START_LABEL
        self._value: Any = None

    def succeed(self, value: Any = None, delay: int = 0) -> None:
        """Resume the parked process with ``value``, ``delay`` ps from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        self._value = value
        sim = self.sim
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1

    def _process(self, event: Event | None = None) -> None:
        """Run the generator to its next wait.

        The run loop's dispatch when the token is popped from the heap;
        with ``event``, the callback of an event the process yielded.
        """
        proc = self.proc
        if proc is None:
            return  # retired: a wake-up for an abandoned wait
        sim = self.sim
        sim._active = self
        try:
            if event is None:
                target = proc.generator.send(self._value)
            else:
                proc.waiting_on = None
                if event._failed:
                    target = proc.generator.throw(event._value)
                else:
                    target = proc.generator.send(event._value)
        except StopIteration as stop:
            self._finish(proc).succeed(stop.value)
            return
        except BaseException as exc:
            self._finish(proc).fail(exc)
            return
        # A lock, semaphore or gate that handed this token out took it
        # from the active slot, so an empty slot means "already queued or
        # granted": the process has to park on it, nothing else.
        claimed = sim._active is None
        sim._active = None
        proc.wait_since = now = sim._now
        if claimed:
            if target is self:
                return
            what = f"its pending {self.label[0]}({self.label[1]})"
        elif target.__class__ is int and target >= 0:
            self.label = _HOLD_LABEL
            self._value = None
            _heappush(sim._heap, (now + target, sim._seq, self))
            sim._seq += 1
            return
        elif isinstance(target, Event):
            proc.waiting_on = target
            if target._cb1 is None and not target.processed:
                target._cb1 = self  # inline of add_callback's common case
            else:
                target.add_callback(self)
            return
        else:
            what = ("an Event, a non-negative int (picoseconds to hold) or "
                    "a wait obtained from a lock, semaphore or gate")
        self._finish(proc).fail(SimulationError(
            f"process {proc.name!r} yielded {target!r}; "
            f"processes may only yield {what}"))

    __call__ = _process

    def _finish(self, proc: "Process") -> "Process":
        self.proc = None
        sim = self.sim
        sim._active = None
        sim._processes.pop(id(proc), None)
        return proc


class Process(Event):
    """A simulated thread of control.

    A process wraps a generator.  The generator may yield

    * an :class:`Event` — the process suspends until it fires, and the
      event's value is sent back in (or its exception thrown in);
    * a non-negative ``int`` — hold for that many picoseconds (what
      ``yield sim.timeout(n)`` does, without allocating the event);
    * the wait returned by ``FifoLock.acquire()``, ``Semaphore.acquire()``
      or ``Gate.wait_*()`` when called from the running process — its own
      :class:`ParkingToken`, which must be the next thing it yields.

    The process itself is an event that fires with the generator's return
    value, so processes can wait on each other.

    ``interrupt()`` abandons the current wait and throws
    :class:`~repro.sim.events.Interrupt` into the generator.  Every wait
    wakes the process through its token, and interrupting retires the
    token and gives the process a new one, so a wake-up from the abandoned
    wait is ignored even if it fires at the same simulated instant as the
    interrupt.
    """

    __slots__ = ("generator", "_name", "_token", "waiting_on", "wait_since",
                 "__weakref__")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str | tuple = ""):
        if generator.__class__ is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you call the function instead of passing its generator?)"
            )
        # The event slots, written directly (one process per request).
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._value = _PENDING
        self._failed = False
        self.triggered = False
        self.processed = False
        self.label = None
        self.generator = generator
        self._name = name or getattr(generator, "__name__", "") or "process"
        #: The event this process is parked on, or None while it is parked
        #: on its own token (diagnostics).
        self.waiting_on: Event | None = None
        #: Simulated time at which the current wait began.
        self.wait_since: int = sim._now
        # Bootstrap: resume once at the current instant.
        self._token = ParkingToken(sim, self)
        self._token.succeed()

    @property
    def name(self) -> str:
        """The process's name.  A ``(template, *args)`` name — what the
        request layers pass, one per request — is formatted on first
        read: names only surface in diagnostics."""
        name = self._name
        if name.__class__ is tuple:
            name = self._name = name[0].format(*name[1:])
        return name

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt completed process {self.name}")
        if self.sim._active is self._token:
            raise SimulationError(
                f"cannot interrupt process {self.name} that is not waiting"
            )
        # Retiring the token invalidates the abandoned wait, whichever
        # kind it was: the heap, a waiter queue or an event's callback
        # slot may still hold it, and it now wakes nobody.
        self._token.proc = None
        self._token = ParkingToken(self.sim, self)
        self.waiting_on = kick = Event(self.sim)
        self.wait_since = self.sim._now
        kick.fail(Interrupt(cause))
        kick.add_callback(self._token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
