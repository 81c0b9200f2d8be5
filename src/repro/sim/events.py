"""One-shot waitable events and level-triggered gates.

An :class:`Event` is a one-shot condition a :class:`~repro.sim.process.Process`
can wait on by ``yield``-ing it.  Events carry a value (delivered to the
waiting generator via ``send``) or an exception (delivered via ``throw``).

A :class:`Gate` is a *level*-triggered boolean used to model the SCC's MPB
synchronization flags: it can be set and cleared repeatedly, and hands out
one-shot waits to processes that want to wait for a particular level.

Hot-path layout
---------------
Events are for what has several subscribers or outlives one wait (process
completion, ``AllOf``/``AnyOf``, ``sim.timeout()``); the waits that make
up a collective's hundreds of thousands of dispatches — timed holds, lock
grants, gate waits — park the process on its reusable
:class:`~repro.sim.process.ParkingToken` instead and allocate nothing.
For the events that remain the common shape is still *one callback per
event* (the waiting process), so the callback storage is an inline
first-callback slot (``_cb1``) plus a list that is only allocated for the
rare second subscriber, and triggering pushes straight onto the
simulator's heap instead of going through :meth:`Simulator._schedule`.
Dispatch order is exactly registration order, so virtual time is
bit-identical to the straightforward list-of-callbacks implementation
(``tests/bench/test_kernel_identity.py`` pins this).
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.sim.errors import SimulationError, StaleEventError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    Used by the iRCCE layer to implement request cancellation
    (``iRCCE_cancel``): the transfer sub-process waiting for a flag is
    interrupted and unwinds cleanly.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable condition.

    Lifecycle: *pending* → (``succeed`` | ``fail``) → *triggered* →
    (scheduled on the event heap) → *processed* (callbacks ran, waiters
    resumed).
    """

    __slots__ = ("sim", "_cb1", "callbacks", "_value", "_failed",
                 "triggered", "processed", "label")

    def __init__(self, sim: "Simulator"):
        # Timeout, _Condition and Process write these slots themselves
        # (no super() call on their hot constructors): a slot added here
        # must be added to all three.
        self.sim = sim
        #: First registered callback (inline slot; most events never need
        #: the overflow list below).
        self._cb1: Optional[Callable[["Event"], None]] = None
        #: Overflow callbacks, in registration order (lazily allocated).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._failed = False
        self.triggered = False
        self.processed = False
        #: Optional ``(primitive, target)`` pair naming the operation this
        #: event represents; surfaces in deadlock/watchdog diagnostics.
        self.label: Optional[tuple[str, str]] = None

    # -- inspection ----------------------------------------------------
    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise AttributeError("event value is not yet available")
        return self._value

    @property
    def ok(self) -> bool:
        """True once the event succeeded (as opposed to failed)."""
        return self.triggered and not self._failed

    @property
    def failed(self) -> bool:
        return self.triggered and self._failed

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Mark the event successful; waiters resume ``delay`` ps later."""
        if self.triggered:
            raise StaleEventError(f"{self!r} has already been triggered")
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        self.triggered = True
        self._value = value
        sim = self.sim
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Mark the event failed; the exception is thrown into waiters."""
        if self.triggered:
            raise StaleEventError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._failed = True
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously) — this is what makes waiting on an
        already-completed request a no-op in simulated time.
        """
        if self.processed:
            callback(self)
        elif self._cb1 is None:
            self._cb1 = callback
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        self.processed = True
        callback = self._cb1
        if callback is not None:
            self._cb1 = None
            callback(self)
            callbacks, self.callbacks = self.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` picoseconds after creation.

    The constructor writes the event slots directly (no ``super()`` chain)
    and pushes itself onto the heap inline: timeouts are the single most
    allocated event type, one per modeled latency charge.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._value = value
        self._failed = False
        self.triggered = True
        self.processed = False
        self.label = None
        self.delay = delay
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1


class ConditionValue:
    """Result of an :class:`AnyOf`/:class:`AllOf`: maps events to values."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]):
        self.events = events

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> list[Any]:
        return [e.value for e in self.events]


class _Condition(Event):
    """Common machinery for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        # The event slots are written directly, as in Timeout: one
        # condition per non-blocking round.  ``label`` is the property
        # below, so it is not stored.
        self.sim = sim
        self._cb1 = None
        self.callbacks = None
        self._value = _PENDING
        self._failed = False
        self.triggered = False
        self.processed = False
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed(ConditionValue([]))
            return
        on_child = self._on_child
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
            event.add_callback(on_child)

    @property
    def label(self) -> tuple[str, str]:
        """``("allof" | "anyof", "<n> events")``, built when a diagnostic
        reads it."""
        return type(self).__name__.lower(), f"{len(self.events)} events"

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* child events have fired (any failure propagates)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        # A failure fails the condition at once, so once all children are
        # counted every one of them has succeeded.
        if self.triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(ConditionValue(list(self.events)))


class AnyOf(_Condition):
    """Fires when *any* child event has fired."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self.succeed(ConditionValue(
            [e for e in self.events if e.processed and e.ok]))


class Gate:
    """A level-triggered boolean flag with waiters.

    Models an MPB synchronization flag.  ``set()``/``clear()`` change the
    level; ``wait_true()``/``wait_false()`` return one-shot waits (see
    :meth:`Simulator._waiter`) that fire when the flag reaches the requested
    level (immediately, if it is already there).  An optional
    ``notify_delay`` models the time between the flag being written by one
    core and the polling core observing the new value.
    """

    __slots__ = ("sim", "name", "_value", "_true_waiters", "_false_waiters",
                 "_label_true", "_label_false")

    def __init__(self, sim: "Simulator", value: bool = False, name: str = ""):
        self.sim = sim
        self.name = name
        self._value = bool(value)
        self._true_waiters: list[tuple[Event, int]] = []
        self._false_waiters: list[tuple[Event, int]] = []
        # Wait events are labeled per gate; building the tuples once here
        # keeps the per-wait cost to two slot writes.
        self._label_true = ("wait_true", name or "<gate>")
        self._label_false = ("wait_false", name or "<gate>")

    @property
    def value(self) -> bool:
        return self._value

    def set(self) -> None:
        if not self._value:
            self._value = True
            waiters = self._true_waiters
            if waiters:
                self._true_waiters = []
                for event, extra in waiters:
                    event.succeed(True, delay=extra)

    def clear(self) -> None:
        if self._value:
            self._value = False
            waiters = self._false_waiters
            if waiters:
                self._false_waiters = []
                for event, extra in waiters:
                    event.succeed(False, delay=extra)

    def toggle(self) -> None:
        if self._value:
            self.clear()
        else:
            self.set()

    def wait_true(self, notify_delay: int = 0) -> Event:
        """Event firing when the flag is (or becomes) set.

        ``notify_delay`` ps are added between the level change and the
        waiter resuming (models the final successful poll's read latency).
        """
        event = self.sim._waiter(self._label_true)
        if self._value:
            event.succeed(True, delay=notify_delay)
        else:
            self._true_waiters.append((event, notify_delay))
        return event

    def wait_false(self, notify_delay: int = 0) -> Event:
        event = self.sim._waiter(self._label_false)
        if not self._value:
            event.succeed(False, delay=notify_delay)
        else:
            self._false_waiters.append((event, notify_delay))
        return event

    def wait_level(self, level: bool, notify_delay: int = 0) -> Event:
        return self.wait_true(notify_delay) if level else self.wait_false(notify_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gate {self.name or id(self):#x} value={self._value}>"
