"""Shared-resource primitives built on events.

:class:`FifoLock`, a strict-FIFO mutex, models a core's single execution
unit: non-blocking communication requests are sub-processes of a core,
and every slice of *core time* they consume must hold the core's lock so
that two requests — or a request and the core's main program — never
consume the same cycles twice.  :class:`Semaphore` and
:class:`PacketQueue` are a bounded channel's window and packets.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

from repro.sim.errors import SimulationError
from repro.sim.events import Event, Gate, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class FifoLock:
    """A mutex granting access in strict request order."""

    __slots__ = ("sim", "name", "_locked", "_queue", "_label")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._locked = False
        self._queue: deque[Event] = deque()
        # Built once: every acquire event carries this label, and locks are
        # acquired once per consume() that misses the try_acquire fast path.
        self._label = ("acquire", name or "<lock>")

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Wait (see :meth:`Simulator._waiter`) that fires when the caller
        holds the lock."""
        event = self.sim._waiter(self._label)
        if not self._locked and not self._queue:
            self._locked = True
            event.succeed()
        else:
            self._queue.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take the lock synchronously if free (hot-path optimization)."""
        if not self._locked and not self._queue:
            self._locked = True
            return True
        return False

    def abandon(self, event: Event) -> None:
        """Back out of an :meth:`acquire` that may or may not have been
        granted yet (used when the waiting process is interrupted).

        If the wait is still queued it is removed; otherwise the grant
        already fired, and the lock is released on the abandoner's behalf.
        """
        try:
            self._queue.remove(event)
        except ValueError:
            self.release()

    def acquired(self) -> Generator:
        """Wait for the lock, backing out of the queue if interrupted
        meanwhile.  Use via ``yield from``, then ``try``/``finally`` the
        :meth:`release`."""
        grant = self.acquire()
        try:
            yield grant
        except Interrupt:
            self.abandon(grant)
            raise

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked FifoLock {self.name!r}")
        if self._queue:
            self._queue.popleft().succeed()
        else:
            self._locked = False

    def holding(self, duration_ps: int) -> Generator:
        """Acquire, hold for ``duration_ps``, release.  Use via ``yield from``."""
        yield from self.acquired()
        try:
            if duration_ps > 0:
                yield self.sim.timeout(duration_ps)
        finally:
            self.release()


class Semaphore:
    """A counting semaphore with FIFO wakeup: a bounded channel's window
    (a slot per packet in flight, freed when the packet is dequeued)."""

    __slots__ = ("sim", "name", "_count", "_queue", "_label")

    def __init__(self, sim: "Simulator", initial: int, name: str = ""):
        if initial < 0:
            raise ValueError(f"negative initial semaphore count: {initial}")
        self.sim = sim
        self.name = name
        self._count = initial
        self._queue: deque[Event] = deque()
        self._label = ("acquire", name or "<semaphore>")

    @property
    def count(self) -> int:
        return self._count

    def acquire(self) -> Event:
        event = self.sim._waiter(self._label)
        if self._count > 0 and not self._queue:
            self._count -= 1
            event.succeed()
        else:
            self._queue.append(event)
        return event

    def abandon(self, event: Event) -> None:
        """Back out of an :meth:`acquire`, as :meth:`FifoLock.abandon`."""
        try:
            self._queue.remove(event)
        except ValueError:
            self.release()

    def release(self) -> None:
        if self._queue:
            self._queue.popleft().succeed()
        else:
            self._count += 1


class PacketQueue(Gate):
    """A FIFO of packets in flight, and the gate its reader waits on."""

    __slots__ = ("items",)

    def __init__(self, sim: "Simulator", name: str = ""):
        super().__init__(sim, name=name)
        self.items: deque = deque()
