"""MPB synchronization flags with modeled access costs.

A :class:`Flag` pairs a kernel :class:`~repro.sim.events.Gate` with the MPB
that physically holds it, so setting/clearing from a given core costs that
core the corresponding MPB write latency, and a waiting core observes the
change only after its final poll's read latency (RCCE's
``rcce_wait_until``).

The generator methods charge time to the acting core's
:class:`~repro.sim.trace.TimeAccount` under the states ``overhead`` (flag
writes) and ``wait_flag`` (waits), which is what lets the test suite
reproduce the paper's profiling claim that cores spend up to ~50% of their
time in ``rcce_wait_until``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Gate, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Core, Machine


class Flag:
    """One synchronization flag living in ``owner``'s MPB."""

    __slots__ = ("machine", "owner", "name", "gate",
                 "_label_set", "_label_clear")

    def __init__(self, machine: "Machine", owner: int, name: str):
        self.machine = machine
        self.owner = owner
        self.name = name
        self.gate = Gate(machine.sim, name=f"flag[{owner}].{name}")
        # Wait-event labels, built once per flag rather than per wait.
        self._label_set = ("wait_set", self.gate.name)
        self._label_clear = ("wait_clear", self.gate.name)

    @property
    def value(self) -> bool:
        return self.gate.value

    # -- timed operations (generators; use via ``yield from``) ------------
    def set_by(self, core: "Core") -> Generator:
        """``core`` writes 1 to the flag (MPB write latency applies)."""
        return self._write_by(core, True)

    def clear_by(self, core: "Core") -> Generator:
        """``core`` writes 0 to the flag."""
        return self._write_by(core, False)

    def _write_by(self, core: "Core", level: bool) -> Generator:
        machine = self.machine
        cost = charge = machine.latency.flag_write(core.core_id, self.owner)
        faults = machine.faults
        stall = 0
        if faults is not None:
            # Mesh jitter on the write is one more term of the charge.
            charge += faults.mesh_extra_ps(core.core_id, self.owner)
            if charge > 0:
                stall = faults.stall_ps(core.core_id)
        # Inline of Core.consume (flag writes are the single most frequent
        # charge in the MPB protocols; skipping the extra generator frame
        # is measurable).  Keep in sync with
        # :meth:`repro.hw.machine.Core.consume`.
        cpu = core.cpu
        if cpu._locked or cpu._queue:
            grant = cpu.acquire()
            try:
                yield grant
            except Interrupt:
                cpu.abandon(grant)
                raise
        else:
            cpu._locked = True
        try:
            if stall:
                yield stall
                core.account.states["stall"] += stall
            if charge > 0:
                yield charge
            core.account.states["overhead"] += charge
        finally:
            queue = cpu._queue
            if queue:
                queue.popleft().succeed()
            else:
                cpu._locked = False
        if faults is not None:
            # Write-verify against lost flag writes: the writer reads the
            # flag back (one MPB access) and rewrites until the level
            # sticks, bounded by the plan's retry budget.
            attempts = 0
            while faults.flag_write_dropped(core.core_id, self.owner,
                                            self.name):
                attempts += 1
                if attempts > faults.plan.max_retries:
                    faults.raise_fault(
                        "flag_write",
                        f"flag write lost {attempts} times",
                        actor=f"core{core.core_id}", owner=self.owner,
                        flag=self.name, level=level)
                verify = machine.latency.mpb_access(core.core_id, self.owner)
                yield from core.consume(verify + cost, "overhead")
        if machine.san is not None:
            machine.san.on_flag_write(self, level, core.core_id)
        self._apply(level)

    def _apply(self, level: bool) -> None:
        if level:
            self.gate.set()
        else:
            self.gate.clear()

    def wait_set(self, core: "Core") -> Generator:
        """``core`` polls until the flag is 1 (``rcce_wait_until``)."""
        return self._wait_level(core, True)

    def wait_clear(self, core: "Core") -> Generator:
        """``core`` polls until the flag is 0."""
        return self._wait_level(core, False)

    def _wait_level(self, core: "Core", level: bool) -> Generator:
        machine = self.machine
        notify = machine.latency.flag_notify(core.core_id, self.owner)
        faults = machine.faults
        if faults is not None:
            notify += faults.flag_stale_extra_ps(core.core_id, self.owner,
                                                 self.name)
        event = self.gate.wait_level(level, notify)
        event.label = self._label_set if level else self._label_clear
        # Inline of Core.wait (no CPU occupancy while polling).
        sim = machine.sim
        t0 = sim._now
        yield event
        core.account.states["wait_flag"] += sim._now - t0
        if machine.san is not None:
            machine.san.on_flag_observed(self, level, core.core_id)

    # -- untimed operations (simulation bookkeeping) -----------------------
    def force(self, value: bool, actor: int | None = None) -> None:
        """Set the level without charging anyone.

        ``actor`` attributes the write when the force models a flag
        transition that is part of an already-charged protocol access
        (the p2p announcement channel); leave it ``None`` for test/setup
        forces that are not protocol traffic.
        """
        if self.machine.san is not None:
            self.machine.san.on_flag_force(self, value, actor)
        if value:
            self.gate.set()
        else:
            self.gate.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flag owner={self.owner} {self.name!r} value={self.value}>"
