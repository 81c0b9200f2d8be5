"""MPB synchronization flags with modeled access costs.

A :class:`Flag` pairs a kernel :class:`~repro.sim.events.Gate` with the MPB
that physically holds it, so setting/clearing from a given core costs that
core the corresponding MPB write latency, and a waiting core observes the
change only after its final poll's read latency (RCCE's
``rcce_wait_until``).

The timed methods are single micro-ops of :mod:`repro.hw.protocol`; its
interpreter charges the acting core's
:class:`~repro.sim.trace.TimeAccount` under the states ``overhead`` (flag
writes) and ``wait_flag`` (waits), which is what lets the test suite
reproduce the paper's profiling claim that cores spend up to ~50% of their
time in ``rcce_wait_until``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.hw.protocol import CLEAR, SET, WAIT, bind, run_ops
from repro.sim.events import Gate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.machine import Core, Machine

_SET = ((SET, 0, 0),)
_CLEAR = ((CLEAR, 0, 0),)
_WAIT_SET = ((WAIT, 0, 1),)
_WAIT_CLEAR = ((WAIT, 0, 0),)


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
        return run_ops(core, bind(core, _SET, (self,)))

    def clear_by(self, core: "Core") -> Generator:
        """``core`` writes 0 to the flag."""
        return run_ops(core, bind(core, _CLEAR, (self,)))

    def wait_set(self, core: "Core") -> Generator:
        """``core`` polls until the flag is 1 (``rcce_wait_until``)."""
        return run_ops(core, bind(core, _WAIT_SET, (self,)))

    def wait_clear(self, core: "Core") -> Generator:
        """``core`` polls until the flag is 0."""
        return run_ops(core, bind(core, _WAIT_CLEAR, (self,)))

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
