"""The "gory" RCCE interface: explicit MPB and flag management.

The paper notes that "the high-level flavor of RCCE (the so-called
non-gory interface) uses the MPBs exclusively for message-passing and
synchronization via flags" — and that lifting this restriction is what
enables the MPB-direct optimization.  This module reimplements the gory
interface those experiments build on:

* :meth:`GoryRCCE.malloc` — **symmetric** MPB allocation (like
  ``RCCE_malloc``): every core allocates the same offset in its own MPB,
  so an offset names a buffer on *every* core.
* :meth:`GoryRCCE.flag_alloc` / :meth:`GoryRCCE.flag_free` — allocate a
  synchronization flag slot (one per MPB flag-region word).
* :meth:`GoryRCCE.put` / :meth:`GoryRCCE.get` — raw cache-line-granular
  transfers between private memory and any core's MPB at an explicit
  offset.
* :meth:`GoryRCCE.flag_write` / :meth:`GoryRCCE.wait_until` — the flag
  primitives (``RCCE_flag_write`` / ``RCCE_wait_until``) custom protocols
  are built from.

All methods are SPMD generators charged with the same hardware costs as
the non-gory layer.  ``examples``/tests build a complete custom
neighbour-exchange protocol out of these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.hw.machine import CoreEnv, Machine
from repro.hw.mpb import MPBRegion
from repro.rcce.transfer import get_bytes, put_bytes


class GoryError(Exception):
    """Invalid gory-interface usage (exhausted flags, bad offsets...)."""


@dataclass(frozen=True)
class SymmetricBuffer:
    """A symmetric MPB allocation: the same window in every core's MPB."""

    offset: int
    size: int

    def region(self, machine: Machine, core_id: int) -> MPBRegion:
        return MPBRegion(machine.mpbs[core_id], self.offset, self.size)


@dataclass(frozen=True)
class FlagHandle:
    """A symmetric flag slot (the same flag id on every core)."""

    index: int


class GoryRCCE:
    """Explicit MPB/flag management over a machine."""

    #: Bytes of flag-region space per flag slot (RCCE packs tighter; one
    #: word per flag keeps the model simple and the capacity realistic).
    FLAG_SLOT_BYTES = 4

    def __init__(self, machine: Machine):
        self.machine = machine
        state = machine.services.setdefault("gory", {
            "alloc_ptr": machine.mpbs[0].payload_offset,
            "flags_used": 0,
            "flags_free": [],
        })
        self._state = state

    # -- symmetric allocation --------------------------------------------
    @property
    def flag_capacity(self) -> int:
        return self.machine.config.mpb_flag_bytes // self.FLAG_SLOT_BYTES

    def malloc(self, nbytes: int) -> SymmetricBuffer:
        """Symmetric MPB allocation (call identically on every core; the
        allocation itself is bookkeeping, not simulated time)."""
        line = self.machine.config.l1_line_bytes
        start = -(-self._state["alloc_ptr"] // line) * line
        if nbytes <= 0:
            raise GoryError(f"invalid allocation size {nbytes}")
        if start + nbytes > self.machine.config.mpb_bytes_per_core:
            raise GoryError(
                f"MPB exhausted: {nbytes} B requested, "
                f"{self.machine.config.mpb_bytes_per_core - start} B free")
        self._state["alloc_ptr"] = start + nbytes
        return SymmetricBuffer(start, nbytes)

    def free_all(self) -> None:
        """Release all symmetric allocations (RCCE has no fine-grained
        free either)."""
        self._state["alloc_ptr"] = self.machine.mpbs[0].payload_offset

    def flag_alloc(self) -> FlagHandle:
        if self._state["flags_free"]:
            return FlagHandle(self._state["flags_free"].pop())
        index = self._state["flags_used"]
        if index >= self.flag_capacity:
            raise GoryError(
                f"out of MPB flag slots (capacity {self.flag_capacity})")
        self._state["flags_used"] = index + 1
        return FlagHandle(index)

    def flag_free(self, handle: FlagHandle) -> None:
        self._state["flags_free"].append(handle.index)

    # -- data movement ------------------------------------------------------
    def put(self, env: CoreEnv, buffer: SymmetricBuffer, data: np.ndarray,
            target_rank: int, at: int = 0) -> Generator:
        """``RCCE_put``: write ``data`` into ``target_rank``'s copy of the
        symmetric buffer."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if at + raw.size > buffer.size:
            raise GoryError(
                f"put of {raw.size} B at {at} exceeds buffer of "
                f"{buffer.size} B")
        region = buffer.region(self.machine, env.core_of_rank(target_rank))
        return put_bytes(env, region, raw, at=at)

    def get(self, env: CoreEnv, buffer: SymmetricBuffer, nbytes: int,
            source_rank: int, at: int = 0) -> Generator:
        """``RCCE_get``: read from ``source_rank``'s copy of the buffer."""
        if at + nbytes > buffer.size:
            raise GoryError(
                f"get of {nbytes} B at {at} exceeds buffer of "
                f"{buffer.size} B")
        region = buffer.region(self.machine, env.core_of_rank(source_rank))
        return get_bytes(env, region, nbytes, at=at)

    # -- flags ---------------------------------------------------------------
    def _flag(self, handle: FlagHandle, owner_core: int):
        return self.machine.flag(owner_core, f"gory.{handle.index}")

    def flag_write(self, env: CoreEnv, handle: FlagHandle, value: bool,
                   target_rank: int) -> Generator:
        """``RCCE_flag_write``: set/clear the flag on ``target_rank``."""
        flag = self._flag(handle, env.core_of_rank(target_rank))
        return (flag.set_by if value else flag.clear_by)(env.core)

    def flag_read(self, env: CoreEnv, handle: FlagHandle,
                  source_rank: int) -> Generator:
        """``RCCE_flag_read``: sample the flag on ``source_rank``."""
        cost = self.machine.latency.mpb_access(
            env.core_id, env.core_of_rank(source_rank))
        yield from env.consume(cost, "overhead")
        return self._flag(handle, env.core_of_rank(source_rank)).value

    def wait_until(self, env: CoreEnv, handle: FlagHandle,
                   value: bool) -> Generator:
        """``RCCE_wait_until``: poll the *local* flag until it reaches
        ``value`` (the call the thermodynamic application spends up to
        50% of its time in, Section IV-A)."""
        flag = self._flag(handle, env.core_id)
        return (flag.wait_set if value else flag.wait_clear)(env.core)
