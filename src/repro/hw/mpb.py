"""Message-passing buffers: the SCC's per-core on-chip SRAM.

Each core owns 8 KB of SRAM that every core in the system can read and
write.  The simulator stores real bytes (NumPy ``uint8`` arrays), so data
that travels through the simulated machine is actually moved and the test
suite can verify collective results bit-for-bit against NumPy ground truth.
An MPB's bytes are allocated (zeroed) when they are first touched, so a
machine pays only for the MPBs its run uses.

Layout convention: the first ``flag_bytes`` of each MPB are reserved for
synchronization flags (modeled separately as :class:`~repro.hw.flags.Flag`
objects); the rest is payload space handed out by a bump allocator
(:meth:`MPB.alloc`), which the communication stacks use to carve out their
send buffers and double-buffer halves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sanitizer import Sanitizer


class MPBError(Exception):
    """Out-of-bounds access or exhausted allocation."""


class MPBRegion:
    """A contiguous window into one core's MPB."""

    __slots__ = ("mpb", "offset", "size")

    def __init__(self, mpb: "MPB", offset: int, size: int):
        self.mpb = mpb
        self.offset = offset
        self.size = size

    @property
    def owner(self) -> int:
        return self.mpb.core_id

    def write(self, data: np.ndarray, at: int = 0,
              actor: Optional[int] = None) -> None:
        """Copy ``data`` (any dtype, C-contiguous) into the region.

        ``actor`` attributes the access to a core for the MPB sanitizer;
        accesses without an actor are treated as untimed setup.
        """
        raw = as_bytes(data)
        if at < 0 or at + raw.size > self.size:
            san = self.mpb.san
            if san is not None:
                san.on_oob(self.mpb, "region write", self.offset + at,
                           int(raw.size))
            raise MPBError(
                f"write of {raw.size} B at {at} exceeds region of {self.size} B"
            )
        self.mpb.write(self.offset + at, raw, actor=actor)

    def read(self, nbytes: int, at: int = 0,
             actor: Optional[int] = None) -> np.ndarray:
        """Read ``nbytes`` from the region (returns a fresh uint8 array)."""
        if at < 0 or at + nbytes > self.size:
            san = self.mpb.san
            if san is not None:
                san.on_oob(self.mpb, "region read", self.offset + at, nbytes)
            raise MPBError(
                f"read of {nbytes} B at {at} exceeds region of {self.size} B"
            )
        return self.mpb.read(self.offset + at, nbytes, actor=actor)

    def read_into(self, out: np.ndarray, at: int = 0,
                  actor: Optional[int] = None) -> None:
        """Read ``out.nbytes`` bytes from the region into ``out``."""
        raw = out.view(np.uint8).reshape(-1)
        raw[:] = self.read(raw.size, at, actor=actor)

    def halves(self) -> tuple["MPBRegion", "MPBRegion"]:
        """Split into two equal double-buffer halves (line-aligned)."""
        line = self.mpb.line_bytes
        half = (self.size // 2) // line * line
        if half == 0:
            raise MPBError(f"region of {self.size} B too small to halve")
        return (MPBRegion(self.mpb, self.offset, half),
                MPBRegion(self.mpb, self.offset + half, half))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MPBRegion core={self.owner} "
                f"[{self.offset}, {self.offset + self.size})>")


class MPB:
    """One core's message-passing buffer."""

    __slots__ = ("core_id", "size", "line_bytes", "payload_offset",
                 "_data", "_alloc_ptr", "io_reads", "io_read_bytes",
                 "io_writes", "io_write_bytes", "san")

    def __init__(self, core_id: int, size: int, line_bytes: int,
                 flag_bytes: int):
        if flag_bytes >= size:
            raise MPBError("flag region exceeds MPB size")
        self.core_id = core_id
        self.size = size
        self.line_bytes = line_bytes
        self.payload_offset = flag_bytes
        self._data: Optional[np.ndarray] = None
        self._alloc_ptr = flag_bytes
        #: MPB sanitizer, or None.  Hook sites guard on this being
        #: non-None, so uninstrumented runs pay one attribute check
        #: (the same zero-overhead discipline as ``machine.faults``).
        self.san: Optional["Sanitizer"] = None
        self.reset_counters()

    # -- raw access ---------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The SRAM bytes, allocated zeroed on first touch."""
        data = self._data
        if data is None:
            data = self._data = np.zeros(self.size, dtype=np.uint8)
        return data

    def write(self, offset: int, raw: np.ndarray,
              actor: Optional[int] = None) -> None:
        san = self.san
        if offset < 0 or offset + raw.size > self.size:
            if san is not None:
                san.on_oob(self, "write", offset, int(raw.size))
            raise MPBError(
                f"MPB[{self.core_id}]: write of {raw.size} B at offset "
                f"{offset} out of bounds (size {self.size})"
            )
        if san is not None:
            san.on_write(self, offset, int(raw.size), actor)
        self.data[offset:offset + raw.size] = raw
        self.io_writes += 1
        self.io_write_bytes += int(raw.size)

    def read(self, offset: int, nbytes: int,
             actor: Optional[int] = None) -> np.ndarray:
        san = self.san
        if offset < 0 or offset + nbytes > self.size:
            if san is not None:
                san.on_oob(self, "read", offset, nbytes)
            raise MPBError(
                f"MPB[{self.core_id}]: read of {nbytes} B at offset "
                f"{offset} out of bounds (size {self.size})"
            )
        if san is not None:
            san.on_read(self, offset, nbytes, actor)
        self.io_reads += 1
        self.io_read_bytes += nbytes
        return self.data[offset:offset + nbytes].copy()

    # -- allocation ---------------------------------------------------------
    @property
    def payload_bytes(self) -> int:
        return self.size - self.payload_offset

    @property
    def free_bytes(self) -> int:
        return self.size - self._alloc_ptr

    def alloc(self, nbytes: int, align: int | None = None) -> MPBRegion:
        """Bump-allocate a payload region (line-aligned by default)."""
        align = align or self.line_bytes
        start = -(-self._alloc_ptr // align) * align
        if nbytes <= 0:
            raise MPBError(f"invalid allocation size {nbytes}")
        if start + nbytes > self.size:
            raise MPBError(
                f"MPB[{self.core_id}]: allocation of {nbytes} B failed "
                f"({self.size - start} B free)"
            )
        self._alloc_ptr = start + nbytes
        if self.san is not None:
            self.san.on_alloc(self, start, nbytes)
        return MPBRegion(self, start, nbytes)

    def reset_alloc(self) -> None:
        """Release all payload allocations (data bytes are untouched)."""
        self._alloc_ptr = self.payload_offset
        if self.san is not None:
            self.san.on_reset_alloc(self)

    def reset_counters(self) -> None:
        """Zero the access counters (reads/writes of actual SRAM bytes,
        used by the observability layer's metrics exports)."""
        self.io_reads = 0
        self.io_read_bytes = 0
        self.io_writes = 0
        self.io_write_bytes = 0

    def clear(self) -> None:
        self._data = None       # zeroed again when next touched
        self.reset_alloc()
        if self.san is not None:
            self.san.on_clear(self)


_U8 = np.dtype(np.uint8)


def as_bytes(array: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a C-contiguous array (no copy)."""
    if (array.__class__ is np.ndarray and array.ndim == 1
            and array.strides[0] == array.itemsize):
        # A contiguous vector — every message payload and PUT slice.
        return array if array.dtype is _U8 else array.view(_U8)
    array = np.ascontiguousarray(array)
    return array.view(np.uint8).reshape(-1)


def byte_view(array: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a receive buffer: writes to it land in
    ``array`` (a vector that is not contiguous raises)."""
    if array.ndim == 1:
        return array.view(_U8)
    return array.view(np.uint8).reshape(-1)
