"""Runtime MPB/flag sanitizer: shadow state for every payload byte.

The sanitizer mirrors the hardware the way a memory sanitizer mirrors the
heap: every MPB payload byte carries a protocol state

    UNWRITTEN -> WRITTEN -> PUBLISHED -> CONSUMED
                     \\________________/
                        STALE (invalidated)

* a timed MPB **write** by core ``w`` moves the bytes to ``WRITTEN`` and
  records ``w`` as the writer;
* a timed **flag set** by ``w`` *publishes* all of ``w``'s pending written
  bytes (the flag is the only mechanism a reader may synchronize on);
* a timed **read** by another core moves ``PUBLISHED`` bytes to
  ``CONSUMED``;
* injected payload corruption (and only corruption — see
  :meth:`Sanitizer.on_corrupt`) invalidates published bytes to ``STALE``.

Any access that does not fit the machine is a :class:`Diagnostic`:
reading bytes a writer has not published, overwriting bytes a reader has
been signalled about but has not yet consumed, re-reading consumed bytes,
reading stale or never-written bytes, allocating over unconsumed data,
out-of-bounds accesses, and flag write-write races (double set, double
clear, clearing an unobserved signal).

Design rules, mirroring the fault injector:

* **Zero overhead off.**  Every hook site guards on the sanitizer
  reference being ``None``; an uninstrumented run executes the exact
  pre-existing code path.
* **Pure observation on.**  The sanitizer never consumes simulated time,
  so even an *instrumented* run has bit-identical latencies
  (``tests/analysis/test_zero_overhead.py`` asserts both directions).
* **Attribution.**  Timed accesses carry the acting core
  (:mod:`repro.rcce.transfer` and the MPB-direct Allreduce pass it);
  untimed bookkeeping accesses (test setup, ``Flag.force``) pass no actor
  and are exempt from diagnostics.

Each diagnostic records the virtual time, the acting and owning cores,
the active ``round`` span and the full obs-span stack of the actor, so a
report line reads like a stack trace of the simulated protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.analysis.monitor import Monitor, uniform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.flags import Flag
    from repro.hw.machine import Machine
    from repro.hw.mpb import MPB


class ByteState(IntEnum):
    """Protocol state of one shadowed MPB payload byte."""

    UNWRITTEN = 0
    WRITTEN = 1    #: written, not yet published through a flag set
    PUBLISHED = 2  #: writer set a flag after writing
    CONSUMED = 3   #: read by a non-writer after publication
    STALE = 4      #: invalidated (corrupted after write/publish)


#: The states as plain ints, for the hooks' comparisons and stores (an
#: ``IntEnum`` member costs a metaclass attribute lookup at every use).
_UNWRITTEN, _WRITTEN, _PUBLISHED, _CONSUMED, _STALE = map(int, ByteState)


#: Diagnostic rule identifiers (the catalogue in docs/static-analysis.md).
RULES = (
    "oob-access",
    "flag-region-write",
    "read-before-publish",
    "uninit-read",
    "stale-read",
    "write-while-reader-pending",
    "overlapping-alloc",
    "flag-double-set",
    "flag-double-clear",
    "flag-unobserved-clear",
)


@dataclass(frozen=True)
class Diagnostic:
    """One sanitizer finding."""

    time_ps: int
    rule: str
    actor: Optional[int]        #: acting core (None = unattributed)
    owner: int                  #: core owning the MPB / flag
    offset: Optional[int] = None
    nbytes: Optional[int] = None
    flag: Optional[str] = None
    round: Any = None           #: innermost active ``round`` span detail
    spans: tuple = ()           #: actor's open span names, outermost first
    message: str = ""

    def __str__(self) -> str:
        where = (f"flag[{self.owner}].{self.flag}" if self.flag is not None
                 else f"mpb[{self.owner}]"
                 + (f"[{self.offset}:{self.offset + (self.nbytes or 0)}]"
                    if self.offset is not None else ""))
        actor = f"core{self.actor}" if self.actor is not None else "<setup>"
        ctx = ">".join(self.spans) or "-"
        rnd = f" round={self.round}" if self.round is not None else ""
        return (f"[{self.time_ps:>12d}ps] {self.rule}: {actor} @ {where}"
                f"{rnd} span={ctx}: {self.message}")


class SanitizerError(AssertionError):
    """Raised by :meth:`Sanitizer.assert_clean` when diagnostics exist."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        shown = "\n".join(str(d) for d in diagnostics[:20])
        more = (f"\n... and {len(diagnostics) - 20} more"
                if len(diagnostics) > 20 else "")
        super().__init__(
            f"sanitizer found {len(diagnostics)} diagnostic(s):\n"
            f"{shown}{more}")


@dataclass
class _FlagShadow:
    """Tracked state of one synchronization flag."""

    level: bool = False
    setter: Optional[int] = None   #: core of the last timed set
    observed: bool = True          #: was the last change waited on/read?


@dataclass
class _MPBShadow:
    """Per-MPB shadow arrays."""

    state: np.ndarray
    writer: np.ndarray
    reader: np.ndarray
    live: list[tuple[int, int]] = field(default_factory=list)


class Sanitizer(Monitor):
    """Shadow-state tracker attachable to one :class:`Machine`.

    Usage::

        san = Sanitizer().install(machine)
        machine.run_spmd(program)
        san.assert_clean()          # or inspect san.diagnostics
    """

    error = SanitizerError

    def __init__(self, max_diagnostics: int = 1000):
        super().__init__(max_diagnostics)
        self._mpbs: dict[int, _MPBShadow] = {}
        self._flags: dict[tuple[int, str], _FlagShadow] = {}
        #: Pending (unpublished) write intervals per writer core.
        self._pending: dict[int, list[tuple[int, int, int]]] = {}

    def install(self, machine: "Machine") -> "Sanitizer":
        super().install(machine)
        for mpb in machine.mpbs:
            self._mpbs[mpb.core_id] = _MPBShadow(
                state=np.zeros(mpb.size, dtype=np.uint8),
                writer=np.full(mpb.size, -1, dtype=np.int16),
                reader=np.full(mpb.size, -1, dtype=np.int16),
            )
        return self

    def _report(self, rule: str, actor: Optional[int], owner: int,
                **where: Any) -> None:
        """Log a finding; ``where``: offset, nbytes, flag, message."""
        self._record(actor, Diagnostic, rule=rule, actor=actor, owner=owner,
                     **where)

    # -- MPB hooks -------------------------------------------------------
    def on_oob(self, mpb: "MPB", kind: str, offset: int,
               nbytes: int) -> None:
        """An out-of-bounds raw access (recorded just before MPBError)."""
        self._report("oob-access", None, mpb.core_id, offset=offset,
                     nbytes=nbytes,
                     message=f"{kind} outside MPB of {mpb.size} B")

    # Every MPB hook first probes whether the interval is uniform and, if
    # its rule then finds nothing to report, applies the transition to the
    # whole interval and returns.  Mixed intervals, and every finding, go
    # through the per-byte rule bodies below the probe.
    def on_write(self, mpb: "MPB", offset: int, nbytes: int,
                 actor: Optional[int]) -> None:
        if nbytes <= 0:
            return
        shadow = self._mpbs[mpb.core_id]
        end = offset + nbytes
        st = shadow.state[offset:end]
        if actor is not None:
            if offset < mpb.payload_offset:
                self._report(
                    "flag-region-write", actor, mpb.core_id, offset=offset,
                    nbytes=nbytes,
                    message="payload write overlaps the reserved flag "
                            "region")
            state = uniform(st)
            if state is None or state == _PUBLISHED:
                pending = int(np.count_nonzero(st == _PUBLISHED))
                if pending:
                    self._report(
                        "write-while-reader-pending", actor, mpb.core_id,
                        offset=offset, nbytes=nbytes,
                        message=f"{pending} B still published to a reader "
                                "that has not consumed them (missing ready "
                                "handshake?)")
        st[:] = _WRITTEN if actor is not None else _PUBLISHED
        shadow.writer[offset:end] = actor if actor is not None else -1
        shadow.reader[offset:end] = -1
        if actor is not None:
            self._pending.setdefault(actor, []).append(
                (mpb.core_id, offset, end))

    def on_read(self, mpb: "MPB", offset: int, nbytes: int,
                actor: Optional[int]) -> None:
        if nbytes <= 0 or actor is None:
            return
        shadow = self._mpbs[mpb.core_id]
        end = offset + nbytes
        st = shadow.state[offset:end]
        wr = shadow.writer[offset:end]
        rd = shadow.reader[offset:end]
        state = uniform(st)
        if state == _PUBLISHED:
            writer = uniform(wr)
            if writer is not None:
                if writer != actor:     # the protocol's one legal read
                    st[:] = _CONSUMED
                    rd[:] = actor
                return
        elif state == _CONSUMED:
            reader = uniform(rd)
            if reader is not None and reader != actor:
                if reader >= 0:
                    rd[:] = actor
                return
        elif state == _WRITTEN:
            writer = uniform(wr)
            if writer is not None and (writer == actor or writer < 0):
                return
        stale = int(np.count_nonzero(st == _STALE))
        if stale:
            self._report(
                "stale-read", actor, mpb.core_id, offset=offset,
                nbytes=nbytes,
                message=f"{stale} B were invalidated after publication "
                        "(corrupted or superseded)")
        unpublished = (st == _WRITTEN) & (wr != actor) & (wr >= 0)
        unpub = int(np.count_nonzero(unpublished))
        if unpub:
            self._report(
                "read-before-publish", actor, mpb.core_id, offset=offset,
                nbytes=nbytes,
                message=f"{unpub} B written by core "
                        f"{int(wr[unpublished][0])}"
                        " but never published through a flag")
        uninit = int(np.count_nonzero(st == _UNWRITTEN))
        if uninit:
            self._report(
                "uninit-read", actor, mpb.core_id, offset=offset,
                nbytes=nbytes,
                message=f"{uninit} B have never been written")
        reread = int(np.count_nonzero(
            (st == _CONSUMED) & (rd == actor)))
        if reread:
            self._report(
                "stale-read", actor, mpb.core_id, offset=offset,
                nbytes=nbytes,
                message=f"{reread} B re-read by their consumer without an "
                        "intervening write (duplicate/stale data)")
        # Transition: published bytes read by a non-writer are consumed.
        consume = (st == _PUBLISHED) & (wr != actor)
        st[consume] = _CONSUMED
        rd[consume] = actor
        # A different reader of consumed bytes is a legal multi-consumer
        # pattern; record the most recent reader.
        rd[(st == _CONSUMED) & (rd != actor) & (rd >= 0)] = actor

    def on_alloc(self, mpb: "MPB", offset: int, nbytes: int) -> None:
        shadow = self._mpbs[mpb.core_id]
        end = offset + nbytes
        st = shadow.state[offset:end]
        state = uniform(st)
        if state is None or state == _WRITTEN or state == _PUBLISHED:
            busy = int(np.count_nonzero(
                (st == _WRITTEN) | (st == _PUBLISHED)))
            if busy:
                self._report(
                    "overlapping-alloc", None, mpb.core_id, offset=offset,
                    nbytes=nbytes,
                    message=f"allocation covers {busy} B of unconsumed data "
                            "from a previous slot (double-free / slot reuse "
                            "without a flag round)")
        shadow.live.append((offset, end))

    def on_reset_alloc(self, mpb: "MPB") -> None:
        self._mpbs[mpb.core_id].live.clear()

    def on_clear(self, mpb: "MPB") -> None:
        """``MPB.clear``: a full reset is setup, not protocol traffic."""
        shadow = self._mpbs[mpb.core_id]
        shadow.state[:] = _UNWRITTEN
        shadow.writer[:] = -1
        shadow.reader[:] = -1
        shadow.live.clear()
        for intervals in self._pending.values():
            intervals[:] = [iv for iv in intervals if iv[0] != mpb.core_id]

    def on_corrupt(self, mpb: "MPB", offset: int) -> None:
        """Injected payload corruption invalidates the byte: a later read
        without an intervening (repairing) write is a stale read."""
        self._mpbs[mpb.core_id].state[offset] = _STALE

    # -- flag hooks ------------------------------------------------------
    def _flag_shadow(self, flag: "Flag") -> _FlagShadow:
        key = (flag.owner, flag.name)
        shadow = self._flags.get(key)
        if shadow is None:
            shadow = self._flags[key] = _FlagShadow(level=flag.value)
        return shadow

    def _publish(self, actor: int) -> None:
        """A timed flag set by ``actor`` publishes its pending writes."""
        intervals = self._pending.get(actor)
        if not intervals:
            return
        for mpb_id, start, end in intervals:
            shadow = self._mpbs[mpb_id]
            st = shadow.state[start:end]
            wr = shadow.writer[start:end]
            if uniform(st) == _WRITTEN and uniform(wr) == actor:
                st[:] = _PUBLISHED      # nobody wrote over it since
            else:
                st[(st == _WRITTEN) & (wr == actor)] = _PUBLISHED
        intervals.clear()

    def on_flag_write(self, flag: "Flag", level: bool, actor: int) -> None:
        """A timed flag write, observed *before* the level is applied."""
        shadow = self._flag_shadow(flag)
        prev = flag.value
        if level:
            if prev:
                self._report(
                    "flag-double-set", actor, flag.owner, flag=flag.name,
                    message="set while already set"
                            + (f" by core {shadow.setter}"
                               if shadow.setter is not None else "")
                            + ("" if shadow.observed
                               else " and not yet observed (lost "
                                    "notification)"))
            shadow.level = True
            shadow.setter = actor
            shadow.observed = False
            self._publish(actor)
        else:
            if not prev:
                self._report(
                    "flag-double-clear", actor, flag.owner, flag=flag.name,
                    message="cleared while already clear")
            elif (not shadow.observed and shadow.setter is not None
                  and shadow.setter != actor):
                self._report(
                    "flag-unobserved-clear", actor, flag.owner,
                    flag=flag.name,
                    message=f"cleared core {shadow.setter}'s signal before "
                            "any core observed it")
            shadow.level = False

    def on_flag_observed(self, flag: "Flag", level: bool,
                         actor: int) -> None:
        """A wait/read on the flag completed: the level has been seen."""
        self._flag_shadow(flag).observed = True

    def on_flag_force(self, flag: "Flag", level: bool,
                      actor: Optional[int] = None) -> None:
        """Untimed bookkeeping write: reset tracking, no publication.

        ``actor`` (when the force models part of a charged protocol
        access) matters to the race detector's happens-before edges; the
        sanitizer's state-machine rules treat every force as a reset.
        """
        shadow = self._flag_shadow(flag)
        shadow.level = level
        shadow.setter = None
        shadow.observed = True
