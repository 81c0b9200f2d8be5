"""RCCE blocking send/recv: the Fig.-3 doubly-synchronizing protocol.

Per message chunk (a chunk is what fits into the sender's MPB payload)
the two sides run the micro-op tables :data:`SEND_CHUNK` and
:data:`RECV_CHUNK` below — Fig. 3's two columns.  A message's program
(:func:`repro.hw.protocol.bind`) is the call's software overhead, then
the table once per chunk, priced once per configuration, channel side
and size, so a blocking send or receive is one run of
:func:`repro.hw.protocol.run_ops` over the channel's handles.  Both sides
synchronize twice per chunk: the receiver waits for data to be provided,
and the sender waits until the data has been picked up.  A send therefore
cannot return before the matching receive is entered — the property that
forces RCCE_comm's odd-even call ordering in cyclic exchange patterns and
that the paper's optimization A removes (the non-blocking layers run the
same programs as request sub-processes).

Flag placement matches RCCE: each core polls flags in its **own** MPB
(cheap-ish local polling; remote cores pay a remote MPB write to update
them).  For the (src → dst) channel the ``sent`` flag lives in dst's MPB,
the ``ready`` flag and the hardened protocol's ``nack`` flag in src's.

**Fault hardening is a policy on the same programs**, active whenever a
fault injector with ``checksums`` enabled is installed: the policy runs
the bound rows a chunk at a time.  Each chunk carries a per-channel
sequence number and the CRC32 of the *intended* payload; the receiver
verifies both after reading the MPB and, on mismatch (corrupted payload,
stale/duplicate frame), raises the NACK flag before releasing the sender,
which retransmits the same sequence number.  Both sides bound their loops
with the plan's retry budget and raise a typed
:class:`~repro.faults.errors.TransferFaultError` on exhaustion — never a
silent hang, never silently corrupted data.  When no fault fires the
timing is the plain run's: the checksum is modeled as computed during the
copy (folded into the per-line costs), and the NACK flag is only ever
touched on a retransmission.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Generator

import numpy as np

from repro.hw.machine import Core, CoreEnv, Machine
from repro.hw.mpb import MPBRegion, as_bytes, byte_view
from repro.hw.protocol import (BUF, CHARGE, CLEAR, COPY, GET, NACK, NOTE,
                               OVERHEAD, PIECE, POSTED, PUT, READY, SENT, SET,
                               TAKEN, WAIT, announcing, bind, run_ops)
from repro.obs.spans import bracketed, span

#: Fig. 3, one chunk, over the channel handles ``(buf, sent, ready, nack)``.
SEND_CHUNK = (
    (PUT, BUF, COPY),       # 1  put data into the *local* MPB
    (NOTE, POSTED, 0),      #    (announce it to a wildcard receive)
    (SET, SENT, 0),         # 2  set sent flag (in receiver's MPB)
    (WAIT, READY, 1),       # 3  wait for ready flag (in own MPB)
    (CLEAR, READY, 0),      # 4  clear ready flag
)
RECV_CHUNK = (
    (WAIT, SENT, 1),        # 1  wait for sent flag
    (NOTE, TAKEN, 0),       #    (take the announcement)
    (CLEAR, SENT, 0),       # 2  clear sent flag
    (GET, BUF, COPY),       # 3  copy data from sender's MPB (and verify it)
    (SET, READY, 0),        # 4  set ready flag (in sender's MPB)
)
#: The verify policy's answers to a chunk that failed verification: the
#: receiver NACKs it while releasing the sender, which lowers the NACK
#: before retransmitting.
REJECT_CHUNK = ((SET, NACK, 0), (SET, READY, 0))
ACK_REJECT = ((CLEAR, NACK, 0),)

#: Master/worker barrier over the handles ``(arrived, go)`` of one worker
#: (rank 0 runs ``BARRIER_ENTER`` over none).
ARRIVED, GO = 0, 1
BARRIER_ENTER = ((CHARGE, 0, OVERHEAD),)
BARRIER_WORKER = BARRIER_ENTER + (
    (SET, ARRIVED, 0), (WAIT, GO, 1), (CLEAR, GO, 0))
BARRIER_COLLECT = ((WAIT, ARRIVED, 1), (CLEAR, ARRIVED, 0))
BARRIER_RELEASE = ((SET, GO, 0),)


def barrier_runs(rank: int, p: int,
                 core_of: Callable[[int], int]) -> list[tuple]:
    """What rank ``rank`` of ``p`` runs in RCCE's barrier, as ``(table,
    flags)`` pairs, each flag an ``(owner core, name)`` (``core_of`` maps
    ranks to cores), every table bound at the barrier's entry charge: a
    worker reports through its arrival flag at rank 0 and waits for its
    go flag; rank 0 collects and clears every arrival before releasing
    anyone, so the flags are reusable without sense reversal."""
    root = core_of(0)
    flags = [((root, f"rcce.bar.{r}"), (core_of(r), "rcce.bar.go"))
             for r in (range(1, p) if rank == 0 else (rank,))]
    if rank:
        return [(BARRIER_WORKER, flags[0])]
    return [(BARRIER_ENTER, ())] + [
        (table, pair) for table in (BARRIER_COLLECT, BARRIER_RELEASE)
        for pair in flags]


def _quiet(table: tuple) -> tuple:
    """``table`` (or bound rows) without its ``NOTE`` rows."""
    return tuple(row for row in table if row[0] != NOTE)


#: What a message binds, ``[announced?][sending?]``: the chunk tables
#: keep their ``NOTE`` rows only where a wildcard receive can read them.
_CHUNK_TABLES = ((_quiet(RECV_CHUNK), _quiet(SEND_CHUNK)),
                 (RECV_CHUNK, SEND_CHUNK))


class RCCEError(Exception):
    """Invalid use of the RCCE API."""


def comm_buffer(machine: Machine, core_id: int) -> MPBRegion:
    """The fixed MPB payload region RCCE uses as ``core_id``'s send buffer."""
    mpb = machine.mpbs[core_id]
    return MPBRegion(mpb, mpb.payload_offset, mpb.payload_bytes)


def record_message(machine: Machine, src: int, dst: int,
                   nbytes: int) -> None:
    """Update the machine's traffic counters (see repro.bench.stats)."""
    stats = machine.services.get("p2p.stats")
    if stats is not None:
        stats.record(src, dst, nbytes)


class RCCE:
    """Blocking point-to-point layer over a :class:`Machine`."""

    #: Identifier used by the stack registry / result tables.
    name = "rcce"

    def __init__(self, machine: Machine):
        self.machine = machine
        #: Largest message piece: what the MPB send buffer holds.
        self.chunk_bytes = machine.config.mpb_payload_bytes
        # Per-channel handle caches, the operands a message runs over.
        # Regions are stateless views, one per sender.
        self._buffers: dict[int, MPBRegion] = {}
        self._channels: dict[tuple[int, int], tuple] = {}

    @property
    def call_cycles(self) -> tuple[int, int]:
        """The blocking API's per-call software overhead in core cycles,
        indexed by ``sending``: what :meth:`recv` (False) and
        :meth:`send` (True) charge, and replay with them."""
        config = self.machine.config
        return config.rcce_recv_call_cycles, config.rcce_send_call_cycles

    @property
    def barrier_ps(self) -> int:
        """The charge (ps) every table of :meth:`barrier` is bound at,
        and replay's barrier with it."""
        machine = self.machine
        return machine.latency.core_cycles(machine.config.barrier_flag_cycles)

    # ------------------------------------------------------------------ #

    def send(self, env: CoreEnv, data: np.ndarray, dst: int) -> Generator:
        """Blocking send of ``data`` to rank ``dst``."""
        if dst == env.rank:
            raise RCCEError("RCCE cannot send to self")
        yield from bracketed(env, "send", dst, self.message(
            env, as_bytes(data), dst, True, self.call_cycles[True]))

    def recv(self, env: CoreEnv, out: np.ndarray, src: int) -> Generator:
        """Blocking receive into ``out`` from rank ``src``.

        RCCE requires both the sender identity and the message length to be
        known in advance; ``out`` provides both.
        """
        if src == env.rank:
            raise RCCEError("RCCE cannot receive from self")
        yield from bracketed(env, "recv", src, self.message(
            env, byte_view(out), src, False, self.call_cycles[False]))
        return out

    def message(self, env: CoreEnv, raw: np.ndarray, peer: int,
                sending: bool, call_cycles: int = 0) -> Generator:
        """One message to (``sending``) or from rank ``peer``: the run of
        the uint8 payload ``raw`` through the channel's bound program.

        ``call_cycles`` is the blocking API's per-call software overhead
        (a non-blocking request paid its own when it was issued).
        """
        machine = self.machine
        core = env.core
        other = env.core_of_rank(peer)
        src, dst = (core.core_id, other) if sending else (other, core.core_id)
        nbytes = int(raw.size)
        if sending:
            record_message(machine, src, dst, nbytes)
        faults = machine.faults
        verify = faults is not None and faults.plan.checksums
        chan = self._channels.get((src, dst))
        if chan is None or verify:
            chan = self._channel(src, dst, verify)
        bound = self.program(core, src, dst, sending, nbytes, call_cycles)
        if verify:
            return (self._verified_send if sending else self._verified_recv)(
                env, bound, raw, chan,
                machine.services.setdefault("faults.xfer", {}).setdefault(
                    (src, dst), {"seq_out": 0, "seq_in": 0, "frame": None}),
                len(_CHUNK_TABLES[announcing(machine)][sending]))
        return run_ops(core, bound, chan, raw)

    def program(self, core: Core, src: int, dst: int, sending: bool,
                nbytes: int, call_cycles: int = 0) -> tuple:
        """The bound program :meth:`message` runs on ``core`` (``src``
        when ``sending``, else ``dst``) for one side of an ``nbytes``
        src->dst message, over the channel's handles."""
        return bind(core, _CHUNK_TABLES[announcing(self.machine)][sending],
                    (src, dst, src, src), nbytes, self.chunk_bytes,
                    call=call_cycles)

    def _channel(self, src_core: int, dst_core: int, verify: bool) -> tuple:
        """The src→dst channel's cached handles ``(buf, sent, ready[,
        nack])`` — the operands the chunk tables' roles index, in the
        MPBs of ``(src, dst, src, src)``; the NACK flag only under the
        verify policy."""
        machine = self.machine
        key = (src_core, dst_core)
        chan = self._channels.get(key)
        if chan is None:
            buf = self._buffers.get(src_core)
            if buf is None:
                buf = self._buffers[src_core] = comm_buffer(machine, src_core)
            chan = self._channels[key] = (
                buf, machine.flag(dst_core, f"rcce.sent.{src_core}"),
                machine.flag(src_core, f"rcce.ready.{dst_core}"))
        if verify and len(chan) == 3:
            # The NACK flag lives at the sender, which polls it right
            # after its ready-wait.
            chan = self._channels[key] = chan + (
                machine.flag(src_core, f"rcce.nack.{dst_core}"),)
        return chan

    # -- the verify policy ---------------------------------------------------
    # It runs a bound message a chunk (``per`` rows) at a time, after the
    # call-overhead row if there is one.  In ``xfer`` (the channel's
    # state) ``seq_out``/``seq_in`` number chunks on the sender/receiver
    # side and ``frame`` is the in-flight chunk's ``(seq, crc32)`` — the
    # channel is doubly synchronizing, so at most one chunk is in flight.
    def _verified_send(self, env: CoreEnv, bound: tuple, raw: np.ndarray,
                       chan: tuple, xfer: dict, per: int) -> Generator:
        core = env.core
        level, rows = bound
        lead = int(rows[0][0] == CHARGE)
        yield from run_ops(core, (level, rows[:lead]))
        owners = _owners(chan)
        for start in range(lead, len(rows), per):
            chunk = rows[start:start + per]
            # Stamp the frame of the intended payload; a retransmission
            # carries the same one and is not announced again.
            xfer["frame"] = (xfer["seq_out"],
                             zlib.crc32(raw[chunk[0][PIECE]].tobytes()))
            yield from run_ops(core, (level, chunk), chan, raw)
            attempts = 0
            while chan[NACK].value:
                yield from run_ops(core, bind(core, ACK_REJECT, owners),
                                   chan)
                attempts += 1
                self._retry(attempts, "retransmit",
                            "retransmit budget exhausted after "
                            f"{attempts} attempts",
                            core.core_id, "dst", chan[SENT].owner,
                            xfer["seq_out"])
                with span(env, "retry", attempts):
                    yield from run_ops(core, (level, _quiet(chunk)), chan,
                                       raw)
            xfer["seq_out"] += 1

    def _verified_recv(self, env: CoreEnv, bound: tuple, raw_out: np.ndarray,
                       chan: tuple, xfer: dict, per: int) -> Generator:
        core = env.core
        level, rows = bound
        lead = int(rows[0][0] == CHARGE)
        yield from run_ops(core, (level, rows[:lead]))
        owners = _owners(chan)
        for start in range(lead, len(rows), per):
            chunk = rows[start:start + per]
            taken = yield from _take(core, level, chunk, chan, raw_out, xfer)
            attempts = 0
            while not taken:
                attempts += 1
                self._retry(attempts, "chunk_reject",
                            f"chunk verification failed {attempts} times",
                            core.core_id, "src", chan[BUF].owner,
                            xfer["seq_in"])
                yield from run_ops(core, bind(core, REJECT_CHUNK, owners),
                                   chan)
                with span(env, "retry", attempts):
                    taken = yield from _take(core, level, chunk, chan,
                                             raw_out, xfer)

    def _retry(self, attempts: int, kind: str, giveup: str, me_core: int,
               peer_key: str, peer_core: int, seq: int) -> None:
        """Record one retry of the verify policy; past the plan's retry
        budget raise the typed transfer fault instead."""
        faults = self.machine.faults
        faults.record(kind, f"core{me_core}",
                      {peer_key: peer_core, "seq": seq, "attempt": attempts})
        if attempts > faults.plan.max_retries:
            faults.raise_fault("transfer", giveup, actor=f"core{me_core}",
                               peer=peer_core, seq=seq)

    # ------------------------------------------------------------------ #
    def barrier(self, env: CoreEnv) -> Generator:
        """RCCE-style master/worker barrier: :func:`barrier_runs` on the
        machine's flags."""
        flag = self.machine.flag
        core = env.core
        enter_ps = self.barrier_ps
        for table, flags in barrier_runs(env.rank, env.size,
                                         env.core_of_rank):
            handles = tuple(flag(*pair) for pair in flags)
            yield from run_ops(core, bind(core, table, _owners(handles),
                                          cost=enter_ps), handles)


def _owners(handles: tuple) -> tuple:
    """The MPB owners of ``handles``, what their programs are bound for."""
    return tuple(handle.owner for handle in handles)


def _take(core: Any, level: bool, chunk: tuple, chan: tuple,
          raw_out: np.ndarray, xfer: dict) -> Generator:
    """Receive one bound chunk up to its ``GET``, verify it against the
    stamped frame and only then release the sender (its last row, ``SET
    ready``); False, sender not released, when it does not match."""
    yield from run_ops(core, (level, chunk[:-1]), chan, raw_out)
    frame = xfer["frame"]
    if (frame is None or frame[0] != xfer["seq_in"]
            or zlib.crc32(raw_out[chunk[-2][PIECE]].tobytes()) != frame[1]):
        return False
    xfer["seq_in"] += 1
    yield from run_ops(core, (level, chunk[-1:]), chan, raw_out)
    return True
