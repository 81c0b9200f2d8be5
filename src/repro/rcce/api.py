"""RCCE blocking send/recv: the Fig.-3 doubly-synchronizing protocol.

Per message chunk (a chunk is what fits into the sender's MPB payload)
the two sides run the micro-op tables :data:`SEND_CHUNK` and
:data:`RECV_CHUNK` below — Fig. 3's two columns, executed by
:func:`repro.hw.protocol.run_ops`.  Both sides synchronize twice per
chunk: the receiver waits for data to be provided, and the sender waits
until the data has been picked up.  A send therefore cannot return before
the matching receive is entered — the property that forces RCCE_comm's
odd-even call ordering in cyclic exchange patterns and that the paper's
optimization A removes (the non-blocking layers run the same tables from
a sub-process).

Flag placement matches RCCE: each core polls flags in its **own** MPB
(cheap-ish local polling; remote cores pay a remote MPB write to update
them).  For the (src → dst) channel the ``sent`` flag lives in dst's MPB,
the ``ready`` flag and the hardened protocol's ``nack`` flag in src's.

**Fault hardening is a policy on the same tables**, active whenever a
fault injector with ``checksums`` enabled is installed.  Each chunk
carries a per-channel sequence number and the CRC32 of the *intended*
payload; the receiver verifies both after reading the MPB and, on
mismatch (corrupted payload, stale/duplicate frame), raises the NACK flag
before releasing the sender, which retransmits the same sequence number.
Both sides bound their loops with the plan's retry budget and raise a
typed :class:`~repro.faults.errors.TransferFaultError` on exhaustion —
never a silent hang, never silently corrupted data.  When no fault fires
the timing is the plain run's: the checksum is modeled as computed during
the copy (folded into the per-line costs), and the NACK flag is only ever
touched on a retransmission.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.hw.machine import CoreEnv, Machine
from repro.hw.mpb import MPBRegion, as_bytes
from repro.hw.protocol import (BUF, CHARGE, CLEAR, COPY, GET, NACK, NOTE,
                               OVERHEAD, POSTED, PUT, READY, SENT, SET, TAKEN,
                               WAIT, run_ops)
from repro.obs.spans import bracketed, span

#: Fig. 3, one chunk, over the channel handles ``(buf, sent, ready, nack)``.
SEND_CHUNK = (
    (PUT, BUF, COPY),       # 1  put data into the *local* MPB
    (NOTE, POSTED, 0),      #    (announce it; stamp its frame)
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

#: Master/worker barrier over the handles ``(arrived, go)`` of one worker.
ARRIVED, GO = 0, 1
BARRIER_WORKER = ((CHARGE, 0, OVERHEAD),
                  (SET, ARRIVED, 0), (WAIT, GO, 1), (CLEAR, GO, 0))
BARRIER_COLLECT = ((WAIT, ARRIVED, 1), (CLEAR, ARRIVED, 0))
BARRIER_RELEASE = ((SET, GO, 0),)


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
        # Per-channel handle caches: building the flag names per message
        # is measurable.  Regions are stateless views, one per sender.
        self._buffers: dict[int, MPBRegion] = {}
        self._channels: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------ #
    def chunk_bytes(self) -> int:
        """Largest message piece that fits the MPB send buffer."""
        return self.machine.config.mpb_payload_bytes

    def send(self, env: CoreEnv, data: np.ndarray, dst: int) -> Generator:
        """Blocking send of ``data`` to rank ``dst``."""
        if dst == env.rank:
            raise RCCEError("RCCE cannot send to self")
        yield from bracketed(env, "send", dst, self._send_body(
            env, as_bytes(data), dst, env.config.rcce_send_call_cycles))

    def recv(self, env: CoreEnv, out: np.ndarray, src: int) -> Generator:
        """Blocking receive into ``out`` from rank ``src``.

        RCCE requires both the sender identity and the message length to be
        known in advance; ``out`` provides both.
        """
        if src == env.rank:
            raise RCCEError("RCCE cannot receive from self")
        yield from bracketed(env, "recv", src, self._recv_body(
            env, out.view(np.uint8).reshape(-1), src,
            env.config.rcce_recv_call_cycles))
        return out

    def _channel(self, src_core: int, dst_core: int
                 ) -> tuple[tuple, Optional[dict]]:
        """The src→dst channel's cached handles ``(buf, sent, ready[,
        nack])`` — the operands the chunk tables' roles index — and its
        verify-policy state, ``None`` for a plain run.

        In the state ``seq_out``/``seq_in`` number chunks on the sender/
        receiver side and ``frame`` is the in-flight chunk's ``(seq,
        crc32)`` — the channel is doubly synchronizing, so at most one
        chunk is in flight.
        """
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
        faults = machine.faults
        if faults is None or not faults.plan.checksums:
            return chan, None
        if len(chan) == 3:
            # The NACK flag lives at the sender, which polls it right
            # after its ready-wait.
            chan = self._channels[key] = chan + (
                machine.flag(src_core, f"rcce.nack.{dst_core}"),)
        return chan, machine.services.setdefault("faults.xfer", {}).setdefault(
            key, {"seq_out": 0, "seq_in": 0, "frame": None})

    # -- protocol bodies (shared with the non-blocking layers) -------------
    # ``call_cycles`` is the blocking API's per-call software overhead;
    # a non-blocking request paid its own when it was issued.
    def _send_body(self, env: CoreEnv, raw: np.ndarray, dst: int,
                   call_cycles: int = 0) -> Generator:
        machine = self.machine
        core = env.core
        if call_cycles:
            yield from core.consume(env.latency.core_cycles(call_cycles),
                                    "overhead")
        me_core = env.core_id
        dst_core = env.core_of_rank(dst)
        record_message(machine, me_core, dst_core, int(raw.size))
        chan, xfer = self._channel(me_core, dst_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw.size, chunk) or [0]:
            piece = raw[start:start + chunk]
            yield from run_ops(core, SEND_CHUNK, chan, piece, xfer)
            if xfer is None:
                continue
            attempts = 0
            while chan[NACK].value:
                yield from run_ops(core, ACK_REJECT, chan)
                attempts += 1
                self._retry(attempts, "retransmit",
                            "retransmit budget exhausted after "
                            f"{attempts} attempts",
                            me_core, "dst", dst_core, xfer["seq_out"])
                with span(env, "retry", attempts):
                    yield from run_ops(core, SEND_CHUNK, chan, piece, xfer)
            xfer["seq_out"] += 1

    def _recv_body(self, env: CoreEnv, raw_out: np.ndarray, src: int,
                   call_cycles: int = 0) -> Generator:
        core = env.core
        if call_cycles:
            yield from core.consume(env.latency.core_cycles(call_cycles),
                                    "overhead")
        me_core = env.core_id
        src_core = env.core_of_rank(src)
        chan, xfer = self._channel(src_core, me_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw_out.size, chunk) or [0]:
            nbytes = min(chunk, raw_out.size - start)
            data = yield from run_ops(core, RECV_CHUNK, chan, nbytes, xfer)
            attempts = 0
            while data is None:     # rejected under the verify policy
                attempts += 1
                self._retry(attempts, "chunk_reject",
                            f"chunk verification failed {attempts} times",
                            me_core, "src", src_core, xfer["seq_in"])
                yield from run_ops(core, REJECT_CHUNK, chan)
                with span(env, "retry", attempts):
                    data = yield from run_ops(core, RECV_CHUNK, chan,
                                              nbytes, xfer)
            raw_out[start:start + nbytes] = data

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
        """RCCE-style master/worker barrier: every rank reports to rank 0
        via its arrival flag; rank 0 then releases everyone."""
        machine = self.machine
        core = env.core
        enter_ps = env.latency.core_cycles(env.config.barrier_flag_cycles)
        root_core = env.core_of_rank(0)
        if env.rank != 0:
            yield from run_ops(core, BARRIER_WORKER, (
                machine.flag(root_core, f"rcce.bar.{env.rank}"),
                machine.flag(env.core_id, "rcce.bar.go")), cost=enter_ps)
            return
        yield from core.consume(enter_ps, "overhead")
        # Collect arrivals, clear them *before* releasing so the flags
        # are reusable for the next barrier without sense reversal.
        workers = [(machine.flag(root_core, f"rcce.bar.{rank}"),
                    machine.flag(env.core_of_rank(rank), "rcce.bar.go"))
                   for rank in range(1, env.size)]
        for table in (BARRIER_COLLECT, BARRIER_RELEASE):
            for handles in workers:
                yield from run_ops(core, table, handles)
