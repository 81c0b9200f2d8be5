"""RCCE blocking send/recv: the Fig.-3 doubly-synchronizing protocol.

Per message chunk (a chunk is what fits into the sender's MPB payload):

========  =============================================  ================
step      sender                                         receiver
========  =============================================  ================
1         put data into *local* MPB                      wait for sent flag
2         set sent flag (in receiver's MPB)              clear sent flag
3         wait for ready flag (in own MPB)               copy data from sender's MPB
4         clear ready flag                               set ready flag (in sender's MPB)
========  =============================================  ================

Both sides synchronize twice per chunk: the receiver waits for data to be
provided, and the sender waits until the data has been picked up.  A send
therefore cannot return before the matching receive is entered — the
property that forces RCCE_comm's odd-even call ordering in cyclic exchange
patterns and that the paper's optimization A removes.

Flag placement matches RCCE: each core polls flags in its **own** MPB
(cheap-ish local polling; remote cores pay a remote MPB write to update
them).  For the (src → dst) channel the ``sent`` flag lives in dst's MPB
and the ``ready`` flag lives in src's MPB.
"""

from __future__ import annotations

import zlib
from typing import Generator, Optional

import numpy as np

from repro.hw.flags import Flag
from repro.hw.machine import CoreEnv, Machine
from repro.hw.mpb import MPBRegion, as_bytes
from repro.obs.spans import span
from repro.rcce.transfer import get_bytes, put_bytes
from repro.sim.trace import core_actor


class RCCEError(Exception):
    """Invalid use of the RCCE API."""


def comm_buffer(machine: Machine, core_id: int) -> MPBRegion:
    """The fixed MPB payload region RCCE uses as ``core_id``'s send buffer."""
    mpb = machine.mpbs[core_id]
    return MPBRegion(mpb, mpb.payload_offset, mpb.payload_bytes)


def sent_flag(machine: Machine, src: int, dst: int) -> Flag:
    """'Data available' flag for the src→dst channel (lives at dst)."""
    return machine.flag(dst, f"rcce.sent.{src}")


def ready_flag(machine: Machine, src: int, dst: int) -> Flag:
    """'Data picked up' flag for the src→dst channel (lives at src)."""
    return machine.flag(src, f"rcce.ready.{dst}")


def nack_flag(machine: Machine, src: int, dst: int) -> Flag:
    """'Chunk rejected, retransmit' flag for the src→dst channel.

    Only used by the fault-hardened protocol; lives at the sender (src)
    so the sender can poll it cheaply right after its ready-wait.
    """
    return machine.flag(src, f"rcce.nack.{dst}")


def _xfer_state(machine: Machine, src_core: int, dst_core: int) -> dict:
    """Per-channel sequence/checksum bookkeeping of the hardened protocol.

    ``seq_out``/``seq_in`` number chunks on the sender/receiver side;
    ``frame`` is the in-flight chunk's ``(seq, crc32)`` — the channel is
    doubly synchronizing, so at most one chunk is in flight at a time.
    """
    channels = machine.services.setdefault("faults.xfer", {})
    key = (src_core, dst_core)
    state = channels.get(key)
    if state is None:
        state = channels[key] = {"seq_out": 0, "seq_in": 0, "frame": None}
    return state


def record_message(machine: Machine, src: int, dst: int,
                   nbytes: int) -> None:
    """Update the machine's traffic counters (see repro.bench.stats)."""
    stats = machine.services.get("p2p.stats")
    if stats is not None:
        stats.record(src, dst, nbytes)


def announce_send(machine: Machine, src: int, dst: int, nbytes: int) -> None:
    """Bookkeeping used by iRCCE's wildcard receive: record that ``src``
    has posted data for ``dst`` (called when the sent flag is raised)."""
    pending = machine.services.setdefault("p2p.pending", {})
    pending.setdefault(dst, []).append((src, nbytes))
    machine.flag(dst, "p2p.incoming").force(True, actor=src)


def take_announcement(machine: Machine, dst: int,
                      src: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Pop a pending (src, nbytes) announcement for ``dst`` (FIFO); with
    ``src`` given, pop that sender's first announcement."""
    pending = machine.services.setdefault("p2p.pending", {})
    queue = pending.get(dst, [])
    index = None
    for i, (s, _n) in enumerate(queue):
        if src is None or s == src:
            index = i
            break
    if index is None:
        return None
    item = queue.pop(index)
    if not queue:
        machine.flag(dst, "p2p.incoming").force(False, actor=dst)
    return item


class RCCE:
    """Blocking point-to-point layer over a :class:`Machine`."""

    #: Identifier used by the stack registry / result tables.
    name = "rcce"

    def __init__(self, machine: Machine):
        self.machine = machine
        # Per-channel handle caches.  The flag/region helpers below build
        # name strings on every call; the protocol bodies touch each
        # channel once per message, so memoizing the handles here removes
        # that per-message cost.  Flags are already memoized per machine
        # (same objects), regions are stateless views.
        self._buffers: dict[int, MPBRegion] = {}
        self._sent: dict[tuple[int, int], Flag] = {}
        self._ready: dict[tuple[int, int], Flag] = {}

    # ------------------------------------------------------------------ #
    def chunk_bytes(self) -> int:
        """Largest message piece that fits the MPB send buffer."""
        return self.machine.config.mpb_payload_bytes

    def send(self, env: CoreEnv, data: np.ndarray, dst: int) -> Generator:
        """Blocking send of ``data`` to rank ``dst``."""
        if dst == env.rank:
            raise RCCEError("RCCE cannot send to self")
        cfg = env.config
        tracer = self.machine.sim.tracer
        if tracer.enabled:
            tracer.emit(env.now, core_actor(env.core_id), "send.begin", dst)
        yield from env.consume(
            env.latency.core_cycles(cfg.rcce_send_call_cycles), "overhead")
        yield from self._send_body(env, as_bytes(data), dst)
        if tracer.enabled:
            tracer.emit(env.now, core_actor(env.core_id), "send.end", dst)

    def recv(self, env: CoreEnv, out: np.ndarray, src: int) -> Generator:
        """Blocking receive into ``out`` from rank ``src``.

        RCCE requires both the sender identity and the message length to be
        known in advance; ``out`` provides both.
        """
        if src == env.rank:
            raise RCCEError("RCCE cannot receive from self")
        cfg = env.config
        tracer = self.machine.sim.tracer
        if tracer.enabled:
            tracer.emit(env.now, core_actor(env.core_id), "recv.begin", src)
        yield from env.consume(
            env.latency.core_cycles(cfg.rcce_recv_call_cycles), "overhead")
        yield from self._recv_body(env, out.view(np.uint8).reshape(-1), src)
        if tracer.enabled:
            tracer.emit(env.now, core_actor(env.core_id), "recv.end", src)
        return out

    def _channel(self, src_core: int, dst_core: int
                 ) -> tuple[MPBRegion, Flag, Flag]:
        """The src→dst channel's send buffer, ``sent`` and ``ready`` flags
        out of the handle caches."""
        machine = self.machine
        buf = self._buffers.get(src_core)
        if buf is None:
            buf = self._buffers[src_core] = comm_buffer(machine, src_core)
        key = (src_core, dst_core)
        sent = self._sent.get(key)
        if sent is None:
            sent = self._sent[key] = sent_flag(machine, src_core, dst_core)
        ready = self._ready.get(key)
        if ready is None:
            ready = self._ready[key] = ready_flag(machine, src_core, dst_core)
        return buf, sent, ready

    # -- protocol bodies (shared with the non-blocking layers) -------------
    def _send_body(self, env: CoreEnv, raw: np.ndarray, dst: int) -> Generator:
        faults = self.machine.faults
        if faults is not None and faults.plan.checksums:
            yield from self._send_body_hardened(env, raw, dst)
            return
        machine = self.machine
        me_core = env.core_id
        dst_core = env.core_of_rank(dst)
        record_message(machine, me_core, dst_core, int(raw.size))
        buf, sent, ready = self._channel(me_core, dst_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw.size, chunk) or [0]:
            piece = raw[start:start + chunk]
            yield from put_bytes(env, buf, piece)
            announce_send(machine, me_core, dst_core, int(piece.size))
            yield from sent.set_by(env.core)
            yield from ready.wait_set(env.core)
            yield from ready.clear_by(env.core)

    def _recv_body(self, env: CoreEnv, raw_out: np.ndarray, src: int) -> Generator:
        faults = self.machine.faults
        if faults is not None and faults.plan.checksums:
            yield from self._recv_body_hardened(env, raw_out, src)
            return
        machine = self.machine
        me_core = env.core_id
        src_core = env.core_of_rank(src)
        buf, sent, ready = self._channel(src_core, me_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw_out.size, chunk) or [0]:
            nbytes = min(chunk, raw_out.size - start)
            yield from sent.wait_set(env.core)
            take_announcement(machine, me_core, src_core)
            yield from sent.clear_by(env.core)
            data = yield from get_bytes(env, buf, nbytes)
            raw_out[start:start + nbytes] = data
            yield from ready.set_by(env.core)

    # -- hardened protocol bodies (sequence numbers + CRC32 + NACK) --------
    #
    # Active whenever a fault injector with ``checksums`` enabled is
    # installed.  Each chunk carries a per-channel sequence number and the
    # CRC32 of the *intended* payload; the receiver verifies both after
    # reading the MPB and, on mismatch (corrupted payload, stale/duplicate
    # frame), raises the channel's NACK flag before releasing the sender,
    # which retransmits the same sequence number.  Both sides bound their
    # loops with the plan's retry budget and raise a typed
    # :class:`~repro.faults.errors.TransferFaultError` on exhaustion —
    # never a silent hang, never silently corrupted data.
    #
    # When no fault actually fires, this path's *timing* is identical to
    # the plain protocol: the checksum is modeled as computed on the fly
    # during the copy (folded into the per-line costs), and the NACK flag
    # is only ever touched on a retransmission.
    def _send_body_hardened(self, env: CoreEnv, raw: np.ndarray,
                            dst: int) -> Generator:
        machine = self.machine
        faults = machine.faults
        me_core = env.core_id
        dst_core = env.core_of_rank(dst)
        record_message(machine, me_core, dst_core, int(raw.size))
        buf, sent, ready = self._channel(me_core, dst_core)
        nack = nack_flag(machine, me_core, dst_core)
        state = _xfer_state(machine, me_core, dst_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw.size, chunk) or [0]:
            piece = raw[start:start + chunk]
            seq = state["seq_out"]
            state["seq_out"] = seq + 1
            crc = zlib.crc32(piece.tobytes())
            attempts = 0
            while True:
                if attempts == 0:
                    yield from self._send_chunk_once(
                        env, buf, piece, seq, crc, sent, ready, state,
                        dst_core=dst_core, announce=True)
                else:
                    with span(env, "retry", attempts):
                        yield from self._send_chunk_once(
                            env, buf, piece, seq, crc, sent, ready, state,
                            dst_core=dst_core, announce=False)
                if not nack.value:
                    break
                yield from nack.clear_by(env.core)
                attempts += 1
                faults.record("retransmit", f"core{me_core}",
                              {"dst": dst_core, "seq": seq,
                               "attempt": attempts})
                if attempts > faults.plan.max_retries:
                    faults.raise_fault(
                        "transfer",
                        f"retransmit budget exhausted after {attempts} "
                        f"attempts",
                        actor=f"core{me_core}", peer=dst_core, seq=seq)

    def _send_chunk_once(self, env: CoreEnv, buf: MPBRegion,
                         piece: np.ndarray, seq: int, crc: int,
                         sent: Flag, ready: Flag, state: dict, *,
                         dst_core: int, announce: bool) -> Generator:
        yield from put_bytes(env, buf, piece)
        state["frame"] = (seq, crc)
        if announce:
            announce_send(self.machine, env.core_id, dst_core,
                          int(piece.size))
        yield from sent.set_by(env.core)
        yield from ready.wait_set(env.core)
        yield from ready.clear_by(env.core)

    def _recv_body_hardened(self, env: CoreEnv, raw_out: np.ndarray,
                            src: int) -> Generator:
        machine = self.machine
        faults = machine.faults
        me_core = env.core_id
        src_core = env.core_of_rank(src)
        buf, sent, ready = self._channel(src_core, me_core)
        nack = nack_flag(machine, src_core, me_core)
        state = _xfer_state(machine, src_core, me_core)
        chunk = self.chunk_bytes()
        for start in range(0, raw_out.size, chunk) or [0]:
            nbytes = min(chunk, raw_out.size - start)
            expected = state["seq_in"]
            attempts = 0
            while True:
                if attempts == 0:
                    data = yield from self._recv_chunk_once(
                        env, buf, nbytes, sent, src_core)
                else:
                    with span(env, "retry", attempts):
                        data = yield from self._recv_chunk_once(
                            env, buf, nbytes, sent, src_core)
                frame = state["frame"]
                if (frame is not None and frame[0] == expected
                        and zlib.crc32(data.tobytes()) == frame[1]):
                    state["seq_in"] = expected + 1
                    raw_out[start:start + nbytes] = data
                    yield from ready.set_by(env.core)
                    break
                attempts += 1
                faults.record("chunk_reject", f"core{me_core}",
                              {"src": src_core, "seq": expected,
                               "attempt": attempts})
                if attempts > faults.plan.max_retries:
                    faults.raise_fault(
                        "transfer",
                        f"chunk verification failed {attempts} times",
                        actor=f"core{me_core}", peer=src_core, seq=expected)
                yield from nack.set_by(env.core)
                yield from ready.set_by(env.core)

    def _recv_chunk_once(self, env: CoreEnv, buf: MPBRegion, nbytes: int,
                         sent: Flag, src_core: int) -> Generator:
        yield from sent.wait_set(env.core)
        take_announcement(self.machine, env.core_id, src_core)
        yield from sent.clear_by(env.core)
        data = yield from get_bytes(env, buf, nbytes)
        return data

    # ------------------------------------------------------------------ #
    def barrier(self, env: CoreEnv) -> Generator:
        """RCCE-style master/worker barrier: every rank reports to rank 0
        via its arrival flag; rank 0 then releases everyone."""
        machine = self.machine
        cfg = env.config
        yield from env.consume(
            env.latency.core_cycles(cfg.barrier_flag_cycles), "overhead")
        root_core = env.core_of_rank(0)
        if env.rank == 0:
            # Collect arrivals, clear them *before* releasing so the flags
            # are reusable for the next barrier without sense reversal.
            for rank in range(1, env.size):
                arrived = machine.flag(root_core, f"rcce.bar.{rank}")
                yield from arrived.wait_set(env.core)
                yield from arrived.clear_by(env.core)
            for rank in range(1, env.size):
                release = machine.flag(env.core_of_rank(rank), "rcce.bar.go")
                yield from release.set_by(env.core)
        else:
            arrived = machine.flag(root_core, f"rcce.bar.{env.rank}")
            yield from arrived.set_by(env.core)
            release = machine.flag(env.core_id, "rcce.bar.go")
            yield from release.wait_set(env.core)
            yield from release.clear_by(env.core)
