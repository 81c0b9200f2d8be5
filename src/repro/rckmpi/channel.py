"""RCKMPI's MPB channel: eager, packetized, byte-granular point-to-point.

Differences from the RCCE-family protocol that matter for the figures:

* **Eager buffering** — a send completes once its packets are in the
  channel; no rendezvous with the receiver (MPICH ch3-style).  Cyclic
  exchange patterns therefore never deadlock regardless of call order.
* **Byte granularity** — packets carry arbitrary byte counts; there is no
  padded-tail-line extra call, so RCKMPI's latency scales smoothly with
  the vector size instead of spiking with period 4 (Section V-A).
* **Software weight** — every call pays ``rckmpi_call_cycles`` and every
  packet ``rckmpi_packet_cycles``; this models the full MPI matching
  machinery and makes the stack 2x–5x slower than the RCCE baseline.
* **Bounded window** — each (src, dst) channel holds at most
  ``WINDOW_PACKETS`` in-flight packets (the MPB slot is finite); senders
  stall on a full window.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

import numpy as np

from repro.hw.machine import CoreEnv, Machine
from repro.ircce.requests import NonBlockingLayer, Request
from repro.rcce.api import record_message
from repro.sim.events import Interrupt
from repro.sim.resources import Semaphore

#: In-flight packets per directed channel.
WINDOW_PACKETS = 2


class RCKMPIP2P(NonBlockingLayer):
    """The channel layer, exposing the non-blocking request interface."""

    name = "rckmpi"
    supports_wildcard = False
    max_outstanding = None

    def issue_cycles(self) -> int:
        return self.machine.config.rckmpi_call_cycles

    def complete_cycles(self) -> int:
        # Completion bookkeeping is folded into the per-packet costs.
        return self.machine.config.rckmpi_call_cycles // 8

    def test_cycles(self) -> int:
        return self.machine.config.rckmpi_call_cycles // 16

    # -- channel state -------------------------------------------------------
    def _channel(self, src_core: int, dst_core: int):
        chans = self.machine.services.setdefault("rckmpi.chan", {})
        key = (src_core, dst_core)
        if key not in chans:
            chans[key] = {
                "queue": deque(),
                "avail": self.machine.sim.gate(name=f"rckmpi.avail.{key}"),
                "window": Semaphore(self.machine.sim, WINDOW_PACKETS,
                                    name=f"rckmpi.win.{key}"),
            }
        return chans[key]

    def _packet_cost(self, env: CoreEnv, peer_core: int, nbytes: int) -> int:
        cfg = env.config
        byte_cycles = (nbytes * cfg.rckmpi_byte_core_cycles_x8 + 7) // 8
        return (env.latency.core_cycles(cfg.rckmpi_packet_cycles + byte_cycles)
                + env.latency.mpb_access(env.core_id, peer_core))

    def _packets(self, nbytes: int) -> list[int]:
        """Packet sizes covering an ``nbytes`` message (>= one packet)."""
        size = self.machine.config.rckmpi_packet_bytes
        if nbytes == 0:
            return [0]
        sizes = [size] * (nbytes // size)
        if nbytes % size:
            sizes.append(nbytes % size)
        return sizes

    # -- protocol bodies ----------------------------------------------------
    def _send_proc(self, env: CoreEnv, req: Request, raw: np.ndarray,
                   dst: int) -> Generator:
        lock = self._lock("send", env.core_id)
        try:
            yield from lock.acquired()
        except Interrupt:
            return None
        dst_core = env.core_of_rank(dst)
        chan = self._channel(env.core_id, dst_core)
        record_message(self.machine, env.core_id, dst_core, int(raw.size))
        try:
            offset = 0
            for size in self._packets(int(raw.size)):
                yield chan["window"].acquire()
                yield from env.consume(
                    self._packet_cost(env, dst_core, size), "copy")
                chan["queue"].append(raw[offset:offset + size].copy())
                chan["avail"].set()
                offset += size
        except Interrupt:
            return None
        finally:
            lock.release()
        self._retire(env, "send")
        return None

    def _recv_proc(self, env: CoreEnv, req: Request, raw_out: np.ndarray,
                   src: int) -> Generator:
        src_core = env.core_of_rank(src)
        chan = self._channel(src_core, env.core_id)
        # Concurrent receives from one channel drain it in issue order.
        lock = self._lock("recv", (env.core_id, src_core))
        try:
            yield from lock.acquired()
        except Interrupt:
            return None
        try:
            yield from self._drain(env, req, raw_out, src_core, chan)
        finally:
            lock.release()
        return None

    def _drain(self, env: CoreEnv, req: Request, raw_out: np.ndarray,
               src_core: int, chan) -> Generator:
        try:
            offset = 0
            for size in self._packets(int(raw_out.size)):
                while not chan["queue"]:
                    chan["avail"].clear()
                    yield from env.core.wait(
                        chan["avail"].wait_true(
                            env.latency.mpb_access(env.core_id,
                                                   env.core_id)),
                        "wait_flag")
                packet = chan["queue"].popleft()
                chan["window"].release()
                if packet.size != size:
                    raise ValueError(
                        f"rckmpi packet size mismatch: expected {size}, "
                        f"got {packet.size} (mixed message sizes on one "
                        "channel?)")
                yield from env.consume(
                    self._packet_cost(env, src_core, size), "copy")
                raw_out[offset:offset + packet.size] = packet
                offset += packet.size
        except Interrupt:
            return None
        self._retire(env, "recv")
        return None


def reset_channels(machine: Machine) -> None:
    """Drop all channel state (test helper)."""
    machine.services.pop("rckmpi.chan", None)
