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

from typing import Any, Generator

import numpy as np

from repro.hw.machine import CoreEnv, Machine
from repro.hw.protocol import (ACQUIRE, CHARGE, COPY, DEQUEUE, ENQUEUE, bind,
                               run_ops)
from repro.ircce.requests import NonBlockingLayer
from repro.rcce.api import record_message
from repro.sim.resources import PacketQueue, Semaphore

#: In-flight packets per directed channel.
WINDOW_PACKETS = 2

#: One packet over a channel's handles ``(window, queue)``; a message is
#: bound once per packet and run by the shared request sub-processes.
WINDOW, QUEUE = 0, 1
SEND_PACKET = ((ACQUIRE, WINDOW, 0),        # stall on a full window
               (CHARGE, 0, COPY), (ENQUEUE, QUEUE, 0))
RECV_PACKET = ((DEQUEUE, QUEUE, WINDOW),    # wait for it, free its slot
               (CHARGE, 0, COPY))


class EagerChannels:
    """The channels; :meth:`message` is :meth:`RCCE.message`'s twin."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._channels: dict[tuple[int, int], tuple] = {}

    def message(self, env: CoreEnv, raw: np.ndarray, peer: int,
                sending: bool, call_cycles: int = 0,
                req: Any = None) -> Generator:
        machine = self.machine
        core = env.core
        other = env.core_of_rank(peer)
        ends = (core.core_id, other) if sending else (other, core.core_id)
        nbytes = int(raw.size)
        if sending:
            record_message(machine, *ends, nbytes)
        key = ("rckmpi", ends, nbytes, call_cycles, sending)
        memo = machine.latency.table()
        bound = memo.get(key)
        if bound is None:
            chan = self._channels.get(ends)
            if chan is None:
                chan = self._channels[ends] = (
                    Semaphore(machine.sim, WINDOW_PACKETS,
                              name=f"rckmpi.win.{ends}"),
                    PacketQueue(machine.sim, name=f"rckmpi.avail.{ends}"))
            bound = memo[key] = bind(
                core, SEND_PACKET if sending else RECV_PACKET, chan, nbytes,
                machine.config.rckmpi_packet_bytes,
                lambda size: self._packet_cost(core.core_id, other, size),
                call=env.latency.core_cycles(call_cycles))
        return run_ops(core, bound, raw, req)

    def _packet_cost(self, core_id: int, peer_core: int, nbytes: int) -> int:
        cfg = self.machine.config
        latency = self.machine.latency
        byte_cycles = (nbytes * cfg.rckmpi_byte_core_cycles_x8 + 7) // 8
        return (latency.core_cycles(cfg.rckmpi_packet_cycles + byte_cycles)
                + latency.mpb_access(core_id, peer_core))


class RCKMPIP2P(NonBlockingLayer):
    """The channel layer, exposing the non-blocking request interface."""

    name = "rckmpi"
    supports_wildcard = False
    max_outstanding = None
    protocol = EagerChannels

    def issue_cycles(self) -> int:
        return self.machine.config.rckmpi_call_cycles

    def complete_cycles(self) -> int:
        # Completion bookkeeping is folded into the per-packet costs.
        return self.machine.config.rckmpi_call_cycles // 8

    def test_cycles(self) -> int:
        return self.machine.config.rckmpi_call_cycles // 16
