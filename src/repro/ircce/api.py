"""iRCCE: the feature-rich non-blocking extension to RCCE.

iRCCE (Clauss et al., RWTH Aachen) adds non-blocking point-to-point
primitives to RCCE.  Its generality is exactly what the paper's
optimization B identifies as overhead on a low-latency network
(Section IV-B):

* arbitrarily many concurrent isend/irecv requests, kept in a linked list
  requiring "dynamic memory operations when issued and after completion",
* reception from arbitrary cores (wildcard) with arbitrary sizes,
* cancellation of pending requests.

We implement all three features; the list-keeping cost appears as the high
``ircce_issue_cycles`` / ``ircce_complete_cycles`` charged per request, and
the request list itself is maintained per core (inspectable in tests).
"""

from __future__ import annotations

from typing import Generator

from repro.hw.machine import CoreEnv, Machine
from repro.hw.protocol import accept_wildcards, announcements
from repro.ircce.requests import ANY, NonBlockingLayer, Request


class IRCCE(NonBlockingLayer):
    """iRCCE-style non-blocking layer (high software overhead)."""

    name = "ircce"
    supports_wildcard = True
    max_outstanding = None  # unlimited, kept in a per-core request list

    def __init__(self, machine: Machine):
        super().__init__(machine)
        #: Per-core pending-request lists (models iRCCE's linked lists).
        self.request_lists: dict[int, list[Request]] = {}
        # Wildcard receives and probes read the messages' announcements.
        accept_wildcards(machine)

    def issue_cycles(self) -> int:
        return self.machine.config.ircce_issue_cycles

    def complete_cycles(self) -> int:
        return self.machine.config.ircce_complete_cycles

    def test_cycles(self) -> int:
        return self.machine.config.ircce_test_cycles

    # -- request-list bookkeeping -----------------------------------------
    def pending(self, core_id: int) -> list[Request]:
        """The core's current request list."""
        return list(self.request_lists.get(core_id, ()))

    def iprobe(self, env: CoreEnv, src: int = ANY) -> Generator:
        """Non-blocking probe for an incoming message (``iRCCE_probe``):
        returns ``(src_rank, nbytes)`` of the first matching pending
        message, or ``None``.  The message stays queued."""
        yield from env.consume(
            env.latency.core_cycles(self.test_cycles()), "overhead")
        for src_core, nbytes in announcements(self.machine, env.core_id):
            if src == ANY or env.core_of_rank(src) == src_core:
                return (env.rank_of_core(src_core), nbytes)
        return None

    def _enlist(self, env: CoreEnv, req: Request) -> None:
        self.request_lists.setdefault(env.core_id, []).append(req)

    def _delist(self, env: CoreEnv, req: Request) -> None:
        reqs = self.request_lists.get(env.core_id)
        if reqs and req in reqs:
            reqs.remove(req)


__all__ = ["ANY", "IRCCE"]
