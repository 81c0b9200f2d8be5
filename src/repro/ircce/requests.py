"""Non-blocking request objects and the shared layer machinery.

A :class:`Request` wraps a transfer sub-process running the layer's
protocol, by default the MPB flag protocol of blocking RCCE.  The
sub-process charges its copy time through the owning core's CPU lock, so
transfers progress exactly when the core is otherwise idle (waiting) —
the overlap that optimization A exploits: "cores can concurrently copy
data in and out of the MPBs, effectively using the time they formerly
spent waiting".

:class:`NonBlockingLayer` is the common base for the three concrete layers:

* :class:`repro.ircce.api.IRCCE` — models iRCCE: arbitrarily many pending
  requests kept in a list, wildcard receives, cancellation; the feature
  machinery costs high per-call software overhead (optimization B's
  target).
* :class:`repro.lwnb.api.LWNB` — the paper's lightweight layer: at most
  one outstanding send and one outstanding receive, minimal overhead.
* :class:`repro.rckmpi.channel.RCKMPIP2P` — RCKMPI: the same requests
  over its eager packet protocol, with heavy per-call and packet costs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Generator, Optional

import numpy as np

from repro.hw.machine import CoreEnv, Machine
from repro.hw.mpb import as_bytes, byte_view
from repro.hw.protocol import announce_send, take_announcement
from repro.obs.spans import bracketed
from repro.rcce.api import RCCE
from repro.sim.events import AllOf, Interrupt
from repro.sim.resources import FifoLock

#: Wildcard source rank for :meth:`NonBlockingLayer.irecv` (iRCCE only).
ANY = -1


class RequestError(Exception):
    """Invalid request usage (double cancel, too many outstanding, ...)."""


class Request:
    """Handle for one in-flight non-blocking operation."""

    __slots__ = ("env", "kind", "peer", "nbytes", "proc",
                 "completed_charged", "cancelled", "result")

    def __init__(self, env: CoreEnv, kind: str, peer: int, nbytes: int):
        self.env = env
        self.kind = kind          # "send" | "recv"
        self.peer = peer          # rank, or ANY
        self.nbytes = nbytes
        self.proc = None          # set by the layer after spawning
        self.completed_charged = False
        self.cancelled = False
        self.result = None        # for wildcard recv: (src_rank, nbytes)

    @property
    def done(self) -> bool:
        """True once the transfer sub-process has finished."""
        return self.proc is not None and self.proc.triggered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "done" if self.done else "pending")
        return (f"<Request {self.kind} rank{self.env.rank}<->{self.peer} "
                f"{self.nbytes}B {state}>")


class NonBlockingLayer:
    """Shared isend/irecv/test/wait/cancel machinery."""

    #: Overridden by subclasses.
    name = "nonblocking"
    supports_wildcard = False
    max_outstanding: Optional[int] = None  # per (core, kind); None = unlimited
    #: Runs a message; its ``message`` is :meth:`RCCE.message`'s.
    protocol = RCCE

    def __init__(self, machine: Machine):
        self.machine = machine
        self._proto = self.protocol(machine)
        self._outstanding: dict[tuple[int, str], int] = {}
        # A core owns ONE MPB send buffer, so concurrent isends from the
        # same core are processed strictly in issue order (as iRCCE does
        # with its request queue).  Likewise, concurrent ireceives from
        # the same source share one sent/ready flag pair and must drain
        # the channel in issue order.  Keyed by :meth:`lock_key`.
        self._locks: dict[tuple, FifoLock] = {}

    # Issue/complete software overheads in ps, resolved on first use (the
    # cycle counts are per-layer constants).
    @cached_property
    def _issue_ps(self) -> int:
        return self.machine.latency.core_cycles(self.issue_cycles())

    @cached_property
    def _complete_ps(self) -> int:
        return self.machine.latency.core_cycles(self.complete_cycles())

    # -- overhead hooks (cycles), overridden per layer -------------------
    def issue_cycles(self) -> int:
        raise NotImplementedError

    def complete_cycles(self) -> int:
        raise NotImplementedError

    def test_cycles(self) -> int:
        raise NotImplementedError

    @staticmethod
    def lock_key(kind: str, core: int, peer_core: int) -> tuple:
        """The channel lock a ``kind`` request of ``core`` to or from
        ``peer_core`` queues on (here and in replay): a core's sends
        share one, its receives from one source another."""
        return ("send", core) if kind == "send" else (kind, (core, peer_core))

    # -- issuing ------------------------------------------------------------
    def isend(self, env: CoreEnv, data: np.ndarray, dst: int) -> Generator:
        """Start a non-blocking send; returns a :class:`Request`.

        Usage: ``req = yield from layer.isend(env, data, dst)``.
        """
        if dst == env.rank:
            raise RequestError("cannot isend to self")
        return self._issue(env, "send", dst, as_bytes(data), self._send_proc,
                           ("isend[{}->{}]", env.rank, dst))

    def irecv(self, env: CoreEnv, out: np.ndarray, src: int) -> Generator:
        """Start a non-blocking receive into ``out``; returns a Request.

        ``src`` may be :data:`ANY` on layers with wildcard support; the
        matched sender and actual size are stored in ``request.result``.
        """
        if src == env.rank:
            raise RequestError("cannot irecv from self")
        if src == ANY and not self.supports_wildcard:
            raise RequestError(
                f"{self.name} does not support wildcard receives")
        return self._issue(env, "recv", src, byte_view(out), self._recv_proc,
                           ("irecv[{}<-{}]", env.rank, src))

    def _issue(self, env: CoreEnv, kind: str, peer: int, raw: np.ndarray,
               body, name: tuple) -> Generator:
        self._admit(env, kind)
        req = Request(env, kind, peer, int(raw.size))
        yield from env.consume(self._issue_ps, "overhead")
        req.proc = env.sim.process(body(env, req, raw, peer), name=name)
        self._enlist(env, req)
        return req

    # -- completion -----------------------------------------------------------
    def wait(self, env: CoreEnv, request: Request) -> Generator:
        """Block until ``request`` finishes; charges completion overhead."""
        proc = request.proc
        if proc is None or not proc.triggered:
            # Inline of Core.wait (waiting does not occupy the CPU).
            sim = env.sim
            t0 = sim._now
            yield proc
            env.core.account.states["wait_request"] += sim._now - t0
        if request.proc.failed and not request.cancelled:
            raise request.proc.value
        if not request.completed_charged:
            request.completed_charged = True
            yield from env.consume(self._complete_ps, "overhead")
        self._delist(env, request)
        return request.result

    def wait_all(self, env: CoreEnv, requests: list[Request]) -> Generator:
        """Block until every request finishes (one synchronization point —
        the per-round wait of the relaxed ring, Fig. 5)."""
        pending = [r.proc for r in requests if not r.proc.triggered]
        if pending:
            sim = env.sim
            t0 = sim._now
            yield AllOf(sim, pending)
            env.core.account.states["wait_request"] += sim._now - t0
        cost = self._complete_ps
        for request in requests:
            if request.proc.failed and not request.cancelled:
                raise request.proc.value
            if not request.completed_charged:
                request.completed_charged = True
                yield from env.consume(cost, "overhead")
        for request in requests:
            self._delist(env, request)
        return [r.result for r in requests]

    def test(self, env: CoreEnv, request: Request) -> Generator:
        """Non-blocking completion probe (``iRCCE_test``)."""
        yield from env.consume(
            env.latency.core_cycles(self.test_cycles()), "overhead")
        return request.done

    def cancel(self, env: CoreEnv, request: Request) -> Generator:
        """Cancel a pending request (``iRCCE_cancel``).

        Only safe while the request is unmatched (e.g. a speculative
        receive no sender has satisfied); cancelling a matched transfer
        raises.
        """
        if request.done:
            raise RequestError("cannot cancel a completed request")
        if request.cancelled:
            raise RequestError("request already cancelled")
        request.cancelled = True
        request.proc.interrupt("cancelled")
        yield from env.core.wait(request.proc, "wait_request")
        self._retire(env, request.kind)
        self._delist(env, request)

    # -- sub-process bodies -------------------------------------------------
    # Each returns the request's sub-process generator: the message's
    # program run (the protocol's ``message``) inside :meth:`_held`.
    def _send_proc(self, env: CoreEnv, req: Request, raw: np.ndarray,
                   dst: int) -> Generator:
        return bracketed(env, "send", dst, self._held(
            env, req, dst, self._proto.message(env, raw, dst, True)))

    def _recv_proc(self, env: CoreEnv, req: Request, raw_out: np.ndarray,
                   src: int) -> Generator:
        if src == ANY:
            return bracketed(env, "recv", src,
                             self._recv_any(env, req, raw_out))
        return bracketed(env, "recv", src, self._held(
            env, req, src, self._proto.message(env, raw_out, src, False)))

    def _recv_any(self, env: CoreEnv, req: Request,
                  raw_out: np.ndarray) -> Generator:
        """A wildcard receive: match any sender's announcement, then
        receive from it, taking the channel lock only then.  Returns the
        matched source rank."""
        try:
            src = yield from self._match_any(env, req)
        except Interrupt:
            return None
        yield from self._held(env, req, src, self._proto.message(
            env, raw_out[:req.nbytes], src, False))
        return src

    def _held(self, env: CoreEnv, req: Request, peer: int,
              run: Generator) -> Generator:
        """A request's message ``run`` to or from rank ``peer`` under its
        channel lock: the lock is held for the whole run (a free one is
        granted at the current instant, one heap entry), a cancellation
        while queued for it or inside the run returns None, and a
        finished run retires the request."""
        key = self.lock_key(req.kind, env.core_id, env.core_of_rank(peer))
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = FifoLock(self.machine.sim,
                                               name=f"{key[0]}chan{key[1]}")
        grant = lock.acquire()
        try:
            yield grant
        except Interrupt:
            lock.abandon(grant)
            return None
        try:
            yield from run
        except Interrupt:
            return None
        finally:
            lock.release()
        self._retire(env, req.kind)
        return None

    def _match_any(self, env: CoreEnv, req: Request) -> Generator:
        """Wait for any sender's announcement; fixes peer and size."""
        machine = self.machine
        incoming = machine.flag(env.core_id, "p2p.incoming")
        while True:
            found = take_announcement(machine, env.core_id)
            if found is not None:
                src_core, nbytes = found
                # Re-announce: the receive's own ``NOTE TAKEN`` pops it
                # again.  (Announcements are per-chunk; wildcard matching
                # fixes only the first chunk's origin.)
                announce_send(machine, src_core, env.core_id, nbytes)
                src_rank = env.rank_of_core(src_core)
                req.peer = src_rank
                req.nbytes = min(req.nbytes, nbytes)
                req.result = (src_rank, req.nbytes)
                return src_rank
            yield from incoming.wait_set(env.core)

    # -- outstanding accounting ----------------------------------------------
    # A layer that keeps a request list (iRCCE) files a request in it
    # once issued and takes it out once waited on or cancelled.
    def _enlist(self, env: CoreEnv, req: Request) -> None:
        pass

    def _delist(self, env: CoreEnv, req: Request) -> None:
        pass

    def _admit(self, env: CoreEnv, kind: str) -> None:
        key = (env.core_id, kind)
        count = self._outstanding.get(key, 0)
        if self.max_outstanding is not None and count >= self.max_outstanding:
            raise RequestError(
                f"{self.name} allows at most {self.max_outstanding} "
                f"outstanding {kind} request(s) per core"
            )
        self._outstanding[key] = count + 1

    def _retire(self, env: CoreEnv, kind: str) -> None:
        key = (env.core_id, kind)
        count = self._outstanding.get(key, 0)
        if count:
            self._outstanding[key] = count - 1
