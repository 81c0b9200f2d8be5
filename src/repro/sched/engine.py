"""The schedule executor: lowering step rows onto any p2p stack.

One engine runs every collective algorithm.  :func:`lower` decides, once
for both engines, what each of a rank's rows costs and in which order it
enters its messages; :func:`run_schedule` (the simulator) and
:mod:`repro.sched.replay` both walk its output:

* send and receive rows are one message side each (RCCE rendezvous on
  the blocking stack, a request and its ``wait`` elsewhere);
* exchange rows honour the baked-in ``F_SEND_FIRST`` on the blocking
  stack (Fig. 4) and issue the send request, then the receive request,
  completed by one ``wait_all`` elsewhere (Fig. 5; within LWNB's
  single-outstanding-request budget); one-sided exchanges (the
  prefix-scan edges) issue their single operation the same way;
* what a row charges besides its messages is
  :func:`repro.sched.cost.row_hold`, the definition the cost model
  charges too: a charged copy's or a rotation's private-memory pass
  before the row (at the buffer's element size), a fold's reduction
  after it (tree folds always, ring reduce-scatter exchanges only for
  non-empty blocks).

The virtual time this charges per algorithm, stack and rank is pinned in
``tests/sched/test_engine_golden.py``.  Spans annotate the run with the
schedule label and the builder's round tags; like all obs spans they are
timing-free.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.core.ops import ReduceOp, SUM
from repro.obs.spans import span
from repro.sched.cost import row_hold
from repro.sched.ir import (
    F_REDUCE,
    F_REVERSED,
    F_SEND_FIRST,
    FLAGS,
    OP,
    OP_COPY,
    OP_EXCHANGE,
    OP_REDUCE_RECV,
    Schedule,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import Partition
    from repro.core.comm import Communicator
    from repro.hw.machine import CoreEnv
    from repro.hw.timing import LatencyModel

#: Consecutive rows of one round tag share a ``round`` span; untagged
#: rows run in none.
_ROUND_OF = itemgetter(0)
_UNTAGGED = nullcontext()


def lower(sched: Schedule, rank: int, blocking: bool,
          latency: "LatencyModel", itemsize: int) -> list[tuple]:
    """Rank ``rank``'s rows as the engines run them, one ``(round, row,
    sides, wait_all, pre, post)`` per row.

    ``round`` is the row's round tag and ``row`` the raw row (a list of
    its int columns).  ``sides`` are its messages ``(sending, peer, buf,
    lo, hi)`` in entry order: the blocking stack follows
    ``F_SEND_FIRST``, a request stack issues the send first.
    ``wait_all`` says a request stack waits on the sides jointly (an
    exchange, one-sided ones included) rather than on its one side.
    ``pre`` is the CPU hold before the row (a copy or rotation) and
    ``post`` the one after it (a fold's reduction), None where there is
    none.
    """
    cuts = sched._cuts
    out = []
    for row in sched.table.rows[cuts[rank]:cuts[rank + 1]].tolist():
        (_, rnd, code, speer, sbuf, slo, shi,
         rpeer, rbuf, rlo, rhi, flags) = row
        if code > OP_EXCHANGE:
            out.append((rnd, row, (), False, row_hold(
                latency, code, flags, shi - slo, rhi - rlo, itemsize), None))
            continue
        if rbuf < 0:
            sides = ((True, speer, sbuf, slo, shi),)
        elif sbuf < 0:
            sides = ((False, rpeer, rbuf, rlo, rhi),)
        elif blocking and not flags & F_SEND_FIRST:
            # RCCE's doubly-synchronizing calls deadlock unless the two
            # sides of a pair order them oppositely (Fig. 4).
            sides = ((False, rpeer, rbuf, rlo, rhi),
                     (True, speer, sbuf, slo, shi))
        else:
            sides = ((True, speer, sbuf, slo, shi),
                     (False, rpeer, rbuf, rlo, rhi))
        post = (row_hold(latency, code, flags, 0, rhi - rlo)
                if code == OP_REDUCE_RECV or flags & F_REDUCE else None)
        out.append((rnd, row, sides, not blocking and code == OP_EXCHANGE,
                    None, post))
    return out


def run_schedule(comm: "Communicator", env: "CoreEnv", sched: Schedule,
                 sendbuf: np.ndarray, *, op: ReduceOp = SUM,
                 root: int = 0,
                 part: Optional["Partition"] = None) -> Generator:
    """Execute ``sched`` (:meth:`Communicator.schedule
    <repro.core.comm.Communicator.schedule>`) for this rank's call.

    Buffer conventions: ``"in"`` aliases the caller's (flattened)
    operand and is only read; ``"work"`` is a fresh result buffer.  The
    result is the kind's MPI-style return value (bcast fills the
    caller's buffer in place; reduce_scatter returns ``(block,
    partition)``; allgather/alltoall return ``(p, n)``; rooted kinds
    return None off the root).  ``part`` is the block partition the
    schedule was built on when the caller brought its own
    (scatterv/gatherv counts).
    """
    p, me, kind, n = env.size, env.rank, sched.kind, sched.n
    if kind == "alltoall" and sendbuf.shape[0] != p:
        raise ValueError(
            f"alltoall sendbuf must have {p} rows, "
            f"got {sendbuf.shape[0]}")
    flat_in = sendbuf.reshape(-1)
    work = np.empty(sched.buffers["work"], dtype=sendbuf.dtype)
    named = {"in": flat_in, "work": work}
    buffers = [named[name] for name in sched.table.bufs]
    # The engine inner loop: this rank's lowered rows, one by one.
    # Inline, so a resume reaches the p2p layer one frame sooner.
    p2p = comm.p2p
    blocking = comm.blocking
    with span(env, "schedule", sched.label):
        for rnd, rows in groupby(lower(sched, me, blocking, env.latency,
                                       work.itemsize), _ROUND_OF):
            with span(env, "round", rnd) if rnd >= 0 else _UNTAGGED:
                for _, row, sides, wait_all, pre, post in rows:
                    if pre is not None:
                        yield from env.consume(pre, "copy")
                    if not sides:
                        (_, _, code, _, sbuf, slo, shi,
                         _, rbuf, rlo, rhi, _) = row
                        target = buffers[rbuf][rlo:rhi]
                        if code == OP_COPY:
                            target[:] = buffers[sbuf][slo:shi]
                        else:  # OP_ROTATE: ``slo`` rows, down by ``shi``
                            matrix = target.reshape(slo, -1)
                            matrix[:] = np.roll(matrix, shi, axis=0)
                        continue
                    code, flags = row[OP], row[FLAGS]
                    folds = code == OP_REDUCE_RECV or flags & F_REDUCE
                    reqs = []
                    for sending, peer, buf, lo, hi in sides:
                        view = buffers[buf][lo:hi]
                        if not sending and folds:
                            # A folding receive lands in scratch and is
                            # folded after completion.
                            target = view
                            view = scratch = np.empty_like(view)
                        if blocking:
                            yield from (p2p.send if sending else p2p.recv)(
                                env, view, peer)
                        else:
                            reqs.append((yield from (
                                p2p.isend if sending else p2p.irecv)(
                                    env, view, peer)))
                    if wait_all:
                        yield from p2p.wait_all(env, reqs)
                    elif reqs:
                        yield from p2p.wait(env, reqs[0])
                    if folds:
                        if post is not None:
                            if code == OP_REDUCE_RECV:
                                yield from env.consume(post, "compute")
                            else:
                                with span(env, "reduce", len(target)):
                                    yield from env.consume(post, "compute")
                        target[:] = (op(scratch, target)
                                     if flags & F_REVERSED
                                     else op(target, scratch))
    if kind in ("allreduce", "scan"):
        return work
    if kind in ("reduce", "gather"):
        return work if me == root else None
    if kind == "bcast":
        flat_in[:] = work
        return sendbuf
    if kind in ("allgather", "alltoall"):
        return work.reshape(p, n)
    if kind in ("reduce_scatter", "scatter"):
        part = part if part is not None else comm.partition(n, p)
        block = work[part.slice_of((me - root) % p)].copy()
        return (block, part) if kind == "reduce_scatter" else block
    if kind == "exscan":
        return work[n:] if me > 0 else None
    raise KeyError(f"unknown scheduled collective kind {kind!r}")
