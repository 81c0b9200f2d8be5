"""The schedule executor: lowering step rows onto any p2p stack.

One engine runs every collective algorithm: it walks the calling rank's
rows and lowers each onto the communicator's primitives:

* send and receive rows lower to ``comm.send``/``comm.recv`` (RCCE
  rendezvous on the blocking stack, ``isend``/``irecv`` + ``wait``
  elsewhere);
* exchange rows honour the baked-in ``F_SEND_FIRST`` on the blocking
  stack and issue exactly one send and one receive request elsewhere,
  completed by one ``wait_all`` (within LWNB's single-outstanding-request
  budget); one-sided exchanges (the prefix-scan edges) issue their
  single operation the same way;
* reductions charge ``latency.reduce_doubles``: unconditionally for tree
  folds (``OP_REDUCE_RECV``), only for non-empty blocks in the ring
  reduce-scatter (``F_REDUCE`` exchanges);
* copy and rotation rows charge the private-memory copy costs.

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
from repro.sched.ir import (
    F_CHARGED,
    F_REDUCE,
    F_REVERSED,
    F_SEND_FIRST,
    OP_COPY,
    OP_EXCHANGE,
    OP_REDUCE_RECV,
    PHASE,
    Schedule,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import Partition
    from repro.core.comm import Communicator
    from repro.hw.machine import CoreEnv

#: Builders that consume a block partition (the communicator's, unless
#: the caller brings its own: scatterv/gatherv counts).
_PARTITIONED = {
    ("allreduce", "rsag"), ("reduce", "rsg"),
    ("bcast", "scatter_allgather"), ("reduce_scatter", "ring"),
    ("scatter", "binomial"), ("gather", "binomial"),
}
#: Consecutive rows of one round tag share a ``round`` span; untagged
#: rows run in none.
_ROUND_OF = itemgetter(PHASE)
_UNTAGGED = nullcontext()


def _rank_plan(sched: Schedule, rank: int) -> list[list[int]]:
    """Rank ``rank``'s rows as plain int lists (what the loop unpacks;
    :meth:`Schedule.rank_rows` wraps the same rows in StepRow views)."""
    cuts = sched._cuts
    return sched.table.rows[cuts[rank]:cuts[rank + 1]].tolist()


def schedule_for(comm: "Communicator", kind: str, name: str, p: int,
                 n: int, root: int = 0,
                 part: Optional["Partition"] = None) -> Schedule:
    """The schedule instance for one collective call.

    ``part`` defaults to the communicator's block partition for the
    builders that consume one.  A synthesized chunked transform inherits
    its base builder's partition behavior (``synth/rsag+c4`` consumes
    the partition exactly like ``rsag`` does); pipelines take none.
    """
    # Imported here: builders -> core.blocks -> core (package) ->
    # core.comm -> this module would otherwise be an import cycle.
    from repro.sched.builders import build_schedule

    if part is None:
        effective = name
        if name.startswith("synth/"):
            from repro.sched.synth import base_builder

            effective = base_builder(kind, name)
        if (kind, effective) in _PARTITIONED:
            part = comm.partition(n, p)
    return build_schedule(kind, name, p, n, part=part, root=root)


def run_schedule(comm: "Communicator", env: "CoreEnv", kind: str,
                 name: str, sendbuf: np.ndarray, *, op: ReduceOp = SUM,
                 root: int = 0,
                 part: Optional["Partition"] = None) -> Generator:
    """Execute schedule ``kind:name`` for this rank's collective call.

    Buffer conventions: ``"in"`` aliases the caller's (flattened)
    operand and is only read; ``"work"`` is a fresh result buffer.  The
    result is the kind's MPI-style return value (bcast fills the
    caller's buffer in place; reduce_scatter returns ``(block,
    partition)``; allgather/alltoall return ``(p, n)``; rooted kinds
    return None off the root).  ``part`` replaces the communicator's
    block partition (scatterv/gatherv counts).
    """
    p, me = env.size, env.rank
    if kind == "alltoall":
        if sendbuf.shape[0] != p:
            raise ValueError(
                f"alltoall sendbuf must have {p} rows, "
                f"got {sendbuf.shape[0]}")
        n = sendbuf.size // p
    else:
        n = sendbuf.size
    sched = schedule_for(comm, kind, name, p, n, root, part)
    flat_in = sendbuf.reshape(-1)
    work = np.empty(sched.buffers["work"], dtype=sendbuf.dtype)
    named = {"in": flat_in, "work": work}
    buffers = [named[name] for name in sched.table.bufs]
    # The engine inner loop: this rank's rows, lowered one by one.
    # Inline, so a resume reaches the p2p layer one frame sooner.
    p2p = comm.p2p
    latency = env.latency
    with span(env, "schedule", sched.label):
        for rnd, rows in groupby(_rank_plan(sched, me), _ROUND_OF):
            with span(env, "round", rnd) if rnd >= 0 else _UNTAGGED:
                for (_, _, code, speer, sbuf, slo, shi,
                     rpeer, rbuf, rlo, rhi, flags) in rows:
                    if code > OP_EXCHANGE:
                        target = buffers[rbuf][rlo:rhi]
                        if code == OP_COPY:
                            src = buffers[sbuf][slo:shi]
                            if flags & F_CHARGED:
                                yield from env.consume(
                                    latency.private_copy_bytes(src.nbytes),
                                    "copy")
                            target[:] = src
                        else:  # OP_ROTATE: ``slo`` rows, down by ``shi``
                            yield from env.consume(
                                latency.private_copy_bytes(target.nbytes),
                                "copy")
                            matrix = target.reshape(slo, -1)
                            matrix[:] = np.roll(matrix, shi, axis=0)
                        continue
                    send_view = buffers[sbuf][slo:shi] if sbuf >= 0 else None
                    recv_view = buffers[rbuf][rlo:rhi] if rbuf >= 0 else None
                    folds = code == OP_REDUCE_RECV or flags & F_REDUCE
                    # A folding receive lands in scratch and is folded
                    # after completion.
                    recv_buf = np.empty_like(recv_view) if folds else recv_view
                    if code != OP_EXCHANGE:
                        if send_view is not None:
                            yield from comm.send(env, send_view, speer)
                        else:
                            yield from comm.recv(env, recv_buf, rpeer)
                    elif comm.blocking:
                        # RCCE's doubly-synchronizing calls deadlock unless
                        # the two sides of a pair order them oppositely
                        # (Fig. 4): follow the builder's baked order.
                        send_first = flags & F_SEND_FIRST
                        if send_view is not None and send_first:
                            yield from p2p.send(env, send_view, speer)
                        if recv_buf is not None:
                            yield from p2p.recv(env, recv_buf, rpeer)
                        if send_view is not None and not send_first:
                            yield from p2p.send(env, send_view, speer)
                    else:
                        # Issue both requests and synchronize once (Fig. 5),
                        # overlapping the copies.
                        reqs = []
                        if send_view is not None:
                            reqs.append((yield from p2p.isend(env, send_view,
                                                              speer)))
                        if recv_buf is not None:
                            reqs.append((yield from p2p.irecv(env, recv_buf,
                                                              rpeer)))
                        yield from p2p.wait_all(env, reqs)
                    if folds:
                        nels = recv_view.size
                        if code == OP_REDUCE_RECV:
                            yield from env.consume(
                                latency.reduce_doubles(nels), "compute")
                        elif nels:
                            with span(env, "reduce", nels):
                                yield from env.consume(
                                    latency.reduce_doubles(nels), "compute")
                        recv_view[:] = (op(recv_buf, recv_view)
                                        if flags & F_REVERSED
                                        else op(recv_view, recv_buf))
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
