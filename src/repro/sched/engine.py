"""The schedule executor: lowering IR steps onto any p2p stack.

One engine runs every collective algorithm: it walks the calling rank's
step list and lowers each step onto the communicator's primitives:

* :class:`~repro.sched.ir.Send`/:class:`~repro.sched.ir.Recv` lower to
  ``comm.send``/``comm.recv`` (RCCE rendezvous on the blocking stack,
  ``isend``/``irecv`` + ``wait`` elsewhere);
* :class:`~repro.sched.ir.Exchange` honours the baked-in ``send_first``
  on the blocking stack and issues exactly one send and one receive
  request elsewhere, completed by one ``wait_all`` (within LWNB's
  single-outstanding-request budget); one-sided exchanges (the
  prefix-scan edges) issue their single operation the same way;
* reductions charge ``latency.reduce_doubles``: unconditionally for tree
  folds, only for non-empty blocks in the ring reduce-scatter.

The virtual time this charges per algorithm, stack and rank is pinned in
``tests/sched/test_engine_golden.py``.  Spans annotate the run with the
schedule label and the builder's round tags; like all obs spans they are
timing-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.core.ops import ReduceOp, SUM
from repro.obs.spans import span
from repro.sched.ir import (
    CopyBlock,
    Exchange,
    Interval,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
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


def _view(buffers: dict[str, np.ndarray], iv: Interval) -> np.ndarray:
    return buffers[iv.buf][iv.lo:iv.hi]


def _run_steps(comm: "Communicator", env: "CoreEnv", sched: Schedule,
               buffers: dict[str, np.ndarray], op: ReduceOp) -> Generator:
    """Execute this rank's plan (the engine inner loop)."""
    plan = sched.plans[env.rank]
    with span(env, "schedule", sched.label):
        i = 0
        while i < len(plan):
            rnd = plan[i].round
            if rnd is None:
                yield from _run_step(comm, env, plan[i], buffers, op)
                i += 1
            else:
                with span(env, "round", rnd):
                    while i < len(plan) and plan[i].round == rnd:
                        yield from _run_step(comm, env, plan[i], buffers,
                                             op)
                        i += 1


def _run_step(comm: "Communicator", env: "CoreEnv", step,
              buffers: dict[str, np.ndarray], op: ReduceOp) -> Generator:
    if isinstance(step, Exchange):
        yield from _run_exchange(comm, env, step, buffers, op)
    elif isinstance(step, Send):
        yield from comm.send(env, _view(buffers, step.data), step.peer)
    elif isinstance(step, Recv):
        yield from comm.recv(env, _view(buffers, step.data), step.peer)
    elif isinstance(step, ReduceRecv):
        target = _view(buffers, step.data)
        tmp = np.empty_like(target)
        yield from comm.recv(env, tmp, step.peer)
        # Tree folds charge unconditionally.
        yield from env.consume(env.latency.reduce_doubles(target.size),
                               "compute")
        target[:] = op(target, tmp)
    elif isinstance(step, CopyBlock):
        src = _view(buffers, step.src)
        if step.charged:
            yield from env.consume(
                env.latency.private_copy_bytes(src.nbytes), "copy")
        _view(buffers, step.dst)[:] = src
    elif isinstance(step, Rotate):
        buf = buffers[step.buf]
        rows = buf.reshape(step.rows, -1)
        yield from env.consume(
            env.latency.private_copy_bytes(buf.nbytes), "copy")
        out = np.empty_like(rows)
        for i in range(step.rows):
            out[(step.shift + i) % step.rows] = rows[i]
        rows[:] = out
    else:  # pragma: no cover - the IR is closed
        raise TypeError(f"unknown schedule step {step!r}")


def _run_exchange(comm: "Communicator", env: "CoreEnv", step: Exchange,
                  buffers: dict[str, np.ndarray],
                  op: ReduceOp) -> Generator:
    """Send ``step.send`` while receiving ``step.recv`` (either side may
    be absent: the prefix-scan edges).

    RCCE's doubly-synchronizing calls deadlock unless the two sides of a
    pair order them oppositely (Fig. 4), so the blocking stack follows
    the builder's baked ``send_first``; the non-blocking stacks issue
    both requests and synchronize once (Fig. 5), overlapping the copies.
    """
    send_view = (_view(buffers, step.send)
                 if step.send is not None else None)
    recv_view = (_view(buffers, step.recv)
                 if step.recv is not None else None)
    # A folding receive lands in scratch and is folded after completion.
    recv_buf = np.empty_like(recv_view) if step.reduce else recv_view
    p2p = comm.p2p
    if comm.blocking:
        if send_view is not None and step.send_first:
            yield from p2p.send(env, send_view, step.send_peer)
        if recv_buf is not None:
            yield from p2p.recv(env, recv_buf, step.recv_peer)
        if send_view is not None and not step.send_first:
            yield from p2p.send(env, send_view, step.send_peer)
    else:
        reqs = []
        if send_view is not None:
            reqs.append((yield from p2p.isend(env, send_view,
                                              step.send_peer)))
        if recv_buf is not None:
            reqs.append((yield from p2p.irecv(env, recv_buf,
                                              step.recv_peer)))
        yield from p2p.wait_all(env, reqs)
    if step.reduce:
        nels = recv_view.size
        if nels:
            with span(env, "reduce", nels):
                yield from env.consume(env.latency.reduce_doubles(nels),
                                       "compute")
            if step.reversed_fold:
                recv_view[:] = op(recv_buf, recv_view)
            else:
                recv_view[:] = op(recv_view, recv_buf)


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
    buffers = {"in": flat_in, "work": work}
    yield from _run_steps(comm, env, sched, buffers, op)
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
