"""Chunked and pipelined schedule transforms (the synthesis levers).

Two ways to grow the repertoire beyond the 13 hand-written builders
(:mod:`repro.sched.builders`), both following SCCL's playbook
(PAPERS.md): treat an algorithm as data and rewrite it.

* :func:`chunk_schedule` — a *transform*: split every transfer of an
  existing schedule into ``c`` independently communicated sub-messages.
  Under the BSP cost model this only adds per-message constants (the
  sub-messages stay inside their original round), but under the
  *simulator* it changes rendezvous granularity: a blocking ring stalls
  in units of ``n/c`` instead of ``n`` wherever the odd-even ordering
  leaves a serialized link (odd ring sizes), so chunked rings win real
  simulated time there — see ``docs/schedules.md``.
* ``build_pipeline_*`` — *builders*: chain (linear-pipeline) algorithms
  whose round structure genuinely pipelines the chunks, the classic
  bandwidth lever the SCC paper never had.  A chunked chain moves a
  vector in ``p + c - 2`` rounds of ``n/c``-element messages, so for
  large ``n`` its critical path approaches ``n`` transferred bytes where
  the binomial trees pay ``log2(p) * n`` — the synthesizer's bread and
  butter wins.

Both emit schedules whose names carry the chunk count (``<base>+c<c>``
for transforms, ``pipeline_c<c>`` for chains); the ``synth/`` registry
prefix and name parsing live in :mod:`repro.sched.synth`.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.sched.builders import _init_copy_rows
from repro.sched.ir import (
    F_REDUCE,
    F_REVERSED,
    F_SEND_FIRST,
    FLAGS,
    OP,
    OP_EXCHANGE,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    RBUF,
    SIDES,
    WORK,
    Schedule,
    StepTable,
    make_table,
    step_rows,
)


def chunk_bounds(lo: int, hi: int, c: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi)`` into ``min(c, nels)`` balanced sub-ranges.

    The leading ranges take the remainder elements (like
    :func:`repro.core.blocks.standard_partition`).  Both endpoints of a
    matched transfer split their (equal-length) intervals with this one
    function, so sub-message ``k`` has the same size on both sides —
    the property the FIFO matching of chunked schedules relies on.
    Empty ranges never appear: a zero-length interval yields one
    zero-length sub-range (the step is kept whole).
    """
    nels = hi - lo
    parts = max(1, min(c, nels))
    base, extra = divmod(nels, parts)
    bounds = []
    cur = lo
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((cur, cur + size))
        cur += size
    return bounds


def chunk_table(table: StepTable, c: int) -> StepTable:
    """Split every transfer of ``table`` into up to ``c`` sub-transfers.

    Communication rows repeat ``min(c, nels)`` times (``np.repeat``)
    carrying their phase, so the BSP structure is preserved and only the
    message granularity changes; sub-row ``k`` covers sub-range ``k`` of
    :func:`chunk_bounds`.  An exchange whose two sides have different
    lengths (uneven partitions, Bruck) pairs sub-ranges index-wise and
    lets the shorter side run out — the tail sub-steps go one-sided
    (and stop folding once the receive side is gone), exactly mirroring
    the partner's split of the equal-length interval.  Local rows
    (copies, rotations) stay whole: they pay an affine per-call cost,
    so splitting them only adds startup.
    """
    rows = table.rows
    comm = rows[:, OP] <= OP_EXCHANGE
    # Sub-ranges per side: chunk_bounds' ``max(1, min(c, nels))``, or 0
    # where the row has no such side to split.
    own = [np.where(comm & (rows[:, buf] >= 0),
                    np.clip(rows[:, hi] - rows[:, lo], 1, c), 0)
           for _, buf, lo, hi in SIDES]
    counts = np.maximum(np.maximum(own[0], own[1]), 1)
    src = np.repeat(np.arange(len(rows)), counts)
    k = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = rows[src]
    comm = comm[src]
    for (peer, buf, lo, hi), parts in zip(SIDES, own):
        parts = parts[src]
        live = k < parts          # sub-step k still has this side
        gone = comm & ~live       # ... or the side ran out before k
        base, extra = np.divmod(out[:, hi] - out[:, lo],
                                np.maximum(parts, 1))
        start = out[:, lo] + k * base + np.minimum(k, extra)
        out[:, hi] = np.where(live, start + base + (k < extra),
                              np.where(gone, 0, out[:, hi]))
        out[:, lo] = np.where(live, start, np.where(gone, 0, out[:, lo]))
        out[gone, peer] = -1
        out[gone, buf] = -1
    # A split exchange folds only where it still receives (an unsplit
    # row keeps its flags as built).
    out[(counts[src] > 1) & (out[:, RBUF] < 0), FLAGS] &= ~(F_REDUCE
                                                            | F_REVERSED)
    out.setflags(write=False)
    return StepTable(out, table.bufs)


def chunk_schedule(sched: Schedule, c: int) -> Schedule:
    """Split every transfer of ``sched`` into ``c`` sub-messages.

    ``c <= 1`` returns the schedule unchanged.  The result is renamed
    ``<name>+c<c>`` and records the chunk layout in ``meta`` (the cost
    memo keys on it — see :func:`repro.sched.cost.schedule_cost_key`).
    """
    if c <= 1:
        return sched
    meta = dict(sched.meta)
    meta["chunks"] = c
    meta["base"] = sched.name
    return Schedule(
        sched.kind, f"{sched.name}+c{c}", sched.p, sched.n,
        dict(sched.buffers), chunk_table(sched.table, c), meta)


# --------------------------------------------------------------------- #
# Pipelined chain builders
# --------------------------------------------------------------------- #
def _chain_rows(p: int, n: int, c: int, pos, source, dest, recv_op: int,
                fold: int = 0, round_base: int = 0) -> np.ndarray:
    """The chunks of ``work[0:n]`` streaming down a rank chain, as a
    ``(rank, slot)`` grid of table rows.

    ``pos[r]`` is rank ``r``'s position along the chain (the chunks
    start at position 0), ``source[r]``/``dest[r]`` its neighbours.  In
    slot ``j`` a rank receives chunk ``j`` from its source (unless it
    heads the chain or the chunks have run out) and forwards chunk
    ``j - 1`` to its dest (unless it ends the chain or ``j == 0``);
    slot ``j`` is round ``pos - 1 + j``, so chunk ``k`` crosses the hop
    from position ``d`` to ``d + 1`` in round ``d + k``.  A slot with
    both sides is one full-duplex exchange; a receive-only slot is a
    ``recv_op`` row; ``fold`` holds the reduce flags of the exchanges.
    """
    bounds = np.array(chunk_bounds(0, n, c))
    parts = len(bounds)
    pos = np.asarray(pos)[:, None]
    j = np.arange(parts + 1)[None, :]
    recv = (pos > 0) & (j < parts)
    send = (pos < p - 1) & (j >= 1)
    op = np.where(recv, np.where(send, OP_EXCHANGE, recv_op), OP_SEND)
    got, sent = bounds[np.minimum(j, parts - 1)], bounds[np.maximum(j - 1, 0)]
    rows = step_rows(
        np.arange(p)[:, None], round_base + pos - 1 + j, op,
        speer=np.where(send, np.asarray(dest)[:, None], -1),
        sbuf=np.where(send, WORK, -1),
        slo=sent[..., 0] * send, shi=sent[..., 1] * send,
        rpeer=np.where(recv, np.asarray(source)[:, None], -1),
        rbuf=np.where(recv, WORK, -1),
        rlo=got[..., 0] * recv, rhi=got[..., 1] * recv,
        flags=(fold * (recv & (op == OP_EXCHANGE))
               | F_SEND_FIRST * (recv & send)))
    return rows[(recv | send).ravel()]


def _chain_schedule(kind: str, p: int, n: int, root: int, c: int,
                    blocks: list) -> Schedule:
    return Schedule(
        kind, f"pipeline_c{c}", p, n, {"in": n, "work": n},
        make_table(blocks), {"root": root, "chunks": c})


def _bcast_chain_rows(p: int, n: int, root: int, c: int,
                      round_base: int = 0) -> np.ndarray:
    ranks = np.arange(p)
    return _chain_rows(p, n, c, (ranks - root) % p, (ranks - 1) % p,
                       (ranks + 1) % p, OP_RECV, round_base=round_base)


def _reduce_chain_rows(p: int, n: int, root: int, c: int) -> np.ndarray:
    ranks = np.arange(p)
    return _chain_rows(p, n, c, p - 1 - (ranks - root) % p, (ranks + 1) % p,
                       (ranks - 1) % p, OP_REDUCE_RECV, F_REDUCE)


def build_pipeline_bcast(p: int, n: int, part: Partition, root: int,
                         c: int) -> Schedule:
    """Chunked linear-pipeline broadcast along the rank chain.

    Chunk ``k`` crosses the hop from chain position ``d`` to ``d + 1``
    in round ``d + k``; every interior rank forwards chunk ``k - 1``
    while receiving chunk ``k`` in one full-duplex exchange, so the
    whole vector reaches the last rank after ``p + c - 2`` rounds of
    ``n/c``-element messages.
    """
    return _chain_schedule("bcast", p, n, root, c, [
        _init_copy_rows(root, n), _bcast_chain_rows(p, n, root, c)])


def build_pipeline_reduce(p: int, n: int, part: Partition, root: int,
                          c: int) -> Schedule:
    """Chunked linear-pipeline reduction down the rank chain to ``root``.

    The mirror image of :func:`build_pipeline_bcast`: partial sums flow
    from the far end of the chain toward the root, each interior rank
    folding chunk ``k`` while forwarding the already-folded chunk
    ``k - 1``.
    """
    return _chain_schedule("reduce", p, n, root, c, [
        _init_copy_rows(np.arange(p), n), _reduce_chain_rows(p, n, root, c)])


def build_pipeline_scan(p: int, n: int, part: Partition, root: int,
                        c: int) -> Schedule:
    """Chunked linear-pipeline inclusive prefix scan.

    Rank ``me`` folds the incoming prefix of ranks ``0..me-1`` into its
    operand chunk by chunk (``op(received, local)``, the scan
    convention; every receive is an exchange, one-sided where nothing
    is forwarded) and forwards the completed prefix downstream —
    ``p + c`` rounds of ``n/c`` messages against recursive doubling's
    ``log2(p)`` rounds of whole vectors.
    """
    ranks = np.arange(p)
    return _chain_schedule("scan", p, n, 0, c, [
        _init_copy_rows(ranks, n),
        _chain_rows(p, n, c, ranks, ranks - 1, ranks + 1, OP_EXCHANGE,
                    F_REDUCE | F_REVERSED)])


def build_pipeline_allreduce(p: int, n: int, part: Partition, root: int,
                             c: int) -> Schedule:
    """Pipelined chain reduce to rank 0 chained into a pipelined bcast.

    Included for search-space breadth: the ring reduce-scatter +
    allgather already moves only ``2n`` bytes per rank, so this wins
    rarely — but the synthesizer prices it like any other candidate
    instead of us deciding by hand.
    """
    parts = len(chunk_bounds(0, n, c))
    offset = p + parts - 1  # first free round index after the reduce
    return _chain_schedule("allreduce", p, n, 0, c, [
        _init_copy_rows(np.arange(p), n), _reduce_chain_rows(p, n, 0, c),
        _bcast_chain_rows(p, n, 0, c, round_base=offset)])


#: kind -> chain-pipeline builder (parameterized over the chunk count).
PIPELINE_BUILDERS = {
    "bcast": build_pipeline_bcast,
    "reduce": build_pipeline_reduce,
    "scan": build_pipeline_scan,
    "allreduce": build_pipeline_allreduce,
}
