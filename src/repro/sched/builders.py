"""Pure schedule builders: the algorithm repertoire as data.

Each builder states one collective algorithm — RCCE_comm's rings,
binomial trees and scatter/allgather broadcast, plus the MPICH-family
alternatives (recursive doubling/halving, Bruck) — as a
:class:`~repro.sched.ir.Schedule`: its round structure, exchange
intervals, arithmetic charge sites and deadlock-avoidance orderings
(odd-even for rings, rank comparison for pairwise exchanges).  This is
the only implementation of these algorithms; the virtual time the
executor charges for them is pinned, per stack and rank, in
``tests/sched/test_engine_golden.py``.

Builders are pure functions of ``(p, n, partition, root)``; schedules
are cached per argument tuple (they are immutable and rank-complete, so
one instance serves a whole simulation).

The O(p^2) phases (rings, pairwise alltoall) are emitted directly in
columnar form — table rows over a ``(rank, round)`` grid, see
``docs/schedules.md`` — so pricing them never builds a step object; the
O(p log p) tree phases stay per-rank step lists.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.blocks import Partition
from repro.sched.ir import (
    F_CHARGED,
    F_REDUCE,
    F_SEND_FIRST,
    IN,
    OP_COPY,
    OP_EXCHANGE,
    WORK,
    CopyBlock,
    Exchange,
    Interval,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
    Step,
    encode_steps,
    make_table,
    step_rows,
)


def _largest_pow2_below(p: int) -> int:
    pow2 = 1
    while pow2 * 2 <= p:
        pow2 *= 2
    return pow2


def _block_iv(buf: str, part: Partition, lo_block: int,
              hi_block: Optional[int] = None) -> Interval:
    """Interval covering blocks ``[lo_block, hi_block]`` (inclusive),
    interned per partition."""
    hi_block = lo_block if hi_block is None else hi_block
    key = (buf, lo_block, hi_block)
    iv = part.memo.get(key)
    if iv is None:
        iv = part.memo[key] = Interval(buf, part.offsets[lo_block],
                                       part.offsets[hi_block + 1])
    return iv


def _pair_send_first(me: int, partner: int) -> bool:
    """Rank-comparison rule: the deadlock-free order of a symmetric
    pairwise exchange on the blocking stack."""
    return me < partner


def _init_copy(me: int, n: int, work_lo: int = 0) -> CopyBlock:
    """The free ``acc = sendbuf.copy()`` staging assignment."""
    return CopyBlock(Interval("in", 0, n),
                     Interval("work", work_lo, work_lo + n))


def _init_copy_rows(ranks, n: int, work_lo=0) -> np.ndarray:
    """:func:`_init_copy` for every rank in ``ranks``, as table rows."""
    return step_rows(ranks, -1, OP_COPY, sbuf=IN, shi=n,
                     rbuf=WORK, rlo=work_lo, rhi=np.add(work_lo, n))


def _tree_rows(per_rank_steps: Sequence[Sequence[Step]]) -> np.ndarray:
    """Per-rank step lists over buffers ``in``/``work`` -> table rows
    (buffer sizes only matter to ``Rotate``, which no tree phase has)."""
    return encode_steps(per_rank_steps, {"in": 0, "work": 0})[0]


# --------------------------------------------------------------------- #
# Ring phases
# --------------------------------------------------------------------- #
def _ring_rows(p: int, part: Partition, shift: int, first_send: int,
               round_base: int, flags: int) -> np.ndarray:
    """One ring phase over buffer ``work`` as a ``(rank, round)`` grid.

    In round ``r`` virtual rank ``vme`` sends block ``vme + first_send -
    r`` to its right neighbour and receives the block before it from
    the left; ``send_first`` is RCCE_comm's odd-even rule (even ranks
    send first, Fig. 4).
    """
    me = np.arange(p)[:, None]
    r = np.arange(p - 1)[None, :]
    send_block = (me - shift + first_send - r) % p
    recv_block = (send_block - 1) % p
    offsets = np.asarray(part.offsets)
    return step_rows(
        me, round_base + r, OP_EXCHANGE,
        speer=(me + 1) % p, sbuf=WORK,
        slo=offsets[send_block], shi=offsets[send_block + 1],
        rpeer=(me - 1) % p, rbuf=WORK,
        rlo=offsets[recv_block], rhi=offsets[recv_block + 1],
        flags=flags | F_SEND_FIRST * (me % 2 == 0))


def _ring_reduce_scatter_rows(p: int, part: Partition,
                              shift: int = 0) -> np.ndarray:
    """The ring (bucket) ReduceScatter rounds of Fig. 2: round ``r``
    sends the partial sum of block ``vme - 1 - r`` and folds in block
    ``vme - 2 - r``; rank ``me`` ends up owning block ``me - shift``."""
    return _ring_rows(p, part, shift, -1, 0, F_REDUCE)


def _ring_allgather_blocks_rows(p: int, part: Partition, shift: int = 0,
                                round_base: int = 0) -> np.ndarray:
    """Circulate partition blocks until ``work`` is complete everywhere
    (rank ``me`` starts out owning block ``me - shift``)."""
    return _ring_rows(p, part, shift, 0, round_base, 0)


# --------------------------------------------------------------------- #
# Binomial-tree phases
# --------------------------------------------------------------------- #
def _binomial_reduce_steps(idx: int, members: Sequence[int], root_idx: int,
                           data: Interval) -> list[Step]:
    """Whole-vector binomial reduction tree over ``members`` (ranks, in
    tree order) to ``members[root_idx]``, for the member at ``idx``.
    Virtual rank ``v`` is ``members[(v + root_idx) % m]``: ``range(p)``
    gives the flat tree, ``range(lo, hi)`` a group's, a leader list the
    hierarchical leader phase (:mod:`repro.sched.hier`)."""
    steps: list[Step] = []
    m = len(members)
    vrank = (idx - root_idx) % m
    mask = 1
    while mask < m:
        if vrank & mask:
            steps.append(Send(members[(vrank - mask + root_idx) % m], data))
            return steps
        src_v = vrank | mask
        if src_v < m:
            steps.append(ReduceRecv(members[(src_v + root_idx) % m], data))
        mask <<= 1
    return steps


def _binomial_bcast_steps(idx: int, members: Sequence[int], root_idx: int,
                          data: Interval) -> list[Step]:
    """Whole-vector binomial broadcast tree from ``members[root_idx]``
    (member addressing as in :func:`_binomial_reduce_steps`)."""
    steps: list[Step] = []
    m = len(members)
    vrank = (idx - root_idx) % m
    mask = 1
    while mask < m:
        if vrank & mask:
            steps.append(Recv(members[(vrank - mask + root_idx) % m], data))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < m:
            steps.append(Send(members[(vrank + mask + root_idx) % m], data))
        mask >>= 1
    return steps


def _binomial_scatter_steps(me: int, p: int, root: int,
                            part: Partition) -> list[Step]:
    """Binomial scatter of partition blocks in root-relative vrank
    space: the subtree of vrank ``v`` reached with mask ``m`` covers
    blocks ``[v, min(v + m, p))``, a contiguous element range."""
    steps: list[Step] = []
    vrank = (me - root) % p
    mask = 1
    extent = p
    while mask < p:
        if vrank & mask:
            src = (vrank - mask + root) % p
            extent = min(mask, p - vrank)
            steps.append(Recv(
                src, _block_iv("work", part, vrank, vrank + extent - 1)))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if mask < extent:
            dst_v = vrank + mask
            dst_extent = extent - mask
            steps.append(Send(
                (dst_v + root) % p,
                _block_iv("work", part, dst_v, dst_v + dst_extent - 1)))
            extent = mask
        mask >>= 1
    return steps


def _binomial_gather_steps(me: int, p: int, root: int,
                           part: Partition) -> list[Step]:
    """Binomial gather of partition blocks to ``root`` (the scatter's
    mirror: subtrees hand up contiguous vrank ranges)."""
    steps: list[Step] = []
    vrank = (me - root) % p
    extent = 1
    mask = 1
    while mask < p:
        if vrank & mask == 0:
            src_v = vrank + mask
            if src_v < p:
                src_extent = min(mask, p - src_v)
                steps.append(Recv(
                    (src_v + root) % p,
                    _block_iv("work", part, src_v, src_v + src_extent - 1)))
                extent += src_extent
        else:
            steps.append(Send(
                (vrank - mask + root) % p,
                _block_iv("work", part, vrank, vrank + extent - 1)))
            return steps
        mask <<= 1
    return steps


# --------------------------------------------------------------------- #
# Allreduce builders
# --------------------------------------------------------------------- #
def build_rsag_allreduce(p: int, n: int, part: Partition,
                         root: int) -> Schedule:
    """Ring ReduceScatter + ring Allgather (the paper's long-vector
    Allreduce, Section IV-A)."""
    blocks = [_init_copy_rows(np.arange(p), n)]
    if p > 1:
        blocks += [_ring_reduce_scatter_rows(p, part),
                   _ring_allgather_blocks_rows(p, part)]
    return Schedule.from_table(
        "allreduce", "rsag", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": 0})


def build_reduce_bcast_allreduce(p: int, n: int, part: Partition,
                                 root: int) -> Schedule:
    """Binomial Reduce to rank 0 + binomial Broadcast (short vectors)."""
    whole = Interval("work", 0, n)
    plans = []
    for me in range(p):
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            steps += _binomial_reduce_steps(me, range(p), 0, whole)
            steps += _binomial_bcast_steps(me, range(p), 0, whole)
        plans.append(tuple(steps))
    return Schedule("allreduce", "reduce_bcast", p, n,
                    {"in": n, "work": n}, tuple(plans), {"root": 0})


def _fold_in_steps(idx: int, members: Sequence[int], pow2: int,
                   whole: Interval) -> list[Step]:
    """Non-power-of-two prologue: members at index ``>= pow2`` hand
    their vector to the member ``pow2`` places down and go passive."""
    rest = len(members) - pow2
    if idx >= pow2:
        return [Send(members[idx - pow2], whole)]
    if idx < rest:
        return [ReduceRecv(members[idx + pow2], whole)]
    return []


def _fold_out_steps(idx: int, members: Sequence[int], pow2: int,
                    whole: Interval) -> list[Step]:
    """Mirror of :func:`_fold_in_steps`: results back to the passives."""
    rest = len(members) - pow2
    if idx >= pow2:
        return [Recv(members[idx - pow2], whole)]
    if idx < rest:
        return [Send(members[idx + pow2], whole)]
    return []


def _recursive_doubling_steps(idx: int, members: Sequence[int],
                              whole: Interval) -> list[Step]:
    """Fold-in, log2 full-vector exchange rounds among the first
    power-of-two members, fold-out — for the member at ``idx``."""
    pow2 = _largest_pow2_below(len(members))
    steps = _fold_in_steps(idx, members, pow2, whole)
    if idx < pow2:
        me = members[idx]
        mask = 1
        while mask < pow2:
            partner = members[idx ^ mask]
            steps.append(Exchange(
                send_peer=partner, send=whole,
                recv_peer=partner, recv=whole,
                send_first=_pair_send_first(me, partner),
                reduce=True))
            mask <<= 1
    return steps + _fold_out_steps(idx, members, pow2, whole)


def build_recursive_doubling_allreduce(p: int, n: int, part: Partition,
                                       root: int) -> Schedule:
    """log2(p) full-vector exchange rounds: latency-optimal for short
    vectors, bandwidth-hungry for long ones."""
    whole = Interval("work", 0, n)
    ranks = range(p)
    plans = []
    for me in ranks:
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            steps += _recursive_doubling_steps(me, ranks, whole)
        plans.append(tuple(steps))
    return Schedule("allreduce", "recursive_doubling", p, n,
                    {"in": n, "work": n}, tuple(plans), {"root": 0})


def build_recursive_halving_allreduce(p: int, n: int, part: Partition,
                                      root: int) -> Schedule:
    """Rabenseifner: recursive-halving reduce-scatter + recursive-
    doubling allgather."""
    whole = Interval("work", 0, n)
    pow2 = _largest_pow2_below(p)
    plans = []
    for me in range(p):
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            steps += _fold_in_steps(me, range(p), pow2, whole)
            if me < pow2:
                lo, hi = 0, n
                levels: list[tuple[int, int]] = []
                mask = pow2 >> 1
                while mask >= 1:
                    partner = me ^ mask
                    levels.append((lo, hi))
                    mid = lo + (hi - lo) // 2
                    if me & mask:
                        keep, give = (mid, hi), (lo, mid)
                    else:
                        keep, give = (lo, mid), (mid, hi)
                    steps.append(Exchange(
                        send_peer=partner,
                        send=Interval("work", give[0], give[1]),
                        recv_peer=partner,
                        recv=Interval("work", keep[0], keep[1]),
                        send_first=_pair_send_first(me, partner),
                        reduce=True))
                    lo, hi = keep
                    mask >>= 1
                mask = 1
                for elo, ehi in reversed(levels):
                    partner = me ^ mask
                    mid = elo + (ehi - elo) // 2
                    if (lo, hi) == (elo, mid):
                        plo, phi = mid, ehi
                    else:
                        plo, phi = elo, mid
                    steps.append(Exchange(
                        send_peer=partner, send=Interval("work", lo, hi),
                        recv_peer=partner, recv=Interval("work", plo, phi),
                        send_first=_pair_send_first(me, partner)))
                    lo, hi = elo, ehi
                    mask <<= 1
            steps += _fold_out_steps(me, range(p), pow2, whole)
        plans.append(tuple(steps))
    return Schedule("allreduce", "recursive_halving", p, n,
                    {"in": n, "work": n}, tuple(plans), {"root": 0})


# --------------------------------------------------------------------- #
# Reduce builders
# --------------------------------------------------------------------- #
def build_binomial_reduce(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    whole = Interval("work", 0, n)
    plans = []
    for me in range(p):
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            steps += _binomial_reduce_steps(me, range(p), root, whole)
        plans.append(tuple(steps))
    return Schedule("reduce", "binomial", p, n, {"in": n, "work": n},
                    tuple(plans), {"root": root})


def build_rsg_reduce(p: int, n: int, part: Partition,
                     root: int) -> Schedule:
    """RCCE_comm's long-vector Reduce: ring ReduceScatter (blocks
    labelled in root-relative vrank space) + binomial gather."""
    blocks = [_init_copy_rows(np.arange(p), n)]
    if p > 1:
        blocks += [_ring_reduce_scatter_rows(p, part, shift=root),
                   _tree_rows([_binomial_gather_steps(me, p, root, part)
                               for me in range(p)])]
    return Schedule.from_table(
        "reduce", "rsg", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": root})


# --------------------------------------------------------------------- #
# Broadcast builders
# --------------------------------------------------------------------- #
def build_binomial_bcast(p: int, n: int, part: Partition,
                         root: int) -> Schedule:
    whole = Interval("work", 0, n)
    plans = []
    for me in range(p):
        steps: list[Step] = []
        if me == root:
            steps.append(_init_copy(me, n))
        if p > 1:
            steps += _binomial_bcast_steps(me, range(p), root, whole)
        plans.append(tuple(steps))
    return Schedule("bcast", "binomial", p, n, {"in": n, "work": n},
                    tuple(plans), {"root": root})


def build_scatter_allgather_bcast(p: int, n: int, part: Partition,
                                  root: int) -> Schedule:
    """RCCE_comm's long-message Broadcast: binomial scatter of blocks +
    ring allgather."""
    blocks = [_init_copy_rows(root, n)]
    if p > 1:
        blocks += [_tree_rows([_binomial_scatter_steps(me, p, root, part)
                               for me in range(p)]),
                   _ring_allgather_blocks_rows(p, part, shift=root)]
    return Schedule.from_table(
        "bcast", "scatter_allgather", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": root})


# --------------------------------------------------------------------- #
# Allgather builders
# --------------------------------------------------------------------- #
def build_ring_allgather(p: int, n: int, part: Partition,
                         root: int) -> Schedule:
    """Standalone ring Allgather (Fig. 9a): the block ring over the
    ``p`` rows of ``n`` of the flattened ``(p, n)`` result."""
    ranks = np.arange(p)
    rows_of_n = Partition(p * n, (n,) * p)
    blocks = [_init_copy_rows(ranks, n, work_lo=ranks * n),
              _ring_allgather_blocks_rows(p, rows_of_n)]
    return Schedule.from_table(
        "allgather", "ring", p, n, {"in": n, "work": p * n},
        make_table(blocks), {"rows": p, "root": 0})


def build_bruck_allgather(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    """Bruck: ceil(log2 p) rounds with doubling block counts over
    local-index rows, then the final local rotation."""
    plans = []
    for me in range(p):
        steps: list[Step] = [_init_copy(me, n)]
        have, distance = 1, 1
        while have < p:
            count = min(have, p - have)
            dst = (me - distance) % p
            src = (me + distance) % p
            steps.append(Exchange(
                send_peer=dst, send=Interval("work", 0, count * n),
                recv_peer=src,
                recv=Interval("work", have * n, (have + count) * n),
                send_first=_pair_send_first(me, dst)))
            have += count
            distance <<= 1
        steps.append(Rotate("work", rows=p, shift=me))
        plans.append(tuple(steps))
    return Schedule("allgather", "bruck", p, n,
                    {"in": n, "work": p * n}, tuple(plans),
                    {"rows": p, "root": 0})


# --------------------------------------------------------------------- #
# ReduceScatter / Alltoall / Scan builders
# --------------------------------------------------------------------- #
def build_ring_reduce_scatter(p: int, n: int, part: Partition,
                              root: int) -> Schedule:
    blocks = [_init_copy_rows(np.arange(p), n)]
    if p > 1:
        blocks.append(_ring_reduce_scatter_rows(p, part))
    return Schedule.from_table(
        "reduce_scatter", "ring", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": 0})


def build_pairwise_alltoall(p: int, n: int, part: Partition,
                            root: int) -> Schedule:
    """Pairwise exchange: round ``r`` pairs ``me`` with ``(r - me) %
    p`` — an involution, so each round is a perfect matching (``n`` is
    the per-destination row length; the self-pairing round is the
    charged local copy of the own row)."""
    me = np.arange(p)[:, None]
    r = np.arange(p)[None, :]
    partner = (r - me) % p
    own = partner == me
    peer = np.where(own, -1, partner)
    rows = step_rows(
        me, r, np.where(own, OP_COPY, OP_EXCHANGE),
        speer=peer, sbuf=IN, slo=partner * n, shi=(partner + 1) * n,
        rpeer=peer, rbuf=WORK, rlo=partner * n, rhi=(partner + 1) * n,
        flags=np.where(own, F_CHARGED, F_SEND_FIRST * (me < partner)))
    return Schedule.from_table(
        "alltoall", "pairwise", p, n, {"in": p * n, "work": p * n},
        make_table([rows]), {"rows": p, "root": 0})


def _scan_steps(me: int, p: int, whole: Interval) -> list[Step]:
    """Recursive-doubling prefix rounds (Hillis-Steele over ranks): in
    round k rank ``me`` folds in the partial prefix of ``me - 2^k``.
    Every edge points upward, so send-then-receive is cycle-free on the
    blocking stack; the fold order is ``op(received, local)``."""
    steps: list[Step] = []
    stride = 1
    while stride < p:
        send_peer = me + stride if me + stride < p else None
        recv_peer = me - stride if me - stride >= 0 else None
        if send_peer is not None or recv_peer is not None:
            steps.append(Exchange(
                send_peer=send_peer,
                send=whole if send_peer is not None else None,
                recv_peer=recv_peer,
                recv=whole if recv_peer is not None else None,
                send_first=True,
                reduce=recv_peer is not None,
                reversed_fold=True))
        stride <<= 1
    return steps


def build_recursive_doubling_scan(p: int, n: int, part: Partition,
                                  root: int) -> Schedule:
    """Inclusive prefix reduction in ceil(log2 p) rounds."""
    whole = Interval("work", 0, n)
    plans = tuple((_init_copy(me, n), *_scan_steps(me, p, whole))
                  for me in range(p))
    return Schedule("scan", "recursive_doubling", p, n,
                    {"in": n, "work": n}, plans, {"root": 0})


# --------------------------------------------------------------------- #
# Kinds with one fixed algorithm: Exscan, Scatter(v), Gather(v)
# --------------------------------------------------------------------- #
def build_exscan(p: int, n: int, part: Partition, root: int) -> Schedule:
    """Exclusive prefix: the inclusive scan over ``work[0:n]``, then every
    rank hands its prefix to ``me + 1``, which receives it into
    ``work[n:2n]`` (rank 0's result is undefined, MPI-style)."""
    whole = Interval("work", 0, n)
    plans = []
    for me in range(p):
        steps = [_init_copy(me, n), *_scan_steps(me, p, whole)]
        up = me + 1 if me + 1 < p else None
        down = me - 1 if me >= 1 else None
        if up is not None or down is not None:
            steps.append(Exchange(
                send_peer=up, send=whole if up is not None else None,
                recv_peer=down,
                recv=Interval("work", n, 2 * n) if down is not None
                else None,
                send_first=True))
        plans.append(tuple(steps))
    return Schedule("exscan", "recursive_doubling", p, n,
                    {"in": n, "work": 2 * n}, tuple(plans), {"root": 0})


def build_binomial_scatter(p: int, n: int, part: Partition,
                           root: int) -> Schedule:
    """Scatter(v): the root stages its vector, the tree hands every
    vrank its block of ``part`` (any block sizes, empty ones included)."""
    plans = tuple(
        (*([_init_copy(me, n)] if me == root else []),
         *_binomial_scatter_steps(me, p, root, part))
        for me in range(p))
    return Schedule("scatter", "binomial", p, n, {"in": n, "work": n},
                    plans, {"part_sizes": part.sizes, "root": root})


def build_binomial_gather(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    """Gather(v): rank ``me`` holds block ``vrank(me)`` of ``part`` at
    its place in ``in``; the tree assembles the vector at ``root``."""
    plans = []
    for me in range(p):
        own = _block_iv("work", part, (me - root) % p)
        plans.append((CopyBlock(Interval("in", own.lo, own.hi), own),
                      *_binomial_gather_steps(me, p, root, part)))
    return Schedule("gather", "binomial", p, n, {"in": n, "work": n},
                    tuple(plans),
                    {"part_sizes": part.sizes, "root": root})


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
Builder = Callable[[int, int, Partition, int], Schedule]

#: (kind -> name -> builder).  Names are the ``algo=`` values of the
#: :class:`~repro.core.comm.Communicator` methods.
BUILDERS: dict[str, dict[str, Builder]] = {
    "allreduce": {
        "rsag": build_rsag_allreduce,
        "reduce_bcast": build_reduce_bcast_allreduce,
        "recursive_doubling": build_recursive_doubling_allreduce,
        "recursive_halving": build_recursive_halving_allreduce,
    },
    "reduce": {
        "binomial": build_binomial_reduce,
        "rsg": build_rsg_reduce,
    },
    "bcast": {
        "binomial": build_binomial_bcast,
        "scatter_allgather": build_scatter_allgather_bcast,
    },
    "allgather": {
        "ring": build_ring_allgather,
        "bruck": build_bruck_allgather,
    },
    "reduce_scatter": {
        "ring": build_ring_reduce_scatter,
    },
    "alltoall": {
        "pairwise": build_pairwise_alltoall,
    },
    "scan": {
        "recursive_doubling": build_recursive_doubling_scan,
    },
    # One algorithm each, no ``algo=`` argument: not in DEFAULT_ALGOS.
    "exscan": {"recursive_doubling": build_exscan},
    "scatter": {"binomial": build_binomial_scatter},
    "gather": {"binomial": build_binomial_gather},
}

#: RCCE_comm's size-based defaults: (short-vector algo, long-vector
#: algo); :meth:`repro.core.comm.Communicator.resolve` applies them.
DEFAULT_ALGOS: dict[str, tuple[str, str]] = {
    "allreduce": ("reduce_bcast", "rsag"),
    "reduce": ("binomial", "rsg"),
    "bcast": ("binomial", "scatter_allgather"),
    "allgather": ("ring", "ring"),
    "reduce_scatter": ("ring", "ring"),
    "alltoall": ("pairwise", "pairwise"),
    "scan": ("recursive_doubling", "recursive_doubling"),
}

#: Kinds with an algorithm choice: what ``tune``, ``synth`` and the
#: selection table range over.
SCHEDULED_KINDS: tuple[str, ...] = tuple(DEFAULT_ALGOS)

#: Kinds with exactly one builder (``scatterv``/``gatherv`` run the
#: ``scatter``/``gather`` schedule over their own counts).
FIXED_KINDS: tuple[str, ...] = tuple(
    kind for kind in BUILDERS if kind not in DEFAULT_ALGOS)


def builder_names(kind: str) -> tuple[str, ...]:
    """Builder names for ``kind``, sorted (KeyError on unknown kind)."""
    try:
        return tuple(sorted(BUILDERS[kind]))
    except KeyError:
        raise KeyError(
            f"no schedule builders for collective kind {kind!r}; "
            f"known: {sorted(BUILDERS)}") from None


def known_algorithm(kind: str, name: str) -> bool:
    """True iff ``name`` resolves for ``kind`` — a hand builder, a
    well-formed synthesized ``synth/...`` name, or a hierarchical
    ``hier/g<G>`` name."""
    if name in BUILDERS.get(kind, ()):
        return True
    if name.startswith("synth/"):
        from repro.sched.synth import parse_synth_name as parse
    elif name.startswith("hier/"):
        from repro.sched.hier import parse_hier_name as parse
    else:
        return False
    try:
        parse(kind, name)
    except KeyError:
        return False
    return True


@lru_cache(maxsize=1024)
def _build_cached(kind: str, name: str, p: int, n: int,
                  part_sizes: Optional[tuple[int, ...]],
                  root: int) -> Schedule:
    builder = BUILDERS[kind][name]
    part = (Partition(n, part_sizes) if part_sizes is not None
            else Partition(n, (n,)))
    return builder(p, n, part, root)


def build_schedule(kind: str, name: str, p: int, n: int, *,
                   part: Optional[Partition] = None,
                   root: int = 0) -> Schedule:
    """Build (or fetch from cache) one schedule instance.

    ``part`` is the block partition used by the ring/scatter phases
    (obtained from the communicator so the stack's partitioner — the
    paper's optimization C — is respected); whole-vector algorithms
    ignore it.  ``root`` matters for the rooted kinds only.

    ``synth/``-prefixed names resolve through the synthesizer's
    parameterized families (:mod:`repro.sched.synth`) and ``hier/``
    names through the hierarchical builders (:mod:`repro.sched.hier`)
    instead of this registry, so both are reachable wherever a builder
    name is (``algo="synth/..."``, selection tables, the tuned stack).
    """
    if kind not in BUILDERS:
        raise KeyError(
            f"no schedule builders for collective kind {kind!r}; "
            f"known: {sorted(BUILDERS)}")
    if name.startswith("synth/"):
        from repro.sched.synth import build_synth_schedule

        return build_synth_schedule(kind, name, p, n, part=part,
                                    root=root)
    if name.startswith("hier/"):
        from repro.sched.hier import build_hier_schedule

        return build_hier_schedule(kind, name, p, n, part=part,
                                   root=root)
    if name not in BUILDERS[kind]:
        raise KeyError(
            f"unknown {kind} schedule {name!r}; "
            f"known: {builder_names(kind)} plus synthesized "
            f"'synth/...' and hierarchical 'hier/g<G>' names")
    sizes = part.sizes if part is not None else None
    return _build_cached(kind, name, p, n, sizes, root)


def all_schedules(p: int, n: int, *,
                  part: Optional[Partition] = None,
                  root: int = 0,
                  kinds: Sequence[str] = SCHEDULED_KINDS
                  ) -> Iterable[Schedule]:
    """Every builder's schedule of ``kinds`` at one ``(p, n)`` — the
    verifier's sweep."""
    for kind in kinds:
        for name in builder_names(kind):
            yield build_schedule(kind, name, p, n, part=part, root=root)
