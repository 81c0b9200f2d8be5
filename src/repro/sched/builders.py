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

Every phase is emitted as table rows (``docs/schedules.md``): the
O(p^2) phases (rings, pairwise alltoall) as numpy broadcasts over a
``(rank, round)`` grid, the O(p log p) tree phases as plain int tuples
collected into one array per phase.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.blocks import Partition
from repro.sched.ir import (
    F_CHARGED,
    F_REDUCE,
    F_REVERSED,
    F_SEND_FIRST,
    IN,
    NCOLS,
    OP_COPY,
    OP_EXCHANGE,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_ROTATE,
    OP_SEND,
    WORK,
    Schedule,
    make_table,
    step_rows,
)


def _largest_pow2_below(p: int) -> int:
    pow2 = 1
    while pow2 * 2 <= p:
        pow2 *= 2
    return pow2


def _pair_send_first(me: int, partner: int) -> int:
    """Rank-comparison rule: the deadlock-free order of a symmetric
    pairwise exchange on the blocking stack."""
    return F_SEND_FIRST * (me < partner)


def _init_copy_rows(ranks, n: int, work_lo=0) -> np.ndarray:
    """The free ``acc = sendbuf.copy()`` staging assignment for every
    rank in ``ranks``."""
    return step_rows(ranks, -1, OP_COPY, sbuf=IN, shi=n,
                     rbuf=WORK, rlo=work_lo, rhi=np.add(work_lo, n))


# --------------------------------------------------------------------- #
# Untagged rows over buffer ``work``, as plain tuples (the tree phases)
# --------------------------------------------------------------------- #
def _send(me: int, peer: int, lo: int, hi: int) -> tuple:
    return (me, -1, OP_SEND, peer, WORK, lo, hi, -1, -1, 0, 0, 0)


def _recv(me: int, peer: int, lo: int, hi: int, op: int = OP_RECV) -> tuple:
    return (me, -1, op, -1, -1, 0, 0, peer, WORK, lo, hi, 0)


def _exchange(me: int, speer: int, send: tuple[int, int], rpeer: int,
              recv: tuple[int, int], flags: int) -> tuple:
    """Send ``work[send]`` to ``speer`` while receiving ``work[recv]``
    from ``rpeer``; a peer of ``-1`` leaves that side out."""
    return (me, -1, OP_EXCHANGE,
            *((speer, WORK, *send) if speer >= 0 else (-1, -1, 0, 0)),
            *((rpeer, WORK, *recv) if rpeer >= 0 else (-1, -1, 0, 0)),
            flags)


def _block(rows: list) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, NCOLS)


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
def _binomial_reduce_rows(members: Sequence[int], root_idx: int,
                          n: int) -> np.ndarray:
    """Whole-vector binomial reduction tree over ``members`` (ranks, in
    tree order) to ``members[root_idx]``.  Virtual rank ``v`` is
    ``members[(v + root_idx) % m]``: ``range(p)`` gives the flat tree,
    ``range(lo, hi)`` a group's, a leader list the hierarchical leader
    phase (:mod:`repro.sched.hier`)."""
    rows = []
    m = len(members)
    for vrank in range(m):
        me = members[(vrank + root_idx) % m]
        mask = 1
        while mask < m:
            if vrank & mask:
                rows.append(_send(
                    me, members[(vrank - mask + root_idx) % m], 0, n))
                break
            src_v = vrank | mask
            if src_v < m:
                rows.append(_recv(me, members[(src_v + root_idx) % m], 0, n,
                                  OP_REDUCE_RECV))
            mask <<= 1
    return _block(rows)


def _binomial_bcast_rows(members: Sequence[int], root_idx: int,
                         n: int) -> np.ndarray:
    """Whole-vector binomial broadcast tree from ``members[root_idx]``
    (member addressing as in :func:`_binomial_reduce_rows`)."""
    rows = []
    m = len(members)
    for vrank in range(m):
        me = members[(vrank + root_idx) % m]
        mask = 1
        while mask < m:
            if vrank & mask:
                rows.append(_recv(
                    me, members[(vrank - mask + root_idx) % m], 0, n))
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < m:
                rows.append(_send(
                    me, members[(vrank + mask + root_idx) % m], 0, n))
            mask >>= 1
    return _block(rows)


def _binomial_scatter_rows(p: int, root: int, part: Partition) -> np.ndarray:
    """Binomial scatter of partition blocks in root-relative vrank
    space: the subtree of vrank ``v`` reached with mask ``m`` covers
    blocks ``[v, min(v + m, p))``, a contiguous element range."""
    rows = []
    offsets = part.offsets
    for vrank in range(p):
        me = (vrank + root) % p
        mask = 1
        extent = p
        while mask < p:
            if vrank & mask:
                extent = min(mask, p - vrank)
                rows.append(_recv(me, (vrank - mask + root) % p,
                                  offsets[vrank], offsets[vrank + extent]))
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if mask < extent:
                dst_v = vrank + mask
                rows.append(_send(me, (dst_v + root) % p, offsets[dst_v],
                                  offsets[vrank + extent]))
                extent = mask
            mask >>= 1
    return _block(rows)


def _binomial_gather_rows(p: int, root: int, part: Partition) -> np.ndarray:
    """Binomial gather of partition blocks to ``root`` (the scatter's
    mirror: subtrees hand up contiguous vrank ranges)."""
    rows = []
    offsets = part.offsets
    for vrank in range(p):
        me = (vrank + root) % p
        extent = 1
        mask = 1
        while mask < p:
            if vrank & mask:
                rows.append(_send(me, (vrank - mask + root) % p,
                                  offsets[vrank], offsets[vrank + extent]))
                break
            src_v = vrank + mask
            if src_v < p:
                src_extent = min(mask, p - src_v)
                rows.append(_recv(me, (src_v + root) % p, offsets[src_v],
                                  offsets[src_v + src_extent]))
                extent += src_extent
            mask <<= 1
    return _block(rows)


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
    return Schedule(
        "allreduce", "rsag", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": 0})


def build_reduce_bcast_allreduce(p: int, n: int, part: Partition,
                                 root: int) -> Schedule:
    """Binomial Reduce to rank 0 + binomial Broadcast (short vectors)."""
    return Schedule("allreduce", "reduce_bcast", p, n, {"in": n, "work": n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _binomial_reduce_rows(range(p), 0, n),
                                _binomial_bcast_rows(range(p), 0, n)]),
                    {"root": 0})


def _fold_in_rows(members: Sequence[int], pow2: int, n: int) -> list:
    """Non-power-of-two prologue: members at index ``>= pow2`` hand
    their vector to the member ``pow2`` places down and go passive."""
    return [row for passive, active in zip(members[pow2:], members)
            for row in (_send(passive, active, 0, n),
                        _recv(active, passive, 0, n, OP_REDUCE_RECV))]


def _fold_out_rows(members: Sequence[int], pow2: int, n: int) -> list:
    """Mirror of :func:`_fold_in_rows`: results back to the passives."""
    return [row for passive, active in zip(members[pow2:], members)
            for row in (_recv(passive, active, 0, n),
                        _send(active, passive, 0, n))]


def _recursive_doubling_rows(members: Sequence[int], n: int) -> np.ndarray:
    """Fold-in, log2 full-vector exchange rounds among the first
    power-of-two members, fold-out."""
    pow2 = _largest_pow2_below(len(members))
    rows = _fold_in_rows(members, pow2, n)
    for idx in range(pow2):
        me = members[idx]
        mask = 1
        while mask < pow2:
            partner = members[idx ^ mask]
            rows.append(_exchange(
                me, partner, (0, n), partner, (0, n),
                F_REDUCE | _pair_send_first(me, partner)))
            mask <<= 1
    return _block(rows + _fold_out_rows(members, pow2, n))


def build_recursive_doubling_allreduce(p: int, n: int, part: Partition,
                                       root: int) -> Schedule:
    """log2(p) full-vector exchange rounds: latency-optimal for short
    vectors, bandwidth-hungry for long ones."""
    return Schedule("allreduce", "recursive_doubling", p, n,
                    {"in": n, "work": n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _recursive_doubling_rows(range(p), n)]),
                    {"root": 0})


def build_recursive_halving_allreduce(p: int, n: int, part: Partition,
                                      root: int) -> Schedule:
    """Rabenseifner: recursive-halving reduce-scatter + recursive-
    doubling allgather."""
    pow2 = _largest_pow2_below(p)
    rows = _fold_in_rows(range(p), pow2, n)
    for me in range(pow2):
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
            rows.append(_exchange(
                me, partner, give, partner, keep,
                F_REDUCE | _pair_send_first(me, partner)))
            lo, hi = keep
            mask >>= 1
        mask = 1
        for elo, ehi in reversed(levels):
            partner = me ^ mask
            mid = elo + (ehi - elo) // 2
            theirs = (mid, ehi) if (lo, hi) == (elo, mid) else (elo, mid)
            rows.append(_exchange(me, partner, (lo, hi), partner, theirs,
                                  _pair_send_first(me, partner)))
            lo, hi = elo, ehi
            mask <<= 1
    rows += _fold_out_rows(range(p), pow2, n)
    return Schedule("allreduce", "recursive_halving", p, n,
                    {"in": n, "work": n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _block(rows)]), {"root": 0})


# --------------------------------------------------------------------- #
# Reduce builders
# --------------------------------------------------------------------- #
def build_binomial_reduce(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    return Schedule("reduce", "binomial", p, n, {"in": n, "work": n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _binomial_reduce_rows(range(p), root, n)]),
                    {"root": root})


def build_rsg_reduce(p: int, n: int, part: Partition,
                     root: int) -> Schedule:
    """RCCE_comm's long-vector Reduce: ring ReduceScatter (blocks
    labelled in root-relative vrank space) + binomial gather."""
    blocks = [_init_copy_rows(np.arange(p), n)]
    if p > 1:
        blocks += [_ring_reduce_scatter_rows(p, part, shift=root),
                   _binomial_gather_rows(p, root, part)]
    return Schedule(
        "reduce", "rsg", p, n, {"in": n, "work": n},
        make_table(blocks), {"part_sizes": part.sizes, "root": root})


# --------------------------------------------------------------------- #
# Broadcast builders
# --------------------------------------------------------------------- #
def build_binomial_bcast(p: int, n: int, part: Partition,
                         root: int) -> Schedule:
    return Schedule("bcast", "binomial", p, n, {"in": n, "work": n},
                    make_table([_init_copy_rows(root, n),
                                _binomial_bcast_rows(range(p), root, n)]),
                    {"root": root})


def build_scatter_allgather_bcast(p: int, n: int, part: Partition,
                                  root: int) -> Schedule:
    """RCCE_comm's long-message Broadcast: binomial scatter of blocks +
    ring allgather."""
    blocks = [_init_copy_rows(root, n)]
    if p > 1:
        blocks += [_binomial_scatter_rows(p, root, part),
                   _ring_allgather_blocks_rows(p, part, shift=root)]
    return Schedule(
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
    return Schedule(
        "allgather", "ring", p, n, {"in": n, "work": p * n},
        make_table(blocks), {"rows": p, "root": 0})


def build_bruck_allgather(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    """Bruck: ceil(log2 p) rounds with doubling block counts over
    local-index rows, then the final local rotation (viewing ``work``
    as ``p`` rows, row ``i`` goes to row ``(me + i) % p``; charged as
    one private-memory copy of the whole buffer)."""
    rows = []
    for me in range(p):
        have, distance = 1, 1
        while have < p:
            count = min(have, p - have)
            dst = (me - distance) % p
            rows.append(_exchange(
                me, dst, (0, count * n), (me + distance) % p,
                (have * n, (have + count) * n), _pair_send_first(me, dst)))
            have += count
            distance <<= 1
        rows.append((me, -1, OP_ROTATE, -1, -1, p, me,
                     -1, WORK, 0, p * n, 0))
    return Schedule("allgather", "bruck", p, n,
                    {"in": n, "work": p * n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _block(rows)]), {"rows": p, "root": 0})


# --------------------------------------------------------------------- #
# ReduceScatter / Alltoall / Scan builders
# --------------------------------------------------------------------- #
def build_ring_reduce_scatter(p: int, n: int, part: Partition,
                              root: int) -> Schedule:
    blocks = [_init_copy_rows(np.arange(p), n)]
    if p > 1:
        blocks.append(_ring_reduce_scatter_rows(p, part))
    return Schedule(
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
    return Schedule(
        "alltoall", "pairwise", p, n, {"in": p * n, "work": p * n},
        make_table([rows]), {"rows": p, "root": 0})


def _scan_rows(p: int, n: int) -> list:
    """Recursive-doubling prefix rounds (Hillis-Steele over ranks): in
    round k rank ``me`` folds in the partial prefix of ``me - 2^k``.
    Every edge points upward, so send-then-receive is cycle-free on the
    blocking stack; the fold order is ``op(received, local)``."""
    rows = []
    for me in range(p):
        stride = 1
        while stride < p:
            up = me + stride if me + stride < p else -1
            down = me - stride
            if up >= 0 or down >= 0:
                rows.append(_exchange(
                    me, up, (0, n), down, (0, n),
                    F_SEND_FIRST | F_REVERSED | F_REDUCE * (down >= 0)))
            stride <<= 1
    return rows


def build_recursive_doubling_scan(p: int, n: int, part: Partition,
                                  root: int) -> Schedule:
    """Inclusive prefix reduction in ceil(log2 p) rounds."""
    return Schedule("scan", "recursive_doubling", p, n,
                    {"in": n, "work": n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _block(_scan_rows(p, n))]), {"root": 0})


# --------------------------------------------------------------------- #
# Kinds with one fixed algorithm: Exscan, Scatter(v), Gather(v)
# --------------------------------------------------------------------- #
def build_exscan(p: int, n: int, part: Partition, root: int) -> Schedule:
    """Exclusive prefix: the inclusive scan over ``work[0:n]``, then every
    rank hands its prefix to ``me + 1``, which receives it into
    ``work[n:2n]`` (rank 0's result is undefined, MPI-style)."""
    hand_down = [] if p == 1 else [
        _exchange(me, me + 1 if me + 1 < p else -1, (0, n),
                  me - 1, (n, 2 * n), F_SEND_FIRST)
        for me in range(p)]
    return Schedule("exscan", "recursive_doubling", p, n,
                    {"in": n, "work": 2 * n},
                    make_table([_init_copy_rows(np.arange(p), n),
                                _block(_scan_rows(p, n) + hand_down)]),
                    {"root": 0})


def build_binomial_scatter(p: int, n: int, part: Partition,
                           root: int) -> Schedule:
    """Scatter(v): the root stages its vector, the tree hands every
    vrank its block of ``part`` (any block sizes, empty ones included)."""
    return Schedule("scatter", "binomial", p, n, {"in": n, "work": n},
                    make_table([_init_copy_rows(root, n),
                                _binomial_scatter_rows(p, root, part)]),
                    {"part_sizes": part.sizes, "root": root})


def build_binomial_gather(p: int, n: int, part: Partition,
                          root: int) -> Schedule:
    """Gather(v): rank ``me`` holds block ``vrank(me)`` of ``part`` at
    its place in ``in``; the tree assembles the vector at ``root``."""
    offsets = np.asarray(part.offsets)
    own = (np.arange(p) - root) % p
    staged = step_rows(np.arange(p), -1, OP_COPY,
                       sbuf=IN, slo=offsets[own], shi=offsets[own + 1],
                       rbuf=WORK, rlo=offsets[own], rhi=offsets[own + 1])
    return Schedule("gather", "binomial", p, n, {"in": n, "work": n},
                    make_table([staged,
                                _binomial_gather_rows(p, root, part)]),
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
