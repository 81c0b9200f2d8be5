"""Known-broken schedules the verifier must keep flagging.

Mirrors :mod:`repro.analysis.fixtures` (the sanitizer's bug corpus):
each fixture takes a *correct* builder output and breaks it in one
specific, realistic way — the kind of mistake a hand-edited or
mis-generated schedule would contain.  ``broken_schedules()`` returns
``name -> (schedule, expected_rule)``; the static-checks gate and
``tests/analysis/test_schedverify.py`` assert every fixture still
trips its rule while the shipped repertoire stays clean.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.blocks import standard_partition
from repro.sched.builders import build_schedule
from repro.sched.chunking import (
    build_pipeline_bcast,
    build_pipeline_reduce,
    chunk_schedule,
)
from repro.sched.ir import (
    F_REDUCE,
    F_SEND_FIRST,
    FLAGS,
    IN,
    OP,
    OP_EXCHANGE,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_SEND,
    PHASE,
    RANK,
    RBUF,
    RHI,
    RLO,
    SHI,
    SLO,
    SPEER,
    Schedule,
)

FIXTURE_P = 4
FIXTURE_N = 8


def _base(kind: str, name: str) -> Schedule:
    part = standard_partition(FIXTURE_N, FIXTURE_P)
    return build_schedule(kind, name, FIXTURE_P, FIXTURE_N, part=part)


def _rows_of(sched: Schedule, rank: int, *ops: int):
    """A writable copy of the rows, and the indices of ``rank``'s rows
    with an opcode in ``ops``, in program order."""
    rows = sched.table.rows.copy()
    return rows, np.flatnonzero((rows[:, RANK] == rank)
                                & np.isin(rows[:, OP], ops))


def _all_send_first(sched: Schedule) -> Schedule:
    rows = sched.table.rows.copy()
    rows[rows[:, OP] == OP_EXCHANGE, FLAGS] |= F_SEND_FIRST
    return sched.with_rows(rows)


def all_send_first_ring() -> Tuple[Schedule, str]:
    """Every ring rank sends first: the rendezvous lowering livelocks.

    The seed's odd-even ordering exists exactly to break this cycle
    (``docs/collectives.md``); flipping every rank to ``send_first``
    recreates the classic all-blocking-sends deadlock.
    """
    return _all_send_first(_base("allgather", "ring")), "blocking-deadlock"


def dropped_last_round() -> Tuple[Schedule, str]:
    """Rank 0 stops one ring round early: its block never circulates."""
    sched = _base("allgather", "ring")
    rows = sched.table.rows
    mine = rows[:, RANK] == 0
    last = mine & (rows[:, PHASE] == rows[mine, PHASE].max())
    return sched.with_rows(rows[~last]), "unmatched-send"


def truncated_send() -> Tuple[Schedule, str]:
    """One send interval is a element short of what the receiver posts."""
    sched = _base("allreduce", "recursive_doubling")
    rows, exchanges = _rows_of(sched, 1, OP_EXCHANGE)
    rows[exchanges[0], SHI] -= 1
    return sched.with_rows(rows), "size-mismatch"


def double_fold() -> Tuple[Schedule, str]:
    """An allgather-phase exchange folds instead of overwriting.

    The received block is added onto the block already resident from
    the reduce-scatter phase — every downstream rank then carries that
    contribution twice.
    """
    sched = _base("allreduce", "rsag")
    rows, exchanges = _rows_of(sched, 0, OP_EXCHANGE)
    rows[exchanges[-1], FLAGS] |= F_REDUCE   # the last round overwrites
    return sched.with_rows(rows), "duplicate-contribution"


def misrouted_block() -> Tuple[Schedule, str]:
    """A pairwise exchange ships the wrong input row to its partner."""
    sched = _base("alltoall", "pairwise")
    rows, exchanges = _rows_of(sched, 1, OP_EXCHANGE)
    first = exchanges[0]
    wrong = (rows[first, SPEER] + 1) % FIXTURE_P
    rows[first, SLO:SHI + 1] = wrong * FIXTURE_N, (wrong + 1) * FIXTURE_N
    return sched.with_rows(rows), "unexpected-contribution"


def oob_interval() -> Tuple[Schedule, str]:
    """A receive lands past the end of the work buffer."""
    sched = _base("reduce", "binomial")
    rows, receives = _rows_of(sched, 0, OP_RECV, OP_REDUCE_RECV)
    size = sched.buffers["work"]
    rows[receives[0], RLO:RHI + 1] = size, size + FIXTURE_N
    return sched.with_rows(rows), "interval-oob"


def clobbered_input() -> Tuple[Schedule, str]:
    """A pairwise exchange receives straight into the input matrix."""
    sched = _base("alltoall", "pairwise")
    rows, exchanges = _rows_of(sched, 2, OP_EXCHANGE)
    rows[exchanges[0], RBUF] = IN
    return sched.with_rows(rows), "input-write"


def all_send_first_chunked_ring() -> Tuple[Schedule, str]:
    """The chunk transform must not launder a deadlocking base.

    Same bug as :func:`all_send_first_ring`, introduced *after* the
    transform split every exchange into sub-messages — the verifier has
    to chase the cycle through the chunked rows too.
    """
    return (_all_send_first(chunk_schedule(_base("allgather", "ring"), 2)),
            "blocking-deadlock")


def dropped_chunk_forward() -> Tuple[Schedule, str]:
    """A pipeline interior rank never forwards its last chunk.

    The downstream rank still posts the receive for it — the classic
    off-by-one in a pipelined chain's drain phase.
    """
    part = standard_partition(FIXTURE_N, FIXTURE_P)
    sched = build_pipeline_bcast(FIXTURE_P, FIXTURE_N, part, 0, 2)
    rows, sends = _rows_of(sched, 1, OP_SEND)
    return sched.with_rows(np.delete(rows, sends[-1], axis=0)), \
        "unmatched-recv"


def pipeline_missing_fold() -> Tuple[Schedule, str]:
    """A reduce-chain chunk arrives as a plain receive: no fold.

    The overwrite drops every upstream contribution for that chunk, so
    the root's dataflow postcondition misses operands.
    """
    part = standard_partition(FIXTURE_N, FIXTURE_P)
    sched = build_pipeline_reduce(FIXTURE_P, FIXTURE_N, part, 0, 2)
    rows, folds = _rows_of(sched, 0, OP_REDUCE_RECV)
    rows[folds[0], OP] = OP_RECV
    return sched.with_rows(rows), "missing-contribution"


_FIXTURES: Tuple[Callable[[], Tuple[Schedule, str]], ...] = (
    all_send_first_ring,
    dropped_last_round,
    truncated_send,
    double_fold,
    misrouted_block,
    oob_interval,
    clobbered_input,
    all_send_first_chunked_ring,
    dropped_chunk_forward,
    pipeline_missing_fold,
)


def broken_schedules() -> Dict[str, Tuple[Schedule, str]]:
    """name -> (broken schedule, the rule it must trip)."""
    return {fn.__name__: fn() for fn in _FIXTURES}
