"""The schedule IR: a collective algorithm as one table of step rows.

Following SCCL's framing (PAPERS.md), an algorithm is *data*: a flat
relation with one row per step — which rank runs it, in which round,
what it does, and the element ranges of named logical buffers it sends
from and receives into.  Builders (:mod:`repro.sched.builders`) produce
schedules; one executor (:mod:`repro.sched.engine`) lowers them onto any
point-to-point stack; the verifier (:mod:`repro.analysis.schedverify`)
checks them statically; the cost model (:mod:`repro.sched.cost`) prices
them for the selector.  All of them read the same ``(N, 12)`` int64
array, whole (vector passes) or row by row (:class:`StepRow`).

Conventions every schedule obeys (the verifier enforces them):

* Buffer ``"in"`` holds the rank's input operand, flattened, and is
  **read-only**; buffer ``"work"`` receives the result.  The per-kind
  result extraction is the engine's job (``engine.run_schedule``).
* Intervals are half-open ``[lo, hi)`` element ranges of a flat buffer.
* Steps on one rank execute in order; cross-rank matching of sends and
  receives is FIFO per ordered ``(src, dst)`` pair.
* ``send_first`` orderings are *baked in* by the builder (odd-even for
  rings, rank comparison for pairwise exchanges) so the blocking RCCE
  lowering is deadlock-free by construction.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

#: Column indices of a step table: one int64 row per step, rows grouped
#: by ascending rank, program order within a rank.
(RANK, PHASE, OP, SPEER, SBUF, SLO, SHI,
 RPEER, RBUF, RLO, RHI, FLAGS) = range(12)
NCOLS = 12

#: The two sides of a row, as (peer, buf, lo, hi) column indices.
SIDES = ((SPEER, SBUF, SLO, SHI), (RPEER, RBUF, RLO, RHI))

#: ``PHASE`` holds the step's round tag (``>= 0``) or, for untagged
#: steps, whether the rank has seen a tagged step yet (the BSP cost
#: model's prologue/epilogue buckets).
PRE, POST = -1, -2

#: ``OP`` values.  The first four are the *communication* rows
#: (``op <= OP_EXCHANGE``): whatever the opcode, data leaves from the
#: ``S*`` side towards ``speer`` and arrives in the ``R*`` side from
#: ``rpeer``; a side a row does not have is ``peer = buf = -1, lo = hi =
#: 0``.  A send row has only the ``S*`` side, a receive / folding
#: receive row only the ``R*`` side, an exchange either or both.  The
#: two local rows name no peer: a copy reads ``S*`` and writes ``R*``;
#: a rotation views the whole buffer in ``R*`` as ``slo`` equal rows and
#: stores row ``i`` at row ``(shi + i) % slo``.
OP_SEND, OP_RECV, OP_REDUCE_RECV, OP_EXCHANGE, OP_COPY, OP_ROTATE = range(6)
OP_NAMES = ("send", "recv", "reduce_recv", "exchange", "copy", "rotate")

#: ``FLAGS`` bits.  Exchanges: ``F_SEND_FIRST`` is the blocking-stack
#: order of the two sides, ``F_REDUCE`` folds the received vector into
#: the ``R*`` interval instead of overwriting it, ``F_REVERSED`` folds as
#: ``op(received, local)`` (the prefix-scan convention) instead of
#: ``op(local, received)``.  Copies: ``F_CHARGED`` pays the private-
#: memory copy; uncharged ones are free operand staging.
F_SEND_FIRST, F_REDUCE, F_REVERSED, F_CHARGED = 1, 2, 4, 8

#: Buffer ids every builder uses (``StepTable.bufs`` order).
IN, WORK = 0, 1


class StepRow(NamedTuple):
    """One step: a read-only view of one table row, fields = columns.

    The defaults are those of :func:`step_rows`, so a hand-written row
    names only the side(s) it has.
    """

    rank: int
    phase: int
    op: int
    speer: int = -1
    sbuf: int = -1
    slo: int = 0
    shi: int = 0
    rpeer: int = -1
    rbuf: int = -1
    rlo: int = 0
    rhi: int = 0
    flags: int = 0

    @property
    def round(self) -> Optional[int]:
        """The builder's round tag, ``None`` on untagged steps."""
        return self.phase if self.phase >= 0 else None


class StepTable(NamedTuple):
    """A schedule's steps as one read-only ``(N, NCOLS)`` int64 array."""

    rows: np.ndarray
    bufs: tuple[str, ...] = ("in", "work")   # buffer id -> name


def step_rows(rank, phase, op, *, speer=-1, sbuf=-1, slo=0, shi=0,
              rpeer=-1, rbuf=-1, rlo=0, rhi=0, flags=0) -> np.ndarray:
    """Broadcast the column values against each other and stack them
    into ``(N, NCOLS)`` rows, in C order of the broadcast shape — a
    ``(rank, round)`` grid comes out rank-major."""
    cols = np.broadcast_arrays(rank, phase, op, speer, sbuf, slo, shi,
                               rpeer, rbuf, rlo, rhi, flags)
    return np.stack(cols, axis=-1, dtype=np.int64).reshape(-1, NCOLS)


def make_table(blocks: Sequence[np.ndarray],
               bufs: Sequence[str] = ("in", "work")) -> StepTable:
    """Assemble row blocks, given in program order, into a table.

    Rows are stably sorted by rank (so each rank keeps the block order)
    and the phases of untagged rows (``PRE`` or ``POST``, either will
    do) are resolved to the one their position makes them.
    """
    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    rows = rows[np.argsort(rows[:, RANK], kind="stable")]
    _reject(rows, rows[:, PHASE] < POST, "negative round tag")
    tagged = rows[:, PHASE] >= 0
    seen = np.cumsum(tagged)
    first = np.searchsorted(rows[:, RANK], rows[:, RANK])
    seen_on_rank = seen - (seen[first] - tagged[first])
    rows[:, PHASE] = np.where(tagged, rows[:, PHASE],
                              np.where(seen_on_rank > 0, POST, PRE))
    rows.setflags(write=False)
    return StepTable(rows, tuple(bufs))


def _reject(rows: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise for the first row of mask ``bad``, naming rank and step."""
    if bad.any():
        i = int(np.argmax(bad))
        rank = int(rows[i, RANK])
        step = i - int(np.searchsorted(rows[:, RANK], rank))
        raise ValueError(f"rank {rank} step {step}: {what} in "
                         f"{StepRow(*rows[i].tolist())}")


def _check_table(table: StepTable, p: int) -> None:
    """The invariants every consumer relies on, once per schedule."""
    rows = table.rows
    if rows.ndim != 2 or rows.shape[1] != NCOLS or rows.dtype != np.int64:
        raise ValueError(f"step table must be (N, {NCOLS}) int64, got "
                         f"{rows.dtype}{rows.shape}")
    cols = np.ascontiguousarray(rows.T)   # a dozen passes: make them cheap
    rank, op, flags = cols[RANK], cols[OP], cols[FLAGS]
    if (rank[1:] < rank[:-1]).any():
        raise ValueError("step table rows are not grouped by ascending rank")
    _reject(rows, (rank < 0) | (rank >= p), f"rank outside 0..{p - 1}")
    _reject(rows, cols[PHASE] < POST, "negative round tag")
    _reject(rows, (op < 0) | (op > OP_ROTATE), "unknown opcode")
    comm = op <= OP_EXCHANGE
    has = []
    for (peer, buf, lo, hi), side in zip(SIDES, ("send", "receive")):
        here = cols[buf] >= 0
        has.append(here)
        _reject(rows, cols[buf] >= len(table.bufs),
                f"unknown {side} buffer id")
        _reject(rows, here & ((cols[lo] < 0) | (cols[hi] < cols[lo])),
                f"bad {side} interval")
        _reject(rows, np.where(comm, (cols[peer] >= 0) != here,
                               cols[peer] >= 0),
                f"{side} peer and interval must be set together "
                f"(and only on communication rows)")
    sends, receives = has
    _reject(rows, comm & ~sends & ~receives, "exchange with neither side")
    _reject(rows, (op == OP_SEND) & receives, "send row with a receive side")
    _reject(rows, ((op == OP_RECV) | (op == OP_REDUCE_RECV)) & sends,
            "receive row with a send side")
    _reject(rows, ((flags & F_REDUCE) > 0) & ~receives,
            "reduce without a receive side")
    _reject(rows, (op == OP_COPY)
            & (~sends | ~receives
               | (cols[SHI] - cols[SLO] != cols[RHI] - cols[RLO])),
            "copy size mismatch")
    _reject(rows, (op == OP_ROTATE) & ~receives, "rotation without a buffer")


@dataclass(frozen=True, eq=False)
class Schedule:
    """A complete per-rank schedule for one collective instance.

    ``buffers`` maps logical buffer names to flat element counts (the
    same on every rank).  ``meta`` carries whatever the result
    extraction and the verifier need: ``root``, the partition block
    sizes, the allgather row count.  ``table`` is the only stored form
    of the steps; construction checks it once (:class:`ValueError`
    naming the rank and step of the first malformed row).
    """

    kind: str
    name: str
    p: int
    n: int
    buffers: Mapping[str, int]
    table: StepTable
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_table(self.table, self.p)

    @cached_property
    def _cuts(self) -> list[int]:
        """``_cuts[r]:_cuts[r + 1]`` are rank ``r``'s rows."""
        return np.searchsorted(self.table.rows[:, RANK],
                               np.arange(self.p + 1)).tolist()

    def rank_rows(self, rank: int) -> list[StepRow]:
        """Rank ``rank``'s rows in program order, as :class:`StepRow`
        views — built from the table on every call, never stored."""
        rows = self.table.rows[self._cuts[rank]:self._cuts[rank + 1]]
        return list(map(StepRow._make, rows.tolist()))

    @property
    def plans(self) -> list[list[StepRow]]:
        """:meth:`rank_rows` for every rank (bind it once: each access
        builds the whole view)."""
        return [self.rank_rows(rank) for rank in range(self.p)]

    @cached_property
    def digest(self) -> int:
        """An in-process memo key (sched.cost), never written out."""
        # repro-lint: allow=salted-hash
        return hash((self.table.rows.tobytes(), self.table.bufs))

    def renamed(self, name: str) -> "Schedule":
        """The same schedule under another name, sharing the table."""
        clone = copy.copy(self)
        object.__setattr__(clone, "name", name)
        return clone

    def with_rows(self, rows) -> "Schedule":
        """This schedule over other rows (a mutated copy of
        ``table.rows``, a list of :class:`StepRow`) — how the broken
        fixtures are derived from correct builder output."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, NCOLS)
        return dataclasses.replace(
            self, table=make_table([rows], self.table.bufs))

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}"

    @property
    def rounds(self) -> int:
        """Distinct round tags: k of the k-synchronous schedule."""
        phase = self.table.rows[:, PHASE]
        return len(np.unique(phase[phase >= 0]))

    def total_steps(self) -> int:
        return len(self.table.rows)
