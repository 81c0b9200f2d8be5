"""The schedule IR: a collective algorithm as per-rank lists of typed steps.

Following SCCL's framing (PAPERS.md), an algorithm is *data*: for every
rank, an ordered tuple of steps over intervals of named logical buffers.
Builders (:mod:`repro.sched.builders`) produce schedules; one executor
(:mod:`repro.sched.engine`) lowers them onto any point-to-point stack;
the verifier (:mod:`repro.analysis.schedverify`) checks them statically;
the cost model (:mod:`repro.sched.cost`) prices them for the selector.

A schedule holds its steps in two interconvertible forms: the per-rank
tuples of step objects defined first below (what the executor, the
verifier and the interpreter walk) and the columnar step table defined
after them (what the cost model and the chunking transform read, and
what the O(p^2) builders emit directly).

Conventions every schedule obeys (the verifier enforces them):

* Buffer ``"in"`` holds the rank's input operand, flattened, and is
  **read-only**; buffer ``"work"`` receives the result.  The per-kind
  result extraction is the engine's job (`engine.RESULT_SPECS`).
* Intervals are half-open ``[lo, hi)`` element ranges of a flat buffer.
* Steps on one rank execute in order; cross-rank matching of sends and
  receives is FIFO per ordered ``(src, dst)`` pair.
* ``send_first`` orderings are *baked in* by the builder (odd-even for
  rings, rank comparison for pairwise exchanges) so the blocking RCCE
  lowering is deadlock-free by construction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class Interval:
    """A contiguous element range ``[lo, hi)`` of logical buffer ``buf``."""

    buf: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"bad interval [{self.lo}, {self.hi})")

    @property
    def nels(self) -> int:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"{self.buf}[{self.lo}:{self.hi}]"


@dataclass(frozen=True)
class Send:
    """Blocking-posture send of ``data`` to rank ``peer``.

    Lowered as ``comm.send``: an RCCE rendezvous send on the blocking
    stack, ``isend`` + ``wait`` on the non-blocking ones.
    """

    peer: int
    data: Interval
    round: Optional[int] = None


@dataclass(frozen=True)
class Recv:
    """Blocking-posture receive into ``data`` from rank ``peer``."""

    peer: int
    data: Interval
    round: Optional[int] = None


@dataclass(frozen=True)
class ReduceRecv:
    """Receive a vector from ``peer`` and fold it into ``data``.

    The binomial-tree step: receives into a scratch buffer, charges the
    reduction arithmetic, then stores ``op(data, received)`` into
    ``data`` (in that operand order).
    """

    peer: int
    data: Interval
    round: Optional[int] = None


@dataclass(frozen=True)
class Exchange:
    """A (possibly one-sided) full-duplex exchange — the ring/pairwise step.

    Both-sided: ordered send/recv on the blocking stack per
    ``send_first``; paired ``isend`` + ``irecv`` + one ``wait_all`` on
    the non-blocking ones.  One-sided (scan edges): the single
    operation, completed with ``wait_all`` on the non-blocking stacks.

    With ``reduce`` set the received vector is folded into ``recv``
    (charging the arithmetic only for non-empty blocks, like the ring
    reduce-scatter); ``reversed_fold`` selects ``op(received, local)``
    instead of ``op(local, received)`` — the prefix-scan convention.
    """

    send_peer: Optional[int]
    send: Optional[Interval]
    recv_peer: Optional[int]
    recv: Optional[Interval]
    send_first: bool = True
    reduce: bool = False
    reversed_fold: bool = False
    round: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.send_peer is None) != (self.send is None):
            raise ValueError("send_peer and send must be set together")
        if (self.recv_peer is None) != (self.recv is None):
            raise ValueError("recv_peer and recv must be set together")
        if self.send_peer is None and self.recv_peer is None:
            raise ValueError("exchange with neither side")
        if self.reduce and self.recv is None:
            raise ValueError("reduce exchange needs a receive side")


@dataclass(frozen=True)
class CopyBlock:
    """Local copy ``dst[:] = src``.

    ``charged`` copies pay :meth:`LatencyModel.private_copy_bytes` (the
    pairwise-alltoall self-row); uncharged ones are free
    bookkeeping assignments (operand staging).
    """

    src: Interval
    dst: Interval
    charged: bool = False
    round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.src.nels != self.dst.nels:
            raise ValueError(
                f"copy size mismatch: {self.src} -> {self.dst}")


@dataclass(frozen=True)
class Rotate:
    """Bruck's final rotation: viewing ``buf`` as ``rows`` equal rows,
    store row ``i`` at row ``(shift + i) % rows``.  Charged as one
    private-memory copy of the whole buffer."""

    buf: str
    rows: int
    shift: int
    round: Optional[int] = None


Step = Union[Send, Recv, ReduceRecv, Exchange, CopyBlock, Rotate]

#: Steps that name a communication peer.
COMM_STEPS = (Send, Recv, ReduceRecv, Exchange)


# --------------------------------------------------------------------- #
# Columnar form
# --------------------------------------------------------------------- #
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

#: ``OP`` values, one per step class.  A side a step does not have is
#: ``peer = buf = -1, lo = hi = 0``.  ``Send`` fills the ``S*`` side,
#: ``Recv``/``ReduceRecv`` the ``R*`` side, ``CopyBlock`` both (source
#: in ``S*``, no peers), ``Rotate`` the ``R*`` side with the whole
#: buffer and keeps ``rows``/``shift`` in ``SLO``/``SHI``.
OP_SEND, OP_RECV, OP_REDUCE_RECV, OP_EXCHANGE, OP_COPY, OP_ROTATE = range(6)

#: ``FLAGS`` bits.
F_SEND_FIRST, F_REDUCE, F_REVERSED, F_CHARGED = 1, 2, 4, 8

#: Buffer ids every builder uses (``StepTable.bufs`` order).
IN, WORK = 0, 1


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


def encode_steps(plans: Sequence[Sequence[Step]],
                 buffers: Mapping[str, int]
                 ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Per-rank step lists -> rows (untagged steps get ``PHASE = -1``).

    Buffer ids follow the order of ``buffers``; names outside it
    (hand-made fixtures) are appended to the returned name tuple.
    """
    names = list(buffers)
    ids = {name: i for i, name in enumerate(names)}

    def buf_id(name: str) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    def side(iv: Optional[Interval]) -> tuple[int, int, int]:
        return (-1, 0, 0) if iv is None else (buf_id(iv.buf), iv.lo, iv.hi)

    out = []
    for rank, plan in enumerate(plans):
        for step in plan:
            if step.round is not None and step.round < 0:
                raise ValueError(f"negative round tag on {step!r}")
            head = (rank, -1 if step.round is None else step.round)
            cls = step.__class__
            if cls is Exchange:
                flags = (F_SEND_FIRST * step.send_first
                         | F_REDUCE * step.reduce
                         | F_REVERSED * step.reversed_fold)
                out.append(head + (
                    OP_EXCHANGE,
                    -1 if step.send_peer is None else step.send_peer,
                    *side(step.send),
                    -1 if step.recv_peer is None else step.recv_peer,
                    *side(step.recv), flags))
            elif cls is Send:
                out.append(head + (OP_SEND, step.peer, *side(step.data),
                                   -1, -1, 0, 0, 0))
            elif cls is Recv or cls is ReduceRecv:
                op = OP_RECV if cls is Recv else OP_REDUCE_RECV
                out.append(head + (op, -1, -1, 0, 0, step.peer,
                                   *side(step.data), 0))
            elif cls is CopyBlock:
                out.append(head + (OP_COPY, -1, *side(step.src), -1,
                                   *side(step.dst),
                                   F_CHARGED * step.charged))
            elif cls is Rotate:
                out.append(head + (OP_ROTATE, -1, -1, step.rows,
                                   step.shift, -1, buf_id(step.buf), 0,
                                   buffers.get(step.buf, 0), 0))
            else:
                raise TypeError(f"unknown schedule step {step!r}")
    rows = np.array(out, dtype=np.int64).reshape(-1, NCOLS)
    return rows, tuple(names)


def make_table(blocks: Sequence[np.ndarray],
               bufs: Sequence[str] = ("in", "work")) -> StepTable:
    """Assemble row blocks, given in program order, into a table.

    Rows are stably sorted by rank (so each rank keeps the block order)
    and negative phases are resolved to ``PRE``/``POST``.
    """
    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    rows = rows[np.argsort(rows[:, RANK], kind="stable")]
    tagged = rows[:, PHASE] >= 0
    seen = np.cumsum(tagged)
    first = np.searchsorted(rows[:, RANK], rows[:, RANK])
    seen_on_rank = seen - (seen[first] - tagged[first])
    rows[:, PHASE] = np.where(tagged, rows[:, PHASE],
                              np.where(seen_on_rank > 0, POST, PRE))
    rows.setflags(write=False)
    return StepTable(rows, tuple(bufs))


def decode_row(row: Sequence[int], bufs: Sequence[str],
               intern: dict) -> Step:
    """One table row (as a sequence of ints) -> its step object;
    ``intern`` collects the :class:`Interval` objects to share."""
    (_, phase, op, speer, sbuf, slo, shi,
     rpeer, rbuf, rlo, rhi, flags) = row
    rnd = phase if phase >= 0 else None

    def side(buf: int, lo: int, hi: int) -> Optional[Interval]:
        if buf < 0:
            return None
        iv = intern.get((buf, lo, hi))
        if iv is None:
            iv = intern[buf, lo, hi] = Interval(bufs[buf], lo, hi)
        return iv

    if op == OP_EXCHANGE:
        return Exchange(
            speer if speer >= 0 else None, side(sbuf, slo, shi),
            rpeer if rpeer >= 0 else None, side(rbuf, rlo, rhi),
            bool(flags & F_SEND_FIRST), bool(flags & F_REDUCE),
            bool(flags & F_REVERSED), rnd)
    if op == OP_SEND:
        return Send(speer, side(sbuf, slo, shi), rnd)
    if op == OP_RECV:
        return Recv(rpeer, side(rbuf, rlo, rhi), rnd)
    if op == OP_REDUCE_RECV:
        return ReduceRecv(rpeer, side(rbuf, rlo, rhi), rnd)
    if op == OP_COPY:
        return CopyBlock(side(sbuf, slo, shi), side(rbuf, rlo, rhi),
                         bool(flags & F_CHARGED), rnd)
    if op == OP_ROTATE:
        return Rotate(bufs[rbuf], slo, shi, rnd)
    raise TypeError(f"unknown opcode {op} in schedule table")


def decode_table(table: StepTable, p: int) -> tuple[tuple[Step, ...], ...]:
    """A table -> per-rank step tuples, with shared :class:`Interval`s."""
    plans: list[list[Step]] = [[] for _ in range(p)]
    intern: dict = {}
    for row in table.rows.tolist():
        plans[row[RANK]].append(decode_row(row, table.bufs, intern))
    return tuple(tuple(plan) for plan in plans)


@dataclass(frozen=True)
class Schedule:
    """A complete per-rank schedule for one collective instance.

    ``buffers`` maps logical buffer names to flat element counts (the
    same on every rank).  ``meta`` carries whatever the result
    extraction and the verifier need: ``root``, the partition block
    sizes, the allgather row count.

    The steps exist in two interconvertible forms, each derived from
    the other on first access and then kept: ``plans[r]`` is rank
    ``r``'s tuple of step objects (what the executor, the verifier and
    the interpreter walk); ``table`` is the columnar :class:`StepTable`
    (what the cost model and the chunking transform read).  Construct
    from plans as before, or with :meth:`from_table`.
    """

    kind: str
    name: str
    p: int
    n: int
    buffers: Mapping[str, int]
    plans: tuple[tuple[Step, ...], ...]
    meta: Mapping[str, object] = field(default_factory=dict)
    # Not an init field: ``dataclasses.replace(sched, plans=...)`` must
    # re-derive the table from the new plans, never inherit the old one.
    table: StepTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.plans is None:
            object.__delattr__(self, "plans")   # from_table sets ``table``
        elif len(self.plans) != self.p:
            raise ValueError(
                f"schedule has {len(self.plans)} plans for p={self.p}")

    @classmethod
    def from_table(cls, kind: str, name: str, p: int, n: int,
                   buffers: Mapping[str, int], table: StepTable,
                   meta: Optional[Mapping[str, object]] = None
                   ) -> "Schedule":
        sched = cls(kind, name, p, n, buffers, None,  # type: ignore[arg-type]
                    meta if meta is not None else {})
        object.__setattr__(sched, "table", table)
        return sched

    def __getattr__(self, attr: str):
        # Reached only while ``attr`` is not in the instance dict yet.
        if attr == "table":
            if "plans" not in self.__dict__:
                raise ValueError("schedule has neither plans nor a table")
            rows, bufs = encode_steps(self.plans, self.buffers)
            value: object = make_table([rows], bufs)
        elif attr == "plans":
            value = decode_table(self.table, self.p)
        elif attr == "digest":
            table = self.table
            # An in-process memo key (sched.cost), never written out.
            # repro-lint: allow=salted-hash
            value = hash((table.rows.tobytes(), table.bufs))
        else:
            raise AttributeError(attr)
        object.__setattr__(self, attr, value)
        return value

    def renamed(self, name: str) -> "Schedule":
        """The same schedule under another name, sharing both forms."""
        clone = copy.copy(self)
        object.__setattr__(clone, "name", name)
        return clone

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
