"""Analytic schedule pricing for the algorithm selector.

The simulator gives exact virtual times, but pricing every candidate
schedule through a full SPMD run per ``(kind, p, n)`` point would make
tuning as expensive as the benchmark sweeps themselves.  Instead the
selector uses a BSP-style estimate over the builder's round tags:

* every message is priced through the *real* memoized
  :class:`~repro.hw.timing.LatencyModel` (MPB write + flag handshake +
  MPB read, at the actual core-to-core distances of the rank placement);
* within a round each rank's step costs add up; the round costs the
  **maximum** over ranks (the tightly coupled algorithms synchronize
  every round, so the slowest rank paces it);
* rounds add up along the schedule, plus the untagged prologue steps
  (operand staging) and epilogue steps (Bruck's rotation).

This deliberately ignores cross-round pipelining skew — it is a *ranking
heuristic*, not the simulator, and ``tests/sched/test_select.py`` holds
it only to ordering the repertoire sensibly (trees beat rings for short
vectors, reduce-scatter pipelines beat trees for long ones), never to
matching simulated latencies.

The analytic benchmark engine (:mod:`repro.bench.analytic`) reuses the
same estimator but additionally charges the per-call *software* costs the
simulator models — the calibrated library-call cycles that differentiate
the blocking, iRCCE and lightweight stacks on identical hardware.  Those
enter through the optional :class:`SoftwareOverhead` parameter; with the
default ``overhead=None`` every function below behaves exactly as before
(the selection tables and the ``tuned`` stack are unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.hw.timing import LatencyModel, pair_classes
from repro.sched.ir import (
    F_CHARGED,
    F_REDUCE,
    FLAGS,
    OP,
    OP_COPY,
    OP_EXCHANGE,
    OP_REDUCE_RECV,
    PHASE,
    RANK,
    SIDES,
    Schedule,
)

#: The paper's element type: IEEE doubles.
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class SoftwareOverhead:
    """Per-call software costs (picoseconds) of one point-to-point stack.

    ``send_ps``/``recv_ps`` are charged per send and receive side of a
    communication row — for the blocking
    stack these are the RCCE send/recv call cycles, for the non-blocking
    stacks the issue + completion cycles of one request.  ``call_ps`` is
    the collective-layer entry cost, charged once per schedule by
    :func:`estimate_schedule_cost`.

    The selector passes ``overhead=None`` (all-zero, the historical
    behavior); the analytic benchmark engine builds one instance per
    stack from the machine's :class:`~repro.hw.config.SCCConfig` — see
    :func:`repro.bench.analytic.stack_overhead`.
    """

    send_ps: int = 0
    recv_ps: int = 0
    call_ps: int = 0


def message_cost(model: LatencyModel, src: int, dst: int,
                 nels: int) -> int:
    """Price one ``src -> dst`` vector transfer (picoseconds).

    One hop through the sender's MPB: the sender stages the payload into
    its own buffer and raises the receiver's flag; the receiver notices
    and pulls the payload across the mesh.  Zero-length vectors still
    pay the flag handshake — the protocol runs regardless, which is why
    the empty-block ring steps are not free.

    The composed cost is memoized in the per-erratum-level latency table
    of the model's configuration (like every primitive it is built
    from), so ``invalidate()`` and the fault injector's erratum toggle
    stay correct: pricing a full
    pairwise-alltoall schedule touches thousands of (src, dst) pairs and
    the four-primitive recomputation dominates the analytic engine's
    wall-clock otherwise.
    """
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("msgcost", src, dst, nels)
        value = memo.get(key)
        if value is not None:
            return value
    nbytes = nels * ELEMENT_BYTES
    value = (model.mpb_write_bytes(src, src, nbytes)
             + model.flag_write(src, dst)
             + model.flag_notify(dst, src)
             + model.mpb_read_bytes(dst, src, nbytes))
    if memo is not None:
        memo[key] = value
    return value


def handshake_cost(model: LatencyModel, src: int, dst: int) -> int:
    """The back-channel half of the Fig.-3 flag protocol (picoseconds).

    :func:`message_cost` prices the *forward* path only (payload staging,
    sent-flag raise, the receiver's successful poll, payload drain) —
    enough to rank schedules.  The simulated protocol additionally
    clears the sent flag (receiver, local MPB), raises the ready flag
    (receiver -> sender's MPB), polls it (sender, local) and clears it
    (sender, local).  The analytic engine adds these four flag
    operations per message so its estimates track simulated latencies
    instead of merely ordering them.
    """
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("hscost", src, dst)
        value = memo.get(key)
        if value is not None:
            return value
    value = (model.flag_write(dst, dst)       # sent.clear
             + model.flag_write(dst, src)     # ready.set
             + model.flag_notify(src, src)    # ready poll
             + model.flag_write(src, src))    # ready.clear
    if memo is not None:
        memo[key] = value
    return value


def _copy_pair_cost(model: LatencyModel, src: int, dst: int,
                    nels: int) -> int:
    """MPB write (at ``src``) + mesh read (by ``dst``) of one payload."""
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("cpcost", src, dst, nels)
        value = memo.get(key)
        if value is not None:
            return value
    nbytes = nels * ELEMENT_BYTES
    value = (model.mpb_write_bytes(src, src, nbytes)
             + model.mpb_read_bytes(dst, src, nbytes))
    if memo is not None:
        memo[key] = value
    return value


def row_hold(model: LatencyModel, op: int, flags: int, snels: int,
             rnels: int) -> Optional[int]:
    """The CPU hold (ps) a step row takes besides its messages, or None
    where it takes none, as the schedule executor charges it: a charged
    copy's or a rotate's private-memory pass (an uncharged copy is free
    staging), a fold's reduction (tree folds always, exchanges only of a
    non-empty block)."""
    if op > OP_EXCHANGE:
        if op != OP_COPY:
            return model.private_copy_bytes(rnels * ELEMENT_BYTES)
        if flags & F_CHARGED:
            return model.private_copy_bytes(snels * ELEMENT_BYTES)
        return None
    if op == OP_REDUCE_RECV or flags & F_REDUCE and rnels:
        return model.reduce_doubles(rnels)
    return None


def step_cost(model: LatencyModel, row: Sequence[int], *,
              blocking: bool = False,
              overhead: Optional[SoftwareOverhead] = None) -> int:
    """Price one step row as seen by its rank (picoseconds).

    ``overhead`` switches between the two pricing regimes:

    * ``None`` (the selector) — hardware forward-path costs only, with
      non-blocking exchanges overlapping (``max``).  This is the
      historical ranking heuristic, bit-for-bit.
    * a :class:`SoftwareOverhead` (the analytic engine) — adds the
      stack's per-call software cycles and the full flag handshake
      (:func:`handshake_cost`), and prices exchanges by stack: blocking
      rendezvous drains the two directions serially (both copies, both
      partners' call overheads); the non-blocking stacks pay both
      directions' flag traffic but only one direction's copy pair — each
      endpoint's CPU performs just its own write and read while the
      partner copies concurrently.
    """
    (rank, _, op, speer, _, slo, shi, rpeer, _, rlo, rhi, flags) = row
    ov = overhead
    snels, rnels = shi - slo, rhi - rlo
    local = row_hold(model, op, flags, snels, rnels) or 0
    if op > OP_EXCHANGE:
        return local
    if ov is None or op != OP_EXCHANGE:
        out = message_cost(model, rank, speer, snels) if speer >= 0 else 0
        inn = message_cost(model, rpeer, rank, rnels) if rpeer >= 0 else 0
        cost = out + inn if blocking else max(out, inn)
        if ov is not None:   # a lone send or receive call
            cost += (ov.send_ps + handshake_cost(model, rank, speer)
                     if speer >= 0
                     else ov.recv_ps + handshake_cost(model, rpeer, rank))
        return cost + local
    cost = 0
    copies = []
    # On the blocking stack the exchange is a rendezvous in lockstep
    # with the partner's complementary recv/send pair, so *both*
    # endpoints' call overheads sit on each direction's critical
    # path; the non-blocking stacks overlap the partner's call work
    # with the transfer waits.
    coupling = ov.send_ps + ov.recv_ps if blocking else 0
    if speer >= 0:
        copies.append(_copy_pair_cost(model, rank, speer, snels))
        cost += (ov.send_ps + coupling
                 + message_cost(model, rank, speer, 0)
                 + handshake_cost(model, rank, speer))
    if rpeer >= 0:
        copies.append(_copy_pair_cost(model, rpeer, rank, rnels))
        cost += (ov.recv_ps
                 + message_cost(model, rpeer, rank, 0)
                 + handshake_cost(model, rpeer, rank))
    # Copy time: the blocking rendezvous drains each direction fully
    # before the next starts (sum); on the non-blocking stacks each
    # endpoint's CPU performs only its *own* write and read — the
    # partner's copies run concurrently on the partner's core — so a
    # symmetric exchange pays for one direction's copy pair (the max
    # covers asymmetric block sizes).
    return cost + (sum(copies) if blocking else max(copies)) + local


def schedule_cost_key(sched: Schedule, *, blocking: bool,
                      overhead: Optional[SoftwareOverhead]) -> tuple:
    """Memo key for one whole-schedule estimate.

    Includes everything the estimate is a function of: the schedule
    identity ``(kind, name, p, n)``, the partition block sizes and root
    it was built with, the **chunk layout** (``meta["chunks"]`` — a
    chunked variant must never collide with its base builder or with a
    different chunk count, even though all share the base's step
    shapes), the pricing regime, and the digest of the step table — so
    a hand-mutated schedule (the verifier's broken fixtures) can never
    be served its pristine namesake's estimate.
    """
    meta = sched.meta
    sizes = meta.get("part_sizes")
    return ("schedcost", sched.kind, sched.name, sched.p, sched.n,
            tuple(sizes) if sizes is not None else None,
            meta.get("root"), meta.get("chunks"), sched.digest,
            blocking, overhead)


def invalidate_schedule_costs(model: LatencyModel) -> int:
    """Drop every memoized whole-schedule estimate of ``model``'s
    configuration (every model on it shares them).

    The mirror of :meth:`~repro.hw.timing.LatencyModel.invalidate` for
    the schedule level: the estimates live in the configuration's
    per-erratum-level latency memo, so a full ``model.invalidate()``
    (config mutation) already leaves them behind — this narrower hook
    is for when the *schedule* side changes (a transform under
    development, a rebuilt repertoire) while the hardware latencies are
    still good.  Returns the number of entries dropped (both erratum
    levels).
    """
    dropped = 0
    for memo in model._memo:
        stale = [key for key in memo
                 if isinstance(key, tuple) and key
                 and key[0] == "schedcost"]
        for key in stale:
            del memo[key]
        dropped += len(stale)
    return dropped


def _step_keys(rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """One key per row such that equal keys mean equal :func:`step_cost`:
    opcode, the priced flags, each side's pair class (0: no peer) and
    element count + 1 (0: no such side).  Packed into one int64 column
    when the ranges allow, else left as the five columns."""
    rank = rows[:, RANK]
    sides = []
    for peer, buf, lo, hi in SIDES:
        sides.append(np.where(rows[:, peer] >= 0,
                              classes[rank, rows[:, peer]], 0))
        sides.append(np.where(rows[:, buf] >= 0,
                              rows[:, hi] - rows[:, lo] + 1, 0))
    cols = [rows[:, OP] * 16 + (rows[:, FLAGS] & (F_REDUCE | F_CHARGED)),
            *sides]
    spans = [int(col.max()) + 1 for col in cols]
    if np.prod([float(span) for span in spans]) >= 2.0 ** 62:
        return np.stack(cols, axis=1)
    key = cols[0]
    for col, span in zip(cols[1:], spans[1:]):
        key = key * span + col
    return key


def estimate_schedule_cost(sched: Schedule, model: LatencyModel, *,
                           blocking: bool = False,
                           overhead: Optional[SoftwareOverhead] = None) -> int:
    """BSP estimate of the schedule makespan (picoseconds).

    Sums, over the phases, the maximum per-rank cost of that phase: a
    phase is one round tag, or the untagged prologue (steps before a
    rank's first tagged one) or epilogue (after it).  With ``overhead``
    set, every message side additionally pays the stack's per-call
    software cost and the total includes one collective-layer entry
    charge (``overhead.call_ps``).

    One vector pass over the schedule's step table: every *distinct*
    step shape (:func:`_step_keys`) is priced once through
    :func:`step_cost` — which stays the single definition of a step's
    price — then gathered, summed per (phase, rank), maximized per
    phase.

    Whole-schedule results are memoized in the per-erratum latency table
    of the model's configuration under :func:`schedule_cost_key` — the synthesizer prices the
    same candidates across repeated searches and the tuned stack's
    fallback prices per call site, so the second look-up of any
    ``(schedule, regime)`` pair is a dict hit.
    """
    sched_memo = (model._memo[model.config.erratum_enabled]
                  if model._cache_enabled else None)
    cache_key = None
    if sched_memo is not None:
        cache_key = schedule_cost_key(sched, blocking=blocking,
                                      overhead=overhead)
        cached = sched_memo.get(cache_key)
        if cached is not None:
            return cached
    rows = sched.table.rows
    total = overhead.call_ps if overhead is not None else 0
    if len(rows):
        keys = _step_keys(rows, pair_classes(model.topology))
        _, first, inverse = np.unique(
            keys, axis=0 if keys.ndim == 2 else None,
            return_index=True, return_inverse=True)
        prices = np.array(
            [step_cost(model, row, blocking=blocking, overhead=overhead)
             for row in rows[first].tolist()], dtype=np.int64)
        # Dense (phase, rank) cells; PRE/POST are phases like any round.
        # Costs are >= 0, so a rank's empty cell never wins the max.
        phases, phase = np.unique(rows[:, PHASE], return_inverse=True)
        cells = np.zeros((len(phases), sched.p), dtype=np.int64)
        np.add.at(cells, (phase, rows[:, RANK]), prices[inverse.ravel()])
        total += int(cells.max(axis=1).sum())
    if cache_key is not None:
        sched_memo[cache_key] = total
    return total
