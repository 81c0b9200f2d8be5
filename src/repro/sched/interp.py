"""Machine-free interpretation of schedules.

The property suite (``tests/properties/test_prop_schedules.py``)
established the semantics: execute the step rows on real buffers with
eager sends and FIFO channels — the non-blocking posture whose
deadlock-freedom the static verifier proves — so a schedule's output can
be checked at p = 48 in milliseconds instead of a full simulation.
:func:`run_eager` is that stepping loop, written once over any value
domain numpy can hold in an array: :func:`interpret` runs it on doubles
under a :class:`~repro.core.ops.ReduceOp`, the verifier's
``simulate_schedule`` on multisets of symbolic atoms under multiset
union.  The synthesizer needs the numeric check *inside* the library
(``python -m repro synth`` refuses to report a candidate that does not
interpret correctly), so it lives here and the property tests — which
keep their own independent copy of the loop as the reference — drive it
over the synthesized repertoire.

:func:`check_schedule_numeric` bundles the per-kind references: it
interprets the schedule on integer-valued doubles (exact reductions)
and asserts the work buffers match numpy's answer.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.blocks import Partition, standard_partition
from repro.core.ops import SUM, ReduceOp
from repro.sched.ir import (
    F_REDUCE,
    F_REVERSED,
    OP_COPY,
    OP_EXCHANGE,
    OP_REDUCE_RECV,
    Schedule,
)


class InterpreterStall(AssertionError):
    """No rank can make progress: an unmatched receive in the schedule."""


def run_eager(sched: Schedule, state: list, fold: Callable) -> list[int]:
    """Step every rank's rows over ``state`` until nothing moves.

    ``state[r][name]`` is rank ``r``'s 1-D array for buffer ``name``,
    updated in place; ``fold(a, b)`` combines two equal-length arrays
    elementwise (a folding receive stores ``fold(local, received)``, or
    ``fold(received, local)`` under ``F_REVERSED``).  A send pushes a
    snapshot of its interval without waiting; a receive blocks its rank
    until the matching channel has a payload.  Returns the ranks left
    stuck on a receive (empty: the schedule ran to completion).
    """
    bufs = sched.table.bufs
    plans = sched.plans
    channels: dict[tuple[int, int], deque] = {}
    pcs = [0] * sched.p
    sent = [False] * sched.p   # this row's send side is already pushed
    progress = True
    while progress:
        progress = False
        for r, plan in enumerate(plans):
            mine = state[r]
            while pcs[r] < len(plan):
                (_, _, op, speer, sbuf, slo, shi,
                 rpeer, rbuf, rlo, rhi, flags) = plan[pcs[r]]
                if op <= OP_EXCHANGE:
                    if speer >= 0 and not sent[r]:
                        channels.setdefault((r, speer), deque()).append(
                            mine[bufs[sbuf]][slo:shi].copy())
                        sent[r] = True
                    if rpeer >= 0:
                        chan = channels.get((rpeer, r))
                        if not chan:
                            break
                        payload = chan.popleft()
                        target = mine[bufs[rbuf]][rlo:rhi]
                        if op != OP_REDUCE_RECV and not flags & F_REDUCE:
                            target[:] = payload
                        elif flags & F_REVERSED:
                            target[:] = fold(payload, target)
                        else:
                            target[:] = fold(target, payload)
                    sent[r] = False
                elif op == OP_COPY:
                    mine[bufs[rbuf]][rlo:rhi] = mine[bufs[sbuf]][slo:shi]
                else:  # OP_ROTATE: ``slo`` rows, shifted down by ``shi``
                    matrix = mine[bufs[rbuf]][rlo:rhi].reshape(slo, -1)
                    matrix[:] = np.roll(matrix, shi, axis=0)
                pcs[r] += 1
                progress = True
    return [r for r, plan in enumerate(plans) if pcs[r] < len(plan)]


def interpret(sched: Schedule, inputs, op: ReduceOp = SUM) -> list:
    """Run a schedule on numpy buffers; returns per-rank work arrays."""
    state = [{"in": np.asarray(inputs[r], dtype=float).reshape(-1).copy(),
              "work": np.zeros(sched.buffers["work"])}
             for r in range(sched.p)]
    stuck = run_eager(sched, state, op)
    if stuck:
        raise InterpreterStall(
            f"{sched.label}: interpreter stalled on ranks {stuck} "
            f"(unmatched receive)")
    return [state[r]["work"] for r in range(sched.p)]


def int_inputs(p: int, n: int, seed: int = 20120901) -> list:
    """Integer-valued doubles: reductions stay exact under IEEE sums."""
    rng = np.random.default_rng(seed)
    return [rng.integers(-50, 50, size=n).astype(float) for _ in range(p)]


def check_schedule_numeric(sched: Schedule, *, seed: int = 20120901) -> None:
    """Interpret ``sched`` and assert the per-kind numpy reference.

    Covers every scheduled kind; raises :class:`AssertionError` (or
    :class:`InterpreterStall`) on any mismatch.  ``meta["root"]`` selects
    the root for rooted kinds, ``meta["part_sizes"]`` the partition for
    reduce_scatter, scatter and gather (standard partition when absent,
    matching the builders' default).
    """
    p, n = sched.p, sched.n
    kind = sched.kind
    root = int(sched.meta.get("root", 0))
    if kind == "alltoall":
        rng = np.random.default_rng(seed)
        matrices = [rng.integers(-50, 50, size=(p, n)).astype(float)
                    for _ in range(p)]
        work = interpret(sched, matrices)
        for r in range(p):
            got = work[r].reshape(p, n)
            for s in range(p):
                assert np.array_equal(got[s], matrices[s][r]), \
                    f"{sched.label}: alltoall row {s} wrong on rank {r}"
        return
    inputs = int_inputs(p, n, seed)
    work = interpret(sched, inputs)
    if kind == "allreduce":
        expected = np.sum(inputs, axis=0)
        for r in range(p):
            assert np.array_equal(work[r], expected), \
                f"{sched.label}: allreduce wrong on rank {r}"
    elif kind == "reduce":
        assert np.array_equal(work[root], np.sum(inputs, axis=0)), \
            f"{sched.label}: reduce wrong at root {root}"
    elif kind == "bcast":
        for r in range(p):
            assert np.array_equal(work[r], inputs[root]), \
                f"{sched.label}: bcast wrong on rank {r}"
    elif kind == "allgather":
        expected = np.concatenate(inputs)
        for r in range(p):
            assert np.array_equal(work[r], expected), \
                f"{sched.label}: allgather wrong on rank {r}"
    elif kind in ("reduce_scatter", "scatter", "gather"):
        sizes = sched.meta.get("part_sizes")
        part = (standard_partition(n, p) if sizes is None
                else Partition(n, tuple(sizes)))
        total = np.sum(inputs, axis=0)
        for r in range(p):
            # Rooted kinds label blocks in root-relative vrank space.
            block = part.slice_of((r - root) % p)
            if kind == "reduce_scatter":
                assert np.array_equal(work[r][block], total[block]), \
                    f"{sched.label}: reduce_scatter block wrong on rank {r}"
            elif kind == "scatter":
                assert np.array_equal(work[r][block], inputs[root][block]), \
                    f"{sched.label}: scatter block wrong on rank {r}"
            else:
                assert np.array_equal(work[root][block], inputs[r][block]), \
                    f"{sched.label}: gather misses rank {r}'s block"
    elif kind == "scan":
        for r in range(p):
            assert np.array_equal(work[r],
                                  np.sum(inputs[:r + 1], axis=0)), \
                f"{sched.label}: scan prefix wrong on rank {r}"
    elif kind == "exscan":
        for r in range(1, p):   # rank 0's result is undefined
            assert np.array_equal(work[r][n:2 * n],
                                  np.sum(inputs[:r], axis=0)), \
                f"{sched.label}: exscan prefix wrong on rank {r}"
    else:
        raise KeyError(f"unknown scheduled collective kind {kind!r}")
