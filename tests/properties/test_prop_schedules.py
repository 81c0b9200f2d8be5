"""Numeric correctness of every schedule builder vs numpy references.

A machine-free interpreter executes the schedule IR on real numpy
buffers (eager sends, FIFO channels — the non-blocking semantics whose
deadlock-freedom the static verifier already proves), so the whole
repertoire can be checked at p = 47 and 48 in milliseconds instead of
full simulations.  Integer-valued doubles keep reductions exact.

The interpreter below is deliberately this file's own — one branch per
opcode, no shared helpers — so it stays an independent reference for
the library's ``repro.sched.interp.run_eager``.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.blocks import (
    Partition,
    balanced_partition,
    standard_partition,
)
from repro.core.ops import SUM
from repro.sched.builders import BUILDERS, FIXED_KINDS, build_schedule
from repro.sched.interp import check_schedule_numeric
from repro.sched.ir import (
    F_REDUCE,
    F_REVERSED,
    OP_COPY,
    OP_EXCHANGE,
    OP_RECV,
    OP_REDUCE_RECV,
    OP_ROTATE,
    OP_SEND,
    RHI,
    RLO,
    RPEER,
)

PS = (2, 3, 47, 48)
SIZES = (1, 4, 70)


def interpret(sched, inputs, op=SUM):
    """Run a schedule on numpy buffers; returns per-rank work arrays."""
    state = [{"in": np.asarray(inputs[r], dtype=float).reshape(-1).copy(),
              "work": np.zeros(sched.buffers["work"])}
             for r in range(sched.p)]
    channels = {}
    pcs = [0] * sched.p
    half_done = [False] * sched.p
    names = sched.table.bufs
    plans = sched.plans

    def view(rank, buf, lo, hi):
        return state[rank][names[buf]][lo:hi]

    def pop(src, dst):
        chan = channels.get((src, dst))
        return chan.popleft() if chan else None

    progress = True
    while progress:
        progress = False
        for r in range(sched.p):
            while pcs[r] < len(plans[r]):
                step = plans[r][pcs[r]]
                if step.op == OP_SEND:
                    channels.setdefault((r, step.speer), deque()).append(
                        view(r, step.sbuf, step.slo, step.shi).copy())
                elif step.op == OP_RECV:
                    payload = pop(step.rpeer, r)
                    if payload is None:
                        break
                    view(r, step.rbuf, step.rlo, step.rhi)[:] = payload
                elif step.op == OP_REDUCE_RECV:
                    payload = pop(step.rpeer, r)
                    if payload is None:
                        break
                    target = view(r, step.rbuf, step.rlo, step.rhi)
                    target[:] = op(target, payload)
                elif step.op == OP_EXCHANGE:
                    if step.speer >= 0 and not half_done[r]:
                        channels.setdefault(
                            (r, step.speer), deque()).append(
                                view(r, step.sbuf, step.slo,
                                     step.shi).copy())
                        half_done[r] = True
                    if step.rpeer >= 0:
                        payload = pop(step.rpeer, r)
                        if payload is None:
                            break
                        target = view(r, step.rbuf, step.rlo, step.rhi)
                        reduce = step.flags & F_REDUCE
                        if reduce and target.size:
                            if step.flags & F_REVERSED:
                                target[:] = op(payload, target)
                            else:
                                target[:] = op(target, payload)
                        elif not reduce:
                            target[:] = payload
                    half_done[r] = False
                elif step.op == OP_COPY:
                    view(r, step.rbuf, step.rlo, step.rhi)[:] = \
                        view(r, step.sbuf, step.slo, step.shi)
                elif step.op == OP_ROTATE:
                    rows, shift = step.slo, step.shi
                    buf = state[r][names[step.rbuf]].reshape(rows, -1)
                    out = np.empty_like(buf)
                    for i in range(rows):
                        out[(shift + i) % rows] = buf[i]
                    buf[:] = out
                pcs[r] += 1
                progress = True
    assert all(pcs[r] == len(plans[r]) for r in range(sched.p)), \
        "interpreter stalled (unmatched receive)"
    return [state[r]["work"] for r in range(sched.p)]


def int_inputs(p, n, seed=20120901):
    rng = np.random.default_rng(seed)
    return [rng.integers(-50, 50, size=n).astype(float)
            for _ in range(p)]


def cases(kind):
    return [(name, p, n) for name in sorted(BUILDERS[kind])
            for p in PS for n in SIZES]


@pytest.mark.parametrize("name,p,n", cases("allreduce"))
def test_allreduce_builders(name, p, n):
    inputs = int_inputs(p, n)
    sched = build_schedule("allreduce", name, p, n,
                           part=standard_partition(n, p))
    for work in interpret(sched, inputs):
        assert np.array_equal(work, np.sum(inputs, axis=0))


@pytest.mark.parametrize("name,p,n", cases("reduce"))
def test_reduce_builders(name, p, n):
    inputs = int_inputs(p, n)
    root = p - 1
    sched = build_schedule("reduce", name, p, n,
                           part=standard_partition(n, p), root=root)
    work = interpret(sched, inputs)
    assert np.array_equal(work[root], np.sum(inputs, axis=0))


@pytest.mark.parametrize("name,p,n", cases("bcast"))
def test_bcast_builders(name, p, n):
    inputs = int_inputs(p, n)
    root = p - 1
    sched = build_schedule("bcast", name, p, n,
                           part=standard_partition(n, p), root=root)
    for work in interpret(sched, inputs):
        assert np.array_equal(work, inputs[root])


@pytest.mark.parametrize("name,p,n", cases("allgather"))
def test_allgather_builders(name, p, n):
    inputs = int_inputs(p, n)
    sched = build_schedule("allgather", name, p, n)
    expected = np.concatenate(inputs)
    for work in interpret(sched, inputs):
        assert np.array_equal(work, expected)


@pytest.mark.parametrize("name,p,n", cases("reduce_scatter"))
def test_reduce_scatter_builders(name, p, n):
    inputs = int_inputs(p, n)
    part = standard_partition(n, p)
    sched = build_schedule("reduce_scatter", name, p, n, part=part)
    total = np.sum(inputs, axis=0)
    work = interpret(sched, inputs)
    for r in range(p):
        block = part.slice_of(r)
        assert np.array_equal(work[r][block], total[block])


@pytest.mark.parametrize("name,p,n", cases("alltoall"))
def test_alltoall_builders(name, p, n):
    rng = np.random.default_rng(20120901)
    matrices = [rng.integers(-50, 50, size=(p, n)).astype(float)
                for _ in range(p)]
    sched = build_schedule("alltoall", name, p, n)
    work = interpret(sched, matrices)
    for r in range(p):
        got = work[r].reshape(p, n)
        for s in range(p):
            assert np.array_equal(got[s], matrices[s][r])


@pytest.mark.parametrize("name,p,n", cases("scan"))
def test_scan_builders(name, p, n):
    inputs = int_inputs(p, n)
    sched = build_schedule("scan", name, p, n)
    work = interpret(sched, inputs)
    for r in range(p):
        assert np.array_equal(work[r], np.sum(inputs[:r + 1], axis=0))


@pytest.mark.parametrize("p", [2, 5, 48])
@pytest.mark.parametrize("kind", FIXED_KINDS)
def test_library_references_cover_the_fixed_kinds(kind, p):
    """``check_schedule_numeric`` used to raise KeyError for exscan,
    scatter and gather although ``BUILDERS`` ships them."""
    (name,) = BUILDERS[kind]
    for n in (1, 12, 70):
        for partitioner in (standard_partition, balanced_partition):
            for root in (0, p - 1):
                check_schedule_numeric(build_schedule(
                    kind, name, p, n, part=partitioner(n, p), root=root))


@pytest.mark.parametrize("kind", FIXED_KINDS)
def test_library_references_reject_a_wrong_fixed_kind_result(kind):
    (name,) = BUILDERS[kind]
    part = Partition(12, (3, 0, 4, 1, 4))
    sched = build_schedule(kind, name, 5, 12, part=part, root=2)
    check_schedule_numeric(sched)
    rows = sched.table.rows.copy()
    # Some non-empty receive lands one element early.
    at = np.flatnonzero((rows[:, RPEER] >= 0) & (rows[:, RLO] >= 1)
                        & (rows[:, RHI] > rows[:, RLO]))[0]
    rows[at, RLO:RHI + 1] -= 1
    with pytest.raises(AssertionError):
        check_schedule_numeric(sched.with_rows(rows))
