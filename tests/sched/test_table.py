"""The step table: the chunk transform and the vector cost pass, each
against its row-at-a-time oracle."""

import numpy as np
import pytest

from repro.bench.analytic import stack_overhead
from repro.core.blocks import balanced_partition, standard_partition
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sched.builders import (
    SCHEDULED_KINDS,
    all_schedules,
    build_schedule,
    builder_names,
)
from repro.sched.chunking import chunk_bounds, chunk_schedule, chunk_table
from repro.sched.cost import estimate_schedule_cost, step_cost
from repro.sched.hier import HIER_KINDS
from repro.sched.ir import (
    F_REDUCE,
    F_REVERSED,
    F_SEND_FIRST,
    NCOLS,
    OP_EXCHANGE,
    OP_RECV,
    OP_SEND,
    PHASE,
    POST,
    PRE,
    WORK,
    Schedule,
    StepRow,
    StepTable,
    make_table,
)
from repro.sched.synth import candidate_names, default_model

TOPOLOGIES = ("mesh:6x4", "torus:6x4", "cluster:2x24")
STACKS = ("blocking", "lightweight_balanced")


# ---------------------------------------------------------------------
# Oracles: one row at a time, where the library takes vector passes
# ---------------------------------------------------------------------
def scalar_estimate(plans, model, *, blocking=False, overhead=None):
    """The BSP estimate of ``plans`` (a schedule's ``.plans``) as one
    ``step_cost`` call per row, with the prologue/epilogue buckets
    re-derived from the round tags."""
    phases = {}
    for rank, plan in enumerate(plans):
        seen_round = False
        for row in plan:
            if row.round is not None:
                key = row.round
                seen_round = True
            else:
                key = "post" if seen_round else "pre"
            bucket = phases.setdefault(key, {})
            bucket[rank] = bucket.get(rank, 0) + step_cost(
                model, row, blocking=blocking, overhead=overhead)
    total = sum(max(bucket.values()) for bucket in phases.values())
    return total + (overhead.call_ps if overhead is not None else 0)


def _chunk_step(row, c):
    if row.op > OP_EXCHANGE:
        return [row]                       # local rows stay whole
    sends = chunk_bounds(row.slo, row.shi, c) if row.sbuf >= 0 else []
    recvs = chunk_bounds(row.rlo, row.rhi, c) if row.rbuf >= 0 else []
    parts = max(len(sends), len(recvs))
    if parts == 1:
        return [row]
    out = []
    for k in range(parts):
        sub = row
        if k >= len(sends):
            sub = sub._replace(speer=-1, sbuf=-1, slo=0, shi=0)
        else:
            sub = sub._replace(slo=sends[k][0], shi=sends[k][1])
        if k >= len(recvs):
            sub = sub._replace(rpeer=-1, rbuf=-1, rlo=0, rhi=0,
                               flags=row.flags & ~(F_REDUCE | F_REVERSED))
        else:
            sub = sub._replace(rlo=recvs[k][0], rhi=recvs[k][1])
        out.append(sub)
    return out


def chunk_schedule_objects(sched, c):
    """``chunk_schedule`` as a per-step rewrite, one row at a time."""
    return sched.with_rows([sub for plan in sched.plans for row in plan
                            for sub in _chunk_step(row, c)])


def same_table(a: StepTable, b: StepTable) -> bool:
    return a.bufs == b.bufs and np.array_equal(a.rows, b.rows)


def handmade(kind, name, n, *plans):
    """A schedule over hand-written per-rank row lists."""
    rows = np.array([row for plan in plans for row in plan],
                    dtype=np.int64).reshape(-1, NCOLS)
    return Schedule(kind, name, len(plans), n, {"in": n, "work": n},
                    make_table([rows]))


def send(rank, peer, lo, hi, phase=-1):
    return StepRow(rank, phase, OP_SEND, speer=peer, sbuf=WORK, slo=lo,
                   shi=hi)


def recv(rank, peer, lo, hi, phase=-1):
    return StepRow(rank, phase, OP_RECV, rpeer=peer, rbuf=WORK, rlo=lo,
                   rhi=hi)


# ---------------------------------------------------------------------
# (a) vector estimate == scalar accumulation
# ---------------------------------------------------------------------
def _names(kind, p, n):
    names = list(builder_names(kind)) + list(candidate_names(kind, p, n))
    if kind in HIER_KINDS:
        names += [f"hier/g{g}" for g in (2, 3, 4) if g <= p // 2]
    return names


@pytest.fixture(scope="module")
def regimes():
    """topology -> [(model, blocking, overhead)]: the selector's two
    regimes on a fresh model, the analytic engine's on each stack."""
    out = {}
    for topology in TOPOLOGIES:
        config = SCCConfig(topology=topology)
        model = default_model(config)
        cases = [(model, False, None), (model, True, None)]
        for stack in STACKS:
            comm = make_communicator(Machine(config), stack)
            latency = comm.machine.latency
            cases.append((latency, comm.blocking,
                          stack_overhead(comm, latency)))
        out[topology] = cases
    return out


@pytest.mark.parametrize("p", [2, 3, 8, 47, 48])
@pytest.mark.parametrize("kind", SCHEDULED_KINDS)
def test_vector_estimate_equals_scalar_accumulation(regimes, kind, p):
    checked = 0
    for n in (1, 5, 64, 553):
        part = balanced_partition(n, p)
        for name in _names(kind, p, n):
            sched = build_schedule(kind, name, p, n, part=part)
            plans = sched.plans
            for topology, cases in regimes.items():
                for model, blocking, overhead in cases:
                    want = scalar_estimate(plans, model, blocking=blocking,
                                           overhead=overhead)
                    got = estimate_schedule_cost(
                        sched, model, blocking=blocking, overhead=overhead)
                    assert got == want, (kind, name, p, n, topology,
                                         blocking, overhead)
                    checked += 1
    assert checked


def test_vector_estimate_on_asymmetric_weighted_routes():
    """Weighted links make XY routes direction-dependent; the pair
    classes must not merge (a, b) with (b, a)."""
    config = SCCConfig(topology="mesh:6x4+w=0.0-1.0:5;2.1-3.1:3")
    model = default_model(config)
    for kind, name in (("alltoall", "pairwise"), ("allreduce", "rsag"),
                       ("allgather", "bruck"), ("scan", "synth/pipeline_c4")):
        sched = build_schedule(kind, name, 48, 70,
                               part=balanced_partition(70, 48))
        for blocking in (False, True):
            assert (estimate_schedule_cost(sched, model, blocking=blocking)
                    == scalar_estimate(sched.plans, model,
                                       blocking=blocking))


def test_sparse_round_tags_price_without_a_dense_grid():
    sched = handmade("bcast", "far", 4, [send(0, 1, 0, 4, 10 ** 12)],
                     [recv(1, 0, 0, 4, 10 ** 12)])
    model = default_model()
    assert (estimate_schedule_cost(sched, model)
            == scalar_estimate(sched.plans, model))


def test_huge_element_counts_price_exactly():
    """Step keys too wide for one int64 fall back to column tuples."""
    n = 2 ** 40

    def exchange(rank, peer, shi, rhi, flags):
        return StepRow(rank, -1, OP_EXCHANGE, speer=peer, sbuf=WORK, shi=shi,
                       rpeer=peer, rbuf=WORK, rhi=rhi, flags=flags)

    sched = handmade(
        "allreduce", "huge", n,
        [exchange(0, 1, n, n // 2, F_SEND_FIRST | F_REDUCE),
         send(0, 1, 0, n // 2)],
        [exchange(1, 0, n // 2, n, F_SEND_FIRST), recv(1, 0, 0, n // 2)])
    model = default_model()
    for blocking in (False, True):
        assert (estimate_schedule_cost(sched, model, blocking=blocking)
                == scalar_estimate(sched.plans, model,
                                   blocking=blocking))


# ---------------------------------------------------------------------
# (b) the chunk transform and table assembly
# ---------------------------------------------------------------------
def _repertoire():
    for p, n, partition in ((1, 4, balanced_partition),
                            (2, 1, balanced_partition),
                            (3, 8, standard_partition),
                            (5, 3, balanced_partition),    # nels < c
                            (8, 70, standard_partition),   # uneven blocks
                            (47, 64, balanced_partition)):
        part = partition(n, p)
        for root in sorted({0, p - 1}):
            yield from all_schedules(p, n, part=part, root=root)
    part = balanced_partition(16, 6)
    for kind in ("bcast", "reduce", "scan", "allreduce"):
        yield build_schedule(kind, "synth/pipeline_c4", 6, 16, part=part)
    for kind in HIER_KINDS:
        yield build_schedule(kind, "hier/g2", 6, 16)


REPERTOIRE = list(_repertoire())


@pytest.mark.parametrize("c", [2, 4, 7])
def test_chunk_table_equals_object_chunking(c):
    one_sided_tails = 0
    for sched in REPERTOIRE:
        want = chunk_schedule_objects(sched, c)
        got = chunk_table(sched.table, c)
        assert same_table(got, want.table), (sched.label, sched.p, c)
        assert chunk_schedule(sched, c).plans == want.plans
        one_sided_tails += sum(
            s.op == OP_EXCHANGE and (s.sbuf < 0) != (s.rbuf < 0)
            for plan in want.plans for s in plan)
    assert one_sided_tails  # uneven exchanges did run a side out


def test_phase_column_marks_prologue_rounds_epilogue():
    part = balanced_partition(8, 4)
    rsg = build_schedule("reduce", "rsg", 4, 8, part=part)
    phase = rsg.table.rows[:, PHASE]
    # init copy, three ring rounds, then the untagged binomial gather
    assert list(phase[:4]) == [PRE, 0, 1, 2]
    assert POST in phase and rsg.rounds == 3
    bruck = build_schedule("allgather", "bruck", 4, 8)
    assert set(bruck.table.rows[:, PHASE]) == {PRE}  # no tagged step at all


def test_encode_rejects_negative_round_tags():
    # PRE/POST are the untagged phases; anything below is a bad tag.
    rows = np.array([send(0, 1, 0, 1, phase=POST - 1)], dtype=np.int64)
    with pytest.raises(ValueError, match="rank 0 step 0: negative round"):
        make_table([rows])


def test_table_is_read_only_and_renaming_shares_it():
    sched = build_schedule("allgather", "ring", 4, 8)
    with pytest.raises(ValueError):
        sched.table.rows[0, 0] = 7
    other = sched.renamed("ring-again")
    assert other.name == "ring-again" and sched.name == "ring"
    assert other.table is sched.table and other.digest == sched.digest


def test_make_table_keeps_block_order_within_a_rank():
    only = 0   # the one buffer of a table over ("work",)
    a = np.array([send(0, 1, 0, 1)._replace(sbuf=only),
                  recv(1, 0, 0, 1)._replace(rbuf=only)], dtype=np.int64)
    b = np.array([recv(0, 1, 0, 1, phase=0)._replace(rbuf=only),
                  send(1, 0, 0, 1, phase=0)._replace(sbuf=only)],
                 dtype=np.int64)
    table = make_table([a, b], ("work",))
    sched = Schedule("x", "y", 2, 1, {"work": 1}, table)
    assert [s.op for s in sched.plans[0]] == [OP_SEND, OP_RECV]
    assert [s.op for s in sched.plans[1]] == [OP_RECV, OP_SEND]
    again = make_table([table.rows], table.bufs)   # idempotent on its output
    assert same_table(again, table)
