"""The columnar schedule form: round trips, the chunk transform and the
vector cost pass, each against its object-level oracle."""

import dataclasses

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
    PHASE,
    POST,
    PRE,
    CopyBlock,
    Exchange,
    Interval,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
    StepTable,
    encode_steps,
    make_table,
)
from repro.sched.synth import candidate_names, default_model

TOPOLOGIES = ("mesh:6x4", "torus:6x4", "cluster:2x24")
STACKS = ("blocking", "lightweight_balanced")


# ---------------------------------------------------------------------
# Oracles: the object-level code the columnar form replaced
# ---------------------------------------------------------------------
def scalar_estimate(sched, model, *, blocking=False, overhead=None):
    """The BSP estimate as one ``step_cost`` call per step object."""
    phases = {}
    buffers = dict(sched.buffers)
    for rank, plan in enumerate(sched.plans):
        seen_round = False
        for step in plan:
            if step.round is not None:
                key = step.round
                seen_round = True
            else:
                key = "post" if seen_round else "pre"
            bucket = phases.setdefault(key, {})
            bucket[rank] = bucket.get(rank, 0) + step_cost(
                model, step, rank, blocking=blocking, buffers=buffers,
                overhead=overhead)
    total = sum(max(bucket.values()) for bucket in phases.values())
    return total + (overhead.call_ps if overhead is not None else 0)


def _split_iv(iv, c):
    return [Interval(iv.buf, lo, hi)
            for lo, hi in chunk_bounds(iv.lo, iv.hi, c)]


def _chunk_step(step, c):
    if isinstance(step, (Send, Recv, ReduceRecv)):
        ivs = _split_iv(step.data, c)
        if len(ivs) == 1:
            return [step]
        return [dataclasses.replace(step, data=iv) for iv in ivs]
    if isinstance(step, Exchange):
        sends = _split_iv(step.send, c) if step.send is not None else []
        recvs = _split_iv(step.recv, c) if step.recv is not None else []
        parts = max(len(sends), len(recvs))
        if parts == 1:
            return [step]
        out = []
        for k in range(parts):
            s = sends[k] if k < len(sends) else None
            r = recvs[k] if k < len(recvs) else None
            out.append(Exchange(
                send_peer=step.send_peer if s is not None else None,
                send=s,
                recv_peer=step.recv_peer if r is not None else None,
                recv=r, send_first=step.send_first,
                reduce=step.reduce and r is not None,
                reversed_fold=step.reversed_fold and r is not None,
                round=step.round))
        return out
    assert isinstance(step, (CopyBlock, Rotate))
    return [step]


def chunk_schedule_objects(sched, c):
    """``chunk_schedule`` as the per-step object rewrite it used to be."""
    plans = tuple(tuple(sub for step in plan for sub in _chunk_step(step, c))
                  for plan in sched.plans)
    return dataclasses.replace(sched, plans=plans)


def same_table(a: StepTable, b: StepTable) -> bool:
    return a.bufs == b.bufs and np.array_equal(a.rows, b.rows)


def from_plans(sched):
    """A plans-born copy: its table is derived from the step objects."""
    return dataclasses.replace(sched, plans=sched.plans)


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
            for topology, cases in regimes.items():
                for model, blocking, overhead in cases:
                    want = scalar_estimate(sched, model, blocking=blocking,
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
                    == scalar_estimate(sched, model, blocking=blocking))


def test_estimate_of_table_born_schedule_builds_no_step_objects():
    # A size no other test builds: schedules are cached per process.
    sched = build_schedule("allreduce", "synth/rsag+c4", 48, 557,
                           part=balanced_partition(557, 48))
    estimate_schedule_cost(sched, default_model())
    assert sched.rounds == 47 and sched.total_steps() > 10_000
    assert "plans" not in vars(sched)


def test_sparse_round_tags_price_without_a_dense_grid():
    plans = ((Send(1, Interval("work", 0, 4), round=10 ** 12),),
             (Recv(0, Interval("work", 0, 4), round=10 ** 12),))
    sched = Schedule("bcast", "far", 2, 4, {"in": 4, "work": 4}, plans)
    model = default_model()
    assert estimate_schedule_cost(sched, model) == scalar_estimate(sched,
                                                                   model)


def test_huge_element_counts_price_exactly():
    """Step keys too wide for one int64 fall back to column tuples."""
    n = 2 ** 40
    whole, half = Interval("work", 0, n), Interval("work", 0, n // 2)
    plans = ((Exchange(1, whole, 1, half, reduce=True), Send(1, half)),
             (Exchange(0, half, 0, whole), Recv(0, half)))
    sched = Schedule("allreduce", "huge", 2, n, {"in": n, "work": n}, plans)
    model = default_model()
    for blocking in (False, True):
        assert (estimate_schedule_cost(sched, model, blocking=blocking)
                == scalar_estimate(sched, model, blocking=blocking))


# ---------------------------------------------------------------------
# (b) round trips and the chunk transform
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


def test_plans_table_plans_is_the_identity():
    for sched in REPERTOIRE:
        derived = from_plans(sched)
        assert same_table(derived.table, sched.table), sched.label
        again = Schedule.from_table(sched.kind, sched.name, sched.p, sched.n,
                                    sched.buffers, derived.table, sched.meta)
        assert again.plans == sched.plans, sched.label
        assert again == sched


@pytest.mark.parametrize("c", [2, 4, 7])
def test_chunk_table_equals_object_chunking(c):
    one_sided_tails = 0
    for sched in REPERTOIRE:
        want = chunk_schedule_objects(sched, c)
        got = chunk_table(sched.table, c)
        assert same_table(got, want.table), (sched.label, sched.p, c)
        assert chunk_schedule(sched, c).plans == want.plans
        one_sided_tails += sum(
            isinstance(s, Exchange) and (s.send is None) != (s.recv is None)
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
    with pytest.raises(ValueError, match="negative round"):
        encode_steps([[Send(1, Interval("work", 0, 1), round=-1)]],
                     {"in": 1, "work": 1})


def test_table_is_read_only_and_renaming_shares_it():
    sched = build_schedule("allgather", "ring", 4, 8)
    with pytest.raises(ValueError):
        sched.table.rows[0, 0] = 7
    other = sched.renamed("ring-again")
    assert other.name == "ring-again" and sched.name == "ring"
    assert other.table is sched.table and other.digest == sched.digest


def test_schedule_needs_plans_or_a_table():
    bare = Schedule("bcast", "none", 2, 4, {"in": 4, "work": 4}, None)
    with pytest.raises(ValueError, match="neither plans nor a table"):
        bare.table


def test_make_table_keeps_block_order_within_a_rank():
    a, _ = encode_steps([[Send(1, Interval("work", 0, 1))],
                         [Recv(0, Interval("work", 0, 1))]], {"work": 1})
    b, _ = encode_steps([[Recv(1, Interval("work", 0, 1), round=0)],
                         [Send(0, Interval("work", 0, 1), round=0)]],
                        {"work": 1})
    table = make_table([a, b], ("work",))
    sched = Schedule.from_table("x", "y", 2, 1, {"work": 1}, table)
    assert [type(s) for s in sched.plans[0]] == [Send, Recv]
    assert [type(s) for s in sched.plans[1]] == [Recv, Send]


# ---------------------------------------------------------------------
# (c) a mutated copy prices from its own steps
# ---------------------------------------------------------------------
def test_replaced_plans_never_inherit_the_pristine_table():
    model = default_model()
    part = balanced_partition(64, 8)
    base = build_schedule("allreduce", "rsag", 8, 64, part=part)
    pristine = estimate_schedule_cost(base, model)
    # Rank 0 loses its last ring round: same (kind, name, p, n, meta).
    plans = (base.plans[0][:-1],) + base.plans[1:]
    mutated = dataclasses.replace(base, plans=plans)
    assert mutated.table is not base.table
    assert mutated.total_steps() == base.total_steps() - 1
    assert mutated.digest != base.digest
    dropped = dataclasses.replace(
        base, plans=tuple(plan[:-7] for plan in base.plans))
    assert estimate_schedule_cost(dropped, model) \
        == scalar_estimate(dropped, model) < pristine
    assert estimate_schedule_cost(base, model) == pristine
