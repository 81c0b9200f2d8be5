"""Replay equals the simulator, to the picosecond.

:mod:`repro.sched.replay` must return exactly the ``(latency, exit)`` ps
the simulator measures for every rank.  Checked against

* every ``engine_golden.json`` pin of the blocking, ircce, lightweight,
  lightweight_balanced and rckmpi stacks: rank 0's ps and the all-ranks
  digest (the pin's event count is the simulator's own);
* the kernel-identity Allreduce runs (``test_kernel_identity``'s
  ``allreduce_digest`` program) at p in {2, 47, 48}, n in {552, 554}:
  :data:`KERNEL_EXITS` pins a digest of every rank's simulated exit;
* live simulations on ``cluster:2x24`` and ``torus:6x4``, and the three
  points ``price_search``'s auto sweep validates, for pass shifts
  k = 0..4;
* live simulations with the erratum off and with every software and
  flag cycle count replay binds moved (a replayed value is cached as the
  simulated one, so it must be one on any config a sweep can set);
* live simulations of a call list with rank-skewed compute calls, on
  blocking and every request stack at p in {2, 5, 8}: every rank's time
  after every call;
* a window stall: an RCKMPI broadcast whose sender fills its channel's
  two-packet window long before the receiver, busy computing, takes a
  packet (pinned, since no Fig.-9 collective fills a window);

and every escalation a sweep can meet raises :class:`Escalation`, a
deadlocking schedule included, whose simulator error still surfaces
through ``run_sweep``.

Regenerate :data:`KERNEL_EXITS` (on a commit whose simulator is the
reference): ``PYTHONPATH=src python tests/sched/test_replay.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.executor import SweepPoint, run_sweep
from repro.bench.runner import (launch_collective, measure_collective,
                                program_for)
from repro.core.blocks import Partition
from repro.core.ops import SUM
from repro.core.registry import launch, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rckmpi import channel
from repro.sched import builders, replay
from repro.sched import engine as sched_engine
from repro.sched.ir import OP, OP_EXCHANGE, OP_RECV, SBUF, SHI, SLO, SPEER
from repro.sched.replay import (KINDS, Escalation, Session, replay_calls,
                                replay_measurement)
from repro.sim.errors import DeadlockError
from tests.sched import test_engine_golden as golden

#: The stacks replay answers for (``tuned`` runs the lightweight layer).
REPLAYED = ("blocking", "ircce", "lightweight", "lightweight_balanced",
            "rckmpi")


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


# -- engine_golden.json --------------------------------------------------------
def golden_replay(key: str) -> list:
    """``[rank 0's first mark, all-ranks digest]`` of a golden key,
    replayed (see ``test_engine_golden`` for the three programs)."""
    if key.startswith("rooted/"):
        _, cores, root, stack = key.split("/")
        cores, root = int(cores[1:]), int(root[4:])
        counts = golden.rooted_counts(cores)
        part = Partition(sum(counts), tuple(counts))
        n = golden.ROOTED_N
        marks = replay_calls(stack, cores, [
            ("barrier", 0, None, 0, None),
            ("scatter", n, None, root, None), ("gather", n, None, root, None),
            ("scatter", part.n, None, root, part),
            ("gather", part.n, None, root, part),
            ("exscan", 20, None, 0, None)])
        values = [rank_marks[1:] for rank_marks in marks]
    else:
        head, size, cores, stack = key.split("/")
        kind, algo = head.split(":")
        values = replay_measurement(kind, stack, int(size[1:]),
                                    cores=int(cores[1:]), algo=algo)
    return [values[0][0], _digest(values)]


GOLDEN_KEYS = sorted(key for key in golden.PINS
                     if key.rsplit("/", 1)[1] in REPLAYED)


def test_golden_keys_cover_every_program():
    assert len(GOLDEN_KEYS) == 240  # 288 pins, 5 of 6 stacks
    assert {key.split("/")[0].split(":")[0] for key in GOLDEN_KEYS} >= {
        "rooted", "scan", "allreduce", "alltoall", "reduce_scatter"}


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_replay_equals_engine_golden(key):
    assert golden_replay(key) == golden.PINS[key][1:]


# -- kernel-identity Allreduce exits -------------------------------------------
#: ``_digest`` of every rank's exit ps, simulated.
KERNEL_EXITS = {
    ("blocking", 2, 552): "5b2b21c5ad4d7eaf",
    ("blocking", 2, 554): "b73be710a8230f7e",
    ("blocking", 47, 552): "2a48720310ce59db",
    ("blocking", 47, 554): "6160571a83dd1f68",
    ("blocking", 48, 552): "d0c28539e5f976ea",
    ("blocking", 48, 554): "4dfc672115643277",
    ("ircce", 2, 552): "0d63d1a057aca501",
    ("ircce", 2, 554): "16be8adbe84f966d",
    ("ircce", 47, 552): "24abd9d404cd8bf6",
    ("ircce", 47, 554): "248c125e0a17ce29",
    ("ircce", 48, 552): "4e349653bc3bf521",
    ("ircce", 48, 554): "fa89c8d6ca53de6b",
    ("lightweight", 2, 552): "3aa05f9b6e058144",
    ("lightweight", 2, 554): "cafad397c8644574",
    ("lightweight", 47, 552): "9bdee0683416ff89",
    ("lightweight", 47, 554): "04dda5f28cf1ac43",
    ("lightweight", 48, 552): "b9d24c3383fa682c",
    ("lightweight", 48, 554): "4785208db96976de",
    ("lightweight_balanced", 2, 552): "3aa05f9b6e058144",
    ("lightweight_balanced", 2, 554): "cafad397c8644574",
    ("lightweight_balanced", 47, 552): "27e8147c8208c36d",
    ("lightweight_balanced", 47, 554): "2e5d576140277449",
    ("lightweight_balanced", 48, 552): "cab75395be9114bb",
    ("lightweight_balanced", 48, 554): "1c2137573c07967a",
    ("rckmpi", 2, 552): "d352fe112b8fa13a",
    ("rckmpi", 2, 554): "15f2843c016438fa",
    ("rckmpi", 47, 552): "7a5648667e050e3d",
    ("rckmpi", 47, 554): "d05cf08480276586",
    ("rckmpi", 48, 552): "5d05728ffc5d46ab",
    ("rckmpi", 48, 554): "6d2eb8d5af705fa2",
    ("tuned", 2, 552): "3aa05f9b6e058144",
    ("tuned", 2, 554): "cafad397c8644574",
    ("tuned", 47, 552): "27e8147c8208c36d",
    ("tuned", 47, 554): "2e5d576140277449",
    ("tuned", 48, 552): "cab75395be9114bb",
    ("tuned", 48, 554): "1c2137573c07967a",
}


def simulated_exits(stack: str, cores: int, size: int) -> list[int]:
    """Every rank's exit ps of the kernel-identity Allreduce program."""
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    rng = np.random.default_rng(20120901)
    inputs = [rng.normal(size=size) for _ in range(cores)]
    measured = program_for("allreduce", comm, inputs, SUM)

    def program(env):
        yield from measured(env)
        return env.now

    return machine.run_spmd(program, ranks=list(range(cores))).values


@pytest.mark.parametrize("key", list(KERNEL_EXITS), ids=str)
def test_replay_equals_kernel_identity_exits(key):
    stack, cores, size = key
    exits = [exit_ps for _, exit_ps in
             replay_measurement("allreduce", stack, size, cores=cores)]
    assert _digest(exits) == KERNEL_EXITS[key]


def test_kernel_exit_pins_are_the_simulators():
    for key in (("blocking", 2, 554), ("lightweight", 2, 552)):
        assert _digest(simulated_exits(*key)) == KERNEL_EXITS[key]


# -- live simulations ------------------------------------------------------------
def assert_replay_equals_sim(kind, stack, size, cores, config=None, **kw):
    _machine, run = launch_collective(kind, stack, size, cores=cores,
                                      config=config, **kw)
    replayed = replay_measurement(kind, stack, size, cores=cores,
                                  config=config, **kw)
    assert [latency for latency, _ in replayed] == run.values


#: Every software and flag charge replay binds, moved off its default.
RECOSTED = dict(rcce_send_call_cycles=3100, rcce_recv_call_cycles=1700,
                rcce_putget_call_cycles=1300, flag_write_extra_cycles=300,
                ircce_issue_cycles=900, ircce_complete_cycles=2100,
                lwnb_issue_cycles=500, lwnb_complete_cycles=90,
                collective_call_cycles=400, barrier_flag_cycles=60,
                reduce_op_cycles_per_double=40)


@pytest.mark.parametrize("kind,stack,size", [
    ("allreduce", "lightweight_balanced", 552),
    ("allreduce", "blocking", 64),
    ("bcast", "ircce", 70),
    ("allreduce", "tuned", 64),
])
@pytest.mark.parametrize("config", [
    dict(topology="cluster:2x24"), dict(topology="torus:6x4"),
    dict(erratum_enabled=False), RECOSTED,
], ids=["cluster:2x24", "torus:6x4", "erratum_off", "recosted"])
def test_replay_equals_sim_on_other_configs(kind, stack, size, config):
    config = SCCConfig(**config)
    assert_replay_equals_sim(kind, stack, size, config.num_cores, config)


def test_replay_equals_sim_with_a_rank_order():
    assert_replay_equals_sim("allgather", "lightweight", 20, 8,
                             rank_order=(7, 3, 5, 1, 6, 2, 4, 0))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("kind,stack,size", [
    ("allgather", "blocking", 516), ("bcast", "blocking", 516),
    ("allreduce", "lightweight_balanced", 584)])
def test_replay_equals_sim_on_price_search_validation(kind, stack, size, k):
    assert_replay_equals_sim(kind, stack, size + k, 48)


# -- one lowering --------------------------------------------------------------
#: A CPU hold (ps) the patched lowering puts before every row.
EXTRA_PRE = 1_234_567


def sim_and_replay(kind, stack, size, cores):
    """Every rank's latency, simulated and replayed."""
    _machine, run = launch_collective(kind, stack, size, cores=cores)
    return run.values, [latency for latency, _ in replay_measurement(
        kind, stack, size, cores=cores)]


@pytest.mark.parametrize("kind,stack,size", [
    ("allreduce", "blocking", 64), ("allgather", "lightweight", 20),
    ("reduce_scatter", "rckmpi", 30)])
def test_replay_reads_the_executors_lowering(kind, stack, size,
                                             monkeypatch):
    """A change to the one lowering moves the simulator and replay
    alike: with a hold before every row, both engines still agree, and
    both differ from the unpatched run."""
    sim, replayed = sim_and_replay(kind, stack, size, 5)
    assert sim == replayed
    real = sched_engine.lower

    def lower(*args):
        return [(rnd, row, sides, wait_all, (pre or 0) + EXTRA_PRE, post)
                for rnd, row, sides, wait_all, pre, post in real(*args)]

    monkeypatch.setattr(sched_engine, "lower", lower)
    patched_sim, patched_replay = sim_and_replay(kind, stack, size, 5)
    assert patched_sim == patched_replay
    assert patched_sim != sim


# -- escalation --------------------------------------------------------------
POINT = dict(kind="allreduce", stack="lightweight", size=16, cores=4)


@pytest.mark.parametrize("change", [
    dict(config=SCCConfig(model_mpb_contention=True)),
    dict(stack="mpb", size=552),   # the mpb stack's long Allreduce
    dict(algo="mpb"),
    dict(stack="rckmpi"),
    dict(stack="openmpi"),
    dict(algo="hypercube"),
    dict(kind="scatter"),
    dict(cores=49),
], ids=lambda change: ",".join(change))
def test_escalations_raise(change):
    """Every change escalates but the rckmpi stack, which replays to the
    simulator's value."""
    replay_measurement(**POINT)  # the point itself replays
    if change == dict(stack="rckmpi"):
        assert_replay_equals_sim(**{**POINT, **change})
        return
    with pytest.raises(Escalation):
        replay_measurement(**{**POINT, **change})


def receive_only(build):
    """``build`` (a ``build_schedule``) with every communication row made
    a receive: no rank ever sends, so every stack deadlocks."""

    def build_receive_only(kind, name, p, n, part=None, root=0):
        sched = build(kind, name, p, n, part=part, root=root)
        rows = sched.table.rows.copy()
        comm = rows[:, OP] <= OP_EXCHANGE
        rows[comm, OP] = OP_RECV
        rows[comm, SPEER] = rows[comm, SBUF] = -1
        rows[comm, SLO] = rows[comm, SHI] = 0
        return sched.with_rows(rows)

    return build_receive_only


@pytest.mark.parametrize("stack", ["blocking", "lightweight"])
def test_deadlock_escalates_and_the_simulator_raises(stack, monkeypatch):
    monkeypatch.setattr(builders, "build_schedule",
                        receive_only(builders.build_schedule))
    with pytest.raises(Escalation, match="no progress"):
        replay_measurement("allgather", stack, 8, cores=4)
    # Under sim, and under analytic (a reversed rank order has no
    # estimate), the point goes to replay, escalates, and the simulator
    # raises the real error.
    point = SweepPoint(kind="allgather", stack=stack, size=8, cores=4,
                       rank_order=(3, 2, 1, 0))
    for engine in ("sim", "analytic"):
        with pytest.raises(DeadlockError):
            run_sweep([point], jobs=1, cache=False, engine=engine)


# -- sessions ----------------------------------------------------------------
def replayed_or_why(replay, *args, **kw):
    """``replay(*args, **kw)``, or the message of its escalation."""
    try:
        return replay(*args, **kw)
    except Escalation as why:
        return f"escalation: {why}"


SESSION_STACKS = ("blocking", "ircce", "lightweight", "lightweight_balanced",
                  "tuned", "rckmpi")


def session_members(p: int) -> list[tuple]:
    """Every replay kind at four sizes (n = 0 and n < p among them),
    kinds interleaved so that back-to-back members differ."""
    return [(kind, n, None) for n in (0, 1, p - 1 if p > 2 else 2, p + 3)
            for kind in sorted(KINDS)]


@pytest.mark.parametrize("p", [2, 5, 8, 48])
@pytest.mark.parametrize("stack", SESSION_STACKS)
def test_session_equals_per_point_replay(stack, p):
    members = session_members(p)
    session = Session(stack, p)
    grouped = [replayed_or_why(session.measure, *member)
               for member in members]
    assert grouped == [replayed_or_why(replay_measurement, kind, stack, n,
                                       cores=p, algo=algo)
                       for kind, n, algo in members]
    assert not any(isinstance(value, str) for value in grouped)


# -- the blocking executor against the request executor ----------------------
@pytest.fixture
def both_executors(monkeypatch):
    """Every blocking replay also runs its programs on the request
    executor, the kernel's ``(time, seq)`` order; the list of ``(blocking
    marks, request-executor marks)`` of each run."""
    runs = []
    fast = replay._run_blocking

    def run_both(progs, nslots):
        marks = fast(progs, nslots)
        runs.append((marks, replay._run_requests(progs, [], nslots)))
        return marks

    monkeypatch.setattr(replay, "_run_blocking", run_both)
    return runs


@pytest.mark.parametrize("case", [
    key for key in GOLDEN_KEYS if key.endswith("/blocking")] + [
    f"session/p{p}" for p in (2, 5, 8, 48)])
def test_blocking_executors_agree(case, both_executors):
    """The heap-free blocking executor gives the request executor's marks
    on the same programs: every blocking golden key, and every session
    member of p in {2, 5, 8, 48}."""
    if case.startswith("session/"):
        p = int(case[len("session/p"):])
        session = Session("blocking", p)
        for member in session_members(p):
            session.measure(*member)
    else:
        golden_replay(case)
    assert both_executors
    for fast, ordered in both_executors:
        assert fast == ordered


#: A member that escalates part-way through building its programs: the
#: last rank of a ``POISON``-element schedule raises after every other
#: rank's program and its own entry charge are appended.
POISON = 13


@pytest.fixture
def poisoned(monkeypatch):
    real = sched_engine.lower

    def lower(sched, rank, *args):
        if sched.n == POISON and rank == sched.p - 1:
            raise Escalation("poisoned")
        return real(sched, rank, *args)

    monkeypatch.setattr(sched_engine, "lower", lower)


@pytest.mark.parametrize("stack", ["blocking", "lightweight"])
def test_session_members_leave_nothing_behind(stack, poisoned):
    """A per-point escalation, before (``mpb``) or part-way through
    building (the poisoned member), leaves no program and no CPU time
    behind for the members after it."""
    members = [("allreduce", 8, None), ("allreduce", 552, "mpb"),
               ("bcast", 8, None), ("allgather", POISON, None),
               ("allreduce", 8, None), ("alltoall", 3, None),
               ("allgather", POISON, None), ("reduce_scatter", 20, None)]
    session = Session(stack, 4)
    grouped = [replayed_or_why(session.measure, *member)
               for member in members]
    assert grouped == [replayed_or_why(replay_measurement, kind, stack, n,
                                       cores=4, algo=algo)
                       for kind, n, algo in members]
    assert [value for value in grouped if isinstance(value, str)] == [
        "escalation: the mpb algorithm", "escalation: poisoned",
        "escalation: poisoned"]
    assert grouped[0] == grouped[4]
    assert session.calls([("barrier", 0, None, 0, None)]) == replay_calls(
        stack, 4, [("barrier", 0, None, 0, None)])


@pytest.mark.parametrize("change,why", [
    (dict(stack="rckmpi"), None),
    (dict(config=SCCConfig(model_mpb_contention=True)), "MPB contention"),
], ids=["rckmpi", "contention"])
def test_context_escalation_simulates_the_whole_group(caplog, change, why):
    """A session that escalates (``why``) simulates its whole group; an
    rckmpi group, which used to, replays every point."""
    points = [SweepPoint(**{**dict(kind=kind, stack="blocking", size=n,
                                   cores=3), **change})
              for kind, n in (("allreduce", 4), ("bcast", 2),
                              ("allgather", 5))]
    if why is None:
        Session(points[0].stack, 3, config=points[0].config)
    else:
        with pytest.raises(Escalation, match=why):
            Session(points[0].stack, 3, config=points[0].config)
    with caplog.at_level("DEBUG", logger="repro.bench.executor"):
        result = run_sweep(points, jobs=1, cache=False)
    assert (result.replayed, result.simulated) == ((3, 0) if why is None
                                                   else (0, 3))
    assert result.latencies == [measure_collective(
        p.kind, p.stack, p.size, cores=p.cores, config=p.config)
        for p in points]
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "DEBUG"] == [
        f"{p.describe()}: {'replay' if why is None else 'sim: ' + why}"
        for p in points]


# -- compute calls -----------------------------------------------------------
def skewed_calls(p: int) -> list[tuple]:
    """An SPMD program's call list: rank-skewed computes (rank 0's
    first one zero cycles) between an allreduce, a bcast from the last
    rank, a barrier and a long allreduce, two computes back to back."""
    def skew(scale: int, step: int) -> tuple:
        return tuple(scale * ((r * step) % 5) for r in range(p))

    return [("compute", skew(900, 3)), ("allreduce", 5, None, 0, None),
            ("compute", skew(1300, 2)), ("compute", skew(400, 4)),
            ("bcast", 6, None, p - 1, None), ("compute", skew(700, 1)),
            ("barrier", 0, None, 0, None), ("compute", skew(2000, 3)),
            ("allreduce", 40, None, 0, None)]


def simulated_marks(stack: str, calls: list[tuple]) -> list[list[int]]:
    """Every rank's simulated time after each of ``calls``."""
    p = len(calls[0][1])
    machine, comm = launch(stack, p)

    def program(env):
        marks = []
        for kind, *args in calls:
            if kind == "compute":
                yield from env.compute(args[0][env.rank])
            elif kind == "allreduce":
                yield from comm.allreduce(env, np.ones(args[0]), algo=args[1])
            elif kind == "bcast":
                yield from comm.bcast(env, np.ones(args[0]), args[2],
                                      algo=args[1])
            else:
                yield from comm.barrier(env)
            marks.append(env.sim.now)
        return marks

    return machine.run_spmd(program, ranks=list(range(p))).values


@pytest.mark.parametrize("p", [2, 5, 8])
@pytest.mark.parametrize("stack", SESSION_STACKS)
def test_compute_calls_equal_the_simulator(stack, p):
    """A compute call charges each rank its own cycles, one CPU hold per
    call: replaying the program's call list gives every rank's
    simulated time after every call."""
    calls = skewed_calls(p)
    assert replay_calls(stack, p, calls) == simulated_marks(stack, calls)


# -- a full RCKMPI window ----------------------------------------------------
def stall_calls() -> list[tuple]:
    """Rank 1 computes 2,000,000 cycles, then rank 0 broadcasts 2049
    doubles (nine packets) down a binomial tree: its send stalls on a
    full window until rank 1 starts receiving."""
    return [("compute", (0, 2_000_000)), ("bcast", 2049, "binomial", 0, None)]


@pytest.mark.parametrize("window,exit_ps", [
    (None, 3_902_169_404),        # RCKMPI's two-packet window
    (10**9, 189_879_316),         # unbounded: no stall
], ids=["two-packets", "unbounded"])
def test_a_full_window_stalls_the_sender(monkeypatch, window, exit_ps):
    """Rank 0's exit, pinned: no Fig.-9 collective fills a window."""
    if window is not None:
        monkeypatch.setattr(channel, "WINDOW_PACKETS", window)
        monkeypatch.setattr(replay, "WINDOW_PACKETS", window)
    calls = stall_calls()
    marks = replay_calls("rckmpi", 2, calls)
    assert marks[0][-1] == exit_ps
    assert marks == simulated_marks("rckmpi", calls)


# -- the sweep layer ---------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_counts_and_logs_each_point(caplog, jobs):
    """Analytic points, a validated sample, one group larger than the
    pool (a reversed rank order, which has no estimate, with an ``mpb``
    member) and single-point groups: the same latencies, counts and
    per-point lines, in point order, at any job count."""
    reverse = (3, 2, 1, 0)
    points = [SweepPoint(kind="allreduce", stack="lightweight_balanced",
                         size=n, cores=4) for n in (8, 16)]
    points += [SweepPoint(kind="barrier", stack="blocking", size=1, cores=4)]
    points += [SweepPoint(kind=kind, stack="blocking", size=n, cores=4,
                          rank_order=reverse, algo=algo)
               for kind, n, algo in (("bcast", 5, None),
                                     ("allgather", 3, None),
                                     ("allreduce", 12, "mpb"),
                                     ("alltoall", 2, None),
                                     ("allreduce", 7, None))]
    points.insert(5, SweepPoint(kind="allreduce", stack="rckmpi", size=8,
                                cores=4))
    with caplog.at_level("DEBUG", logger="repro.bench.executor"):
        outcome = run_sweep(points, jobs=jobs, cache=False, engine="auto")
    assert (outcome.analytic, outcome.validated) == (2, 2)
    assert (outcome.replayed, outcome.simulated) == (8, 1)
    assert outcome.hits == outcome.misses == 0
    assert outcome.latencies[2:] == [
        measure_collective(point.kind, point.stack, point.size,
                           cores=point.cores, rank_order=point.rank_order,
                           algo=point.algo) for point in points[2:]]
    whys = {6: "sim: the mpb algorithm"}
    assert [r.getMessage() for r in caplog.records
            if r.name == "repro.bench.executor"
            and r.levelname == "DEBUG"] == [
        f"{point.describe()}: {whys.get(i, 'replay')}"
        for i, point in enumerate(points)]


if __name__ == "__main__":  # regenerate KERNEL_EXITS
    for stack, cores, size in KERNEL_EXITS:
        print(f"    ({stack!r}, {cores}, {size}): "
              f"{_digest(simulated_exits(stack, cores, size))!r},")
