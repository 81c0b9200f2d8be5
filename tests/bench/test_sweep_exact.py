"""A sweep's exact values: replayed where replay can answer, simulated
where it escalates, and equal to :func:`measure_collective` either way.

``run_sweep``'s default engine takes every value from
:func:`repro.bench.executor._exact_group`.  The differential test below
checks that path against the simulator on a fixed, seeded plan that
crosses every kind replay knows, every stack (``mpb``'s MPB-direct
Allreduce and MPB contention escalate), rank counts from 2 to 48,
single- and multi-chunk messages, and non-default topologies, timings,
algorithms, reduce ops and rank orders.
"""

import logging
import random

import pytest

from repro.bench.analytic import ENGINES
from repro.bench.executor import SweepPoint, run_sweep
from repro.bench.runner import measure_collective
from repro.core.ops import op_by_name
from repro.hw.config import SCCConfig
from repro.sched.replay import KINDS

STACKS = ("blocking", "ircce", "lightweight", "lightweight_balanced",
          "tuned", "rckmpi", "mpb")
CLUSTER = SCCConfig(topology="cluster:2x24")
CONFIGS = (
    SCCConfig(),
    SCCConfig(topology="torus:6x4"),
    CLUSTER,
    SCCConfig(topology="mesh:6x4+w=2.0-3.0:4"),
    SCCConfig(erratum_enabled=False),
    SCCConfig(mpb_bytes_per_core=2048),  # every message is multi-chunk
    SCCConfig(lwnb_issue_cycles=400, flag_write_extra_cycles=200),
)
CORES = (2, 3, 5, 8, 47, 48)
SIZES = (1, 7, 64, 552, 1500)
CONTENTION = SCCConfig(model_mpb_contention=True)


def differential_points() -> list[SweepPoint]:
    """53 seeded points cycling kinds, stacks and configs (long vectors
    only at p <= 8, to keep the reference simulations short), then the
    algorithm overrides and escalations worth naming."""
    rng = random.Random(20120901)
    kinds = sorted(KINDS)
    points = []
    for i in range(53):
        cores = rng.choice(CORES)
        size = rng.choice(SIZES if cores <= 8 else SIZES[:3])
        config = CONFIGS[i % len(CONFIGS)]
        order = (tuple(rng.sample(range(config.num_cores), cores))
                 if i % 5 == 4 else None)
        points.append(SweepPoint(
            kind=kinds[i % len(kinds)], stack=STACKS[i % len(STACKS)],
            size=size, cores=cores, op="max" if i % 4 == 3 else "sum",
            rank_order=order, config=config))
    return points + [
        SweepPoint(kind="allreduce", stack="lightweight_balanced",
                   size=552, cores=48, config=CLUSTER, algo="hier/g2"),
        SweepPoint(kind="bcast", stack="blocking", size=64, cores=48,
                   config=CLUSTER, algo="hier/g2"),
        SweepPoint(kind="allreduce", stack="lightweight", size=552,
                   cores=8, algo="synth/rsag+c2"),
        SweepPoint(kind="allreduce", stack="ircce", size=7, cores=5,
                   op="max", algo="recursive_doubling"),
        SweepPoint(kind="allgather", stack="blocking", size=64, cores=8,
                   algo="bruck"),
        SweepPoint(kind="allreduce", stack="mpb", size=552, cores=48),
        SweepPoint(kind="allreduce", stack="lightweight", size=64,
                   cores=8, config=CONTENTION),
    ]


def test_default_engine_equals_the_simulator(caplog):
    points = differential_points()
    with caplog.at_level(logging.DEBUG, logger="repro.bench.executor"):
        outcome = run_sweep(points, jobs=1, cache=False)
    expected = [measure_collective(
        p.kind, p.stack, p.size, cores=p.cores, config=p.config,
        op=op_by_name(p.op), rank_order=p.rank_order, seed=p.seed,
        algo=p.algo) for p in points]
    mismatches = [(p.describe(), got, want) for p, got, want
                  in zip(points, outcome.latencies, expected) if got != want]
    assert mismatches == []
    assert outcome.replayed + outcome.simulated == len(points)
    # Only MPB contention and the MPB-direct Allreduce reach the simulator.
    simulated = {line.split(": sim: ")[0] for line in
                 (r.getMessage() for r in caplog.records)
                 if ": sim: " in line}
    assert len(simulated) == outcome.simulated
    must = {p.describe() for p in points if p.config.model_mpb_contention}
    may = must | {p.describe() for p in points
                  if p.stack == "mpb" and p.kind == "allreduce"}
    assert must <= simulated <= may
    assert points[-2].describe() in simulated  # the MPB-direct Allreduce


def test_unknown_op_raises_under_every_engine():
    point = SweepPoint(kind="allreduce", stack="blocking", size=8, cores=4,
                       op="bogus")
    for engine in ENGINES:
        with pytest.raises(KeyError, match="unknown reduce op 'bogus'"):
            run_sweep([point], cache=False, engine=engine)
