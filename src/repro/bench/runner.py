"""Measuring simulated collective latencies.

The paper repeats each operation 10000x on silicon and averages; the
simulator is deterministic, so a single repetition gives the exact
latency.

Environment knobs honoured by the benchmark suite:

* ``REPRO_BENCH_SIZES`` — ``start:stop:step`` for the Fig. 9 sweeps
  (default ``500:701:7``; the paper measures every size in 500..700 — use
  ``500:701:1`` to regenerate at full resolution).
* ``REPRO_BENCH_CORES`` — ranks per measurement (default 48, the SCC).
* ``REPRO_BENCH_JOBS`` — worker processes for sweeps (default 1;
  ``0``/``auto`` = all CPUs).  See :mod:`repro.bench.executor`.
* ``REPRO_BENCH_CACHE`` / ``REPRO_BENCH_CACHE_DIR`` — toggle/relocate the
  content-addressed result cache (default on, in
  ``benchmarks/results/.cache/``).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from repro.bench.executor import SweepPoint, run_sweep
from repro.core.comm import Communicator
from repro.core.ops import SUM, ReduceOp
from repro.core.registry import launch
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine, SPMDResult
from repro.sim.clock import ps_to_us
from repro.sim.trace import Tracer

#: Collective kinds the runner knows how to drive.
KINDS = ("allreduce", "reduce", "reduce_scatter", "allgather", "alltoall",
         "bcast", "barrier")


def parse_sizes_spec(spec: str, *, source: str = "REPRO_BENCH_SIZES") -> list[int]:
    """Parse a ``start:stop:step`` sweep specification.

    Raises a :class:`ValueError` that names ``source`` (the env var or
    option the spec came from) and the expected format, instead of the
    bare int-conversion error a malformed spec used to produce.  Empty
    ranges are rejected too — a sweep of zero points is always a typo.
    """
    parts = spec.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (int(x) for x in parts)
    except ValueError:
        raise ValueError(
            f"malformed {source} spec {spec!r}: expected 'start:stop:step' "
            f"with integer fields, e.g. '500:701:7'") from None
    if step <= 0:
        raise ValueError(
            f"invalid {source} spec {spec!r}: step must be positive, "
            f"got {step}")
    sizes = list(range(start, stop, step))
    if not sizes:
        raise ValueError(
            f"invalid {source} spec {spec!r}: the range is empty "
            f"(start must be below stop)")
    return sizes


def default_sizes() -> list[int]:
    """The Fig. 9 sweep sizes, honoring ``REPRO_BENCH_SIZES``."""
    spec = os.environ.get("REPRO_BENCH_SIZES", "500:701:7")
    return parse_sizes_spec(spec, source="REPRO_BENCH_SIZES")


def default_cores() -> int:
    return int(os.environ.get("REPRO_BENCH_CORES", "48"))


def collective_call(kind: str, comm: Communicator, env, inputs: list[np.ndarray],
                    op: ReduceOp, algo: Optional[str] = None):
    """The generator of one ``kind`` call on ``comm`` (:data:`KINDS` plus
    ``scan``/``exscan``); ``yield from`` it for the rank's result.

    Rank r contributes ``inputs[r]``; rooted kinds root at 0.  ``algo``
    names an algorithm (``sched:`` prefix optional, see
    ``docs/schedules.md``); ``barrier`` and ``exscan`` take none.
    """
    mine = inputs[env.rank]
    if kind in ("barrier", "exscan"):
        if algo is not None:
            raise KeyError(f"{kind} takes no algorithm override")
        return (comm.barrier(env) if kind == "barrier"
                else comm.exscan(env, mine, op))
    if kind == "allreduce":
        return comm.allreduce(env, mine, op, algo=algo)
    if kind == "reduce":
        return comm.reduce(env, mine, op, 0, algo=algo)
    if kind == "reduce_scatter":
        return comm.reduce_scatter(env, mine, op, algo=algo)
    if kind == "allgather":
        return comm.allgather(env, mine, algo=algo)
    if kind == "alltoall":
        return comm.alltoall(env, np.tile(mine, (env.size, 1)), algo=algo)
    if kind == "bcast":
        buf = inputs[0].copy() if env.rank == 0 else np.empty_like(inputs[0])
        return comm.bcast(env, buf, 0, algo=algo)
    if kind == "scan":
        return comm.scan(env, mine, op, algo=algo)
    raise KeyError(f"unknown collective kind {kind!r}")


def program_for(kind: str, comm: Communicator, inputs: list[np.ndarray],
                op: ReduceOp, algo: Optional[str] = None):
    """Build the per-rank SPMD program measuring one collective call
    (arguments as for :func:`collective_call`)."""

    def program(env):
        # Align all ranks, then time the operation on rank 0 like the
        # paper does ("the displayed latencies were measured on core 0").
        yield from comm.barrier(env)
        start = env.now
        yield from collective_call(kind, comm, env, inputs, op, algo)
        return env.now - start

    return program


def launch_collective(kind: str, stack: str, size: int, *,
                      cores: Optional[int] = None,
                      config: Optional[SCCConfig] = None,
                      op: ReduceOp = SUM,
                      rank_order: Optional[Sequence[int]] = None,
                      seed: int = 20120901,
                      algo: Optional[str] = None,
                      tracer: Optional[Tracer] = None,
                      observers: Sequence = ()) -> tuple[Machine, SPMDResult]:
    """Run one timed collective on a fresh machine: what every
    measurement, profile and checker run shares.

    ``size`` is the per-rank vector length in doubles (the paper's x axis).
    ``rank_order`` maps ranks to physical cores (default: identity, i.e.
    RCCE's natural core numbering); pass
    ``machine.topology.snake_ring_order()`` for the topology-aware mapping
    ablation.  ``algo`` overrides the algorithm selection (see
    :func:`collective_call`).  ``config``, ``tracer`` and ``observers``
    go to :func:`~repro.core.registry.launch`.  Returns the machine and
    its :class:`~repro.hw.machine.SPMDResult`; ``result.values[0]`` is
    rank 0's latency in picoseconds.
    """
    cores = cores if cores is not None else default_cores()
    machine, comm = launch(stack, cores, config=config, tracer=tracer,
                           observers=observers)
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=size) for _ in range(cores)]
    program = program_for(kind, comm, inputs, op, algo)
    ranks = list(rank_order) if rank_order is not None else list(range(cores))
    return machine, machine.run_spmd(program, ranks=ranks)


def measure_collective(kind: str, stack: str, size: int, *,
                       cores: Optional[int] = None,
                       config: Optional[SCCConfig] = None,
                       op: ReduceOp = SUM,
                       rank_order: Optional[Sequence[int]] = None,
                       seed: int = 20120901,
                       algo: Optional[str] = None) -> float:
    """Simulated latency (microseconds, rank-0 view) of one collective;
    arguments as for :func:`launch_collective`."""
    _machine, result = launch_collective(
        kind, stack, size, cores=cores, config=config, op=op,
        rank_order=rank_order, seed=seed, algo=algo)
    return ps_to_us(result.values[0])


def sweep_points(kind: str, stacks: Sequence[str], sizes: Sequence[int],
                 cores: Optional[int] = None, *,
                 algo: Optional[str] = None,
                 topology: Optional[str] = None) -> list[SweepPoint]:
    """The plan of one sweep: a point per (stack, size), stacks-major.

    ``topology`` is a registry spec (``repro.hw.topo``, e.g.
    ``"cluster:2x24"``): every point's machine is built on that shape,
    and ``cores`` defaults to the shape's full core count instead of
    the benchmark default.
    """
    config = SCCConfig() if topology is None else SCCConfig(topology=topology)
    if cores is None:
        cores = default_cores() if topology is None else config.num_cores
    return [SweepPoint(kind=kind, stack=stack, size=n, cores=cores,
                       config=config, algo=algo)
            for stack in stacks for n in sizes]


def latencies_by_stack(latencies: Sequence[float], stacks: Sequence[str],
                       sizes: Sequence[int]) -> dict[str, list[float]]:
    """Regroup a :func:`sweep_points` plan's flat result:
    ``{stack: [us per size]}``."""
    values = iter(latencies)
    return {stack: [next(values) for _ in sizes] for stack in stacks}


def sweep(kind: str, stacks: Sequence[str],
          sizes: Optional[Sequence[int]] = None,
          cores: Optional[int] = None, *,
          jobs: Optional[int] = None,
          cache=None, algo: Optional[str] = None,
          engine: str = "sim",
          topology: Optional[str] = None) -> dict[str, list[float]]:
    """latencies[stack] = [us per size] of one collective.

    Runs :func:`sweep_points` through
    :func:`~repro.bench.executor.run_sweep`, which documents ``jobs``
    (worker processes; default ``REPRO_BENCH_JOBS``), ``cache`` (the
    on-disk result cache; default ``REPRO_BENCH_CACHE``) and ``engine``
    (``"sim"``, ``"analytic"`` or ``"auto"`` — see ``docs/engines.md``).
    ``sizes`` defaults to :func:`default_sizes`.
    """
    sizes = list(sizes) if sizes is not None else default_sizes()
    outcome = run_sweep(
        sweep_points(kind, stacks, sizes, cores, algo=algo,
                     topology=topology),
        jobs=jobs, cache=cache, engine=engine)
    return latencies_by_stack(outcome.latencies, stacks, sizes)
