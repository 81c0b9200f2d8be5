"""Benchmark-owned simulator ops: one collective (or one GCMC run) on a
machine the benchmark builds itself, so it owns the event count, the
host-time split and the payloads it checks against numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis import RaceDetector, Sanitizer
from repro.apps.gcmc import run_gcmc
from repro.bench.stats import comm_stats
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.faults import FaultInjector, FaultPlan
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.obs import (chrome_trace_events, extract_spans, link_traffic,
                       mpb_counters, run_metrics)
from repro.sim.trace import Tracer

from trace import Recorder

#: Observer modes of ``observed_sim`` ("count" is the traced run's
#: counter pass: traffic stats plus a flag-op counting sanitizer).
MODES = ("bare", "trace", "sanitizer", "race", "faults")


@dataclass
class OpResult:
    """What one executed op hands back to the harness."""

    #: Simulated (or estimated) picoseconds, one integer per counted unit;
    #: they feed ``sim_us_total`` and ``sim_digest``.
    sim_ps: list[int]
    events: int = 0
    spmd_s: float = 0.0
    #: Untimed output check; returns a failure text or None.
    verify: Optional[Callable[[], Optional[str]]] = None
    #: Non-numeric outputs that belong in the digest (chosen algorithms).
    digest_extra: str = ""
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Point:
    """One collective call: what runs, where, on how many ranks."""

    kind: str
    stack: str
    n: int
    p: int = 48
    topology: Optional[str] = None
    algo: Optional[str] = None
    mode: str = "bare"

    @property
    def name(self) -> str:
        parts = [self.kind, self.stack, f"n{self.n}", f"p{self.p}"]
        if self.topology:
            parts.append(self.topology.replace(":", "-"))
        if self.algo:
            parts.append(self.algo.replace(":", "-"))
        if self.mode != "bare":
            parts.append(self.mode)
        return "/".join(parts)


class CountingSanitizer(Sanitizer):
    """Sanitizer that also counts flag writes and observations."""

    flag_ops = 0

    def on_flag_write(self, flag, level, actor):
        self.flag_ops += 1
        super().on_flag_write(flag, level, actor)

    def on_flag_observed(self, flag, level, actor):
        self.flag_ops += 1
        super().on_flag_observed(flag, level, actor)


def spmd_program(kind: str, comm, inputs: np.ndarray, algo: Optional[str]):
    """Per-rank program: barrier, one collective, (rank time, payload)."""

    def program(env):
        yield from comm.barrier(env)
        start = env.now
        mine = inputs[env.rank]
        if kind == "allreduce":
            out = yield from comm.allreduce(env, mine, SUM, algo=algo)
        elif kind == "reduce":
            out = yield from comm.reduce(env, mine, SUM, 0, algo=algo)
        elif kind == "reduce_scatter":
            out = yield from comm.reduce_scatter(env, mine, SUM, algo=algo)
        elif kind == "allgather":
            out = yield from comm.allgather(env, mine, algo=algo)
        elif kind == "alltoall":
            # Row j goes to rank j and is tagged with j, so a misrouted
            # row cannot pass the check.
            matrix = mine + np.arange(env.size)[:, None]
            out = yield from comm.alltoall(env, matrix, algo=algo)
        elif kind == "bcast":
            buf = mine.copy() if env.rank == 0 else np.empty_like(mine)
            out = yield from comm.bcast(env, buf, 0, algo=algo)
        elif kind == "scan":
            out = yield from comm.scan(env, mine, SUM, algo=algo)
        else:
            raise KeyError(f"unknown collective kind {kind!r}")
        return env.now - start, out

    return program


def check_payloads(kind: str, inputs: np.ndarray,
                   outputs: list) -> Optional[str]:
    """Compare every rank's payload with the numpy reference."""
    p = len(outputs)
    total = inputs.sum(axis=0)
    for rank, out in enumerate(outputs):
        if kind == "allreduce":
            ok = np.allclose(out, total, rtol=1e-9, atol=1e-9)
        elif kind == "reduce":
            ok = (np.allclose(out, total, rtol=1e-9, atol=1e-9)
                  if rank == 0 else out is None)
        elif kind == "reduce_scatter":
            block, part = out
            ok = np.allclose(block, total[part.slice_of(rank)],
                             rtol=1e-9, atol=1e-9)
        elif kind == "allgather":
            ok = np.array_equal(out, inputs)
        elif kind == "alltoall":
            ok = np.array_equal(out, inputs + rank)
        elif kind == "bcast":
            ok = np.array_equal(out, inputs[0])
        elif kind == "scan":
            ok = np.allclose(out, inputs[:rank + 1].sum(axis=0),
                             rtol=1e-9, atol=1e-9)
        else:
            ok = False
        if not ok:
            return f"{kind}: rank {rank}/{p} payload differs from numpy"
    return None


def run_collective(rec: Recorder, point: Point, inputs: np.ndarray, *,
                   fault_seed: int = 0,
                   corrupt: bool = False) -> OpResult:
    """Build a machine, run one collective, return time/events/payloads.

    ``corrupt`` flips one payload value before the check (self-test hook:
    the check must notice).
    """
    mode = point.mode
    with rec.span("hw.Machine"):
        config = (SCCConfig(topology=point.topology) if point.topology
                  else SCCConfig())
        tracer = Tracer(enabled=True) if mode == "trace" else None
        machine = Machine(config, tracer=tracer)
    observer = None
    if mode in ("trace", "count"):
        comm_stats(machine)
    if mode in ("sanitizer", "count"):
        with rec.span("analysis.install"):
            cls = CountingSanitizer if mode == "count" else Sanitizer
            observer = cls().install(machine)
    elif mode == "race":
        with rec.span("analysis.install"):
            observer = RaceDetector().install(machine)
    elif mode == "faults":
        with rec.span("faults.install"):
            plan = FaultPlan(seed=fault_seed, mesh_jitter_prob=0.05)
            observer = FaultInjector(plan).install(machine)
    with rec.span("core.make_communicator"):
        comm = make_communicator(machine, point.stack)
    program = spmd_program(point.kind, comm, inputs, point.algo)
    started = time.perf_counter()
    with rec.span("hw.run_spmd"):
        result = machine.run_spmd(program, ranks=list(range(point.p)))
    spmd_s = time.perf_counter() - started
    info: dict[str, Any] = {}
    if mode == "trace":
        records = list(tracer.records)
        with rec.span("obs.extract_spans"):
            spans = extract_spans(records)
        with rec.span("obs.run_metrics"):
            run_metrics(machine, result)
        with rec.span("obs.chrome_trace_events"):
            chrome = chrome_trace_events(records)
        info.update(trace_records=len(records), spans=len(spans),
                    chrome_events=len(chrome))
    elif mode in ("sanitizer", "race"):
        info["diagnostics"] = observer.total_findings
    elif mode == "faults":
        info["injected"] = len(observer.events)
    if mode == "count" or rec.enabled:
        mpb = mpb_counters(machine)
        info["mpb_accesses"] = sum(m["reads"] + m["writes"] for m in mpb)
        info["mpb_bytes"] = sum(m["read_bytes"] + m["write_bytes"]
                                for m in mpb)
    if mode == "count":
        info["flag_ops"] = observer.flag_ops
        info["link_line_hops"] = sum((link["bytes"] + 31) // 32
                                     for link in link_traffic(machine))
    outputs = [value[1] for value in result.values]
    if corrupt:
        first = next(o for o in outputs if o is not None)
        (first[0] if isinstance(first, tuple) else first).flat[0] += 1.0

    def verify() -> Optional[str]:
        with rec.span("perf.payload_check"):
            return check_payloads(point.kind, inputs, outputs)

    return OpResult(sim_ps=[int(result.values[0][0])],
                    events=machine.sim.events_processed, spmd_s=spmd_s,
                    verify=verify, info=info)


def run_gcmc_op(rec: Recorder, stack: str, cfg, cycles: int,
                reference) -> OpResult:
    """One GCMC run of ``cycles`` MC cycles on the full chip."""
    with rec.span("hw.Machine"):
        machine = Machine(SCCConfig())
    with rec.span("core.make_communicator"):
        comm = make_communicator(machine, stack)
    started = time.perf_counter()
    with rec.span("apps.gcmc.run_gcmc"):
        result = run_gcmc(machine, comm, cfg, cycles)
    spmd_s = time.perf_counter() - started

    def verify() -> Optional[str]:
        if (result.final_particles != reference.final_particles
                or not np.isclose(result.final_energy,
                                  reference.final_energy,
                                  rtol=1e-9, atol=1e-9)):
            return (f"gcmc/{stack}: physics differs from the serial "
                    f"reference (E={result.final_energy} "
                    f"N={result.final_particles})")
        return None

    return OpResult(sim_ps=[int(result.elapsed_ps)],
                    events=machine.sim.events_processed, spmd_s=spmd_s,
                    verify=verify,
                    info={"wait_fraction": result.wait_fraction(),
                          "energy": result.final_energy,
                          "particles": result.final_particles})
