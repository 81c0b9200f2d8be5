"""Per-layer probes: small timed calls into one layer's public functions.

Each probe returns ``{metric name: value}`` and runs in the traced run of
the workload its metrics are mapped to (``metrics.py``).  Timings are
medians over a few repeats; counts are exact.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from statistics import median
from typing import Callable

import numpy as np

from repro.analysis import verify_schedule
from repro.bench.analytic import analytic_latency_us
from repro.bench.executor import (SweepPoint, code_fingerprint, fingerprint,
                                  parallel_map)
from repro.bench.figures import FIG9_PANELS
from repro.bench.runner import measure_collective
from repro.core.blocks import balanced_partition
from repro.core.ops import op_by_name
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.timing import LatencyModel
from repro.hw.topo import get_topology
from repro.sched.builders import build_schedule
from repro.sched.cost import estimate_schedule_cost
from repro.sched.select import SelectionTable
from repro.sched.synth import default_model
from repro.sim.engine import Simulator

from metrics import P2P_STACKS, REPO_ROOT
from simops import Point, run_collective
from trace import Recorder


def timed(fn: Callable[[], object], repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


# -- sim ------------------------------------------------------------------
def sim_dispatch(rec: Recorder) -> dict:
    """Bare kernel: 48 generator processes x 2000 timeouts, no hw."""
    def proc(sim, k):
        for _ in range(2000):
            yield sim.timeout(1000 + k)

    per_event = []
    for _ in range(5):
        sim = Simulator()
        for k in range(48):
            sim.process(proc(sim, k))
        with rec.span("sim.Simulator.run"):
            t0 = time.perf_counter()
            sim.run()
            per_event.append((time.perf_counter() - t0)
                             / sim.events_processed)
    return {"sim.dispatch_ns_per_event": 1e9 * median(per_event)}


# -- hw -------------------------------------------------------------------
def hw_timing(rec: Recorder) -> dict:
    """LatencyModel lookups over all 48x48 core pairs."""
    config = SCCConfig()
    topology = config.resolved_topology()
    nbytes = 552 * 8

    def sweep(model: LatencyModel) -> float:
        t0 = time.perf_counter()
        for a in range(48):
            for b in range(48):
                model.mpb_write_bytes(a, b, nbytes)
                model.mpb_read_bytes(a, b, nbytes)
                model.flag_write(a, b)
        return (time.perf_counter() - t0) / (48 * 48 * 3)

    warm = LatencyModel(config, topology)
    sweep(warm)
    with rec.span("hw.LatencyModel"):
        warm_ns = median([sweep(warm) for _ in range(5)])
        cold_ns = median([sweep(LatencyModel(config, topology,
                                              cache=False))
                           for _ in range(5)])
    return {"hw.timing_lookup_ns_warm": 1e9 * warm_ns,
            "hw.timing_lookup_ns_cold": 1e9 * cold_ns}


def hw_build(rec: Recorder) -> dict:
    specs = ("mesh:6x4", "torus:6x4", "cluster:2x24")
    out = {}
    cold = []
    for spec in specs:
        get_topology.cache_clear()
        with rec.span("hw.get_topology"):
            cold += timed(lambda: get_topology(spec), 1)
        with rec.span("hw.Machine"):
            builds = timed(lambda: Machine(SCCConfig(topology=spec)), 7)
        out[f"hw.machine_build_ms.{spec.replace(':', '-')}"] = (
            1e3 * median(builds))
    out["hw.topo_build_ms_cold"] = 1e3 * sum(cold) / len(cold)
    return out


# -- p2p stacks -----------------------------------------------------------
def pingpong(rec: Recorder, trips: int = 200) -> dict:
    """2-rank ping-pong between cores 0 and 47, n in {4, 552}."""
    out = {}
    for layer, stack in P2P_STACKS.items():
        sim_ps = events = 0
        host_s = 0.0
        for n in (4, 552):
            machine = Machine(SCCConfig())
            comm = make_communicator(machine, stack)

            def program(env, n=n, comm=comm):
                buf = np.zeros(n)
                start = env.now
                for _ in range(trips):
                    if env.rank == 0:
                        yield from comm.send(env, buf, 1)
                        yield from comm.recv(env, buf, 1)
                    else:
                        yield from comm.recv(env, buf, 0)
                        yield from comm.send(env, buf, 0)
                return env.now - start

            with rec.span(f"{layer}.pingpong"):
                t0 = time.perf_counter()
                result = machine.run_spmd(program, ranks=[0, 47])
                host_s += time.perf_counter() - t0
            sim_ps += result.values[0]
            events += machine.sim.events_processed
        out[f"{layer}.pingpong_sim_us"] = sim_ps / 1e6 / (2 * trips)
        out[f"{layer}.pingpong_events"] = events
        out[f"{layer}.pingpong_host_us"] = 1e6 * host_s / (2 * trips)
    return out


# -- sched ----------------------------------------------------------------
_BUILD_SAMPLE = (("allreduce", "rsag"), ("bcast", "scatter_allgather"),
                 ("alltoall", "pairwise"), ("reduce", "rsg"))


def sched_probes(rec: Recorder, seed: int) -> dict:
    out = {}
    # Unseen sizes make every build a cache miss; the repeat is the hit.
    build_cold, build_warm, cost_cold, cost_warm = [], [], [], []
    model = default_model()
    for i, (kind, name) in enumerate(_BUILD_SAMPLE * 3):
        n = 801 + i
        part = balanced_partition(n, 48)

        def build():
            return build_schedule(kind, name, 48, n, part=part)

        with rec.span("sched.build_schedule"):
            build_cold += timed(build, 1)
            build_warm += timed(build, 20)
        sched = build()

        def cost():
            return estimate_schedule_cost(sched, model)

        with rec.span("sched.estimate_schedule_cost"):
            cost_cold += timed(cost, 1)
            cost_warm += timed(cost, 20)
    out["sched.build_ms_cold"] = 1e3 * median(build_cold)
    out["sched.build_us_warm"] = 1e6 * median(build_warm)
    out["sched.cost_ms_cold"] = 1e3 * median(cost_cold)
    out["sched.cost_us_warm"] = 1e6 * median(cost_warm)

    with rec.span("sched.SelectionTable.load"):
        loads = timed(SelectionTable.load, 5)
    out["sched.table_load_ms"] = 1e3 * median(loads)
    table = SelectionTable.load()
    rng = np.random.default_rng([seed, 30])
    kinds = table.kinds()
    hit_s, miss_s = [], []
    for _ in range(5000):
        kind = kinds[int(rng.integers(len(kinds)))]
        grid = list(table.entries[kind])
        p, n = grid[int(rng.integers(len(grid)))]
        style = int(rng.integers(10))
        topology = None
        if style >= 8:          # untuned topology: no entry at all
            topology = "torus:8x8"
        elif style >= 5:        # off-grid: nearest-point search
            n += 1 + int(rng.integers(7))
        exact = topology is None and (p, n) in table.entries[kind]
        t0 = time.perf_counter()
        table.pick(kind, p, n, topology=topology)
        (hit_s if exact else miss_s).append(time.perf_counter() - t0)
    out["sched.pick_us_hit"] = 1e6 * median(hit_s)
    out["sched.pick_us_miss"] = 1e6 * median(miss_s)
    out["sched.table_hit_ratio"] = len(hit_s) / 5000
    return out


def exec_vs_native(rec: Recorder, shared: list[Point]) -> dict:
    """Host time of the same points through ``sched:`` and natively,
    alternated so both sides see the same host phases."""
    sched_s = [[] for _ in shared]
    native_s = [[] for _ in shared]
    for _ in range(3):
        for i, point in enumerate(shared):
            inputs = np.zeros((point.p, point.n))
            native = dataclasses.replace(point, algo=None)
            for target, variant in ((sched_s, point), (native_s, native)):
                with rec.span("perf.exec_vs_native"):
                    target[i] += timed(
                        lambda: run_collective(rec, variant, inputs), 1)
    ratio = (sum(median(s) for s in sched_s)
             / sum(median(s) for s in native_s))
    return {"sched.exec_vs_native_x": ratio}


# -- bench ----------------------------------------------------------------
def analytic_probes(rec: Recorder) -> dict:
    points = [SweepPoint(kind=kind, stack=stack, size=901 + 4 * i,
                         cores=48)
              for i, (kind, stack) in enumerate(
                  (k, s) for k in ("allreduce", "bcast", "reduce_scatter",
                                   "alltoall", "allgather", "reduce")
                  for s in ("blocking", "lightweight_balanced"))]
    with rec.span("bench.analytic_latency_us"):
        cold = [timed(lambda: analytic_latency_us(pt), 1)[0]
                for pt in points]
        warm = [median(timed(lambda: analytic_latency_us(pt), 5))
                for pt in points]
    fig9 = [SweepPoint(kind=kind, stack=stack, size=552, cores=48)
            for kind, stacks in FIG9_PANELS.values() for stack in stacks]
    fallbacks = sum(analytic_latency_us(pt) is None for pt in fig9)
    return {"bench.analytic_ms_per_point_cold": 1e3 * median(cold),
            "bench.analytic_ms_per_point_warm": 1e3 * median(warm),
            "bench.analytic_fallback_share": fallbacks / len(fig9)}


def _nothing(_item) -> None:
    return None


def harness_probes(rec: Recorder, points: list[SweepPoint],
                   cold_seq_s: float) -> dict:
    out = {}
    code_fingerprint.cache_clear()
    with rec.span("bench.code_fingerprint"):
        out["bench.code_fingerprint_ms"] = 1e3 * timed(code_fingerprint,
                                                       1)[0]
    with rec.span("bench.fingerprint"):
        prints = [timed(lambda: fingerprint(pt), 1)[0]
                  for pt in points[:200]]
    out["bench.fingerprint_us"] = 1e6 * median(prints)
    if (os.cpu_count() or 1) >= 2:
        with rec.span("bench.parallel_map"):
            spawns = timed(lambda: parallel_map(_nothing, range(2),
                                                jobs=2), 3)
        out["bench.pool_spawn_ms"] = 1e3 * median(spawns)
    # The points themselves, called directly: what run_sweep adds on top.
    with rec.span("bench.measure_collective"):
        direct = timed(lambda: [measure_collective(
            pt.kind, pt.stack, pt.size, cores=pt.cores, config=pt.config,
            op=op_by_name(pt.op), seed=pt.seed) for pt in points], 1)[0]
    if cold_seq_s > 0:
        out["bench.harness_overhead_share"] = 1.0 - direct / cold_seq_s
    return out


# -- analysis -------------------------------------------------------------
def schedverify(rec: Recorder) -> dict:
    scheds = [build_schedule(kind, name, 48, 552,
                             part=balanced_partition(552, 48))
              for kind, name in _BUILD_SAMPLE]
    with rec.span("analysis.verify_schedule"):
        times = [timed(lambda: verify_schedule(s), 1)[0] for s in scheds]
    return {"analysis.schedverify_ms_per_schedule": 1e3 * median(times)}


# -- cli ------------------------------------------------------------------
def cli_probes(rec: Recorder) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

    def info() -> None:
        subprocess.run([sys.executable, "-m", "repro", "info"], env=env,
                       check=True, stdout=subprocess.DEVNULL)

    def import_cli() -> float:
        code = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True)
        return float(done.stdout)

    with rec.span("cli.subprocess"):
        startup = timed(info, 5)
        imports = [import_cli() for _ in range(3)]
    return {"cli.startup_ms": 1e3 * median(startup),
            "cli.import_ms": 1e3 * median(imports)}
