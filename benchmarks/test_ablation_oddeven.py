"""Ablation: the odd-even blocking ring in isolation (optimization A).

Microbenchmark of one ring ReduceScatter: the doubly-synchronizing
blocking primitives under the odd-even call ordering versus the relaxed
non-blocking rounds of Fig. 5 — the isolated effect the paper develops in
Section IV-A, including the deadlock that forces the ordering in the
first place.
"""

import numpy as np
import pytest

from repro.bench.runner import measure_collective
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import RCCE
from repro.sim.errors import DeadlockError

from conftest import write_report


def test_ablation_oddeven(benchmark, results_dir):
    blocking = measure_collective("reduce_scatter", "blocking", 552)
    relaxed = measure_collective("reduce_scatter", "lightweight", 552)
    # Isolate optimization A from B: the iRCCE stack keeps the heavy
    # request machinery but removes the odd-even barrier coupling.
    ircce = measure_collective("reduce_scatter", "ircce", 552)

    report = "\n".join([
        "=== Odd-even ablation: ring ReduceScatter, n = 552, 48 cores ===",
        f"blocking odd-even ring : {blocking:9.1f}us",
        f"iRCCE relaxed ring     : {ircce:9.1f}us  "
        f"({blocking / ircce:.2f}x, optimization A alone)",
        f"lightweight relaxed    : {relaxed:9.1f}us  "
        f"({blocking / relaxed:.2f}x, A + B)",
    ])
    write_report(results_dir, "ablation_oddeven", report)

    assert blocking > ircce > relaxed

    benchmark.pedantic(
        measure_collective, args=("reduce_scatter", "blocking", 552),
        rounds=1, iterations=1)


def test_unordered_blocking_ring_deadlocks(benchmark):
    """Without the odd-even ordering the blocking ring cannot work at all
    (Fig. 4's raison d'etre)."""
    machine = Machine(SCCConfig(topology="mesh:2x1"))
    rcce = RCCE(machine)

    def program(env):
        right = (env.rank + 1) % env.size
        left = (env.rank - 1) % env.size
        out = np.empty(8)
        yield from rcce.send(env, np.zeros(8), right)
        yield from rcce.recv(env, out, left)

    with pytest.raises(DeadlockError):
        machine.run_spmd(program)

    def safe_pair():
        m = Machine(SCCConfig(topology="mesh:2x1"))
        r = RCCE(m)
        comm = make_communicator(m, "blocking")

        def prog(env):
            yield from comm.barrier(env)
        return m.run_spmd(prog)

    benchmark.pedantic(safe_pair, rounds=1, iterations=1)
