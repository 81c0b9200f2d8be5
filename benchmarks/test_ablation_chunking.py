"""Ablation: MPB chunk-size sensitivity of point-to-point transfers.

RCCE pipelines messages larger than the MPB payload through full-buffer
chunks; this sweep shrinks the usable payload (emulating smaller MPBs or
competing MPB users) and shows the handshake-per-chunk cost growing.
"""

import numpy as np

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.rcce.api import RCCE
from repro.sim.clock import ps_to_us

from conftest import write_report

MESSAGE_DOUBLES = 4000  # 32 KB message, forced through multiple chunks


def _p2p_latency(mpb_bytes: int) -> float:
    cfg = SCCConfig(topology="mesh:2x1", mpb_bytes_per_core=mpb_bytes)
    machine = Machine(cfg)
    rcce = RCCE(machine)
    payload = np.zeros(MESSAGE_DOUBLES)

    def program(env):
        if env.rank == 0:
            yield from rcce.send(env, payload, 1)
        elif env.rank == 1:
            out = np.empty(MESSAGE_DOUBLES)
            yield from rcce.recv(env, out, 1 - env.rank)
        else:
            yield from env.compute(0)

    result = machine.run_spmd(program)
    return ps_to_us(result.elapsed_ps)


def test_ablation_chunking(benchmark, results_dir):
    sizes = [1024, 2048, 4096, 8192, 16384]
    latencies = {s: _p2p_latency(s) for s in sizes}
    lines = ["=== Chunking ablation: 32 KB blocking send/recv vs MPB size ===",
             f"{'mpb bytes':>10} {'chunks':>7} {'latency':>12}"]
    for s in sizes:
        chunks = -(-MESSAGE_DOUBLES * 8 // (s - 192))
        lines.append(f"{s:>10} {chunks:>7} {latencies[s]:>10.1f}us")
    write_report(results_dir, "ablation_chunking", "\n".join(lines))

    # More chunks -> more handshakes -> strictly slower.
    values = [latencies[s] for s in sizes]
    assert values == sorted(values, reverse=True)
    # Going from 8 KB to 1 KB MPBs must cost visibly (many extra syncs).
    assert latencies[1024] > 1.2 * latencies[8192]

    benchmark.pedantic(_p2p_latency, args=(8192,), rounds=1, iterations=1)
