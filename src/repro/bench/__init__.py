"""Benchmark harness: regenerates every table and figure of the paper.

* :mod:`repro.bench.runner` — measure one collective on one stack at one
  vector size (simulated latency), plus sweeps over sizes and stacks.
* :mod:`repro.bench.executor` — the one points -> latencies path
  (``run_sweep``: worker pool, result cache, pricing engines).
* :mod:`repro.bench.report` — series/table formatting, speedup statistics.
* :mod:`repro.bench.figures` — the per-figure experiment definitions
  (which collective, which stacks, which sweep) for Fig. 6, Fig. 9a–f and
  Fig. 10.
"""

from repro.bench.runner import (
    default_sizes,
    measure_collective,
    sweep,
)
from repro.bench.report import (
    Series,
    format_series_table,
    mean_speedup,
    speedup_series,
)

__all__ = [
    "Series",
    "default_sizes",
    "format_series_table",
    "mean_speedup",
    "measure_collective",
    "speedup_series",
    "sweep",
]
