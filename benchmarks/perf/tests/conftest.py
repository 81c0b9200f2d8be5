"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests
"""

import pathlib
import sys

PERF_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF_DIR))
