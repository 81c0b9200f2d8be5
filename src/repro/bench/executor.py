"""Parallel, cached sweep execution.

Every figure and ablation in this reproduction is a sweep of *independent,
deterministic* simulations: one :func:`~repro.bench.runner.measure_collective`
call per (collective, stack, size) point.  This module turns such a sweep
into an execution plan with three accelerators stacked on top of the
unchanged per-point simulation:

1. **Parallel fan-out** — points are distributed over a
   ``multiprocessing`` worker pool (``--jobs`` on ``python -m repro sweep``,
   or the ``REPRO_BENCH_JOBS`` environment knob; ``0`` means "all CPUs").
   Each point is a self-contained simulation seeded identically to the
   sequential path, and results are reassembled in submission order, so
   the output is **bit-identical** to running the points in a loop
   (asserted by ``tests/bench/test_executor.py``).

2. **Content-addressed result cache** — each point's latency is stored
   under a fingerprint of everything the simulation depends on: the point
   coordinates (kind, stack, size, cores, op, seed, rank order), every
   :class:`~repro.hw.config.SCCConfig` field, the NumPy major/minor
   version, and a hash of the ``repro`` package sources.  Re-running a
   figure, ablation or chaos campaign skips already-simulated points;
   editing *any* simulator source file changes the code hash and
   invalidates the whole cache — there is no way to read a stale latency
   out of it short of hand-editing cache files.

3. **Deterministic reassembly** — cache hits and fresh results are merged
   back into the caller's point order, so sweeps see one flat
   ``list[float]`` regardless of which layer produced each value.

The cache lives in ``benchmarks/results/.cache/`` by default (override
with ``REPRO_BENCH_CACHE_DIR``); disable it wholesale with
``REPRO_BENCH_CACHE=0``.  See ``docs/performance.md`` for the full knob
reference and the fingerprint scheme.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import pathlib
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from repro.hw.config import SCCConfig

_log = logging.getLogger(__name__)

#: Bumped manually when the *meaning* of a cache entry changes (schema,
#: units).  Simulator behaviour changes are caught automatically by the
#: source hash, so this rarely moves.
CACHE_SCHEMA = 1


# --------------------------------------------------------------------- #
# Sweep points
# --------------------------------------------------------------------- #
@dataclass
class SweepPoint:
    """One independent simulation of a sweep.

    ``op`` and ``rank_order`` are stored in picklable/serializable form
    (operator name, tuple) so points can cross process boundaries and be
    fingerprinted canonically.
    """

    kind: str
    stack: str
    size: int
    cores: int
    op: str = "sum"
    seed: int = 20120901
    rank_order: Optional[tuple[int, ...]] = None
    config: SCCConfig = field(default_factory=SCCConfig)
    algo: Optional[str] = None

    def describe(self) -> str:
        suffix = f" algo={self.algo}" if self.algo is not None else ""
        return (f"{self.kind}/{self.stack} n={self.size} "
                f"p={self.cores} op={self.op} seed={self.seed}{suffix}")


def _execute_point(point: SweepPoint) -> float:
    """Run one point (worker entry; must stay module-level for pickling)."""
    from repro.bench.runner import measure_collective
    from repro.core.ops import op_by_name

    return measure_collective(
        point.kind, point.stack, point.size, cores=point.cores,
        config=point.config, op=op_by_name(point.op),
        rank_order=point.rank_order, seed=point.seed, algo=point.algo)


# --------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------- #
@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (hex digest, cached).

    Any edit to the simulator, the stacks, or the bench layer changes this
    value and therefore every point fingerprint — cached results can never
    outlive the code that produced them.
    """
    package_root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def fingerprint(point: SweepPoint) -> str:
    """Stable content address of one sweep point (sha256 hex digest)."""
    payload = {
        "schema": CACHE_SCHEMA,
        "kind": point.kind,
        "stack": point.stack,
        "size": point.size,
        "cores": point.cores,
        "op": point.op,
        "seed": point.seed,
        "rank_order": (list(point.rank_order)
                       if point.rank_order is not None else None),
        "algo": point.algo,
        "config": asdict(point.config),
        "code": code_fingerprint(),
        "numpy": np.__version__,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------- #
# The on-disk result cache
# --------------------------------------------------------------------- #
def default_cache_dir() -> pathlib.Path:
    """Resolve the cache directory: env override, repo tree, or home."""
    env = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results" / ".cache"
    return pathlib.Path.home() / ".cache" / "repro-scc-bench"


def cache_enabled_by_default() -> bool:
    """``REPRO_BENCH_CACHE`` knob: unset/1/on = enabled, 0/off = disabled."""
    value = os.environ.get("REPRO_BENCH_CACHE", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


class ResultCache:
    """Content-addressed store of simulated latencies.

    One JSON file per fingerprint, sharded by the first two hex digits
    (``.cache/ab/ab12....json``).  Writes go through a per-process
    temporary file and an atomic rename, so concurrent workers racing on
    the same point at worst both write the same bytes.
    """

    def __init__(self, root: Union[str, pathlib.Path, None] = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()

    def path_for(self, fp: str) -> pathlib.Path:
        return self.root / fp[:2] / f"{fp}.json"

    def get(self, fp: str) -> Optional[float]:
        """Cached latency for a fingerprint, or None.

        A missing entry is a silent miss.  An entry that exists but is
        truncated, not JSON or of another schema is a miss too (the
        re-simulated point overwrites it), logged with its path.
        """
        path = self.path_for(fp)
        try:
            with open(path) as fh:
                record = json.load(fh)
            if record["schema"] != CACHE_SCHEMA:
                raise ValueError(f"schema {record['schema']!r}, "
                                 f"expected {CACHE_SCHEMA}")
            return float(record["latency_us"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _log.warning(
                "result cache entry %s is unusable (%s: %s); "
                "re-simulating the point",
                path, type(exc).__name__, exc)
            return None

    def put(self, fp: str, latency_us: float, point: SweepPoint) -> None:
        path = self.path_for(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": CACHE_SCHEMA,
            "latency_us": latency_us,
            "point": point.describe(),
            "written_at": time.time(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.rglob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def default_jobs() -> int:
    """The ``REPRO_BENCH_JOBS`` knob (default 1; ``0``/``auto`` = all CPUs)."""
    value = os.environ.get("REPRO_BENCH_JOBS", "1").strip().lower()
    if value in ("0", "auto"):
        return os.cpu_count() or 1
    try:
        jobs = int(value)
    except ValueError:
        raise ValueError(
            f"malformed REPRO_BENCH_JOBS value {value!r}: expected a "
            f"worker count (or 0/'auto' for all CPUs)") from None
    if jobs < 0:
        raise ValueError(
            f"REPRO_BENCH_JOBS must be >= 0, got {jobs}")
    return jobs or (os.cpu_count() or 1)


def _resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` reads ``REPRO_BENCH_JOBS``; ``0`` means all CPUs."""
    jobs = default_jobs() if jobs is None else (jobs or (os.cpu_count() or 1))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class SweepOutcome:
    """Latencies (in point order) plus execution accounting.

    ``hits``/``misses`` count cache activity among the *simulated*
    points.  ``analytic`` is the number of points priced by the analytic
    engine instead of simulated; ``validated`` how many of those were
    additionally cross-checked against the simulator (auto engine), and
    ``max_drift`` the signed relative deviation of the worst validated
    point — negative means the estimate undershot the simulator (0.0
    when nothing was validated).
    """

    latencies: list[float]
    hits: int
    misses: int
    jobs: int
    wall_s: float
    analytic: int = 0
    validated: int = 0
    max_drift: float = 0.0

    @property
    def points(self) -> int:
        return len(self.latencies)


def _resolve_cache(cache: Union[ResultCache, bool, None]) -> Optional[ResultCache]:
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache()
    if cache is False:
        return None
    return ResultCache() if cache_enabled_by_default() else None


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker start-up at ~ms and inherits sys.path, which is
    # what makes --jobs pay off for second-scale points; fall back to the
    # platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(fn, items: Sequence, *, jobs: Optional[int] = None) -> list:
    """Order-preserving fork-pool map — the bench fan-out, reusable.

    ``fn`` must be a module-level callable (it crosses process
    boundaries) and every item an independent, deterministic unit of
    work; results come back in submission order, so the output is
    bit-identical to ``[fn(x) for x in items]`` at any job count.
    ``jobs=None`` reads ``REPRO_BENCH_JOBS`` (default 1); ``0`` means
    all CPUs.  Used by :func:`run_sweep` for sweep points and by
    :mod:`repro.ensemble` for GCMC ensemble members.
    """
    items = list(items)
    jobs = _resolve_jobs(jobs)
    if jobs > 1 and len(items) > 1:
        ctx = _pool_context()
        with ctx.Pool(processes=min(jobs, len(items))) as pool:
            return pool.map(fn, items, chunksize=1)
    return [fn(item) for item in items]


def run_sweep(points: Sequence[SweepPoint], *,
              jobs: Optional[int] = None,
              cache: Union[ResultCache, bool, None] = None,
              engine: str = "sim") -> SweepOutcome:
    """Execute a sweep plan and return latencies in point order.

    ``jobs``: worker processes (None → ``REPRO_BENCH_JOBS``, default 1;
    0 → all CPUs).  ``cache``: a :class:`ResultCache`, True/False to
    force the default cache on/off, or None for the ``REPRO_BENCH_CACHE``
    default.  With the default ``engine="sim"`` results are bit-identical
    across all (jobs, cache) combinations: every point is an independent
    deterministic simulation and floats round-trip exactly through the
    cache's JSON encoding.

    ``engine`` selects how points are priced (see
    :mod:`repro.bench.analytic` and ``docs/engines.md``):

    * ``"sim"`` — simulate everything (the historical behavior);
    * ``"analytic"`` — closed-form estimates for every expressible
      point, simulation for the rest;
    * ``"auto"`` — ``analytic`` plus a deterministic sample of the
      estimated points re-run through the simulator
      (:data:`~repro.bench.analytic.DEFAULT_VALIDATE` points); any
      sampled point whose estimate drifts beyond
      :data:`~repro.bench.analytic.DEFAULT_DRIFT_TOL` raises
      :class:`~repro.bench.analytic.EngineDriftError`.

    Analytic estimates are never written to (or read from) the result
    cache — it stores simulated latencies only.  Validation simulations
    are ordinary simulations and use the cache as usual.
    """
    from repro.bench.analytic import (
        DEFAULT_DRIFT_TOL,
        DEFAULT_VALIDATE,
        ENGINES,
        EngineDriftError,
        analytic_latency_us,
        validation_sample,
    )

    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: expected one of {ENGINES}")
    points = list(points)
    jobs = _resolve_jobs(jobs)
    store = _resolve_cache(cache)
    started = time.perf_counter()

    latencies: list[Optional[float]] = [None] * len(points)

    # Split the plan: analytically priced points vs points that must be
    # simulated (everything, for the sim engine; the analytic engine's
    # fallback points otherwise).  Auto additionally simulates a sampled
    # subset of the priced points for cross-validation.
    analytic_idx: list[int] = []
    sim_idx: list[int] = []
    validate_idx: list[int] = []
    if engine == "sim":
        sim_idx = list(range(len(points)))
    else:
        for i, point in enumerate(points):
            estimate = analytic_latency_us(point)
            if estimate is None:
                sim_idx.append(i)
            else:
                latencies[i] = estimate
                analytic_idx.append(i)
        if engine == "auto" and analytic_idx:
            validate_idx = [
                analytic_idx[j]
                for j in validation_sample(len(analytic_idx),
                                           DEFAULT_VALIDATE)]

    to_sim = sim_idx + validate_idx  # disjoint by construction
    fingerprints: dict[int, str] = {}
    sim_values: dict[int, float] = {}
    pending: list[int] = []
    if store is not None:
        for i in to_sim:
            fp = fingerprints[i] = fingerprint(points[i])
            hit = store.get(fp)
            if hit is None:
                pending.append(i)
            else:
                sim_values[i] = hit
    else:
        pending = list(to_sim)

    if pending:
        todo = [points[i] for i in pending]
        fresh = parallel_map(_execute_point, todo, jobs=jobs)
        for i, value in zip(pending, fresh):
            sim_values[i] = value
            if store is not None:
                store.put(fingerprints[i], value, points[i])

    for i in sim_idx:
        latencies[i] = sim_values[i]

    # Cross-validation: compare the estimate (which stays the reported
    # value — auto is the analytic engine with a safety net, not a mix
    # of pricing regimes) against the simulated truth.
    max_drift = 0.0
    drifts: list[tuple[str, float, float, float]] = []
    if validate_idx:
        for i in validate_idx:
            sim_us = sim_values[i]
            ana_us = latencies[i]
            drift = (ana_us - sim_us) / sim_us if sim_us else 0.0
            if abs(drift) > abs(max_drift):
                max_drift = drift
            if abs(drift) > DEFAULT_DRIFT_TOL:
                drifts.append((points[i].describe(), ana_us, sim_us, drift))
        if drifts:
            drifts.sort(key=lambda d: -abs(d[3]))
            raise EngineDriftError(drifts, DEFAULT_DRIFT_TOL)

    return SweepOutcome(
        latencies=latencies,  # type: ignore[arg-type]  # all filled above
        hits=len(to_sim) - len(pending),
        misses=len(pending),
        jobs=jobs,
        wall_s=time.perf_counter() - started,
        analytic=len(analytic_idx),
        validated=len(validate_idx),
        max_drift=max_drift,
    )
