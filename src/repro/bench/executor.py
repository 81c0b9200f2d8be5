"""Parallel, cached sweep execution.

Every figure and ablation in this reproduction is a sweep of *independent,
deterministic* runs: one :func:`~repro.bench.runner.measure_collective`
value per (collective, stack, size) point.  This module turns such a sweep
into an execution plan with three accelerators stacked on top of the
per-point exact value (replayed from the bound programs by
:mod:`repro.sched.replay`, or simulated where replay escalates):

1. **Parallel fan-out** — points are distributed over a
   ``multiprocessing`` worker pool (``--jobs`` on ``python -m repro sweep``,
   or the ``REPRO_BENCH_JOBS`` environment knob; ``0`` means "all CPUs").
   Each point is a self-contained deterministic run, seeded identically
   to the sequential path, and results are reassembled in submission
   order, so the output is **bit-identical** to running the points in a
   loop (asserted by ``tests/bench/test_executor.py``).

2. **Content-addressed result cache** — each point's latency is stored
   under a fingerprint of everything the simulation depends on: the point
   coordinates (kind, stack, size, cores, op, seed, rank order), every
   :class:`~repro.hw.config.SCCConfig` field, the NumPy major/minor
   version, and a hash of the ``repro`` package sources.  Re-running a
   figure, ablation or chaos campaign skips already-simulated points;
   editing *any* simulator source file changes the code hash and
   invalidates the whole cache — there is no way to read a stale latency
   out of it short of hand-editing the cache file.

3. **Deterministic reassembly** — cache hits and fresh results are merged
   back into the caller's point order, so sweeps see one flat
   ``list[float]`` regardless of which layer produced each value.

The cache is one SQLite file, ``results.sqlite3``, in
``benchmarks/results/.cache/`` by default (override the directory with
``REPRO_BENCH_CACHE_DIR``); disable it wholesale with
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
import sqlite3
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.hw.config import SCCConfig, config_key, config_keys
from repro.sim.clock import ps_to_us

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


def _exact_group(points: list[SweepPoint]
                 ) -> list[tuple[float, Optional[str]]]:
    """The exact latencies of points that share a stack, core count,
    configuration and rank order, with why each was simulated (None when
    replayed): one :class:`~repro.sched.replay.Session` replays them
    all, and a point goes to the simulator where replay escalates; the
    whole group does where the session itself escalates.  Worker entry,
    like :func:`_execute_point`."""
    from repro.sched.replay import Escalation, Session

    first = points[0]
    try:
        session = Session(first.stack, first.cores, config=first.config,
                          rank_order=first.rank_order)
    except Escalation as why:
        return [(_execute_point(point), str(why)) for point in points]
    out: list[tuple[float, Optional[str]]] = []
    for point in points:
        try:
            marks = session.measure(point.kind, point.size, point.algo)
        except Escalation as why:
            out.append((_execute_point(point), str(why)))
        else:
            out.append((ps_to_us(marks[0][0]), None))
    return out


def _groups(points: Sequence[SweepPoint], indices: list[int],
            config_key: Callable[[SCCConfig], str],
            jobs: int) -> list[list[int]]:
    """``indices`` grouped by (stack, cores, ``config_key``, rank order),
    in first-seen order, each group cut into ``min(jobs, len)``
    contiguous pieces so that a pool still gets one task per worker."""
    groups: dict[tuple, list[int]] = {}
    for i in indices:
        point = points[i]
        groups.setdefault((point.stack, point.cores,
                           config_key(point.config), point.rank_order),
                          []).append(i)
    tasks = []
    for group in groups.values():
        pieces = min(jobs, len(group))
        for k in range(pieces):
            tasks.append(group[k * len(group) // pieces:
                               (k + 1) * len(group) // pieces])
    return tasks


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


#: ``json.dumps(..., sort_keys=True, default=repr)`` without building an
#: encoder per call.
_encode = json.JSONEncoder(sort_keys=True, default=repr).encode


def _fingerprints(config_key: Callable[[SCCConfig], str]
                  ) -> Callable[[SweepPoint], str]:
    """:func:`fingerprint` for many points: the code hash, the NumPy
    version and each distinct kind, stack, op and algo string are
    encoded once, by this call, and spliced into every point's text."""
    code = _encode(code_fingerprint())
    numpy = _encode(np.__version__)
    schema = _encode(CACHE_SCHEMA)
    strings: dict[str, str] = {}

    def text(value) -> str:
        if type(value) is not str:
            return "null" if value is None else _encode(value)
        found = strings.get(value)
        if found is None:
            found = strings[value] = _encode(value)
        return found

    def number(value) -> str:
        return str(value) if type(value) is int else _encode(value)

    def fingerprint_of(point: SweepPoint) -> str:
        order = point.rank_order
        canonical = (
            f'{{"algo": {text(point.algo)}, "code": {code}, '
            f'"config": {config_key(point.config)}, '
            f'"cores": {number(point.cores)}, "kind": {text(point.kind)}, '
            f'"numpy": {numpy}, "op": {text(point.op)}, "rank_order": '
            f'{"null" if order is None else _encode(list(order))}, '
            f'"schema": {schema}, "seed": {number(point.seed)}, '
            f'"size": {number(point.size)}, '
            f'"stack": {text(point.stack)}}}')
        return hashlib.sha256(canonical.encode()).hexdigest()

    return fingerprint_of


def fingerprint(point: SweepPoint,
                config_key: Callable[[SCCConfig], str] = config_key) -> str:
    """Stable content address of one sweep point (sha256 hex digest).

    The hashed text is ``json.dumps`` of ``{"schema", "kind", "stack",
    "size", "cores", "op", "seed", "rank_order", "algo", "config":
    config_state(...), "code": code_fingerprint(), "numpy"}`` with sorted
    keys, written piece by piece: the config's part as ``config_key``
    serialises it (:func:`~repro.hw.config.config_keys` shares one
    serialisation between a sweep's equal configs), every other value as
    ``json.dumps`` would."""
    return _fingerprints(config_key)(point)


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


#: One row per fingerprint; ``latency_us`` is an IEEE double, so a served
#: latency is the stored float bit for bit.
_TABLE = ("CREATE TABLE IF NOT EXISTS results (fp TEXT PRIMARY KEY, "
          "schema INTEGER, latency_us REAL, point TEXT) WITHOUT ROWID")

class ResultCache:
    """Content-addressed store of exact latencies.

    One SQLite database, ``<root>/results.sqlite3``, with one row per
    fingerprint (schema, latency, point description).  It runs in WAL
    mode with ``synchronous=NORMAL``: a put is one transaction, so a
    killed sweep never leaves a torn row, and concurrent writers (other
    sweeps, other processes) wait for each other, up to SQLite's busy
    timeout.  The connection is opened on first use, and again in any
    process whose pid differs from the opener's: a forked child never
    touches its parent's connection.
    """

    FILE = "results.sqlite3"

    def __init__(self, root: Union[str, pathlib.Path, None] = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.path = self.root / self.FILE
        #: Connections by opener pid.  One inherited over a fork is left
        #: as it is: closing it would act on the parent's locks.
        self._connections: dict[int, sqlite3.Connection] = {}
        #: A damaged file was reported: reads miss until a put replaces it.
        self._damaged = False

    def _db(self, create: bool) -> Optional[sqlite3.Connection]:
        """This process's connection, or None where a read-only call
        finds no store (it creates nothing) or a reported damaged one,
        which the next put replaces."""
        pid = os.getpid()
        db = self._connections.get(pid)
        if db is not None:
            return db
        if not create and (self._damaged or not self.path.exists()):
            return None
        if self._damaged:
            for suffix in ("", "-wal", "-shm"):
                pathlib.Path(f"{self.path}{suffix}").unlink(missing_ok=True)
            self._damaged = False
        self.root.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(self.path, isolation_level=None)
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute(_TABLE)
        except sqlite3.Error:
            db.close()
            raise
        self._connections[pid] = db
        return db

    def _unusable(self, exc: sqlite3.DatabaseError) -> None:
        """Report a damaged store once.  SQLite's not-a-database and
        corrupt codes raise ``DatabaseError`` itself; any subclass (a lock
        held past the busy timeout, an unwritable directory) is re-raised."""
        if type(exc) is not sqlite3.DatabaseError:
            raise exc
        if not self._damaged:
            _log.warning("result cache %s is unusable (%s: %s); "
                         "re-pricing its points", self.path,
                         type(exc).__name__, exc)
        self._damaged = True
        self.close()

    def _one(self, sql: str, *args) -> Optional[tuple]:
        """The first row of ``sql`` on an existing store; None where
        there is none, or it is damaged."""
        try:
            db = self._db(create=False)
            return None if db is None else db.execute(sql, args).fetchone()
        except sqlite3.DatabaseError as exc:
            self._unusable(exc)
            return None

    def get(self, fp: str) -> Optional[float]:
        """Cached latency for a fingerprint, or None.

        An absent entry or store is a silent miss.  A row of another
        schema or without a number, and a damaged file, are misses too,
        logged with the file's path (the re-priced point's put replaces
        them).
        """
        row = self._one("SELECT schema, latency_us FROM results WHERE fp = ?",
                        fp)
        if row is None:
            return None
        schema, latency = row
        if schema == CACHE_SCHEMA and type(latency) is float:
            return latency
        problem = (f"schema {schema!r}, expected {CACHE_SCHEMA}"
                   if schema != CACHE_SCHEMA
                   else f"latency {latency!r} is not a number")
        _log.warning("result cache %s: entry %s is unusable (%s); "
                     "re-pricing the point", self.path, fp, problem)
        return None

    def put(self, fp: str, latency_us: float, point: SweepPoint) -> None:
        """Store a latency; a damaged store is replaced by a new one."""
        row = (fp, CACHE_SCHEMA, latency_us, point.describe())
        insert = "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?)"
        try:
            self._db(create=True).execute(insert, row)
        except sqlite3.DatabaseError as exc:
            self._unusable(exc)
            self._db(create=True).execute(insert, row)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = len(self)
        if removed:
            self._one("DELETE FROM results")
        return removed

    def __len__(self) -> int:
        row = self._one("SELECT count(*) FROM results")
        return 0 if row is None else row[0]

    def close(self) -> None:
        """Close this process's connection; the next call opens another.
        Closing the last connection to the file folds its WAL into it."""
        db = self._connections.pop(os.getpid(), None)
        if db is not None:
            db.close()


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

    ``hits``/``misses`` count result-cache lookups (both 0 without a
    cache).  ``analytic`` is the number of points priced by the analytic
    engine; ``validated`` how many of those were additionally
    cross-checked against their exact value (auto engine), and
    ``max_drift`` the signed relative deviation of the worst validated
    point — negative means the estimate undershot the exact value (0.0
    when nothing was validated).  Of the exact values the cache did not
    hold, ``replayed`` came from :mod:`repro.sched.replay` and
    ``simulated`` from the simulator (where replay escalates).
    """

    latencies: list[float]
    hits: int
    misses: int
    jobs: int
    wall_s: float
    analytic: int = 0
    validated: int = 0
    max_drift: float = 0.0
    replayed: int = 0
    simulated: int = 0

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
    across all (jobs, cache) combinations and to
    :func:`~repro.bench.runner.measure_collective`: every point is an
    independent deterministic run and the cache stores each latency as
    an IEEE double.

    ``engine`` selects how points are priced (see
    :mod:`repro.bench.analytic` and ``docs/engines.md``):

    * ``"sim"`` — the simulator's exact value of every point;
    * ``"analytic"`` — closed-form estimates for every expressible
      point, exact values for the rest;
    * ``"auto"`` — ``analytic`` plus the exact values of a deterministic
      sample of the estimated points
      (:data:`~repro.bench.analytic.DEFAULT_VALIDATE` points); any
      sampled point whose estimate drifts beyond
      :data:`~repro.bench.analytic.DEFAULT_DRIFT_TOL` raises
      :class:`~repro.bench.analytic.EngineDriftError`.

    Every exact value, under any engine, is replayed from the bound
    programs (one :class:`repro.sched.replay.Session` per group of
    points sharing a stack, core count, configuration and rank order;
    the simulated value to the picosecond) and simulated only where
    replay escalates; ``replayed``/``simulated`` count which, and the
    ``repro.bench.executor`` logger says which, per point in point
    order, at DEBUG; one INFO line per call gives the point count, cache
    hits and misses, replayed, simulated, wall seconds and the cache
    file.
    Every point's ``op`` is resolved first, so an unknown reduce op
    raises :class:`KeyError` under every engine.  Analytic estimates are
    never written to (or read from) the result cache — it stores exact
    latencies only, replayed ones included, and serves them to every
    engine.
    """
    from repro.bench.analytic import (
        DEFAULT_DRIFT_TOL,
        DEFAULT_VALIDATE,
        ENGINES,
        EngineDriftError,
        analytic_latency_us,
        validation_sample,
    )
    from repro.core.ops import op_by_name

    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: expected one of {ENGINES}")
    points = list(points)
    jobs = _resolve_jobs(jobs)
    store = _resolve_cache(cache)
    started = time.perf_counter()

    for point in points:  # an unknown op fails under every engine
        op_by_name(point.op)
    latencies: list[Optional[float]] = [None] * len(points)

    # Split the plan: analytically priced points vs points that need
    # their exact value (everything, for the sim engine; the analytic
    # engine's fallback points otherwise).  Auto additionally needs the
    # exact value of a sampled subset of the priced points.
    analytic_idx: list[int] = []
    exact_idx: list[int] = []
    validate_idx: list[int] = []
    if engine == "sim":
        exact_idx = list(range(len(points)))
    else:
        for i, point in enumerate(points):
            estimate = analytic_latency_us(point)
            if estimate is None:
                exact_idx.append(i)
            else:
                latencies[i] = estimate
                analytic_idx.append(i)
        if engine == "auto" and analytic_idx:
            validate_idx = [
                analytic_idx[j]
                for j in validation_sample(len(analytic_idx),
                                           DEFAULT_VALIDATE)]

    to_exact = exact_idx + validate_idx  # disjoint by construction
    keys = config_keys()  # one serialisation per distinct config
    fingerprints: dict[int, str] = {}
    exact: dict[int, float] = {}
    pending: list[int] = []
    if store is not None:
        fingerprint_of = _fingerprints(keys)
        for i in to_exact:
            fp = fingerprints[i] = fingerprint_of(points[i])
            hit = store.get(fp)
            if hit is None:
                pending.append(i)
            else:
                exact[i] = hit
    else:
        pending = list(to_exact)
    hits = len(exact)
    misses = len(pending) if store is not None else 0

    # One fan-out for every exact value: a replay session per group of
    # points, the simulator where replay escalates.
    tasks = _groups(points, pending, keys, jobs)
    fresh: dict[int, tuple[float, Optional[str]]] = {}
    for task, results in zip(tasks, parallel_map(
            _exact_group, [[points[i] for i in task] for task in tasks],
            jobs=jobs)):
        fresh.update(zip(task, results))
    replayed = 0
    debug = _log.isEnabledFor(logging.DEBUG)
    for i in sorted(fresh):
        value, why = fresh[i]
        exact[i] = value
        if why is None:
            replayed += 1
        if store is not None:
            store.put(fingerprints[i], value, points[i])
        if debug:
            _log.debug("%s: %s", points[i].describe(),
                       "replay" if why is None else f"sim: {why}")

    for i in exact_idx:
        latencies[i] = exact[i]

    # Cross-validation: compare the estimate (which stays the reported
    # value — auto is the analytic engine with a safety net, not a mix
    # of pricing regimes) against the exact value.
    max_drift = 0.0
    drifts: list[tuple[str, float, float, float]] = []
    if validate_idx:
        for i in validate_idx:
            sim_us = exact[i]
            ana_us = latencies[i]
            drift = (ana_us - sim_us) / sim_us if sim_us else 0.0
            if abs(drift) > abs(max_drift):
                max_drift = drift
            if abs(drift) > DEFAULT_DRIFT_TOL:
                drifts.append((points[i].describe(), ana_us, sim_us, drift))
        if drifts:
            drifts.sort(key=lambda d: -abs(d[3]))
            raise EngineDriftError(drifts, DEFAULT_DRIFT_TOL)

    outcome = SweepOutcome(
        latencies=latencies,  # type: ignore[arg-type]  # all filled above
        hits=hits,
        misses=misses,
        jobs=jobs,
        wall_s=time.perf_counter() - started,
        analytic=len(analytic_idx),
        validated=len(validate_idx),
        max_drift=max_drift,
        replayed=replayed,
        simulated=len(pending) - replayed,
    )
    _log.info("sweep: %d points, cache hits %d, misses %d, replayed %d, "
              "simulated %d, %.3f s, cache %s", outcome.points, hits, misses,
              replayed, outcome.simulated, outcome.wall_s,
              store.path if store is not None else "no cache")
    return outcome
