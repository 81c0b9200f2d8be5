"""Tests for the parallel, cached sweep executor.

The executor's contract is strict: whatever combination of worker pool
and result cache serves a sweep, the latencies must be bit-identical to
running ``measure_collective`` in a plain sequential loop.
"""

import dataclasses
import multiprocessing
import os
import re
import sqlite3

import pytest

from repro.bench.executor import (
    CACHE_SCHEMA,
    ResultCache,
    SweepPoint,
    code_fingerprint,
    default_jobs,
    fingerprint,
    run_sweep,
)
from repro.bench.runner import KINDS, measure_collective, sweep
from repro.hw.config import SCCConfig

SMALL_CONFIG = dict(topology="mesh:2x1")
#: The same chip as a registry spec (what ``sweep(topology=...)`` takes).
SMALL_TOPOLOGY = "mesh:2x1"


def small_point(**overrides):
    defaults = dict(kind="allreduce", stack="lightweight", size=16,
                    cores=4, config=SCCConfig(**SMALL_CONFIG))
    defaults.update(overrides)
    return SweepPoint(**defaults)


class TestDeterminism:
    """Parallel executor + cache return bit-identical latencies."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_parallel_matches_sequential_2_cores(self, kind):
        points = [SweepPoint(kind=kind, stack="lightweight", size=8,
                             cores=2, config=SCCConfig(**SMALL_CONFIG))
                  for _ in range(2)]
        seq = run_sweep(points, jobs=1, cache=False)
        par = run_sweep(points, jobs=2, cache=False)
        reference = measure_collective(kind, "lightweight", 8, cores=2,
                                       config=SCCConfig(**SMALL_CONFIG))
        assert seq.latencies == par.latencies
        assert seq.latencies == [reference, reference]

    @pytest.mark.parametrize("kind", KINDS)
    def test_parallel_matches_sequential_48_cores(self, kind):
        points = [SweepPoint(kind=kind, stack="lightweight", size=8,
                             cores=48)]
        seq = run_sweep(points, jobs=1, cache=False)
        par = run_sweep(points, jobs=2, cache=False)
        reference = measure_collective(kind, "lightweight", 8, cores=48)
        assert seq.latencies == par.latencies == [reference]

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        store = ResultCache(tmp_path)
        points = [small_point(size=n) for n in (13, 16, 21)]
        cold = run_sweep(points, jobs=1, cache=store)
        warm = run_sweep(points, jobs=1, cache=store)
        uncached = run_sweep(points, jobs=1, cache=False)
        assert cold.latencies == warm.latencies == uncached.latencies
        assert cold.misses == 3 and cold.hits == 0
        assert warm.hits == 3 and warm.misses == 0

    def test_collective_bench_parallel_matches_sequential(self):
        def run(jobs):
            return sweep("allreduce", ["blocking", "lightweight"], [16, 20],
                         cores=4, topology=SMALL_TOPOLOGY, jobs=jobs,
                         cache=False)

        assert run(1) == run(2)

    def test_reassembly_order_is_stacks_major(self):
        data = sweep("allreduce", ["blocking", "lightweight"], [16, 20],
                     cores=4, topology=SMALL_TOPOLOGY, jobs=1, cache=False)
        assert list(data) == ["blocking", "lightweight"]
        for stack in data:
            assert data[stack] == [
                measure_collective("allreduce", stack, n, cores=4,
                                   config=SCCConfig(**SMALL_CONFIG))
                for n in (16, 20)
            ]


class TestReport:
    def test_one_info_line_per_call(self, tmp_path, caplog):
        store = ResultCache(tmp_path)
        points = [small_point(size=n) for n in (16, 20)]
        with caplog.at_level("INFO", logger="repro.bench.executor"):
            run_sweep(points, jobs=1, cache=store)
            run_sweep(points, jobs=1, cache=store)
            run_sweep(points[:1], jobs=1, cache=False)
        lines = [r.getMessage() for r in caplog.records
                 if r.levelname == "INFO"]
        wall = r"\d+\.\d{3} s"
        assert len(lines) == 3
        assert re.fullmatch(
            r"sweep: 2 points, cache hits 0, misses 2, replayed 2, "
            rf"simulated 0, {wall}, cache {re.escape(str(store.path))}",
            lines[0])
        assert re.fullmatch(
            r"sweep: 2 points, cache hits 2, misses 0, replayed 0, "
            rf"simulated 0, {wall}, cache {re.escape(str(store.path))}",
            lines[1])
        assert re.fullmatch(
            r"sweep: 1 points, cache hits 0, misses 0, replayed 1, "
            rf"simulated 0, {wall}, cache no cache", lines[2])


class TestFingerprint:
    def test_stable_for_equal_points(self):
        assert fingerprint(small_point()) == fingerprint(small_point())

    def test_every_coordinate_matters(self):
        base = fingerprint(small_point())
        variants = [
            small_point(kind="bcast"),
            small_point(stack="blocking"),
            small_point(size=17),
            small_point(cores=2),
            small_point(op="max"),
            small_point(seed=7),
            small_point(rank_order=(3, 1, 2, 0)),
        ]
        fps = [fingerprint(p) for p in variants]
        assert base not in fps
        assert len(set(fps)) == len(fps)

    def test_config_field_busts_fingerprint(self):
        base = fingerprint(small_point())
        tweaked = small_point(
            config=SCCConfig(**SMALL_CONFIG, erratum_enabled=False))
        assert fingerprint(tweaked) != base

    def test_seed_busts_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([small_point()], jobs=1, cache=store)
        outcome = run_sweep([small_point(seed=99)], jobs=1, cache=store)
        assert outcome.misses == 1  # the seeded point was not served stale

    def test_config_field_busts_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([small_point()], jobs=1, cache=store)
        tweaked = small_point(
            config=SCCConfig(**SMALL_CONFIG, put_line_core_cycles=111))
        outcome = run_sweep([tweaked], jobs=1, cache=store)
        assert outcome.misses == 1

    #: Digests recorded while fingerprint() still deep-copied the config
    #: (dataclasses.asdict), under a fixed code hash and NumPy version:
    #: reading the fields directly must keep every existing cache valid.
    PINNED = {
        "default": (dict(kind="allreduce", stack="lightweight", size=552,
                         cores=48),
                    "b86a4b7a3977aa07b3fddebc0d3994e7"
                    "1ddb1a7f722c2b56d04f4e7329777204"),
        "cluster": (dict(kind="bcast", stack="blocking", size=64, cores=48,
                         config=SCCConfig(topology="cluster:2x24"),
                         algo="binomial",
                         rank_order=tuple(range(47, -1, -1))),
                    "c51cd6de9dcbc391c95843a1dcf71657"
                    "d30a38f4329135ade220473010ce555a"),
        "extras": (dict(kind="reduce", stack="tuned", size=16, cores=4,
                        op="max", seed=7,
                        config=SCCConfig(topology="mesh:2x1",
                                         erratum_enabled=False,
                                         extras={"tag": "ablation",
                                                 "scale": 1.5,
                                                 "levels": [1, 2]})),
                   "c4262fc013bc8f52189e4882987778e8"
                   "fd91068f5ce69a5c20ef28607c4545b4"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_is_unchanged(self, name, monkeypatch):
        import numpy as np

        from repro.bench import executor

        monkeypatch.setattr(executor, "code_fingerprint", lambda: "0" * 64)
        monkeypatch.setattr(np, "__version__", "1.26.4")
        fields, digest = self.PINNED[name]
        assert fingerprint(SweepPoint(**fields)) == digest

    #: Configs a seeded point draws from: equal-comparing pairs whose JSON
    #: differs (``533e6`` vs ``533_000_000``, ``1`` vs ``True``) must not
    #: share a serialisation.
    CONFIGS = (SCCConfig(), SCCConfig(topology="cluster:2x24"),
               SCCConfig(core_freq_hz=533e6), SCCConfig(erratum_enabled=1),
               SCCConfig(erratum_enabled=False, topology="torus:6x4"),
               SCCConfig(extras={"tag": "ablation", "scale": 1.5}),
               SCCConfig(extras={"scale": 1.5, "tag": "ablation"}),
               SCCConfig(extras={"levels": (1, 2), "tag": None}))

    def test_spliced_payload_equals_the_whole_payload(self):
        """1,000 seeded points fingerprinted as ``run_sweep`` does (one
        ``config_keys`` memo for all) give the digest of the whole payload
        through ``json.dumps``."""
        import hashlib
        import json
        import random

        import numpy as np

        from repro.hw.config import config_keys, config_state

        def whole_payload(point):
            payload = {
                "schema": CACHE_SCHEMA, "kind": point.kind,
                "stack": point.stack, "size": point.size,
                "cores": point.cores, "op": point.op, "seed": point.seed,
                "rank_order": (list(point.rank_order)
                               if point.rank_order is not None else None),
                "algo": point.algo, "config": config_state(point.config),
                "code": code_fingerprint(), "numpy": np.__version__}
            return hashlib.sha256(json.dumps(
                payload, sort_keys=True, default=repr).encode()).hexdigest()

        rng = random.Random(20120901)
        keys = config_keys()
        for _ in range(1000):
            cores = rng.randint(1, 48)
            point = SweepPoint(
                kind=rng.choice(KINDS), stack=rng.choice(
                    ["blocking", "lightweight", "tuned", 'odd "stack"']),
                size=rng.randint(0, 4096), cores=cores,
                op=rng.choice(["sum", "max", "prod"]),
                seed=rng.randint(0, 2**31),
                rank_order=(tuple(rng.sample(range(48), cores))
                            if rng.random() < 0.3 else None),
                config=rng.choice(self.CONFIGS).copy(),
                algo=rng.choice([None, "ring", "hier/g2", 'a, "cores": 1']))
            assert fingerprint(point, keys) == whole_payload(point)
            assert fingerprint(point) == whole_payload(point)

    def test_coordinates_of_other_types_encode_as_json(self):
        """A coordinate that is not an ``int`` or ``str`` (a bool, a
        float, a NumPy integer, a tuple) is encoded as ``json.dumps``
        with ``default=repr`` encodes it."""
        import hashlib
        import json

        import numpy as np

        from repro.hw.config import config_state

        point = SweepPoint(kind=("allreduce",), stack="lightweight",
                           size=16.0, cores=True, seed=np.int64(7),
                           op="sum", algo=np.str_("ring"),
                           rank_order=(np.int64(0),))
        payload = {
            "schema": CACHE_SCHEMA, "kind": point.kind,
            "stack": point.stack, "size": point.size,
            "cores": point.cores, "op": point.op, "seed": point.seed,
            "rank_order": list(point.rank_order), "algo": point.algo,
            "config": config_state(point.config),
            "code": code_fingerprint(), "numpy": np.__version__}
        assert fingerprint(point) == hashlib.sha256(json.dumps(
            payload, sort_keys=True, default=repr).encode()).hexdigest()

    def test_code_fingerprint_is_hex_and_cached(self):
        fp = code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)
        assert code_fingerprint() is fp  # lru_cache


def _put_from_a_child(store, fp, value, k):
    """A forked child's puts go through a connection of its own."""
    inherited = set(store._connections)
    store.put(fp, value, small_point())
    store.put(f"{k:064x}", value + k, small_point())
    assert set(store._connections) - inherited == {os.getpid()}


class TestResultCache:
    LOGGER = "repro.bench.executor"

    def test_get_on_missing_entry(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert ResultCache(tmp_path).get("ab" * 32) is None
        assert not caplog.records  # an absent entry is an ordinary miss

    def test_read_only_calls_create_nothing(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        assert store.get("ab" * 32) is None
        assert len(store) == 0
        assert store.clear() == 0
        assert not (tmp_path / "cache").exists()
        empty = ResultCache(tmp_path)
        assert empty.get("ab" * 32) is None and len(empty) == 0
        assert empty.clear() == 0
        assert not any(tmp_path.iterdir())

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        store = ResultCache(tmp_path)
        fp = fingerprint(small_point())
        store.put(fp, 12.5, small_point())
        with sqlite3.connect(store.path) as db:
            db.execute("UPDATE results SET latency_us = 'garbage'")
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert store.get(fp) is None
        assert str(store.path) in caplog.text and fp in caplog.text
        caplog.clear()
        garbage = ResultCache(tmp_path / "other")
        garbage.root.mkdir()
        garbage.path.write_text("{not a database")
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert garbage.get(fp) is None
        assert str(garbage.path) in caplog.text

    def test_truncated_entry_warns_once_then_is_overwritten(self, tmp_path,
                                                            caplog):
        points = [small_point(), small_point(size=20)]
        store = ResultCache(tmp_path)
        expected = run_sweep(points, jobs=1, cache=store).latencies
        store.close()  # as the end of the sweep's process does
        path = store.path
        assert not (tmp_path / f"{ResultCache.FILE}-wal").exists()
        path.write_bytes(path.read_bytes()[:20])
        with caplog.at_level("WARNING", logger=self.LOGGER):
            again = run_sweep(points, jobs=1, cache=store)
            healed = run_sweep(points, jobs=1, cache=store)
        assert again.misses == 2 and again.latencies == expected
        assert healed.hits == 2 and healed.latencies == expected
        warnings = [r for r in caplog.records if r.name == self.LOGGER
                    and r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert str(path) in warnings[0].getMessage()

    def test_schema_drift_is_a_miss(self, tmp_path, caplog):
        store = ResultCache(tmp_path)
        fp = fingerprint(small_point())
        store.put(fp, 12.5, small_point())
        with sqlite3.connect(store.path) as db:
            db.execute("UPDATE results SET schema = 999")
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert store.get(fp) is None
        assert "schema 999" in caplog.text
        store.put(fp, 12.5, small_point())
        assert store.get(fp) == 12.5

    def test_len_and_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([small_point(size=n) for n in (16, 20)],
                  jobs=1, cache=store)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_open_store_survives_a_pooled_sweep(self, tmp_path):
        store = ResultCache(tmp_path)
        points = [small_point(size=n) for n in (13, 16, 21)]
        store.put("ab" * 32, 1.5, points[0])  # the parent's connection
        cold = run_sweep(points, jobs=2, cache=store)
        warm = run_sweep(points, jobs=2, cache=store)
        assert cold.latencies == warm.latencies
        assert cold.misses == 3 and warm.hits == 3
        store.put("cd" * 32, 2.5, points[0])
        assert store.get("cd" * 32) == 2.5 and store.get("ab" * 32) == 1.5
        assert len(store) == 5

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_concurrent_writers_of_one_fingerprint(self, tmp_path):
        """More writers than CPUs put one shared fingerprint and one of
        their own, through a store the parent opened before forking."""
        store = ResultCache(tmp_path)
        store.put("ab" * 32, 1.5, small_point())
        fp = fingerprint(small_point())
        value = 35.231056000000004
        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=_put_from_a_child,
                               args=(store, fp, value, k))
                   for k in range((os.cpu_count() or 1) + 2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        stuck = [writer for writer in writers if writer.is_alive()]
        for writer in stuck:
            writer.kill()
        assert not stuck
        assert [writer.exitcode for writer in writers] == [0] * len(writers)
        assert store.get(fp) == value
        assert ResultCache(tmp_path).get(fp) == value
        assert [store.get(f"{k:064x}") for k in range(len(writers))] == [
            value + k for k in range(len(writers))]
        assert len(store) == 2 + len(writers)


class TestKnobs:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
        assert default_jobs() == (os.cpu_count() or 1)

    def test_default_jobs_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_BENCH_JOBS"):
            default_jobs()

    def test_cache_env_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        outcome = run_sweep([small_point()], jobs=1, cache=None)
        assert outcome.replayed == 1 and outcome.simulated == 0
        assert outcome.hits == outcome.misses == 0  # no cache lookups
        assert len(ResultCache(tmp_path)) == 0  # nothing was written

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        run_sweep([small_point()], jobs=1, cache=None)
        assert len(ResultCache(tmp_path)) == 1

    def test_point_is_picklable(self):
        import pickle

        point = small_point(rank_order=(3, 1, 2, 0))
        clone = pickle.loads(pickle.dumps(point))
        assert dataclasses.asdict(clone) == dataclasses.asdict(point)
