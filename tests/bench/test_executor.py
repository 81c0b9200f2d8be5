"""Tests for the parallel, cached sweep executor.

The executor's contract is strict: whatever combination of worker pool
and result cache serves a sweep, the latencies must be bit-identical to
running ``measure_collective`` in a plain sequential loop.
"""

import dataclasses

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

    def test_code_fingerprint_is_hex_and_cached(self):
        fp = code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)
        assert code_fingerprint() is fp  # lru_cache


class TestResultCache:
    LOGGER = "repro.bench.executor"

    def test_get_on_missing_entry(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert ResultCache(tmp_path).get("ab" * 32) is None
        assert not caplog.records  # an absent entry is an ordinary miss

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        store = ResultCache(tmp_path)
        fp = fingerprint(small_point())
        path = store.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert store.get(fp) is None
        assert str(path) in caplog.text

    def test_truncated_entry_warns_once_then_is_overwritten(self, tmp_path,
                                                            caplog):
        store = ResultCache(tmp_path)
        point = small_point()
        expected = run_sweep([point], jobs=1, cache=store).latencies
        path = store.path_for(fingerprint(point))
        path.write_text(path.read_text()[:20])
        with caplog.at_level("WARNING", logger=self.LOGGER):
            again = run_sweep([point], jobs=1, cache=store)
            healed = run_sweep([point], jobs=1, cache=store)
        assert again.misses == 1 and again.latencies == expected
        assert healed.hits == 1 and healed.latencies == expected
        warnings = [r for r in caplog.records if r.name == self.LOGGER]
        assert len(warnings) == 1
        assert str(path) in warnings[0].getMessage()

    def test_schema_drift_is_a_miss(self, tmp_path, caplog):
        store = ResultCache(tmp_path)
        fp = fingerprint(small_point())
        store.put(fp, 12.5, small_point())
        record = store.path_for(fp).read_text()
        store.path_for(fp).write_text(
            record.replace(f'"schema": {CACHE_SCHEMA}', '"schema": 999'))
        with caplog.at_level("WARNING", logger=self.LOGGER):
            assert store.get(fp) is None
        assert "schema 999" in caplog.text

    def test_len_and_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([small_point(size=n) for n in (16, 20)],
                  jobs=1, cache=store)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestKnobs:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_auto(self, monkeypatch):
        import os
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
        assert outcome.misses == 1
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
