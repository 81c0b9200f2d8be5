"""Unit tests for the benchmark runner and sweeps."""

import numpy as np
import pytest

from repro.bench import runner
from repro.bench.runner import (
    default_cores,
    default_sizes,
    measure_collective,
    parse_sizes_spec,
    sweep,
)
from repro.core import registry
from repro.hw.config import SCCConfig
from repro.sim.clock import ps_to_us

SMALL = dict(cores=4, config=SCCConfig(topology="mesh:2x1"))


class TestMeasure:
    def test_latency_positive(self):
        us = measure_collective("allreduce", "lightweight", 64, **SMALL)
        assert us > 0

    def test_deterministic(self):
        a = measure_collective("allreduce", "blocking", 64, **SMALL)
        b = measure_collective("allreduce", "blocking", 64, **SMALL)
        assert a == b

    def test_all_kinds_run(self):
        for kind in ("allreduce", "reduce", "reduce_scatter", "allgather",
                     "alltoall", "bcast", "barrier"):
            us = measure_collective(kind, "lightweight", 32, **SMALL)
            assert us > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            measure_collective("gossip", "blocking", 8, **SMALL)

    def test_unknown_stack_rejected(self):
        with pytest.raises(KeyError):
            measure_collective("allreduce", "openmpi", 8, **SMALL)

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            measure_collective("allreduce", "blocking", 8, cores=99,
                               config=SCCConfig(topology="mesh:2x1"))

    def test_rank_count_checked_before_machine_build(self, monkeypatch):
        """An oversubscribed sweep point must fail with the clear
        check_rank_count message, not whatever Machine construction
        happens to raise first."""
        def exploding_machine(config, tracer=None):
            raise AssertionError("Machine was constructed before the "
                                 "rank-count check")

        monkeypatch.setattr(registry, "Machine", exploding_machine)
        with pytest.raises(ValueError, match="has only"):
            measure_collective("allreduce", "blocking", 8, cores=99,
                               config=SCCConfig(topology="mesh:2x1"))

    def test_rank_order_permutation(self):
        us = measure_collective(
            "allreduce", "lightweight", 64, cores=4,
            config=SCCConfig(topology="mesh:2x1"),
            rank_order=[3, 1, 2, 0])
        assert us > 0

    def test_launch_is_the_measurement(self):
        machine, result = runner.launch_collective(
            "allreduce", "lightweight", 64, **SMALL)
        assert ps_to_us(result.values[0]) == measure_collective(
            "allreduce", "lightweight", 64, **SMALL)
        assert machine.sim.events_processed > 0

    def test_launch_installs_the_observer_before_running(self):
        from repro.bench.stats import CommStats

        stats = CommStats()
        machine, _result = runner.launch_collective(
            "bcast", "lightweight", 8, observers=[stats], **SMALL)
        assert machine.services["p2p.stats"] is stats
        # The binomial tree's p - 1 payloads (barrier messages are empty).
        assert stats.total_bytes == (SMALL["cores"] - 1) * 8 * 8

    def test_stack_ordering_blocking_slowest(self):
        blocking = measure_collective("allreduce", "blocking", 96, **SMALL)
        optimized = measure_collective("allreduce", "lightweight_balanced",
                                       96, **SMALL)
        assert blocking > optimized


class TestSweep:
    def test_sweep_shape(self):
        sizes = [16, 32]
        data = sweep("allreduce", ["blocking", "lightweight"], sizes,
                     cores=4)
        assert set(data) == {"blocking", "lightweight"}
        assert all(len(v) == 2 for v in data.values())

    def test_sweep_points_plan(self):
        points = runner.sweep_points("bcast", ["lightweight"], [8], 4)
        assert [(pt.kind, pt.stack, pt.size, pt.cores) for pt in points] \
            == [("bcast", "lightweight", 8, 4)]
        out = sweep("bcast", ["lightweight"], [8], cores=4)
        assert out == {"lightweight": [
            measure_collective("bcast", "lightweight", 8, cores=4)]}


class TestEnvKnobs:
    def test_default_sizes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SIZES", "10:20:5")
        assert default_sizes() == [10, 15]

    def test_default_cores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CORES", "12")
        assert default_cores() == 12

    def test_default_sizes_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SIZES", raising=False)
        sizes = default_sizes()
        assert sizes[0] == 500
        assert sizes[-1] <= 700


class TestSizesSpec:
    """parse_sizes_spec rejects malformed/empty specs with clear errors."""

    def test_valid_spec(self):
        assert parse_sizes_spec("500:701:7")[:2] == [500, 507]

    @pytest.mark.parametrize("spec", ["", "10", "10:20", "10:20:5:1",
                                      "a:20:5", "10:b:5", "10:20:c",
                                      "10;20;5"])
    def test_malformed_spec_names_env_var_and_format(self, spec):
        with pytest.raises(ValueError) as exc:
            parse_sizes_spec(spec)
        message = str(exc.value)
        assert "REPRO_BENCH_SIZES" in message
        assert "start:stop:step" in message
        assert repr(spec) in message

    @pytest.mark.parametrize("spec", ["10:20:0", "10:20:-5"])
    def test_nonpositive_step_rejected(self, spec):
        with pytest.raises(ValueError, match="step must be positive"):
            parse_sizes_spec(spec)

    @pytest.mark.parametrize("spec", ["20:10:5", "10:10:5"])
    def test_empty_range_rejected(self, spec):
        with pytest.raises(ValueError, match="range is empty"):
            parse_sizes_spec(spec)

    def test_custom_source_label(self):
        with pytest.raises(ValueError, match="--sizes"):
            parse_sizes_spec("oops", source="--sizes")

    def test_default_sizes_propagates_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SIZES", "500-700-7")
        with pytest.raises(ValueError, match="REPRO_BENCH_SIZES"):
            default_sizes()
