"""Analytic GCMC pricing and the sim-vs-analytic acceptance test."""

import pytest

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.serial import GCMCOpLog, run_gcmc_serial
from repro.ensemble.engines import (
    GCMC_DRIFT_TOL,
    compare_engines,
    estimate_gcmc_us,
)
from repro.ensemble.summary import EnsembleSummary
from repro.hw.config import SCCConfig

CFG = GCMCConfig(initial_particles=24, capacity=48, box=6.0, seed=11)
SCC = SCCConfig(topology="mesh:4x1")


def test_oplog_records_the_collective_sequence():
    log = GCMCOpLog()
    result = run_gcmc_serial(CFG, 4, nranks=4, log=log)
    assert result.cycles == 4
    kinds = [r.kind for r in log.records]
    assert kinds[0] == "barrier"
    assert "allreduce" in kinds and "bcast" in kinds
    # Every cycle broadcasts one 6-double proposal and one 2-double
    # update, and the long-range energy is a 2*n_kvectors allreduce.
    assert kinds.count("bcast") == 2 * 4
    assert any(r.nelems == 2 * CFG.n_kvectors for r in log.records
               if r.kind == "allreduce")
    assert log.total_compute_cycles() > 0
    assert all(r.compute_cycles >= 0 for r in log.records)


def test_logging_does_not_change_the_physics():
    bare = run_gcmc_serial(CFG, 6, nranks=4)
    logged = run_gcmc_serial(CFG, 6, nranks=4, log=GCMCOpLog())
    assert bare.final_energy == logged.final_energy
    assert bare.final_particles == logged.final_particles
    assert (bare.observables.energy_series
            == logged.observables.energy_series)


def test_estimate_prices_every_op():
    estimate, result = estimate_gcmc_us(CFG, 4, 4, scc_config=SCC)
    assert estimate.elapsed_us > 0
    assert estimate.compute_us > 0
    assert estimate.comm_us > 0
    assert estimate.elapsed_us == pytest.approx(
        estimate.compute_us + estimate.comm_us)
    # The physics rides along from the serial runner, untouched.
    assert result.final_particles > 0
    assert result.elapsed_ps == 0
    # The barrier (at least) has no closed form and was micro-simulated.
    assert estimate.n_simulated_shapes >= 1
    assert "analytic GCMC estimate" in estimate.describe()


def test_engine_comparison_passes_on_the_committed_reference():
    summary = EnsembleSummary.load()
    cmp = compare_engines(summary, scc_config=SCC)
    assert cmp.sim_check.passed
    assert cmp.analytic_check.passed
    assert abs(cmp.drift) <= GCMC_DRIFT_TOL
    assert cmp.passed
    assert "PASS" in cmp.describe()
