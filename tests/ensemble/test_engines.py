"""GCMC timed by replaying the serial run's call log, and the
replay-vs-sim acceptance test."""

import dataclasses

import pytest

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.driver import run_gcmc
from repro.apps.gcmc.serial import GCMCOpLog, run_gcmc_serial
from repro.core.registry import launch
from repro.ensemble.engines import compare_engines, replay_gcmc
from repro.ensemble.summary import EnsembleSummary
from repro.hw.config import SCCConfig

CFG = GCMCConfig(initial_particles=24, capacity=48, box=6.0, seed=11)
SCC = SCCConfig(topology="mesh:4x1")
SUMMARY = EnsembleSummary.load()
#: The stacks whose GCMC run replay answers without the simulator.
REPLAYED = ("blocking", "ircce", "lightweight", "lightweight_balanced",
            "tuned", "rckmpi")


def test_oplog_records_the_collective_sequence():
    log = GCMCOpLog()
    result = run_gcmc_serial(CFG, 4, nranks=4, log=log)
    assert result.cycles == 4
    calls = log.calls
    assert calls[0] == ("barrier", 0, None, 0, None)
    # Every cycle broadcasts one 6-double proposal and one 2-double
    # update from the owner, and the long-range energy is a
    # 2*n_kvectors allreduce.
    bcasts = [call for call in calls if call[0] == "bcast"]
    assert [call[1] for call in bcasts] == [6, 2] * 4
    assert all(0 <= call[3] < 4 for call in bcasts)
    assert ("allreduce", 2 * CFG.n_kvectors, None, 0, None) in calls
    # One compute per env.compute, each rank's own cycles: the pair and
    # atom counts differ across ranks, and the long-range energy's tail
    # is followed by the move's compute without a collective between.
    computes = [call[1] for call in calls if call[0] == "compute"]
    assert all(len(cycles) == 4 and min(cycles) > 0 for cycles in computes)
    assert any(len(set(cycles)) > 1 for cycles in computes)
    assert any(a[0] == b[0] == "compute" for a, b in zip(calls, calls[1:]))


def test_logging_does_not_change_the_physics():
    bare = run_gcmc_serial(CFG, 6, nranks=4)
    logged = run_gcmc_serial(CFG, 6, nranks=4, log=GCMCOpLog())
    assert bare.final_energy == logged.final_energy
    assert bare.final_particles == logged.final_particles
    assert (bare.observables.energy_series
            == logged.observables.energy_series)


def summary_run() -> tuple:
    """The committed summary's ``(config, cycles, cores)``."""
    return SUMMARY.config(), SUMMARY.cycles, SUMMARY.cores


def simulated_ps(stack: str, algo=None) -> int:
    cfg, cycles, cores = summary_run()
    machine, comm = launch(stack, cores, config=SCC.copy())
    return run_gcmc(machine, comm, cfg, cycles, ranks=list(range(cores)),
                    allreduce_algo=algo).elapsed_ps


@pytest.mark.parametrize("stack,algo", [(stack, None) for stack in REPLAYED]
                         + [("lightweight_balanced", "recursive_doubling")])
def test_replay_equals_the_simulator(stack, algo):
    cfg, cycles, cores = summary_run()
    result, elapsed_ps, escalation = replay_gcmc(
        cfg, cycles, cores, stack=stack, scc_config=SCC,
        allreduce_algo=algo)
    assert escalation is None
    assert elapsed_ps == simulated_ps(stack, algo)
    # The physics rides along from the serial runner, untimed.
    assert result.final_particles > 0
    assert result.elapsed_ps == 0


@pytest.mark.parametrize("stack,why", [("mpb", "the mpb algorithm")])
def test_escalated_stacks_are_simulated(stack, why):
    cfg, cycles, cores = summary_run()
    _, elapsed_ps, escalation = replay_gcmc(cfg, cycles, cores, stack=stack,
                                            scc_config=SCC)
    assert escalation == why
    assert elapsed_ps == simulated_ps(stack)


def test_engine_comparison_passes_on_the_committed_reference():
    cmp = compare_engines(SUMMARY, scc_config=SCC)
    assert cmp.sim_check.passed
    assert cmp.replay_check.passed
    assert cmp.replay_ps == cmp.sim_ps
    assert cmp.escalation is None
    assert cmp.passed
    text = cmp.describe()
    assert "PASS" in text and f"{cmp.sim_ps}ps" in text
    # One picosecond apart is a failure.
    off = dataclasses.replace(cmp, replay_ps=cmp.sim_ps + 1)
    assert not off.passed
    assert "FAIL" in off.describe()
