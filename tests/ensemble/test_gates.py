"""The acceptance criterion: what the envelope accepts and rejects.

All runs are seed-pinned and use the committed reference summary, so
every verdict here is deterministic: pure timing perturbations (mesh
jitter, core stalls) and a non-default collective algorithm must PASS;
a forced silent payload corruption (the ``default`` chaos profile with
checksums off and exactly one corrupted byte) must FAIL.
"""

from dataclasses import replace

import pytest

from repro.ensemble.features import extract_features
from repro.ensemble.members import CandidateSpec, run_candidate
from repro.ensemble.summary import EnsembleSummary
from repro.faults.campaign import CHAOS_PROFILES
from repro.faults.plan import FaultPlan
from repro.hw.config import SCCConfig

#: Injector seed for which the forced-corruption run completes (no rank
#: divergence) with statistically wrecked physics — found by scanning
#: seeds 1..16; the whole point of the budgeted single corruption is
#: that this choice is stable and reproducible.
CORRUPTION_SEED = 6

#: 8-core machine: the committed summary decomposes over 8 ranks, and a
#: smaller mesh keeps each simulated candidate around a second.
SCC = SCCConfig(topology="mesh:4x1")


@pytest.fixture(scope="module")
def summary():
    return EnsembleSummary.load()


def _check(summary, spec):
    result = run_candidate(spec, summary.config(),
                           int(summary.meta["cycles"]),
                           int(summary.meta["cores"]),
                           scc_config=SCC)
    features = extract_features(result, int(summary.meta["block_size"]))
    return summary.check(features, label=spec.label), result


def test_clean_simulated_run_passes(summary):
    check, _ = _check(summary, CandidateSpec(label="clean"))
    assert check.passed
    assert check.n_failed == 0


def test_timing_perturbations_pass(summary):
    plan = FaultPlan(seed=5, mesh_jitter_prob=0.15,
                     mesh_jitter_max_cycles=64, core_stall_prob=0.03,
                     core_stall_cycles=5000)
    clean, clean_result = _check(summary, CandidateSpec(label="clean"))
    noisy, noisy_result = _check(
        summary, CandidateSpec(label="jitter+stalls", plan=plan,
                               watchdog_us=5_000_000.0))
    assert noisy.passed
    # Timing faults never touch data: the physics is bit-identical and
    # only the simulated clock moved.
    assert noisy_result.final_energy == clean_result.final_energy
    assert noisy_result.final_particles == clean_result.final_particles
    assert noisy_result.elapsed_ps > clean_result.elapsed_ps


def test_nondefault_allreduce_algorithm_passes(summary):
    check, result = _check(
        summary, CandidateSpec(label="recursive_doubling",
                               allreduce_algo="recursive_doubling"))
    assert check.passed
    # The different reduction order produces a genuinely different FP
    # trajectory — this is a statistical acceptance, not a bit-compare.
    _, clean_result = _check(summary, CandidateSpec(label="clean"))
    assert result.final_energy != clean_result.final_energy


def test_forced_payload_corruption_rejected(summary):
    plan = replace(CHAOS_PROFILES["default"], seed=CORRUPTION_SEED,
                   payload_corrupt_prob=1.0, payload_corrupt_max=1,
                   checksums=False)
    check, result = _check(
        summary, CandidateSpec(label="corrupt", plan=plan,
                               watchdog_us=5_000_000.0))
    assert not check.passed
    # The corruption is silent: the run completed, ranks agreed, and
    # only the statistical gate catches that the physics is destroyed.
    assert len(check.failed_pcs) >= 2
    assert abs(result.final_energy) > 1000.0


def test_checksums_repair_the_same_corruption(summary):
    # Identical fault pressure, hardening left on: CRC retransmit heals
    # every corrupted payload and the envelope accepts the run.
    plan = replace(CHAOS_PROFILES["default"], seed=CORRUPTION_SEED,
                   payload_corrupt_prob=1.0, payload_corrupt_max=1,
                   checksums=True)
    check, _ = _check(
        summary, CandidateSpec(label="corrupt+checksums", plan=plan,
                               watchdog_us=5_000_000.0))
    assert check.passed
