"""Integration tests for the GCMC driver (serial and on the simulator)."""

import numpy as np
import pytest

from repro.apps.gcmc import GCMCConfig, run_gcmc, run_gcmc_serial
from repro.apps.gcmc.kvectors import build_kvectors
from repro.apps.gcmc.serial import full_energy
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine


CFG = GCMCConfig(initial_particles=48, capacity=96, box=6.0)
RANKS = 8


def machine():
    return Machine(SCCConfig(topology="mesh:4x1"))


class TestSerial:
    def test_deterministic(self):
        a = run_gcmc_serial(CFG, 15, nranks=RANKS)
        b = run_gcmc_serial(CFG, 15, nranks=RANKS)
        assert a.final_energy == b.final_energy
        assert a.final_particles == b.final_particles

    def test_energy_bookkeeping_consistent(self):
        """The incrementally tracked energy matches a from-scratch
        recomputation of the final configuration — the invariant the
        paper's Algorithm 1 lines 5/8 rely on."""
        result, system = run_gcmc_serial(CFG, 30, nranks=RANKS,
                                         return_system=True)
        kvecs, coeff = build_kvectors(CFG.n_kvectors, CFG.box, CFG.alpha)
        fresh = full_energy(system, kvecs, coeff, RANKS)
        assert fresh == pytest.approx(result.final_energy, abs=1e-8)

    def test_observables_recorded(self):
        result = run_gcmc_serial(CFG, 25, nranks=RANKS)
        obs = result.observables
        assert obs.samples == 25
        assert 0.0 <= obs.acceptance_ratio <= 1.0
        assert obs.mean_particles > 0
        assert set(obs.by_action) <= {"TRANSLATE", "INSERT", "DELETE"}

    def test_particle_count_tracks_moves(self):
        result = run_gcmc_serial(CFG, 40, nranks=RANKS)
        by = result.observables.by_action
        inserts = by.get("INSERT", {}).get("accepted", 0)
        deletes = by.get("DELETE", {}).get("accepted", 0)
        assert result.final_particles == CFG.initial_particles + inserts - deletes


class TestDistributed:
    def test_matches_serial_reference(self):
        serial = run_gcmc_serial(CFG, 10, nranks=RANKS)
        m = machine()
        comm = make_communicator(m, "lightweight_balanced")
        dist = run_gcmc(m, comm, CFG, 10)
        assert dist.final_particles == serial.final_particles
        assert dist.final_energy == pytest.approx(serial.final_energy,
                                                  rel=1e-9)
        assert dist.observables.by_action == serial.observables.by_action

    @pytest.mark.parametrize("stack", ["blocking", "ircce", "mpb", "rckmpi"])
    def test_identical_physics_across_stacks(self, stack):
        """Fig. 10's precondition: stacks change time, not results."""
        reference = run_gcmc_serial(CFG, 6, nranks=RANKS)
        m = machine()
        comm = make_communicator(m, stack)
        dist = run_gcmc(m, comm, CFG, 6)
        assert dist.final_particles == reference.final_particles
        assert dist.final_energy == pytest.approx(reference.final_energy,
                                                  rel=1e-9)

    def test_simulated_time_positive_and_stack_dependent(self):
        m1 = machine()
        blocking = run_gcmc(m1, make_communicator(m1, "blocking"), CFG, 4)
        m2 = machine()
        optimized = run_gcmc(
            m2, make_communicator(m2, "lightweight_balanced"), CFG, 4)
        assert blocking.elapsed_ps > 0
        assert optimized.elapsed_ps < blocking.elapsed_ps

    def test_wait_fraction_in_range(self):
        m = machine()
        result = run_gcmc(m, make_communicator(m, "blocking"), CFG, 4)
        assert 0.0 < result.wait_fraction() < 1.0

    def test_elapsed_us_property(self):
        m = machine()
        result = run_gcmc(m, make_communicator(m, "lightweight"), CFG, 2)
        assert result.elapsed_us == pytest.approx(result.elapsed_ps / 1e6)
