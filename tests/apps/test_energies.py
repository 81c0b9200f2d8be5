"""Unit tests for short-range and long-range energy computations."""

import math

import numpy as np
import pytest

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.kvectors import build_kvectors
from repro.apps.gcmc.longrange import (
    local_structure_factor,
    pack_complex,
    reciprocal_energy,
    total_long_energy,
    unpack_complex,
)
from repro.apps.gcmc.particles import ParticleSystem
from repro.apps.gcmc.shortrange import (
    insertion_energy_local,
    pair_energy_with_set,
    self_energy,
    short_energy_local,
    total_short_energy,
    upper_pair_energies,
)


@pytest.fixture
def cfg():
    return GCMCConfig(initial_particles=24, capacity=48, box=6.0)


@pytest.fixture
def system(cfg):
    return ParticleSystem(cfg)


@pytest.mark.parametrize("seed", range(20))
def test_batched_upper_pair_energies_are_the_loops_bit_for_bit(seed):
    """The initial energy's pairs, evaluated all at once, give every
    particle the float the per-particle loop gives it, for each rank's
    share at p = 48, 8 and 1 (and the same pair counts)."""
    system = ParticleSystem(GCMCConfig(seed=seed))
    idx = system.active_indices()
    for p in (48, 8, 1):
        for rank in range(p):
            local = system.local_indices(rank, p)
            loop = [pair_energy_with_set(system, system.positions[i],
                                         float(system.charges[i]),
                                         idx[idx > i])
                    for i in local]
            energies, pairs = upper_pair_energies(system, local, idx)
            assert energies == [e for e, _ in loop]
            assert all(type(e) is float for e in energies)
            assert pairs == sum(n for _, n in loop)


def test_batched_upper_pair_energies_without_pairs():
    system = ParticleSystem(GCMCConfig(initial_particles=4, capacity=8,
                                       box=6.0))
    idx = system.active_indices()
    assert upper_pair_energies(system, idx[-1:], idx) == ([0.0], 0)


class TestShortRange:
    def test_empty_set_zero(self, system):
        e, pairs = pair_energy_with_set(system, np.zeros(3), 1.0,
                                        np.array([], dtype=int))
        assert e == 0.0 and pairs == 0

    def test_lj_minimum_distance(self, cfg):
        """Two neutral particles at r = 2^(1/6) sit at the LJ minimum."""
        system = ParticleSystem(GCMCConfig(initial_particles=0, capacity=4,
                                           box=6.0))
        r_min = 2.0 ** (1.0 / 6.0)
        system.insert_particle(0, np.array([1.0, 1.0, 1.0]), 0.0)
        system.insert_particle(1, np.array([1.0 + r_min, 1.0, 1.0]), 0.0)
        e, _ = pair_energy_with_set(system, system.positions[0], 0.0,
                                    np.array([1]))
        assert e == pytest.approx(-1.0, rel=1e-9)

    def test_beyond_cutoff_zero(self):
        system = ParticleSystem(GCMCConfig(initial_particles=0, capacity=4,
                                           box=10.0, cutoff=2.5))
        system.insert_particle(0, np.array([1.0, 1.0, 1.0]), 1.0)
        system.insert_particle(1, np.array([4.0, 1.0, 1.0]), -1.0)
        e, pairs = pair_energy_with_set(system, system.positions[0], 1.0,
                                        np.array([1]))
        assert e == 0.0
        assert pairs == 1  # the pair was still *examined*

    def test_opposite_charges_attract(self):
        system = ParticleSystem(GCMCConfig(initial_particles=0, capacity=4,
                                           box=10.0))
        system.insert_particle(0, np.array([1.0, 1.0, 1.0]), 1.0)
        system.insert_particle(1, np.array([2.5, 1.0, 1.0]), -1.0)
        e_pair, _ = pair_energy_with_set(system, system.positions[0], 1.0,
                                         np.array([1]))
        # LJ at r=1.5 is small; the screened Coulomb term dominates and is
        # negative for opposite charges.
        assert e_pair < 0

    def test_local_shares_sum_to_short_energy(self, system):
        slot = int(system.active_indices()[0])
        whole, _ = pair_energy_with_set(
            system, system.positions[slot], float(system.charges[slot]),
            system.active_indices()[system.active_indices() != slot])
        shares = sum(short_energy_local(system, slot, r, 6)[0]
                     for r in range(6))
        assert shares == pytest.approx(whole, rel=1e-12)

    def test_insertion_energy_matches_after_insert(self, system):
        pos = np.array([3.3, 2.2, 1.1])
        before = sum(insertion_energy_local(system, pos, 1.0, r, 4)[0]
                     for r in range(4))
        slot = system.first_free_slot()
        system.insert_particle(slot, pos, 1.0)
        after = sum(short_energy_local(system, slot, r, 4)[0]
                    for r in range(4))
        assert before == pytest.approx(after, rel=1e-12)

    def test_self_energy_negative(self):
        assert self_energy(1.0, 0.9) < 0
        assert self_energy(-1.0, 0.9) == self_energy(1.0, 0.9)

    def test_total_short_energy_symmetric_count(self, system):
        """O(N^2) reference counts each pair once."""
        e1 = total_short_energy(system)
        # doubling charges quadruples the Coulomb part only; just check
        # the function is deterministic and finite here.
        assert math.isfinite(e1)
        assert e1 == total_short_energy(system)


class TestLongRange:
    def test_structure_factor_shares_sum(self, system, cfg):
        kvecs, coeff = build_kvectors(64, cfg.box, cfg.alpha)
        total, _ = local_structure_factor(system, kvecs, 0, 1)
        shares = sum(local_structure_factor(system, kvecs, r, 5)[0]
                     for r in range(5))
        np.testing.assert_allclose(shares, total, rtol=1e-12)

    def test_empty_rank_zero_factor(self, cfg):
        system = ParticleSystem(GCMCConfig(initial_particles=2, capacity=8,
                                           box=6.0))
        kvecs, _ = build_kvectors(16, 6.0, 0.9)
        # ranks beyond the particle count own nothing
        f, n = local_structure_factor(system, kvecs, 7, 8)
        assert n == 0
        assert np.all(f == 0)

    def test_pack_unpack_roundtrip(self):
        f = np.array([1 + 2j, -3.5 + 0.25j, 0j])
        packed = pack_complex(f)
        assert packed.shape == (6,)
        np.testing.assert_array_equal(unpack_complex(packed), f)

    def test_pack_276_gives_552(self):
        f = np.zeros(276, dtype=np.complex128)
        assert pack_complex(f).size == 552

    def test_unpack_odd_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_complex(np.zeros(5))

    def test_reciprocal_energy_nonnegative(self, system, cfg):
        """|F|^2 with positive weights: the reciprocal sum is >= 0."""
        kvecs, coeff = build_kvectors(cfg.n_kvectors, cfg.box, cfg.alpha)
        assert total_long_energy(system, kvecs, coeff) >= 0

    def test_single_particle_invariant_to_position(self, cfg):
        """|F(k)| of one particle is independent of its position."""
        kvecs, coeff = build_kvectors(32, 6.0, 0.9)
        energies = []
        for pos in ([1.0, 2.0, 3.0], [4.4, 0.1, 5.9]):
            system = ParticleSystem(GCMCConfig(initial_particles=0,
                                               capacity=4, box=6.0))
            system.insert_particle(0, np.array(pos), 1.0)
            energies.append(total_long_energy(system, kvecs, coeff))
        assert energies[0] == pytest.approx(energies[1], rel=1e-12)

    def test_charge_scaling_quadratic(self, cfg):
        kvecs, coeff = build_kvectors(32, 6.0, 0.9)
        base = ParticleSystem(GCMCConfig(initial_particles=0, capacity=4,
                                         box=6.0))
        base.insert_particle(0, np.array([1.0, 2.0, 3.0]), 1.0)
        doubled = ParticleSystem(GCMCConfig(initial_particles=0, capacity=4,
                                            box=6.0))
        doubled.insert_particle(0, np.array([1.0, 2.0, 3.0]), 2.0)
        e1 = total_long_energy(base, kvecs, coeff)
        e2 = total_long_energy(doubled, kvecs, coeff)
        assert e2 == pytest.approx(4 * e1, rel=1e-12)
