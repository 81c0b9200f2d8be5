"""Unit tests for particle storage and ownership."""

import numpy as np
import pytest

from repro.apps.gcmc.config import GCMCConfig
from repro.apps.gcmc.particles import ParticleSystem


def lattice_by_loop(config):
    """The initial lattice as it was first written, one site at a time."""
    cap, n = config.capacity, config.initial_particles
    positions = np.zeros((cap, 3), dtype=np.float64)
    charges = np.zeros(cap, dtype=np.float64)
    active = np.zeros(cap, dtype=bool)
    per_side = int(np.ceil(n ** (1.0 / 3.0)))
    spacing = config.box / per_side
    rng = np.random.default_rng(config.seed ^ 0xC0FFEE)
    idx = 0
    for ix in range(per_side):
        for iy in range(per_side):
            for iz in range(per_side):
                if idx >= n:
                    break
                base = np.array([ix, iy, iz], dtype=np.float64) + 0.5
                jitter = rng.uniform(-0.05, 0.05, size=3) * spacing
                positions[idx] = base * spacing + jitter
                charges[idx] = 1.0 if idx % 2 == 0 else -1.0
                active[idx] = True
                idx += 1
    positions %= config.box
    return positions, charges, active


@pytest.fixture
def cfg():
    return GCMCConfig(initial_particles=32, capacity=64, box=6.0)


@pytest.fixture
def system(cfg):
    return ParticleSystem(cfg)


class TestInitialization:
    def test_initial_count(self, system):
        assert system.n_active == 32

    def test_positions_in_box(self, system):
        active = system.positions[system.active]
        assert np.all(active >= 0)
        assert np.all(active < 6.0)

    def test_charges_near_neutral(self, system):
        assert abs(system.net_charge()) <= 1.0

    def test_deterministic_init(self, cfg):
        a = ParticleSystem(cfg)
        b = ParticleSystem(cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_zero_particles(self):
        cfg = GCMCConfig(initial_particles=0, capacity=8, box=6.0)
        assert ParticleSystem(cfg).n_active == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_equals_the_site_by_site_loop(self, seed):
        """The vectorised lattice is byte-identical to the loop that
        jittered one site at a time (480 particles: a partly filled
        8**3 lattice; 27: a full one)."""
        for n in (480, 27):
            cfg = GCMCConfig(initial_particles=n, seed=seed)
            system = ParticleSystem(cfg)
            positions, charges, active = lattice_by_loop(cfg)
            assert system.positions.tobytes() == positions.tobytes()
            assert system.charges.tobytes() == charges.tobytes()
            assert system.active.tobytes() == active.tobytes()


class TestOwnership:
    def test_owner_round_robin(self, system):
        assert system.owner_of(0, 8) == 0
        assert system.owner_of(9, 8) == 1

    def test_local_indices_partition_active_set(self, system):
        all_locals = np.concatenate(
            [system.local_indices(r, 8) for r in range(8)])
        assert sorted(all_locals) == sorted(system.active_indices())

    def test_local_indices_disjoint(self, system):
        a = set(system.local_indices(0, 4))
        b = set(system.local_indices(1, 4))
        assert not a & b


class TestMutation:
    def test_move_and_undo(self, system):
        old = system.move_particle(3, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(system.positions[3], [1.0, 2.0, 3.0])
        system.move_particle(3, old)
        assert np.allclose(system.positions[3], old)

    def test_move_wraps_into_box(self, system):
        system.move_particle(0, np.array([7.5, -1.0, 3.0]))
        assert np.all(system.positions[0] >= 0)
        assert np.all(system.positions[0] < 6.0)

    def test_move_inactive_rejected(self, system):
        free = system.first_free_slot()
        with pytest.raises(ValueError):
            system.move_particle(free, np.zeros(3))

    def test_insert_delete_roundtrip(self, system):
        slot = system.first_free_slot()
        system.insert_particle(slot, np.array([1.0, 1.0, 1.0]), -1.0)
        assert system.n_active == 33
        pos, charge = system.delete_particle(slot)
        assert charge == -1.0
        assert system.n_active == 32

    def test_double_insert_rejected(self, system):
        with pytest.raises(ValueError):
            system.insert_particle(0, np.zeros(3), 1.0)

    def test_delete_inactive_rejected(self, system):
        free = system.first_free_slot()
        with pytest.raises(ValueError):
            system.delete_particle(free)

    def test_capacity_exhaustion(self):
        cfg = GCMCConfig(initial_particles=4, capacity=4, box=6.0)
        system = ParticleSystem(cfg)
        with pytest.raises(RuntimeError):
            system.first_free_slot()


class TestSnapshot:
    def test_snapshot_restore(self, system):
        snap = system.snapshot()
        system.move_particle(0, np.array([0.1, 0.2, 0.3]))
        system.delete_particle(1)
        system.restore(snap)
        assert system.n_active == 32
        fresh = ParticleSystem(system.config)
        assert np.array_equal(system.positions, fresh.positions)

    def test_snapshot_is_deep(self, system):
        snap = system.snapshot()
        system.positions[0, 0] += 1.0
        assert snap["positions"][0, 0] != system.positions[0, 0]

    def test_state_hash_changes_on_move(self, system):
        before = system.state_hash()
        system.move_particle(0, system.positions[0] + 0.5)
        assert system.state_hash() != before


class TestMinimumImage:
    def test_short_distance_unchanged(self, system):
        d = np.array([[1.0, -2.0, 0.5]])
        assert np.allclose(system.minimum_image(d), d)

    def test_wraps_long_distance(self, system):
        d = np.array([[5.0, -5.5, 0.0]])  # box = 6
        wrapped = system.minimum_image(d)
        assert np.allclose(wrapped, [[-1.0, 0.5, 0.0]])
