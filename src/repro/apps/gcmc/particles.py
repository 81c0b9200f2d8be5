"""Particle storage with fixed-capacity slots and rank ownership.

GCMC inserts and deletes particles, so positions live in a fixed-capacity
slot array with an active mask.  Ownership is by slot index modulo the
rank count — "particles are distributed over the SCC's cores so each core
can compute the contribution of its local set of particles in parallel"
(Section V-B).  Every rank keeps a full replica of the configuration
(updated through broadcasts); *ownership* only determines which rank
computes which interaction terms and which rank proposes coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.apps.gcmc.config import GCMCConfig


class ParticleSystem:
    """One rank's replica of the particle configuration."""

    def __init__(self, config: GCMCConfig):
        self.config = config
        cap = config.capacity
        self.positions = np.zeros((cap, 3), dtype=np.float64)
        self.charges = np.zeros(cap, dtype=np.float64)
        self.active = np.zeros(cap, dtype=bool)
        self._init_lattice(config.initial_particles)

    def _init_lattice(self, n: int) -> None:
        """Deterministic initial configuration: a jittered cubic lattice
        with alternating unit charges (net charge ~ 0).

        The first ``n`` sites in C order (x slowest), each jittered by
        three uniform draws in site order — one ``(n, 3)`` draw is the
        same stream.
        """
        if n == 0:
            return
        per_side = int(np.ceil(n ** (1.0 / 3.0)))
        spacing = self.config.box / per_side
        rng = np.random.default_rng(self.config.seed ^ 0xC0FFEE)
        sites = np.indices((per_side,) * 3).reshape(3, -1).T[:n]
        jitter = rng.uniform(-0.05, 0.05, size=(n, 3)) * spacing
        self.positions[:n] = (sites + 0.5) * spacing + jitter
        self.charges[:n] = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        self.active[:n] = True
        self.positions %= self.config.box

    # -- queries -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.config.capacity

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def owner_of(self, slot: int, nranks: int) -> int:
        return slot % nranks

    def local_indices(self, rank: int, nranks: int) -> np.ndarray:
        """Active slots owned by ``rank``."""
        idx = self.active_indices()
        return idx[idx % nranks == rank]

    def net_charge(self) -> float:
        return float(self.charges[self.active].sum())

    # -- mutation ------------------------------------------------------------
    def move_particle(self, slot: int, new_pos: np.ndarray) -> np.ndarray:
        """Move an active particle; returns the old position (for undo)."""
        if not self.active[slot]:
            raise ValueError(f"slot {slot} is not active")
        old = self.positions[slot].copy()
        self.positions[slot] = np.asarray(new_pos) % self.config.box
        return old

    def insert_particle(self, slot: int, pos: np.ndarray,
                        charge: float) -> None:
        if self.active[slot]:
            raise ValueError(f"slot {slot} is already active")
        self.positions[slot] = np.asarray(pos) % self.config.box
        self.charges[slot] = charge
        self.active[slot] = True

    def delete_particle(self, slot: int) -> tuple[np.ndarray, float]:
        """Deactivate a particle; returns (position, charge) for undo."""
        if not self.active[slot]:
            raise ValueError(f"slot {slot} is not active")
        pos = self.positions[slot].copy()
        charge = float(self.charges[slot])
        self.active[slot] = False
        return pos, charge

    def first_free_slot(self) -> int:
        free = np.flatnonzero(~self.active)
        if free.size == 0:
            raise RuntimeError("particle capacity exhausted")
        return int(free[0])

    def snapshot(self) -> dict:
        """Deep copy of the mutable state (for undo / verification)."""
        return {
            "positions": self.positions.copy(),
            "charges": self.charges.copy(),
            "active": self.active.copy(),
        }

    def restore(self, snap: dict) -> None:
        self.positions[:] = snap["positions"]
        self.charges[:] = snap["charges"]
        self.active[:] = snap["active"]

    def state_hash(self) -> int:
        """Order-stable hash of the configuration (cross-rank checks
        inside one process; the value is salted per process)."""
        # repro-lint: allow=salted-hash
        h = hash((self.positions[self.active].tobytes(),
                  self.charges[self.active].tobytes(),
                  self.active.tobytes()))
        return h

    def minimum_image(self, delta: np.ndarray) -> np.ndarray:
        box = self.config.box
        return delta - box * np.round(delta / box)
