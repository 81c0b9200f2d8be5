"""GCMC application parameters (physics + compute-cost model).

Physics parameters are in reduced Lennard-Jones units (epsilon = sigma =
kB = 1).  Compute-cost constants translate the per-core arithmetic into
simulated core cycles; they are calibrated so that the *blocking* stack
reproduces the paper's profile (roughly half the time waiting in
``rcce_wait_until``, with the long-range energy dominating the rest).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass
class GCMCConfig:
    """All knobs of the GCMC workload."""

    # -- physics (reduced units) ----------------------------------------
    box: float = 10.0                 #: cubic box edge
    temperature: float = 1.35        #: T* (supercritical LJ fluid)
    mu: float = -3.0                 #: chemical potential (GCMC)
    cutoff: float = 2.5              #: LJ / real-space cutoff
    alpha: float = 0.9               #: Ewald splitting parameter
    n_kvectors: int = 276            #: reciprocal vectors (paper: 276)
    max_displacement: float = 0.35   #: translation move scale
    initial_particles: int = 480     #: starting configuration size
    capacity: int = 768              #: particle slots (insert headroom)

    # -- move mix (probabilities; rest = translate) -----------------------
    p_insert: float = 0.15
    p_delete: float = 0.15

    # -- determinism -------------------------------------------------------
    seed: int = 20120901

    # -- compute-cost model (core cycles) --------------------------------
    #: one LJ + erfc pair interaction (distance, branch, exp/erfc)
    cycles_per_pair: int = 120
    #: one k-vector structure-factor term per atom (cos/sin + cmul)
    cycles_per_kvec_term: int = 600
    #: post-Allreduce |F|^2 accumulation per k-vector
    cycles_per_kvec_energy: int = 30
    #: fixed per-energy-evaluation bookkeeping
    cycles_energy_base: int = 2000
    #: per-cycle move/bookkeeping cost
    cycles_move_base: int = 1500

    extras: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.box <= 0 or self.temperature <= 0:
            raise ValueError("box and temperature must be positive")
        if not 0 < self.cutoff <= self.box / 2:
            raise ValueError("cutoff must lie in (0, box/2]")
        if self.initial_particles > self.capacity:
            raise ValueError("initial particle count exceeds capacity")
        if self.p_insert + self.p_delete >= 1.0:
            raise ValueError("insert+delete probability must be < 1")
        if self.n_kvectors <= 0:
            raise ValueError("need at least one k-vector")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature

    @property
    def volume(self) -> float:
        return self.box ** 3

    # -- compute charges (core cycles): the SPMD driver's ``env.compute``
    # and the serial run's call log both read these -----------------------
    def pair_cycles(self, pairs: int) -> int:
        """A rank's short-range energy evaluation over ``pairs`` pairs."""
        return self.cycles_energy_base + pairs * self.cycles_per_pair

    def structure_factor_cycles(self, atoms: int, nk: int) -> int:
        """A rank's structure factor: ``atoms`` local atoms times ``nk``
        k-vectors."""
        return self.cycles_energy_base + atoms * nk * self.cycles_per_kvec_term

    def energy_sum_cycles(self, nk: int) -> int:
        """The ``|F|^2`` energy sum over ``nk`` k-vectors after the
        Allreduce."""
        return nk * self.cycles_per_kvec_energy

    def copy(self, **overrides: Any) -> "GCMCConfig":
        return replace(self, **overrides)
