"""Short-range (real-space) energy: Lennard-Jones + screened Coulomb.

"Short range energies are computed in real space, allowing an incremental
update of the total energy by subtracting the contribution of the modified
particle before the move and adding its new contribution after the move"
(Section V-B).  The functions here compute *one particle's* interaction
with a rank's local particle set — the per-core share that a scalar
Allreduce sums into ``ShortEn(particle)``.

Energy model (reduced units):

* LJ: ``4 (r^-12 - r^-6)`` cut (not shifted) at ``cutoff``;
* real-space Ewald part: ``q_i q_j erfc(alpha r) / r`` with the same
  cutoff;
* the Ewald self term ``-alpha/sqrt(pi) q^2`` (needed for insert/delete
  energy differences) is exposed separately.

All pair arithmetic is vectorized NumPy (guides: no per-pair Python
loops); the *simulated* cost is charged by the driver via the pair count
these functions return.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.gcmc.particles import ParticleSystem


def erfc(x: np.ndarray) -> np.ndarray:
    """``scipy.special.erfc``, imported by the first energy evaluation:
    the import is half of ``import repro.cli``'s cost and only GCMC
    runs need it.  The first call rebinds this name to SciPy's ufunc, so
    later calls pay nothing."""
    global erfc
    from scipy.special import erfc
    return erfc(x)


def pair_energy_with_set(system: ParticleSystem, pos: np.ndarray,
                         charge: float,
                         others: np.ndarray) -> tuple[float, int]:
    """Energy of a (virtual) particle at ``pos`` with the particles in
    slot array ``others``.  Returns ``(energy, pair_count)``; pair_count
    feeds the simulated compute-cost model."""
    if others.size == 0:
        return 0.0, 0
    delta = system.minimum_image(system.positions[others] - pos)
    r2 = np.einsum("ij,ij->i", delta, delta)
    cutoff2 = system.config.cutoff ** 2
    mask = (r2 < cutoff2) & (r2 > 1e-12)
    if not mask.any():
        return 0.0, int(others.size)
    r2 = r2[mask]
    inv6 = 1.0 / (r2 * r2 * r2)
    lj = np.sum(4.0 * (inv6 * inv6 - inv6))
    r = np.sqrt(r2)
    coul = np.sum(system.charges[others][mask] * charge
                  * erfc(system.config.alpha * r) / r)
    return float(lj + coul), int(others.size)


def upper_pair_energies(system: ParticleSystem, slots: np.ndarray,
                        idx: np.ndarray) -> tuple[list[float], int]:
    """:func:`pair_energy_with_set` of every slot ``i`` in ``slots`` with
    the slots of ``idx`` (ascending) above it, evaluated for all pairs at
    once: the same per-particle sums, bit for bit.  Returns the energies
    (in ``slots`` order) and the total pair count."""
    starts = np.searchsorted(idx, slots, side="right")
    counts = idx.size - starts
    if not counts.any():
        return [0.0] * len(slots), 0
    js = np.concatenate([idx[start:] for start in starts])
    iss = np.repeat(slots, counts)
    delta = system.minimum_image(system.positions[js]
                                 - system.positions[iss])
    r2 = np.einsum("ij,ij->i", delta, delta)
    mask = (r2 < system.config.cutoff ** 2) & (r2 > 1e-12)
    r2 = r2[mask]
    inv6 = 1.0 / (r2 * r2 * r2)
    lj = 4.0 * (inv6 * inv6 - inv6)
    r = np.sqrt(r2)
    coul = (system.charges[js][mask] * system.charges[iss][mask]
            * erfc(system.config.alpha * r) / r)
    # Each slot's pairs, as a [lo, hi) range of the masked arrays.
    edges = np.concatenate(([0], np.cumsum(mask)))[
        np.concatenate(([0], np.cumsum(counts)))].tolist()
    energies = [float(np.sum(lj[lo:hi]) + np.sum(coul[lo:hi]))
                for lo, hi in zip(edges, edges[1:])]
    return energies, int(counts.sum())


def short_energy_local(system: ParticleSystem, slot: int, rank: int,
                       nranks: int) -> tuple[float, int]:
    """Rank ``rank``'s contribution to ``ShortEn(particle)``: the energy of
    ``slot`` with this rank's local particles (excluding itself)."""
    local = system.local_indices(rank, nranks)
    local = local[local != slot]
    return pair_energy_with_set(
        system, system.positions[slot], float(system.charges[slot]), local)


def insertion_energy_local(system: ParticleSystem, pos: np.ndarray,
                           charge: float, rank: int,
                           nranks: int) -> tuple[float, int]:
    """Rank's contribution to the energy of inserting a particle at
    ``pos`` (the particle does not exist in the system yet)."""
    local = system.local_indices(rank, nranks)
    return pair_energy_with_set(system, pos, charge, local)


def self_energy(charge: float, alpha: float) -> float:
    """Ewald self-interaction correction for one particle."""
    return -alpha / math.sqrt(math.pi) * charge * charge


def pair_virial_with_set(system: ParticleSystem, pos: np.ndarray,
                         charge: float, others: np.ndarray) -> float:
    """Virial contribution sum_j r_ij * (-dU/dr) of one particle against
    a slot set (LJ + screened-Coulomb terms, same cutoff as the energy)."""
    if others.size == 0:
        return 0.0
    delta = system.minimum_image(system.positions[others] - pos)
    r2 = np.einsum("ij,ij->i", delta, delta)
    cutoff2 = system.config.cutoff ** 2
    mask = (r2 < cutoff2) & (r2 > 1e-12)
    if not mask.any():
        return 0.0
    r2 = r2[mask]
    inv6 = 1.0 / (r2 * r2 * r2)
    # LJ: r * (-dU/dr) = 24 (2 r^-12 - r^-6)
    w_lj = np.sum(24.0 * (2.0 * inv6 * inv6 - inv6))
    r = np.sqrt(r2)
    alpha = system.config.alpha
    qq = system.charges[others][mask] * charge
    # screened Coulomb: r * (-dU/dr) = qq [erfc(ar)/r + 2a/sqrt(pi) e^(-a^2 r^2)]
    w_coul = np.sum(qq * (erfc(alpha * r) / r
                          + (2.0 * alpha / math.sqrt(math.pi))
                          * np.exp(-alpha * alpha * r2)))
    return float(w_lj + w_coul)


def total_virial(system: ParticleSystem) -> float:
    """Full O(N^2) short-range virial of the configuration."""
    idx = system.active_indices()
    total = 0.0
    for pos_i, q_i, i in zip(system.positions[idx], system.charges[idx], idx):
        others = idx[idx > i]
        total += pair_virial_with_set(system, pos_i, float(q_i), others)
    return total


def measure_pressure(system: ParticleSystem) -> float:
    """Virial-route pressure: P = (N*T + W/3) / V (reduced units).

    Uses the short-range (real-space) virial only; the reciprocal-space
    Ewald virial is omitted — for the near-neutral, screened systems the
    application samples it is a small correction (documented
    simplification).
    """
    cfg = system.config
    n = system.n_active
    return (n * cfg.temperature + total_virial(system) / 3.0) / cfg.volume


def total_short_energy(system: ParticleSystem) -> float:
    """Full O(N^2) real-space energy (serial reference / verification)."""
    idx = system.active_indices()
    total = 0.0
    for pos_i, q_i, i in zip(system.positions[idx], system.charges[idx], idx):
        others = idx[idx > i]
        e, _ = pair_energy_with_set(system, pos_i, float(q_i), others)
        total += e
    return total
