"""Reciprocal-space vectors for the Ewald long-range energy.

Algorithm 2 of the paper sums ``KMAXVECS = 276`` complex Fourier
coefficients.  We enumerate integer k-vectors of the half-space
(``kz > 0``, or ``kz = 0 and ky > 0``, or ``kz = ky = 0 and kx > 0`` —
the inversion-symmetric half, since ``F[-k] = conj(F[k])``), order them by
``|k|^2`` (ties broken lexicographically for determinism), and keep the
first ``n``.  Every rank of every run asks for the same vectors, so they
are built once per ``(n, box, alpha, kmax)`` and handed out read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def build_kvectors(n: int, box: float, alpha: float,
                   kmax: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(kvecs, coeff)``.

    ``kvecs``: (n, 3) float array of reciprocal vectors (2*pi/box units
    applied); ``coeff``: the per-vector energy weights
    ``4*pi * exp(-|k|^2 / (4 alpha^2)) / |k|^2`` with the factor 2 for the
    half-space folding included.
    """
    if n <= 0:
        raise ValueError(f"need a positive vector count, got {n}")
    if kmax is None:
        # Smallest integer range guaranteed to contain n half-space vectors.
        kmax = 1
        while _half_space_count(kmax) < n:
            kmax += 1
    ints = _half_space_integers(kmax)
    if len(ints) < n:
        raise ValueError(
            f"kmax={kmax} yields only {len(ints)} half-space vectors (<{n})")
    ints.sort(key=lambda v: (v[0] ** 2 + v[1] ** 2 + v[2] ** 2, v))
    chosen = np.array(ints[:n], dtype=np.float64)
    two_pi_over_l = 2.0 * np.pi / box
    kvecs = chosen * two_pi_over_l
    k2 = np.sum(kvecs * kvecs, axis=1)
    coeff = 2.0 * 4.0 * np.pi * np.exp(-k2 / (4.0 * alpha * alpha)) / k2
    kvecs.setflags(write=False)
    coeff.setflags(write=False)
    return kvecs, coeff


def _half_space_count(kmax: int) -> int:
    return len(_half_space_integers(kmax))


def _half_space_integers(kmax: int) -> list[tuple[int, int, int]]:
    out = []
    for kz in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for kx in range(-kmax, kmax + 1):
                if kz > 0 or (kz == 0 and ky > 0) or (kz == 0 and ky == 0
                                                      and kx > 0):
                    out.append((kx, ky, kz))
    return out
