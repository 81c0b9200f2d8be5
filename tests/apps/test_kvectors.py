"""Unit tests for the Ewald reciprocal-vector construction."""

import numpy as np
import pytest

from repro.apps.gcmc.kvectors import build_kvectors


def test_paper_count_276():
    """The paper's 276 complex coefficients."""
    kvecs, coeff = build_kvectors(276, box=10.0, alpha=0.9)
    assert kvecs.shape == (276, 3)
    assert coeff.shape == (276,)


def test_no_zero_vector():
    kvecs, _ = build_kvectors(100, box=8.0, alpha=1.0)
    norms = np.linalg.norm(kvecs, axis=1)
    assert norms.min() > 0


def test_half_space_property():
    """No vector and its negation may both appear (F[-k] = conj(F[k]))."""
    kvecs, _ = build_kvectors(276, box=8.0, alpha=1.0)
    rounded = {tuple(np.round(v, 9)) for v in kvecs}
    for v in kvecs:
        assert tuple(np.round(-v, 9)) not in rounded


def test_sorted_by_magnitude():
    kvecs, _ = build_kvectors(100, box=8.0, alpha=1.0)
    norms2 = np.sum(kvecs * kvecs, axis=1)
    assert np.all(np.diff(norms2) > -1e-12)


def test_coefficients_positive_and_decaying():
    kvecs, coeff = build_kvectors(276, box=8.0, alpha=0.8)
    assert np.all(coeff > 0)
    # Larger |k| -> exponentially smaller weight (on sorted vectors the
    # last coefficient must be far below the first).
    assert coeff[-1] < coeff[0]


def test_scaling_with_box():
    small, _ = build_kvectors(50, box=5.0, alpha=1.0)
    large, _ = build_kvectors(50, box=10.0, alpha=1.0)
    # Reciprocal vectors shrink as the box grows.
    assert np.linalg.norm(large[0]) == pytest.approx(
        np.linalg.norm(small[0]) / 2)


def test_deterministic():
    a, ca = build_kvectors(276, box=8.0, alpha=0.9)
    b, cb = build_kvectors(276, box=8.0, alpha=0.9)
    assert np.array_equal(a, b)
    assert np.array_equal(ca, cb)


def test_invalid_count():
    with pytest.raises(ValueError):
        build_kvectors(0, box=8.0, alpha=1.0)


def test_explicit_kmax_too_small():
    with pytest.raises(ValueError):
        build_kvectors(1000, box=8.0, alpha=1.0, kmax=1)


def test_memoised_and_read_only():
    """Every rank of every run shares one build of the vectors."""
    kvecs, coeff = build_kvectors(276, box=8.0, alpha=0.9)
    again, coeff_again = build_kvectors(276, box=8.0, alpha=0.9)
    assert again is kvecs and coeff_again is coeff
    with pytest.raises(ValueError):
        kvecs[0, 0] = 0.0
    with pytest.raises(ValueError):
        coeff[0] = 0.0
