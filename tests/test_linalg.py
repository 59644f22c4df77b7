"""Cholesky and SPD-solve contracts."""

import numpy as np
import pytest

from snrq import NotPositiveDefinite, ShapeMismatch, cholesky
from snrq.linalg import solve_with_factor

from conftest import random_spd


def test_cholesky_identity():
    low = cholesky(np.eye(3))
    assert np.array_equal(low, np.eye(3))


def test_cholesky_known_2x2():
    low = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(low, expected, rtol=0, atol=1e-14)
    # reconstruction by direct multiplication
    assert np.allclose(low @ low.T, [[4, 2], [2, 3]], rtol=0, atol=1e-14)


def test_cholesky_indefinite_raises():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


def test_cholesky_failed_pivot_index_and_value():
    # the second pivot is 1 - 2^2 / 1 = -3
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1
    assert exc.value.pivot_value == -3.0


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ShapeMismatch):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_structure_and_reconstruction(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        h = random_spd(rng, n)
        low = cholesky(h)
        assert np.all(np.triu(low, 1) == 0.0)
        assert np.all(np.diag(low) > 0.0)
        err = np.linalg.norm(low @ low.T - h) / np.linalg.norm(h)
        assert err <= 1e-10


def test_solve_spd_identity_and_scalar():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.allclose(solve_with_factor(cholesky(np.eye(3)), b), b, rtol=0, atol=1e-14)
    assert np.allclose(solve_with_factor(cholesky(np.array([[4.0]])), np.array([[6.0]])), [[1.5]])


def test_solve_spd_residual(rng):
    h = random_spd(rng, 8)
    b = rng.normal(size=(4, 8))
    y = solve_with_factor(cholesky(h), b)
    resid = np.linalg.norm(y @ h - b) / max(1.0, np.linalg.norm(b))
    assert resid <= 1e-8


def test_solve_spd_roundtrip_moderate_condition(rng):
    # y = solve(h, b) then y @ h recovers b for condition numbers up to ~1e6
    n = 16
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = np.logspace(0, 6, n)
    h = q @ np.diag(eig) @ q.T
    b = rng.normal(size=(3, n))
    y = solve_with_factor(cholesky(h), b)
    assert np.linalg.norm(y @ h - b) / max(1.0, np.linalg.norm(b)) <= 1e-8


def test_solve_with_factor_matches_solve(rng):
    h = random_spd(rng, 6)
    b = rng.normal(size=(2, 6))
    expected = np.linalg.solve(h, b.T).T  # h is symmetric: Y h = b
    assert np.allclose(solve_with_factor(cholesky(h), b), expected, rtol=1e-10, atol=1e-12)
