"""Cholesky and triangular-solve contracts, checked against scipy's LAPACK wrappers."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from snrq import NotPositiveDefinite, ShapeMismatch, cholesky
from snrq.linalg import _BLOCK, solve_l, solve_lt, solve_with_factor

from conftest import diagonal_block_inverses, random_spd, same_bits


def test_cholesky_identity():
    low, inv = cholesky(np.eye(3))
    assert np.array_equal(low, np.eye(3))
    assert len(inv) == 1 and same_bits(inv[0], np.eye(3))


def test_cholesky_known_2x2():
    low, _ = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
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
        low, _ = cholesky(h)
        assert np.all(np.triu(low, 1) == 0.0)
        assert np.all(np.diag(low) > 0.0)
        err = np.linalg.norm(low @ low.T - h) / np.linalg.norm(h)
        assert err <= 1e-10


def solve_spd(h, b):
    """b h^{-1} through the factor of h and its block inverses, into a copy of b."""
    low, inv = cholesky(h)
    return solve_with_factor(low, b.copy(), inv)


def test_solve_spd_identity_and_scalar():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.allclose(solve_spd(np.eye(3), b), b, rtol=0, atol=1e-14)
    assert np.allclose(solve_spd(np.array([[4.0]]), np.array([[6.0]])), [[1.5]])


def test_solve_spd_residual(rng):
    h = random_spd(rng, 8)
    b = rng.normal(size=(4, 8))
    y = solve_spd(h, b)
    resid = np.linalg.norm(y @ h - b) / max(1.0, np.linalg.norm(b))
    assert resid <= 1e-8


def test_solve_spd_roundtrip_moderate_condition(rng):
    # y = solve(h, b) then y @ h recovers b for condition numbers up to ~1e6
    n = 16
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = np.logspace(0, 6, n)
    h = q @ np.diag(eig) @ q.T
    b = rng.normal(size=(3, n))
    y = solve_spd(h, b)
    assert np.linalg.norm(y @ h - b) / max(1.0, np.linalg.norm(b)) <= 1e-8


def test_solve_with_factor_matches_solve(rng):
    h = random_spd(rng, 6)
    b = rng.normal(size=(2, 6))
    expected = np.linalg.solve(h, b.T).T  # h is symmetric: Y h = b
    assert np.allclose(solve_spd(h, b), expected, rtol=1e-10, atol=1e-12)


def rank_deficient_gram(rng, n, damping):
    x = rng.normal(size=(n, max(1, n // 2)))
    h = x @ x.T
    return h + damping * np.mean(np.diag(h)) * np.eye(n)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 197])
@pytest.mark.parametrize("damping", [1e-2, 1e-10])
def test_blocked_solves_match_solve_triangular(rng, n, damping):
    low, inv = cholesky(rank_deficient_gram(rng, n, damping))
    b = rng.normal(size=(7, n))
    cases = [
        (solve_lt(low, b.copy(), inv), solve_triangular(low, b.T, lower=True).T, low.T),
        (solve_l(low, b.copy(), inv), solve_triangular(low, b.T, lower=True, trans="T").T, low),
    ]
    for x, ref, divisor in cases:
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(x @ divisor - b) <= 1e-15 * np.linalg.norm(x) * np.linalg.norm(low)


def test_cholesky_failed_pivot_matches_lapack(rng):
    for _ in range(50):
        n = int(rng.integers(2, 150))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eig = rng.uniform(0.1, 10.0, size=n)
        eig[rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] *= -1.0
        h = q @ np.diag(eig) @ q.T
        h = 0.5 * (h + h.T)
        partial, info = dpotrf(h, lower=1, clean=1)
        assert info > 0
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(h)
        expected = partial[info - 1, info - 1]
        assert exc.value.pivot_index == info - 1
        assert abs(exc.value.pivot_value - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 197])
def test_cholesky_returns_diagonal_block_inverses(rng, n):
    # inv[b] is the inverse of diagonal block b, at the block's own size. Full
    # blocks are inverted as the reference inverts them; the reference pads a
    # narrower last block with the identity, where LAPACK's pivoted LU may take
    # another path and differ in the last bits
    low, inv = cholesky(random_spd(rng, n))
    sizes = [min(_BLOCK, n - s) for s in range(0, n, _BLOCK)]
    assert [a.shape for a in inv] == [(k, k) for k in sizes]
    for a, ref in zip(inv, diagonal_block_inverses(low), strict=True):
        if a.shape == (_BLOCK, _BLOCK):
            assert same_bits(a, ref)
        else:
            assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("solve", [solve_lt, solve_l, solve_with_factor])
@pytest.mark.parametrize("n", [5, 65])
def test_solves_overwrite_their_operand(rng, solve, n):
    low, inv = cholesky(random_spd(rng, n))
    b = rng.normal(size=(3, n))
    expected = solve(low, b.copy(), inv)
    assert solve(low, b, inv) is b
    assert same_bits(b, expected)


def test_cholesky_failed_pivot_beyond_the_first_blocks():
    # h = U D U^T with U unit lower and D positive except D[70] = -1, so the
    # first non-positive pivot is in the third diagonal block
    n, bad = 100, 70
    rng = np.random.default_rng(7)
    unit = np.tril(rng.normal(scale=0.3, size=(n, n)), -1) + np.eye(n)
    d = rng.uniform(1.0, 2.0, size=n)
    d[bad] = -1.0
    h = (unit * d) @ unit.T
    h = 0.5 * (h + h.T)
    partial, info = dpotrf(h, lower=1, clean=1)
    assert info == bad + 1
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(h)
    expected = partial[info - 1, info - 1]
    assert exc.value.pivot_index == info - 1
    assert abs(exc.value.pivot_value - expected) <= 1e-10 * abs(expected)
