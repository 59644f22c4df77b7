"""Dense f64 linear algebra: Cholesky factorization and SPD solves.

All computation is in 64-bit floats. Instances are desk scale (n <= 1024), so
the factorization is a plain unblocked right-looking sweep; that keeps the
pivot test explicit and the failure mode (:class:`NotPositiveDefinite`) exact.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonFinite, NotPositiveDefinite, ShapeMismatch

__all__ = ["cholesky", "solve_with_factor", "symmetrize", "check_finite"]


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


def symmetrize(h: np.ndarray) -> np.ndarray:
    """Average away accumulation-order asymmetry (typically 1 ulp)."""
    return 0.5 * (h + h.T)


def cholesky(h: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Factor a symmetric positive-definite matrix as h = L L^T.

    The input is symmetrized before factorization. Returns the lower factor L
    with strictly positive diagonal and exact zeros above the diagonal.

    Raises:
        ShapeMismatch: h is not square, or asymmetric beyond ``rel_tol``.
        NotPositiveDefinite: a pivot <= 0 is encountered.
    """
    h = check_finite(h, "cholesky input")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"cholesky needs a square matrix, got {h.shape}")
    scale = np.max(np.abs(h))
    if scale > 0 and np.max(np.abs(h - h.T)) > rel_tol * scale:
        raise ShapeMismatch("cholesky input is not symmetric within tolerance")

    a = symmetrize(h)
    n = a.shape[0]
    low = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        pivot = a[j, j]
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NotPositiveDefinite(j, float(pivot))
        d = np.sqrt(pivot)
        low[j, j] = d
        if j + 1 < n:
            col = a[j + 1:, j] / d
            low[j + 1:, j] = col
            # right-looking trailing update, lower part only
            a[j + 1:, j + 1:] -= np.outer(col, col)
    return low


def solve_with_factor(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-divide by the factored matrix: returns b (LL^T)^{-1}."""
    z = solve_triangular(low, b.T, lower=True)
    y = solve_triangular(low.T, z, lower=False)
    return y.T
