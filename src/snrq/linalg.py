"""Dense f64 linear algebra: Cholesky factorization and SPD solves.

All computation is in 64-bit floats. The factorization is LAPACK's
``dpotrf``; a failed pivot is reported as :class:`NotPositiveDefinite` with
its index and value, which LAPACK leaves on the diagonal of the partial factor.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import NonFinite, NotPositiveDefinite, ShapeMismatch

__all__ = ["cholesky", "solve_with_factor"]


def cholesky(h: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Factor a symmetric positive-definite matrix as h = L L^T.

    The input is symmetrized (averaging away accumulation-order asymmetry,
    typically 1 ulp) before factorization. Returns the lower factor L
    with strictly positive diagonal and exact zeros above the diagonal.

    Raises:
        NonFinite: h contains NaN or Inf.
        ShapeMismatch: h is not square, or asymmetric beyond ``rel_tol``.
        NotPositiveDefinite: a pivot <= 0 is encountered.
    """
    h = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise NonFinite("cholesky input contains NaN or Inf")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"cholesky needs a square matrix, got {h.shape}")
    scale = np.max(np.abs(h))
    if scale > 0 and np.max(np.abs(h - h.T)) > rel_tol * scale:
        raise ShapeMismatch("cholesky input is not symmetric within tolerance")

    low, info = dpotrf(0.5 * (h + h.T), lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(info - 1, float(low[info - 1, info - 1]))
    return low


def solve_with_factor(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-divide by the factored matrix: returns b (LL^T)^{-1}."""
    z = solve_triangular(low, b.T, lower=True)
    y = solve_triangular(low.T, z, lower=False)
    return y.T
