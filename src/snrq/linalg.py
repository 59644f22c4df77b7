"""Dense f64 linear algebra: Cholesky factorization and triangular right-solves.

All computation is in 64-bit floats and uses numpy alone. The factorization
is numpy's LAPACK ``potrf``. numpy reports a failed factorization without a
pivot index, so on that path only an unblocked left-looking pass finds the
first pivot <= 0 and raises :class:`NotPositiveDefinite` with its index and
value. The right-solves by L^T and L run over blocks of ``_BLOCK`` columns:
the off-diagonal updates are matrix products, and each diagonal block is
applied through its inverse. The inverses are :func:`block_inverses` of L,
one batched ``np.linalg.inv`` call, which the caller makes once per factor
and passes to every solve with it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotPositiveDefinite, ShapeMismatch

__all__ = ["cholesky", "block_inverses", "solve_lt", "solve_l", "solve_with_factor"]

_BLOCK = 32
_SYMMETRY_TOL = 1e-9  # largest |h - h^T| accepted, relative to max |h|


def cholesky(h: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive-definite matrix as h = L L^T.

    The input is symmetrized (averaging away accumulation-order asymmetry,
    typically 1 ulp) before factorization. Returns the lower factor L
    with strictly positive diagonal and exact zeros above the diagonal.

    Raises:
        NonFinite: h contains NaN or Inf.
        ShapeMismatch: h is not square, or asymmetric beyond ``_SYMMETRY_TOL``.
        NotPositiveDefinite: a pivot <= 0 is encountered.
    """
    h = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise NonFinite("cholesky input contains NaN or Inf")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"cholesky needs a square matrix, got {h.shape}")
    scale = np.max(np.abs(h))
    if scale > 0 and np.max(np.abs(h - h.T)) > _SYMMETRY_TOL * scale:
        raise ShapeMismatch("cholesky input is not symmetric within tolerance")

    sym = 0.5 * (h + h.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise _failed_pivot(sym) from None


def _failed_pivot(a: np.ndarray) -> NotPositiveDefinite:
    """The first pivot <= 0 of an unblocked left-looking Cholesky of ``a``.

    When blocked and unblocked rounding disagree at the margin and every
    pivot here is positive, the smallest one is reported instead.
    """
    n = a.shape[0]
    low = np.zeros_like(a)
    smallest = (0, math.inf)
    for j in range(n):
        pivot = float(a[j, j] - low[j, :j] @ low[j, :j])
        if not pivot > 0.0:
            return NotPositiveDefinite(j, pivot)
        if pivot < smallest[1]:
            smallest = (j, pivot)
        low[j, j] = math.sqrt(pivot)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return NotPositiveDefinite(*smallest)


def block_inverses(low: np.ndarray) -> np.ndarray:
    """Inverses of the ``_BLOCK``-wide diagonal blocks of L, from one batched call.

    The last block is padded with the identity, so every block is square.
    """
    n = low.shape[0]
    blocks = np.tile(np.eye(_BLOCK), (-(-n // _BLOCK), 1, 1))
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        blocks[s // _BLOCK, :e - s, :e - s] = low[s:e, s:e]
    return np.linalg.inv(blocks)


def solve_lt(low: np.ndarray, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Right-divide by L^T: returns b L^{-T} for lower-triangular L, left to right.

    ``inv`` is ``block_inverses(low)``.
    """
    x = np.array(b, dtype=np.float64)
    n = low.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        x[:, s:e] = (x[:, s:e] - x[:, :s] @ low[s:e, :s].T) @ inv[s // _BLOCK, :e - s, :e - s].T
    return x


def solve_l(low: np.ndarray, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Right-divide by L: returns b L^{-1} for lower-triangular L, right to left.

    ``inv`` is ``block_inverses(low)``.
    """
    x = np.array(b, dtype=np.float64)
    n = low.shape[0]
    for s in reversed(range(0, n, _BLOCK)):
        e = min(s + _BLOCK, n)
        x[:, s:e] = (x[:, s:e] - x[:, e:] @ low[e:, s:e]) @ inv[s // _BLOCK, :e - s, :e - s]
    return x


def solve_with_factor(low: np.ndarray, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Right-divide by the factored matrix: returns b (LL^T)^{-1}; ``inv`` is as for :func:`solve_lt`."""
    return solve_l(low, solve_lt(low, b, inv), inv)
