"""Dense f64 linear algebra: Cholesky factorization and triangular right-solves.

All computation is in 64-bit floats and uses numpy alone, over ``_BLOCK``-wide
diagonal blocks. The factorization is left-looking: numpy's ``cholesky`` and
``inv`` factor and invert each block's Schur complement, and matrix products
make the panels below, so :func:`cholesky` returns the block inverses with L.
A failed block is rescanned unblocked for its first pivot <= 0. The right-solves
divide their operand in place: they make the off-diagonal updates as matrix
products and apply each diagonal block through its inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotPositiveDefinite, ShapeMismatch

__all__ = ["cholesky", "solve_lt", "solve_l", "solve_with_factor"]

_BLOCK = 32
_SYMMETRY_TOL = 1e-9  # largest |h - h^T| accepted, relative to max |h|


def cholesky(h: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Factor a symmetric positive-definite matrix as h = L L^T.

    The input is symmetrized (averaging away accumulation-order asymmetry,
    typically 1 ulp) before factorization. Returns ``(low, inv)``: L, with
    strictly positive diagonal and exact zeros above it, and the tuple of the
    inverses of its ``_BLOCK``-wide diagonal blocks, each at its own size (the
    last block is narrower when ``_BLOCK`` does not divide the order).

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
    n = sym.shape[0]
    low = np.zeros_like(sym)
    inv = []
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        schur = sym[s:e, s:e] - low[s:e, :s] @ low[s:e, :s].T
        try:
            low[s:e, s:e] = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            raise _failed_pivot(schur, s) from None
        inv.append(np.linalg.inv(low[s:e, s:e]))
        low[e:, s:e] = (sym[e:, s:e] - low[e:, :s] @ low[s:e, :s].T) @ inv[-1].T
    return low, tuple(inv)


def _failed_pivot(a: np.ndarray, start: int) -> NotPositiveDefinite:
    """The first pivot <= 0 of an unblocked Cholesky of the block ``a`` starting at column ``start``.

    When blocked and unblocked rounding disagree at the margin and every
    pivot here is positive, the smallest one is reported instead.
    """
    n = a.shape[0]
    low = np.zeros_like(a)
    smallest = (0, math.inf)
    for j in range(n):
        pivot = float(a[j, j] - low[j, :j] @ low[j, :j])
        if not pivot > 0.0:
            return NotPositiveDefinite(start + j, pivot)
        if pivot < smallest[1]:
            smallest = (start + j, pivot)
        low[j, j] = math.sqrt(pivot)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return NotPositiveDefinite(*smallest)


def solve_lt(low: np.ndarray, b: np.ndarray, inv: tuple[np.ndarray, ...]) -> np.ndarray:
    """Right-divide by L^T in place: overwrites the float64 array b with b L^{-T} and returns it.

    L is lower triangular and divided left to right; ``inv`` is the block
    inverses that :func:`cholesky` returns with ``low``.
    """
    n = len(low)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        b[:, s:e] = (b[:, s:e] - b[:, :s] @ low[s:e, :s].T) @ inv[s // _BLOCK].T
    return b


def solve_l(low: np.ndarray, b: np.ndarray, inv: tuple[np.ndarray, ...]) -> np.ndarray:
    """Right-divide by L in place: overwrites the float64 array b with b L^{-1} and returns it.

    L is lower triangular and divided right to left; ``inv`` is as for :func:`solve_lt`.
    """
    n = len(low)
    for s in reversed(range(0, n, _BLOCK)):
        e = min(s + _BLOCK, n)
        b[:, s:e] = (b[:, s:e] - b[:, e:] @ low[e:, s:e]) @ inv[s // _BLOCK]
    return b


def solve_with_factor(low: np.ndarray, b: np.ndarray, inv: tuple[np.ndarray, ...]) -> np.ndarray:
    """Right-divide by the factored matrix in place: overwrites b with b (LL^T)^{-1} and returns it."""
    return solve_l(low, solve_lt(low, b, inv), inv)
