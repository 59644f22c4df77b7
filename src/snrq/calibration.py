"""Calibration statistics and the interpolated teacher/student objective.

A calibration batch holds teacher activations ``xf`` and student activations
``xq`` (columns are calibration sequences). The interpolated objective

    L(w_hat; a) = || w (a*xf + (1-a)*xq) - w_hat xq ||_F^2

decomposes exactly into ``a*L_asym + (1-a)*L_sym - a(1-a)*||w(xf-xq)||_F^2``
and, after completing the square, into a Hessian-weighted least-squares
problem around the shifted target M = w C H^{-1}. This module builds the
second-moment statistics (H, C) for given weights (one for every sequence,
or one per sequence), draws folded Beta weights, computes the closed-form
weight, and produces M. How a layer's weights are chosen, the alpha mode of
:class:`AlphaStrategy`, is pipeline configuration: only
:func:`snrq.pipeline.quantize_network` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonFinite, ShapeMismatch, require_finite
from .linalg import cholesky, solve_with_factor  # cholesky: perfbench tracer only
from .rng import SeededRng

__all__ = [
    "CalibBatch",
    "CalibStats",
    "AlphaStrategy",
    "accumulate_stats",
    "shifted_target",
    "closed_form_alpha",
    "sample_folded_alphas",
]

ALPHA_MODES = ("fixed", "closed_form", "sampled")


@dataclass(frozen=True)
class CalibBatch:
    """Teacher/student activations; column j of each is the same sequence."""

    xf: np.ndarray
    xq: np.ndarray

    def __post_init__(self):
        xf = np.asarray(self.xf, dtype=np.float64)
        xq = np.asarray(self.xq, dtype=np.float64)
        if xf.shape != xq.shape or xf.ndim != 2:
            raise ShapeMismatch(f"xf {xf.shape} and xq {xq.shape} must be equal 2-D shapes")
        object.__setattr__(self, "xf", xf)
        object.__setattr__(self, "xq", xq)

    @property
    def n_features(self) -> int:
        return self.xq.shape[0]

    @property
    def n_sequences(self) -> int:
        return self.xq.shape[1]

    @property
    def delta(self) -> np.ndarray:
        return self.xf - self.xq


@dataclass(frozen=True)
class AlphaStrategy:
    """The ``alpha`` section of a pipeline run config: how a layer's weights are chosen.

    mode "fixed" uses ``alpha_value`` for every sequence; "closed_form" uses
    the module-wise schedule (``alpha_value`` is the initial value); "sampled"
    draws a folded Beta(beta_lambda, beta_lambda) weight per sequence; no
    other spelling is a mode. The pipeline turns the mode into the weights it
    passes :func:`accumulate_stats`.
    """

    mode: str = "fixed"
    alpha_value: float = 0.5
    beta_lambda: float = 5.0

    def __post_init__(self):
        if self.mode not in ALPHA_MODES:
            raise InvalidSpec(f"alpha mode must be one of {ALPHA_MODES}, got {self.mode!r}")
        object.__setattr__(self, "alpha_value", require_finite("alpha_value", self.alpha_value))
        if not 0.0 <= self.alpha_value <= 1.0:
            raise InvalidSpec(f"alpha_value must be in [0, 1], got {self.alpha_value}")
        object.__setattr__(self, "beta_lambda", require_finite("beta_lambda", self.beta_lambda))
        if self.beta_lambda <= 0:
            raise InvalidSpec(f"beta_lambda must be positive, got {self.beta_lambda}")


@dataclass
class CalibStats:
    """Accumulated second-order statistics for one layer.

    ``h`` is the damped student second moment, ``c_alpha`` the cross moment
    X_alpha X_q^T.
    """

    h: np.ndarray
    c_alpha: np.ndarray
    damping_abs: float


def sample_folded_alphas(n: int, beta_lambda: float, rng: SeededRng) -> np.ndarray:
    """Per-sequence weights: fold Beta(l, l) draws onto [0, 1/2]."""
    b = rng.beta(beta_lambda, beta_lambda, size=n)
    return np.minimum(b, 1.0 - b)


def accumulate_stats(batch: CalibBatch, alphas, damping: float = 0.01) -> CalibStats:
    """Build H and C from one calibration batch and its interpolation weights.

    H gets relative damping: H <- X_q X_q^T + damping * mean(diag) * I.
    ``alphas`` is one weight for every sequence or one per sequence (column).
    X_alpha = xq + (xf - xq) * alphas is built in place in one array, the
    only activation-sized array this allocates.

    Raises:
        ShapeMismatch: malformed batch, or ``alphas`` neither a number nor
            one weight per sequence.
        NonFinite: a non-finite activation or weight.
        InvalidSpec: negative damping.
    """
    if damping < 0:
        raise InvalidSpec(f"damping must be >= 0, got {damping}")
    xq, xf = batch.xq, batch.xf
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape not in ((), (batch.n_sequences,)):
        raise ShapeMismatch(f"alphas {alphas.shape} must be a number or one weight "
                            f"for each of the {batch.n_sequences} sequences")
    if not (np.all(np.isfinite(xq)) and np.all(np.isfinite(xf))):
        raise NonFinite("calibration batch contains NaN or Inf")
    if not np.all(np.isfinite(alphas)):
        raise NonFinite("interpolation weights contain NaN or Inf")

    h = xq @ xq.T
    damping_abs = damping * float(np.mean(np.diag(h))) if damping > 0 else 0.0
    h += 0.0  # -0.0 entries become +0.0, as adding a damped identity makes them
    h.flat[::h.shape[0] + 1] += damping_abs

    x_alpha = np.subtract(xf, xq)
    x_alpha *= alphas
    x_alpha += xq
    return CalibStats(h=h, c_alpha=x_alpha @ xq.T, damping_abs=damping_abs)


def shifted_target(w: np.ndarray, stats: CalibStats, fact) -> np.ndarray:
    """Shifted rounding target M = w C H^{-1}, in original column order.

    ``fact`` is the layer's (perm, low, inv) with H[perm][:, perm] = low low^T
    and inv the diagonal-block inverses that came with low (:func:`snrq.solvers.order_and_factor`);
    the right division runs in that order: M[:, perm] = (w C)[:, perm] H[perm][:, perm]^{-1}.
    The division overwrites (w C)[:, perm], and M is allocated only after it,
    so at most two m x n arrays are alive at once.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[1] != stats.h.shape[0]:
        raise ShapeMismatch(f"weights {w.shape} incompatible with H {stats.h.shape}")
    perm, low, inv = fact
    mp = solve_with_factor(low, (w @ stats.c_alpha)[:, perm], inv)
    return mp[:, np.argsort(perm)]


def closed_form_alpha(
    w: np.ndarray,
    w_hat: np.ndarray,
    batch: CalibBatch,
    default_alpha: float = 0.5,
) -> float:
    """Minimizer of the objective over the interpolation weight, clamped to [0, 1].

    With U = w(xf - xq) and V = (w - w_hat)xq the unconstrained optimum is
    -<V, U> / ||U||^2. Both terms scale alike with the weights and with the
    activations, so their ratio needs no absolute floor: only where
    ||U||^2 is exactly 0 (xf == xq, as at layer 0 or after a lossless
    layer) is every weight optimal, and the configured default is returned.
    """
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    u = w @ batch.delta
    v = (w - w_hat) @ batch.xq
    v *= u  # the products and squares overwrite v and u: two arrays of u's size
    u *= u
    u_sq = float(np.sum(u))
    if u_sq == 0.0:
        return float(default_alpha)
    raw = -float(np.sum(v)) / u_sq
    return float(np.clip(raw, 0.0, 1.0))
