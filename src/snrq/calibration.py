"""Calibration statistics and the interpolated teacher/student objective.

A calibration batch holds teacher activations ``xf`` and student activations
``xq`` (columns are calibration sequences). The interpolated objective

    L(w_hat; a) = || w (a*xf + (1-a)*xq) - w_hat xq ||_F^2

decomposes exactly into ``a*L_asym + (1-a)*L_sym - a(1-a)*||w(xf-xq)||_F^2``
and, after completing the square, into a Hessian-weighted least-squares
problem around the shifted target M = w C H^{-1}. This module builds the
second-moment statistics (H, C), selects the interpolation weight (fixed,
closed form, or Beta-sampled per sequence), and produces M.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, NonFinite, ShapeMismatch
from .linalg import cholesky, solve_with_factor  # cholesky: perfbench tracer only
from .rng import SeededRng

__all__ = [
    "CalibBatch",
    "CalibStats",
    "AlphaStrategy",
    "AlphaChoice",
    "accumulate_stats",
    "shifted_target",
    "objective_direct",
    "decomposition_check",
    "closed_form_alpha",
    "module_wise_alpha_schedule",
    "sample_folded_alphas",
    "gamma_weight",
]

DEGENERATE_U_THRESHOLD = 1e-24

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
    """How the interpolation weight is chosen.

    mode "fixed" uses ``alpha_value`` for every sequence; "closed_form" uses
    the module-wise schedule (``alpha_value`` is the initial value); "sampled"
    draws a folded Beta(beta_lambda, beta_lambda) weight per sequence.
    """

    mode: str = "fixed"
    alpha_value: float = 0.5
    beta_lambda: float = 5.0

    def __post_init__(self):
        mode = {"sample": "sampled"}.get(self.mode, self.mode)
        object.__setattr__(self, "mode", mode)
        if mode not in ALPHA_MODES:
            raise ValueError(f"alpha mode must be one of {ALPHA_MODES}, got {self.mode!r}")
        if not 0.0 <= self.alpha_value <= 1.0:
            raise ValueError(f"alpha_value must be in [0, 1], got {self.alpha_value}")
        if self.beta_lambda <= 0:
            raise ValueError(f"beta_lambda must be positive, got {self.beta_lambda}")

    def with_alpha(self, alpha: float) -> "AlphaStrategy":
        return replace(self, alpha_value=float(alpha))


@dataclass
class CalibStats:
    """Accumulated second-order statistics for one layer.

    ``h`` is the damped student second moment, ``c_alpha`` the cross moment
    X_alpha X_q^T.
    ``alpha_trace`` records the per-sequence weights actually used (length 1
    for a single global weight).
    """

    h: np.ndarray
    c_alpha: np.ndarray
    damping: float
    damping_abs: float
    n_samples: int
    alpha_trace: np.ndarray


def sample_folded_alphas(n: int, beta_lambda: float, rng: SeededRng) -> np.ndarray:
    """Per-sequence weights: fold Beta(l, l) draws onto [0, 1/2]."""
    b = rng.beta(beta_lambda, beta_lambda, size=n)
    return np.minimum(b, 1.0 - b)


def gamma_weight(alpha: float) -> float:
    """Implied regularization weight a/(1-a); monotone on [0, 1)."""
    return alpha / (1.0 - alpha)


def accumulate_stats(
    batch: CalibBatch,
    strategy: AlphaStrategy,
    damping: float = 0.01,
    rng: SeededRng | None = None,
) -> CalibStats:
    """Build H and C from one calibration batch.

    H gets relative damping: H <- X_q X_q^T + damping * mean(diag) * I. The
    cross moment uses a single global weight in fixed/closed_form mode and a
    per-column folded Beta draw in sampled mode (columns are processed in a
    fixed order, so the draw sequence is reproducible given the rng).

    Raises:
        ShapeMismatch, NonFinite: malformed batch.
        InvalidSpec: sampled mode without an rng, or negative damping.
    """
    if damping < 0:
        raise InvalidSpec(f"damping must be >= 0, got {damping}")
    xq, xf = batch.xq, batch.xf
    if not (np.all(np.isfinite(xq)) and np.all(np.isfinite(xf))):
        raise NonFinite("calibration batch contains NaN or Inf")

    h0 = xq @ xq.T
    damping_abs = damping * float(np.mean(np.diag(h0))) if damping > 0 else 0.0
    h = h0 + damping_abs * np.eye(batch.n_features)

    if strategy.mode == "sampled":
        if rng is None:
            raise InvalidSpec("sampled alpha mode requires an rng")
        alphas = sample_folded_alphas(batch.n_sequences, strategy.beta_lambda, rng)
        x_alpha = xq + batch.delta * alphas[None, :]
        trace = alphas
    else:
        a = strategy.alpha_value
        x_alpha = a * xf + (1.0 - a) * xq
        trace = np.array([a])
    c_alpha = x_alpha @ xq.T

    return CalibStats(
        h=h,
        c_alpha=c_alpha,
        damping=damping,
        damping_abs=damping_abs,
        n_samples=batch.n_sequences,
        alpha_trace=trace,
    )


def shifted_target(w: np.ndarray, stats: CalibStats, fact: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Shifted rounding target M = w C H^{-1}, in original column order.

    ``fact`` is the layer's (perm, low) pair with H[perm][:, perm] = low low^T
    (:func:`snrq.solvers.order_and_factor`); the right division runs in that
    order: M[:, perm] = (w C)[:, perm] H[perm][:, perm]^{-1}.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[1] != stats.h.shape[0]:
        raise ShapeMismatch(f"weights {w.shape} incompatible with H {stats.h.shape}")
    perm, low = fact
    m = np.empty((w.shape[0], len(perm)))
    m[:, perm] = solve_with_factor(low, (w @ stats.c_alpha)[:, perm])
    return m


def objective_direct(
    w: np.ndarray, w_hat: np.ndarray, batch: CalibBatch, alpha: float
) -> float:
    """Exact interpolated objective from raw activations (ground truth)."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape or w.shape[1] != batch.n_features:
        raise ShapeMismatch(
            f"w {w.shape}, w_hat {w_hat.shape}, batch features {batch.n_features}"
        )
    x_alpha = alpha * batch.xf + (1.0 - alpha) * batch.xq
    r = w @ x_alpha - w_hat @ batch.xq
    return float(np.sum(r * r))


def decomposition_check(
    w: np.ndarray, w_hat: np.ndarray, batch: CalibBatch, alpha: float
) -> tuple[float, float, float]:
    """Both sides of the interpolation identity, computed independently.

    Returns (lhs, rhs, const_term) with
    lhs  = direct objective at ``alpha``,
    rhs  = a*L_asym + (1-a)*L_sym - a(1-a)*||w(xf-xq)||_F^2,
    const_term = the subtracted cross term.
    """
    lhs = objective_direct(w, w_hat, batch, alpha)
    l_asym = objective_direct(w, w_hat, batch, 1.0)
    l_sym = objective_direct(w, w_hat, batch, 0.0)
    u = np.asarray(w) @ batch.delta
    const = alpha * (1.0 - alpha) * float(np.sum(u * u))
    rhs = alpha * l_asym + (1.0 - alpha) * l_sym - const
    return lhs, rhs, const


@dataclass(frozen=True)
class AlphaChoice:
    """Result of the closed-form weight update."""

    alpha: float
    degenerate: bool


def closed_form_alpha(
    w: np.ndarray,
    w_hat: np.ndarray,
    batch: CalibBatch,
    default_alpha: float = 0.5,
) -> AlphaChoice:
    """Minimizer of the objective over the interpolation weight, clamped to [0, 1].

    With U = w(xf - xq) and V = (w - w_hat)xq the unconstrained optimum is
    -<V, U> / ||U||^2. When ||U||^2 vanishes every weight is optimal, so the
    configured default is returned with ``degenerate=True``.
    """
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    u = w @ batch.delta
    u_sq = float(np.sum(u * u))
    if u_sq < DEGENERATE_U_THRESHOLD:
        return AlphaChoice(alpha=float(default_alpha), degenerate=True)
    v = (w - w_hat) @ batch.xq
    raw = -float(np.sum(v * u)) / u_sq
    return AlphaChoice(alpha=float(np.clip(raw, 0.0, 1.0)), degenerate=False)


def module_wise_alpha_schedule(
    prev_layer_result: tuple[np.ndarray, np.ndarray, CalibBatch] | None,
    default_alpha: float = 0.5,
) -> float:
    """Interpolation weight for the next module in a sequential chain.

    The first module (no predecessor) uses the configured initial value;
    afterwards the closed-form optimum of the previous module's (w, w_hat,
    batch) is reused, which costs one pass over its retained features.
    """
    if prev_layer_result is None:
        return float(default_alpha)
    w, w_hat, batch = prev_layer_result
    return closed_form_alpha(w, w_hat, batch, default_alpha=default_alpha).alpha
