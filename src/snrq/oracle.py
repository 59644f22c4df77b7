"""Independent ground-truth machinery.

Nothing here shares code paths with the solvers it checks: the exhaustive
search enumerates every candidate, the greedy reference restates the
successive-rounding recursion one row and one column at a time, the GPTAQ
reference runs the left-to-right feedback loop with a least-squares solve
per column, the alpha scan evaluates the raw objective on a grid, and the
dithering experiment estimates variances by plain Monte Carlo against the
closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .calibration import AlphaStrategy, CalibBatch, objective_direct, sample_folded_alphas
from .errors import BudgetExceeded
from .grid import GridParams, column_grid, dequantize, levels, round_to_grid
from .linalg import cholesky, solve_with_factor
from .rng import SeededRng
from .solvers import RoundResult

__all__ = [
    "OracleResult",
    "DitherSetup",
    "DitherResult",
    "AlphaScan",
    "exhaustive_row",
    "greedy_reference",
    "gptaq_reference",
    "alpha_grid_scan",
    "dither_experiment",
    "sampling_variance_sweep",
]

ENUMERATION_BUDGET = 10_000_000
_CHUNK = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    """Global minimizer found by full enumeration."""

    best_codes: np.ndarray   # level index per coordinate
    best_values: np.ndarray  # dequantized values
    best_cost: float
    n_evaluated: int


def exhaustive_row(
    r_upper: np.ndarray,
    y: np.ndarray,
    levels_per_coord: list[np.ndarray],
    budget: int = ENUMERATION_BUDGET,
) -> OracleResult:
    """Exact discrete minimizer of ||R q - y||^2 by full enumeration.

    Candidates are visited in lexicographic order (last coordinate fastest),
    and only strict improvements are kept, so ties resolve to the
    lexicographically smallest code vector.

    Raises:
        BudgetExceeded: the candidate count exceeds ``budget``.
    """
    r_upper = np.asarray(r_upper, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = r_upper.shape[0]
    sizes = np.array([len(lv) for lv in levels_per_coord], dtype=np.int64)
    total = math.prod(len(lv) for lv in levels_per_coord)  # exact; int64 would wrap
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed the budget of {budget}")
    strides = np.ones(n, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]

    level_arrays = [np.asarray(lv, dtype=np.float64) for lv in levels_per_coord]
    best_cost = np.inf
    best_codes = None
    for start in range(0, total, _CHUNK):
        lin = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        codes = (lin[:, None] // strides[None, :]) % sizes[None, :]
        values = np.empty((len(lin), n))
        for j in range(n):
            values[:, j] = level_arrays[j][codes[:, j]]
        resid = values @ r_upper.T - y[None, :]
        costs = np.sum(resid * resid, axis=1)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_codes = codes[k].copy()
    best_values = np.array([level_arrays[j][best_codes[j]] for j in range(n)])
    return OracleResult(
        best_codes=best_codes.astype(np.int64),
        best_values=best_values,
        best_cost=best_cost,
        n_evaluated=total,
    )


def greedy_reference(
    m_target: np.ndarray, l_chol: np.ndarray, params: GridParams, act_order: bool = False
) -> np.ndarray:
    """Reverse-order greedy codes, unblocked, one row and one column at a time.

    For j = n-1 .. 0, column j is set to the level nearest its center
    c_j = M_j + sum_{k>j} (M_k - Q_k) L_kj / L_jj, ties toward the larger
    code. With ``act_order`` the columns are first put in ascending order of
    diag(L L^T) (stable sort) and L is replaced by numpy's Cholesky factor of
    the permuted H. Returns codes in original column order.
    """
    m_target = np.asarray(m_target, dtype=np.float64)
    m, n = m_target.shape
    order = np.arange(n)
    low = np.asarray(l_chol, dtype=np.float64)
    if act_order:
        h = low @ low.T
        order = np.argsort(np.diag(h), kind="stable")
        low = np.linalg.cholesky(h[np.ix_(order, order)])
    codes = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        target = m_target[i, order]
        q = np.zeros(n)
        for j in range(n - 1, -1, -1):
            center = target[j] + np.dot(target[j + 1:] - q[j + 1:], low[j + 1:, j]) / low[j, j]
            lv = levels(i, int(order[j]), params)
            dist = np.abs(lv - center)
            a = int(np.flatnonzero(dist == dist.min())[-1])
            q[j] = lv[a]
            codes[i, order[j]] = params.spec.code_min + a
    return codes


def _trailing_solve(rhs: np.ndarray, x_tail: np.ndarray, damping_abs: float) -> np.ndarray:
    """Least-squares spread of an m x N target onto the trailing columns."""
    h_tail = x_tail @ x_tail.T
    if damping_abs > 0:
        h_tail = h_tail + damping_abs * np.eye(h_tail.shape[0])
    return solve_with_factor(cholesky(h_tail), rhs @ x_tail.T)


def gptaq_reference(
    w: np.ndarray,
    batch: CalibBatch,
    params: GridParams,
    act_order: bool = False,
    damping: float = 0.0,
    mismatch_scale: float = 1.0,
    exact: bool = False,
) -> RoundResult:
    """Left-to-right rounding, forming and factoring the trailing moment block per column.

    With ``exact`` the un-absorbed remainder of the whole mismatch image is
    used at every step (the exact tail problem); otherwise only the
    single-component term of the current column (the surrogate of
    :func:`snrq.solvers.gptaq_round`). ``act_order`` takes columns in
    descending diag(H) order. Scores are the exact asymmetric objective.
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    xq = batch.xq
    dx = batch.delta
    h = xq @ xq.T
    damping_abs = damping * float(np.mean(np.diag(h))) if damping > 0 else 0.0

    if act_order:
        perm = np.argsort(np.diag(h) + damping_abs, kind="stable")[::-1].copy()
    else:
        perm = np.arange(n)
    xq = xq[perm]
    dx = dx[perm]
    wp = w[:, perm]
    scale_p, zero_p = column_grid(params, perm)

    wc = wp.copy()
    codes_p = np.zeros((m, n), dtype=np.int32)
    remaining = mismatch_scale * (wp @ dx) if exact else None
    for q in range(n):
        cj, vj = round_to_grid(wc[:, q], scale_p[:, q], zero_p[:, q], params.spec)
        codes_p[:, q] = cj
        delta_q = vj - wc[:, q]
        wc[:, q] = vj
        if q + 1 == n:
            break
        if exact:
            target = remaining - np.outer(delta_q, xq[q])
            corr = _trailing_solve(target, xq[q + 1:], damping_abs)
            remaining = target - corr @ xq[q + 1:]
        else:
            r_q = mismatch_scale * np.outer(wp[:, q], dx[q])
            corr = _trailing_solve(r_q - np.outer(delta_q, xq[q]), xq[q + 1:], damping_abs)
        wc[:, q + 1:] += corr

    codes = np.empty_like(codes_p)
    codes[:, perm] = codes_p
    q_deq = dequantize(codes, params)
    # report against the exact asymmetric objective residual
    resid = (q_deq - w) @ batch.xq - mismatch_scale * (w @ batch.delta)
    scores = np.sum(resid * resid, axis=1)
    return RoundResult(codes=codes, q_dequant=q_deq, proxy_loss=float(np.sum(scores)),
                       per_row_scores=scores)


@dataclass(frozen=True)
class AlphaScan:
    """Objective evaluated on an even grid over [0, 1]."""

    alpha_best: float
    alphas: np.ndarray
    values: np.ndarray


def alpha_grid_scan(
    w: np.ndarray, w_hat: np.ndarray, batch: CalibBatch, grid_points: int = 101
) -> AlphaScan:
    """Scan the interpolation weight on an even grid; quadratic, so convex."""
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    alphas = np.linspace(0.0, 1.0, grid_points)
    values = np.array([objective_direct(w, w_hat, batch, a) for a in alphas])
    return AlphaScan(alpha_best=float(alphas[int(np.argmin(values))]), alphas=alphas, values=values)


# ---------------------------------------------------------------------------
# binary-grid dithering experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DitherSetup:
    """Scalar binary-rounding setup for the calibration-variance experiment."""

    w: float
    x: float
    tau_s: float = 1.0
    tau_z: float = 0.2
    n_sequences: int = 128
    n_trials: int = 100_000

    def __post_init__(self):
        if self.tau_s <= 0 or self.tau_z <= 0:
            raise ValueError("tau_s and tau_z must be positive")
        if self.n_sequences < 1 or self.n_trials < 1:
            raise ValueError("n_sequences and n_trials must be >= 1")


@dataclass(frozen=True)
class DitherResult:
    var_fixed_hat: float
    var_smoothed_hat: float
    var_fixed_closed: float
    var_bound: float
    se_fixed_hat: float
    se_smoothed_hat: float


def _variance_se(samples: np.ndarray) -> float:
    """Asymptotic standard error of the sample variance."""
    n = len(samples)
    if n < 2:
        return 0.0
    c = samples - samples.mean()
    m2 = float(np.mean(c * c))
    m4 = float(np.mean(c ** 4))
    return math.sqrt(max(m4 - m2 * m2, 0.0) / n)


def dither_experiment(setup: DitherSetup, rng: SeededRng) -> DitherResult:
    """Monte Carlo check of the binary-grid dithering proposition.

    The fixed-weight target sits at the rounding boundary, 1/2 + U with
    U ~ N(0, tau_s^2 / N); the hard rule Q(m) = 1{m >= 1/2} then flips on the
    sign of U, giving an N-independent metric variance with closed form
    (x^2/4)(|1-w| - |w|)^2. The dithered (smoothed) metric

        G = |x| (|w| + (|1-w| - |w|) Phi(U / tau_z))

    is Lipschitz in U, with variance bounded by
    x^2 (|1-w| - |w|)^2 / (2 pi tau_z^2) * tau_s^2 / N.
    """
    w, x = setup.w, setup.x
    u = rng.normal(size=setup.n_trials, scale=setup.tau_s / math.sqrt(setup.n_sequences))
    span = abs(1.0 - w) - abs(w)

    loss_fixed = abs(x) * np.where(u >= 0.0, abs(1.0 - w), abs(w))
    smooth = abs(x) * (abs(w) + span * ndtr(u / setup.tau_z))

    var_fixed_closed = (x * x / 4.0) * span * span
    var_bound = (x * x * span * span) / (2.0 * math.pi * setup.tau_z ** 2) * (
        setup.tau_s ** 2 / setup.n_sequences
    )
    return DitherResult(
        var_fixed_hat=float(np.var(loss_fixed)),
        var_smoothed_hat=float(np.var(smooth)),
        var_fixed_closed=var_fixed_closed,
        var_bound=var_bound,
        se_fixed_hat=_variance_se(loss_fixed),
        se_smoothed_hat=_variance_se(smooth),
    )


# ---------------------------------------------------------------------------
# run-to-run variability of the end proxy loss
# ---------------------------------------------------------------------------

_ALPHA_MEAN_STREAM = 9001
_ALPHA_MEAN_DRAWS = 100_000


def folded_alpha_mean(beta_lambda: float, seed: int = 0) -> float:
    """Monte Carlo estimate of E[min(b, 1-b)] for b ~ Beta(l, l)."""
    rng = SeededRng(seed, _ALPHA_MEAN_STREAM)
    return float(np.mean(sample_folded_alphas(_ALPHA_MEAN_DRAWS, beta_lambda, rng)))


def sampling_variance_sweep(
    pipeline_config, n_repeats: int, vary_seeds: bool = True
) -> dict:
    """Run-to-run spread of the end proxy loss: fixed-at-mean vs sampled.

    Re-runs the full toy-chain quantization ``n_repeats`` times per mode,
    resampling the calibration data each run (unless ``vary_seeds`` is off, in
    which case every repeat is identical and both spreads are zero). Reports
    mean and standard deviation of the total proxy loss per mode; no hard
    ordering is asserted, the result just flags the observed direction.
    """
    from . import pipeline  # deferred: the oracle is otherwise pipeline-free

    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    if n_repeats == 1:
        warnings.warn("n_repeats == 1: standard deviations degenerate to 0", stacklevel=2)

    lam = pipeline_config.alpha.beta_lambda
    mean_alpha = folded_alpha_mean(lam, pipeline_config.seed)
    modes = {
        "fixed_at_mean": AlphaStrategy(mode="fixed", alpha_value=mean_alpha, beta_lambda=lam),
        "sampled": AlphaStrategy(
            mode="sampled", alpha_value=pipeline_config.alpha.alpha_value, beta_lambda=lam
        ),
    }

    out: dict = {"n_repeats": n_repeats, "alpha_mean": mean_alpha, "modes": {}}
    for name, strategy in modes.items():
        vals = []
        for rep in range(n_repeats):
            seed = pipeline_config.seed + rep if vary_seeds else pipeline_config.seed
            cfg = pipeline_config.with_updates(alpha=strategy, seed=seed, out_dir=None)
            net = pipeline.synth_network(cfg.network, cfg.seed)
            report = pipeline.quantize_network(net, cfg)
            vals.append(sum(rec["proxy_loss"] for rec in report["layers"]))
        arr = np.array(vals)
        out["modes"][name] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if n_repeats > 1 else 0.0,
            "losses": vals,
        }
    out["sampled_std_leq_fixed"] = bool(
        out["modes"]["sampled"]["std"] <= out["modes"]["fixed_at_mean"]["std"]
    )
    return out
