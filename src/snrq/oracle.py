"""Independent ground-truth machinery.

Nothing here shares code paths with the solvers it checks: the exhaustive
search enumerates every candidate, the beam reference restates the
successive-rounding recursion one row and one column at a time (expanding
each beam by 2K - 1 codes around its nearest one; at K = 1 it is the greedy
reference), the CD reference scores every level of a coordinate by the full
objective, the GPTAQ reference runs the left-to-right feedback loop with a
least-squares solve per column, the column costs restate the levelwise proxy
decomposition one column at a time, the interpolated objective and both
sides of its decomposition identity are computed from raw activations, the
alpha scan evaluates that objective on a grid, and the dithering experiment
estimates variances by plain Monte Carlo against the closed forms. The level
enumeration these references and ``snrq oracle`` read (``levels``) lives here
too. The module holds references only and imports nothing of the pipeline:
the seed study that re-runs it, ``sampling_variance_sweep``, is a sweep of
:mod:`snrq.pipeline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibBatch
from .errors import BudgetExceeded, InvalidSpec, NonFinite, ShapeMismatch
from .grid import (
    _CLIP_RATIOS, _DEGENERATE_SCALE, GridParams, GridSpec, column_grid, dequantize, round_to_grid,
)
from .rng import SeededRng
from .solvers import RoundResult

__all__ = [
    "OracleResult",
    "DitherSetup",
    "DitherResult",
    "AlphaScan",
    "levels",
    "exhaustive_row",
    "beam_reference",
    "cd_reference",
    "proxy_column_costs",
    "fit_grid_reference",
    "gptaq_reference",
    "objective_direct",
    "decomposition_check",
    "alpha_grid_scan",
    "dither_experiment",
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


def levels(row: int, col: int, params: GridParams) -> np.ndarray:
    """All A = 2^bits dequantized values for one grid cell, ascending."""
    spec = params.spec
    scale, zero = column_grid(params, [col])
    codes = np.arange(spec.code_min, spec.code_max + 1)
    return scale[row, 0] * (codes - zero[row, 0])


@np.errstate(over="ignore", invalid="ignore")
def exhaustive_row(
    r_upper: np.ndarray,
    y: np.ndarray,
    levels_per_coord: list[np.ndarray],
    budget: int = ENUMERATION_BUDGET,
) -> OracleResult:
    """Exact discrete minimizer of ||R q - y||^2 by full enumeration.

    Candidates are visited in lexicographic order (last coordinate fastest),
    and only strict improvements are kept, so ties resolve to the
    lexicographically smallest code vector. A cost that overflows is inf
    and never improves.

    Raises:
        BudgetExceeded: the candidate count exceeds ``budget``.
        NonFinite: no candidate has a finite cost.
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
    if best_codes is None:
        raise NonFinite("every candidate's cost ||R q - y||^2 overflows")
    best_values = np.array([level_arrays[j][best_codes[j]] for j in range(n)])
    return OracleResult(
        best_codes=best_codes.astype(np.int64),
        best_values=best_values,
        best_cost=best_cost,
        n_evaluated=total,
    )


def beam_reference(m_target: np.ndarray, fact, params: GridParams, k: int) -> np.ndarray:
    """K-best beam codes, unblocked, one row and one column at a time.

    Columns are decided in the reverse of the factor's order ``fact.perm``.
    Each beam's center is c_t = T_t + sum_{s>t} (T_s - Q_s) L_st / L_tt; the
    beam is expanded by its nearest level (ties toward the larger code) and
    the min(K, A) - 1 levels on either side, where a level off the grid
    scores +inf. A candidate scores its parent's score plus L_tt^2 (c - v)^2,
    and a stable sort of the (parent, level) candidates keeps the K best,
    ties toward the lower (parent, level). Returns the codes of each row's
    best beam (the first on ties) in original column order. With K = 1 this
    is plain greedy: each column takes the level nearest its center.
    """
    perm, low = fact.perm, fact.low
    m_target = np.asarray(m_target, dtype=np.float64)
    m, n = m_target.shape
    spec = params.spec
    reach = min(k, spec.num_levels) - 1
    offsets = np.arange(-reach, reach + 1)
    cost = np.diag(low) ** 2
    codes = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        target = m_target[i, perm]
        scores = np.full(k, np.inf)
        scores[0] = 0.0
        q = np.zeros((k, n))
        idx = np.zeros((k, n), dtype=np.int64)  # level index per beam and column
        for t in range(n - 1, -1, -1):
            lv = levels(i, int(perm[t]), params)
            center = target[t] + (target[t + 1:] - q[:, t + 1:]) @ low[t + 1:, t] / low[t, t]
            cand = np.empty((k, len(offsets)), dtype=np.int64)
            for b in range(k):
                dist = np.abs(lv - center[b])
                cand[b] = int(np.flatnonzero(dist == dist.min())[-1]) + offsets
            on_grid = (cand >= 0) & (cand < len(lv))
            vals = lv[np.clip(cand, 0, len(lv) - 1)]
            cand_s = scores[:, None] + cost[t] * (center[:, None] - vals) ** 2
            cand_s[~on_grid] = np.inf
            keep = np.argsort(cand_s.ravel(), kind="stable")[:k]
            parent = keep // len(offsets)
            scores = cand_s.ravel()[keep]
            q, idx = q[parent], idx[parent]
            q[:, t] = vals.ravel()[keep]
            idx[:, t] = cand.ravel()[keep]
        codes[i, perm] = spec.code_min + idx[int(np.argmin(scores))]
    return codes


def cd_reference(codes, m_target, fact, params: GridParams, passes: int) -> np.ndarray:
    """Coordinate-descent codes, one row and one coordinate at a time.

    Coordinates are swept in original column order. Each visit scores every
    level of the cell by the full row objective ||(q - m_i)[perm] L||^2 and
    keeps the last minimum, which is the larger code on ties.
    """
    perm, low = fact.perm, fact.low
    out = np.array(codes, dtype=np.int64)
    for i, q in enumerate(dequantize(out, params)):
        for _ in range(passes):
            for j in range(len(q)):
                lv = levels(i, j, params)
                cand = np.repeat(q[None, :], len(lv), axis=0)
                cand[:, j] = lv
                e = (cand - m_target[i])[:, perm] @ low
                obj = np.sum(e * e, axis=1)
                a = int(np.flatnonzero(obj == obj.min())[-1])
                q[j] = lv[a]
                out[i, j] = params.spec.code_min + a
    return out


def proxy_column_costs(e: np.ndarray, l_chol: np.ndarray) -> np.ndarray:
    """Levelwise decomposition terms L_jj^2 ||E_j + sum_{k>j} E_k L_kj/L_jj||^2."""
    n = l_chol.shape[0]
    lu = l_chol / np.diag(l_chol)[None, :] - np.eye(n)  # unit lower factor minus the identity
    out = np.empty(n)
    for j in range(n):
        v = e[:, j] + e[:, j + 1:] @ lu[j + 1:, j]
        out[j] = l_chol[j, j] ** 2 * float(np.sum(v * v))
    return out


def _fit_cell(values: np.ndarray, spec: GridSpec) -> tuple[float, int]:
    """Scale and zero point for one (row, group) cell, its range widened to cover zero."""
    vmin = min(float(values.min()), 0.0)
    vmax = max(float(values.max()), 0.0)
    if spec.symmetric:
        scale = max(-vmin, vmax) / spec.code_max
    else:
        steps = spec.num_levels - 1
        scale = (vmax - vmin) / steps
        if math.isinf(scale):  # the range overflows: split it
            scale = vmax / steps - vmin / steps
    if scale == 0.0:
        scale = _DEGENERATE_SCALE
    return scale, _zero_for(vmin, scale, spec)


def _zero_for(vmin: float, scale: float, spec: GridSpec) -> int:
    if spec.symmetric:
        return 0
    # clip the float: a subnormal scale can round down far enough to put -vmin / scale past code_max
    return int(np.clip(np.floor(-vmin / scale + 0.5), 0, spec.code_max))


# an error that overflows is inf, which the clip search already ranks last
@np.errstate(over="ignore")
def _cell_mse(values: np.ndarray, scale: float, zero: int, spec: GridSpec) -> float:
    _, approx = round_to_grid(values, scale, zero, spec)
    return float(np.sum((values - approx) ** 2))


def fit_grid_reference(w: np.ndarray, spec: GridSpec) -> GridParams:
    """Per-cell grid fit: a Python loop over groups, rows and clip ratios.

    Same contract as :func:`snrq.grid.fit_grid` (finite 2-D weights, a
    dividing group_size): with ``spec.mse_clip`` each cell takes the first of
    100 ratios over [0.5, 1.0] whose shrunk min/max range gives the smallest
    squared round-trip error.
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    n_groups = spec.groups_for(n)
    gsize = n if spec.group_size == 0 else spec.group_size

    scales = np.empty((m, n_groups), dtype=np.float64)
    zeros = np.zeros((m, n_groups), dtype=np.int32)
    ratios = _CLIP_RATIOS if spec.mse_clip else (1.0,)
    for g in range(n_groups):
        block = w[:, g * gsize:(g + 1) * gsize]
        for r in range(m):
            cell = block[r]
            best = None
            for ratio in ratios:
                scale, zero = _fit_cell(cell * ratio, spec) if ratio != 1.0 else _fit_cell(cell, spec)
                err = _cell_mse(cell, scale, zero, spec) if len(ratios) > 1 else 0.0
                if best is None or err < best[0]:
                    best = (err, scale, zero)
            scales[r, g] = best[1]
            zeros[r, g] = best[2]
    return GridParams(scales=scales, zero_points=zeros, spec=spec)


def _trailing_solve(rhs: np.ndarray, x_tail: np.ndarray, damping_abs: float) -> np.ndarray:
    """Least-squares spread of an m x N target onto the trailing columns."""
    h_tail = x_tail @ x_tail.T
    if damping_abs > 0:
        h_tail = h_tail + damping_abs * np.eye(h_tail.shape[0])
    return np.linalg.solve(h_tail, x_tail @ rhs.T).T


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
    # report against the exact asymmetric objective residual
    resid = (dequantize(codes, params) - w) @ batch.xq - mismatch_scale * (w @ batch.delta)
    scores = np.sum(resid * resid, axis=1)
    return RoundResult(codes, scores)


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
        raise InvalidSpec(f"grid_points must be >= 3, got {grid_points}")
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
        if not all(math.isfinite(v) for v in (self.w, self.x, self.tau_s, self.tau_z)):
            raise InvalidSpec("w, x, tau_s and tau_z must be finite")
        if self.tau_s <= 0 or self.tau_z <= 0:
            raise InvalidSpec("tau_s and tau_z must be positive")
        if self.n_sequences < 1 or self.n_trials < 1:
            raise InvalidSpec("n_sequences and n_trials must be >= 1")


@dataclass(frozen=True)
class DitherResult:
    var_fixed_hat: float
    var_smoothed_hat: float
    var_fixed_closed: float
    var_bound: float
    se_fixed_hat: float
    se_smoothed_hat: float


_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2, elementwise."""
    return 0.5 * _erfc(-x / math.sqrt(2.0))


def _variance_se(samples: np.ndarray) -> float:
    """Asymptotic standard error of the sample variance."""
    n = len(samples)
    if n < 2:
        return 0.0
    c = samples - samples.mean()
    m2 = float(np.mean(c * c))
    m4 = float(np.mean(c ** 4))
    return math.sqrt(max(m4 - m2 * m2, 0.0) / n)


def _in_range(closed_form) -> float:
    """``closed_form()`` in numpy float64, nan when a step overflows or divides by zero."""
    with np.errstate(all="raise", under="ignore"):
        try:
            return float(closed_form())
        except FloatingPointError:
            return math.nan


# a value out of range is non-finite and fails as NonFinite when written, not as a warning
@np.errstate(over="ignore", invalid="ignore")
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
    w, x = setup.w, np.float64(setup.x)  # numpy floats, whose range _in_range checks
    tau_s, tau_z = np.float64(setup.tau_s), np.float64(setup.tau_z)
    u = rng.normal(size=setup.n_trials, scale=tau_s / math.sqrt(setup.n_sequences))
    span = abs(1.0 - w) - abs(w)

    loss_fixed = abs(x) * np.where(u >= 0.0, abs(1.0 - w), abs(w))
    smooth = abs(x) * (abs(w) + span * _ndtr(u / tau_z))

    var_fixed_closed = _in_range(lambda: (x * x / 4.0) * span * span)
    var_bound = _in_range(lambda: (x * x * span * span) / (2.0 * math.pi * tau_z ** 2) * (
        tau_s ** 2 / setup.n_sequences))
    return DitherResult(
        var_fixed_hat=float(np.var(loss_fixed)),
        var_smoothed_hat=float(np.var(smooth)),
        var_fixed_closed=var_fixed_closed,
        var_bound=var_bound,
        se_fixed_hat=_variance_se(loss_fixed),
        se_smoothed_hat=_variance_se(smooth),
    )

