"""Discrete rounding solvers for the triangular least-squares proxy.

A layer's decision order and its one factorization are fixed up front:
:func:`order_and_factor` picks the column order ``perm`` from diag(H) and
the solver config, then factors H[perm][:, perm] = L L^T. Given a target T
(m x n) and a fitted grid, every solver here approximately minimizes

    || (Q - T)[:, perm] L ||_F^2   over grid matrices Q,

which decomposes over output rows into independent problems
``min || R q - y ||^2`` with R = L^T and y = R T_i^T. In the permuted order,
columns are decided in reverse j = n-1 .. 0; the interference-cancelled
center for column j is

    c_j = T_j + sum_{k>j} (T_k - Q_k) L_kj / L_jj.

Successive rounding is one kernel over K beams and blocks of B columns
(greedy is K = 1; lazy batching only regroups the updates into blocks, so B
never changes a decision). Its entry points differ in (K, B) and the target:
  * snrq_greedy    (1, block_size) on the shifted target M: nearest-level
                   rounding of the center
  * snrq_lazy      the same function as snrq_greedy, kept as a config name
  * ksnrq_beam     (beam_width, block_size): K-best beam search under the exact
                   accumulated branch metrics
  * gptq_round     (1, block_size) on the weights W: classic left-to-right
                   error feedback makes exactly these decisions
  * gptaq_round    (1, block_size) on W shifted by the single-component
                   mismatch correction, scored by the exact asymmetric objective

Other solvers:
  * rtn_round      nearest rounding, no error feedback (baseline)
  * cd_refine      cyclic exact single-coordinate re-optimization passes

The one scorer of the proxy is :func:`proxy_row_scores`, which takes the
layer's factor and returns ||(Q - T)[:, perm] L||^2 per row.

Rows are independent problems. Every solver handles all rows of a layer in
one vectorized pass: a column step is a few array operations over all rows
(and beams), so a row's codes do not depend on which other rows share the
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .calibration import CalibBatch
from .errors import InvalidSpec, MemoryBudget, require_bool, require_int
from .grid import GridParams, column_grid, dequantize, round_to_grid
from .linalg import cholesky, solve_l, solve_lt, solve_with_factor  # solve_with_factor: perfbench tracer only

__all__ = [
    "SolverConfig",
    "RoundResult",
    "OrderedFactor",
    "order_and_factor",
    "rtn_round",
    "snrq_greedy",
    "snrq_lazy",
    "ksnrq_beam",
    "cd_refine",
    "gptq_round",
    "gptaq_round",
    "proxy_row_scores",
]

SOLVER_NAMES = ("rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq")


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and search knobs."""

    solver: str = "snrq"
    beam_width: int = 1
    block_size: int = 32
    act_order: bool = True
    cd_passes: int = 0
    memory_budget_mb: int = 2048

    def __post_init__(self):
        if self.solver not in SOLVER_NAMES:
            raise InvalidSpec(f"solver must be one of {SOLVER_NAMES}, got {self.solver!r}")
        require_int("beam_width", self.beam_width, 1)
        require_int("block_size", self.block_size, 1)
        require_int("cd_passes", self.cd_passes, 0)
        require_int("memory_budget_mb", self.memory_budget_mb, 1)
        require_bool("act_order", self.act_order)


@dataclass
class RoundResult:
    """Outcome of one layer rounding.

    ``codes`` are in original column order; ``q_dequant`` is exactly
    dequantize(codes). ``per_row_scores`` are the solver's accumulated row
    objectives; ``proxy_loss`` is their sum. :func:`cd_refine` sets
    ``objective_trajectory``, the total objective along its updates.
    """

    codes: np.ndarray
    q_dequant: np.ndarray
    per_row_scores: np.ndarray
    objective_trajectory: np.ndarray | None = None

    @property
    def proxy_loss(self) -> float:
        return float(np.sum(self.per_row_scores))


class OrderedFactor(NamedTuple):
    """Decision order (original column indices) and the lower factor of H[perm][:, perm]."""

    perm: np.ndarray
    low: np.ndarray


def order_and_factor(h: np.ndarray, cfg: SolverConfig) -> OrderedFactor:
    """Fix the decision order from diag(h) and ``cfg``, then factor h in it.

    Under ``cfg.act_order`` the order is a stable ascending sort of diag(h),
    so the columns of largest curvature are decided first; otherwise it is
    the natural order, reversed for the left-to-right ``gptq``/``gptaq`` so
    that column 0 is decided first. This is the only factorization a layer makes.

    Raises:
        NotPositiveDefinite: h is not positive definite.
    """
    h = np.asarray(h, dtype=np.float64)
    perm = np.arange(h.shape[0])
    if cfg.act_order:
        perm = np.argsort(np.diag(h), kind="stable")
    elif cfg.solver in ("gptq", "gptaq"):
        perm = perm[::-1]
    return OrderedFactor(perm, cholesky(h[np.ix_(perm, perm)]))


def proxy_row_scores(q_dequant: np.ndarray, m_ref: np.ndarray, fact: OrderedFactor) -> np.ndarray:
    """Exact row objectives ||(Q - M)[:, perm] L||^2, recomputed from Q in original column order."""
    el = (q_dequant - m_ref)[:, fact.perm] @ fact.low
    return np.sum(el * el, axis=1)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _unit_lower(l_chol: np.ndarray) -> np.ndarray:
    n = l_chol.shape[0]
    return l_chol / np.diag(l_chol)[None, :] - np.eye(n)


def _ordered(a: np.ndarray, fact: OrderedFactor) -> np.ndarray:
    """Columns of ``a`` in the factor's decision order."""
    return np.asarray(a, dtype=np.float64)[:, fact.perm]


def _finish(codes_p, perm, params, scores) -> RoundResult:
    """Scatter permuted results back to original column order."""
    codes = np.empty_like(codes_p)
    codes[:, perm] = codes_p
    return RoundResult(
        codes=codes,
        q_dequant=dequantize(codes, params),
        per_row_scores=np.asarray(scores, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def rtn_round(w: np.ndarray, params: GridParams, m_ref: np.ndarray, fact: OrderedFactor) -> RoundResult:
    """Round-to-nearest baseline, no error feedback, scored against the proxy (m_ref, fact).

    With ``m_ref = w`` and an identity factor the scores are the plain
    weight-rounding error ||Q - w||^2 per row.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[1]
    scale, zero = column_grid(params, np.arange(n))
    codes, values = round_to_grid(w, scale, zero, params.spec)
    return _finish(codes, np.arange(n), params, proxy_row_scores(values, m_ref, fact))


# ---------------------------------------------------------------------------
# the successive-rounding kernel and its entry points
# ---------------------------------------------------------------------------


def _kernel_bytes(m: int, n: int, k: int, bsz: int, n_levels: int) -> int:
    """Upper bound on the bytes one kernel call allocates, summed over its phases.

    Layer-wide, per m x n entry: the ordered target (8 B), the gathered
    grid (12 B) and the permuted codes (4 B), alive throughout, plus the
    scattered codes and dequantization at the end (28 B); per n x n entry:
    the unit-lower factor and its two temporaries (24 B). All m*K beams are
    live at once; per beam: the repeated target and difference/code tails
    (20 B x n) plus one tail-sized temporary (8 B x n); the block buffers,
    correction and their row gathers (40 B x B); and the candidate arrays
    with their sort order (32 B x W, W = 2 min(K, A) - 1).
    """
    b = min(bsz, n)
    width = 2 * min(k, n_levels) - 1
    return m * n * 52 + n * n * 24 + m * k * (28 * n + 40 * b + 32 * width + 64)


def _keep_best(s, center, near_c, scale, zero, cost, offsets, spec):
    """Expand K beams by the codes near their centers and keep the K best.

    Returns the survivors' (scores, parents, values, codes), each r x K; the
    candidate arrays are freed on return.
    """
    r, k = s.shape
    cand_c = near_c[:, :, None] + offsets
    cand_v = scale[:, :, None] * (cand_c - zero[:, :, None])
    cand_s = s[:, :, None] + cost * (center[:, :, None] - cand_v) ** 2
    cand_s[(cand_c < spec.code_min) | (cand_c > spec.code_max)] = np.inf
    order = np.argsort(cand_s.reshape(r, -1), axis=1, kind="stable")[:, :k]
    flat = order + np.arange(r)[:, None] * cand_s[0].size  # flat index of each survivor
    return cand_s.ravel()[flat], order // len(offsets), cand_v.ravel()[flat], cand_c.ravel()[flat]


def _successive_round(mp, fact, params, cfg, k, bsz) -> RoundResult:
    """Reverse-order successive rounding with K beams and blocks of B columns.

    ``mp`` is the target with its columns in the decision order of ``fact``.
    Per row, K partial assignments survive. Column t expands each beam by its
    nearest code (one :func:`round_to_grid` of the interference-cancelled
    center) and the K-1 codes on either side; codes outside the grid score
    +inf. A candidate scores its parent's score plus L_tt^2 (c - v)^2, and a
    stable sort keeps the K best, ties toward the lower (parent, level). With
    K = 1 the nearest code is the only candidate, so the sort is skipped.

    All rows run in one pass. Beams are flattened into (m*K) x columns
    arrays, beam b of row i at i*K + b, so that centers and the cross-block
    correction (T - Q)[:, i:] Lu[i:, block] are plain 2-D matrix products.
    Decided columns are kept as differences T - Q. Inside a block only the
    block-local buffers follow each survivor's parent; the decided tail
    follows the block's ancestor index once, at the end of the block.

    Raises:
        MemoryBudget: the allocation charged by :func:`_kernel_bytes` exceeds
            ``cfg.memory_budget_mb``.
    """
    m, n = mp.shape
    spec = params.spec
    need = _kernel_bytes(m, n, k, bsz, spec.num_levels)
    if need > cfg.memory_budget_mb * (1 << 20):
        raise MemoryBudget(
            f"rounding state of {need / 2**20:.0f} MiB (m={m}, K={k}, n={n}) exceeds "
            f"the {cfg.memory_budget_mb} MiB budget"
        )

    perm, low = fact
    lu = _unit_lower(low)
    ldiag_sq = np.diag(low) ** 2
    scale_p, zero_p = column_grid(params, perm)
    reach = min(k, spec.num_levels) - 1
    offsets = np.arange(-reach, reach + 1, dtype=np.int32)

    mk = np.repeat(mp, k, axis=0)  # row i's target at flat beams i*K .. i*K+K-1
    base = np.arange(m)[:, None] * k
    s = np.full((m, k), np.inf)
    s[:, 0] = 0.0
    tail_d = np.zeros((m * k, n))  # decided columns' T - Q
    tail_c = np.zeros((m * k, n), dtype=np.int32)
    i = n
    while i > 0:
        start = max(0, i - bsz)
        width = i - start
        t_corr = tail_d[:, i:] @ lu[i:, start:i] if i < n else None
        bd = np.empty((m * k, width))  # T - Q of the block's decided columns
        bc = np.zeros((m * k, width), dtype=np.int32)
        anc = np.arange(m * k)  # block-start beam of each survivor
        for j in range(width - 1, -1, -1):
            t = start + j
            center = mk[:, t] + bd[:, j + 1:] @ lu[t + 1:i, t]
            if t_corr is not None:
                center += t_corr[:, j] if k == 1 else t_corr[anc, j]
            center = center.reshape(m, k)
            sc, zc = scale_p[:, t, None], zero_p[:, t, None]
            near_c, near_v = round_to_grid(center, sc, zc, spec)
            if k == 1:
                s += ldiag_sq[t] * (center - near_v) ** 2
                bd[:, j], bc[:, j] = mk[:, t] - near_v[:, 0], near_c[:, 0]
                continue
            s, parent, v_j, c_j = _keep_best(s, center, near_c, sc, zc, ldiag_sq[t], offsets, spec)
            src = (base + parent).ravel()
            anc, bd, bc = anc[src], bd[src], bc[src]
            bd[:, j], bc[:, j] = mk[:, t] - v_j.ravel(), c_j.ravel()
        if k > 1 and i < n:
            tail_d[:, i:] = tail_d[anc, i:]
            tail_c[:, i:] = tail_c[anc, i:]
        tail_d[:, start:i] = bd
        tail_c[:, start:i] = bc
        i = start
    codes_p = tail_c[base[:, 0] + np.argmin(s, axis=1)]
    del mk, tail_d, tail_c  # free the beam state before _finish allocates, as _kernel_bytes assumes
    return _finish(codes_p, perm, params, np.min(s, axis=1))


def snrq_greedy(
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Reverse-order greedy rounding of the shifted target: K = 1, B = block_size.

    For j = n-1 .. 0 the interference-cancelled center is rounded to its
    nearest level; the accumulated per-row score is the levelwise sum
    sum_j L_jj^2 (c_j - q_j)^2, equal to the exact proxy. The block size
    only regroups the updates, so it never changes a decision.
    """
    return _successive_round(_ordered(m_alpha, fact), fact, params, cfg, 1, cfg.block_size)


# ``solver="snrq_lazy"`` names the same blocked greedy kernel as ``"snrq"``
snrq_lazy = snrq_greedy


def ksnrq_beam(
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """K-best beam search over column decisions: K = beam_width, B = block_size.

    Per row, at most K partial assignments survive under their exact
    accumulated branch metrics. K = 1 makes the same decisions as
    :func:`snrq_greedy`, ties included.

    Raises:
        MemoryBudget: the kernel's allocation would exceed the configured cap.
    """
    return _successive_round(
        _ordered(m_alpha, fact), fact, params, cfg, cfg.beam_width, cfg.block_size
    )


# ---------------------------------------------------------------------------
# coordinate-descent refinement
# ---------------------------------------------------------------------------


def cd_refine(
    result: RoundResult,
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    passes: int,
) -> RoundResult:
    """Cyclic exact single-coordinate re-optimization of a rounding result.

    Each coordinate update rounds the exact conditional center of the full
    quadratic with :func:`round_to_grid` and moves q_j to that level only
    when the move does not raise the objective, so the objective never
    increases. Coordinates are swept in original column order. The result's
    ``objective_trajectory`` holds the total objective after every update
    (index 0 is the starting value); ``passes == 0`` returns ``result``.
    """
    if passes < 0:
        raise InvalidSpec(f"passes must be >= 0, got {passes}")
    if passes == 0:
        return result
    m_alpha = np.asarray(m_alpha, dtype=np.float64)
    n = m_alpha.shape[1]
    root = np.empty(fact.low.shape)  # C order: the sweep reads rows
    root[fact.perm] = fact.low  # H = root root^T in original column order
    h_diag = np.sum(root * root, axis=1)
    scale, zero = column_grid(params, np.arange(n))

    codes = result.codes.copy()
    values = result.q_dequant.copy()
    res = (values - m_alpha) @ root  # rowwise R q - y, R = root^T
    scores = np.sum(res * res, axis=1)
    traj = np.empty(1 + passes * n)
    traj[0] = scores.sum()
    for p in range(passes):
        for j in range(n):
            q_j = values[:, j]
            center = q_j - (res @ root[j]) / h_diag[j]
            near_c, near_v = round_to_grid(center, scale[:, j], zero[:, j], params.spec)
            gain = (near_v - center) ** 2 - (q_j - center) ** 2
            take = gain <= 0.0  # a pick one ulp worse than q_j keeps q_j
            new_v = np.where(take, near_v, q_j)
            res += (new_v - q_j)[:, None] * root[j][None, :]
            scores += h_diag[j] * np.where(take, gain, 0.0)
            codes[take, j] = near_c[take]
            values[:, j] = new_v
            traj[1 + p * n + j] = scores.sum()
    return replace(
        result, codes=codes, q_dequant=dequantize(codes, params), per_row_scores=scores,
        objective_trajectory=traj,
    )


# ---------------------------------------------------------------------------
# error-feedback baselines
# ---------------------------------------------------------------------------


def gptq_round(
    w: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Classic left-to-right error feedback, run as greedy rounding of the weights.

    GPTQ quantizes column j at its running value and spreads the error over
    the later columns through row j of the upper Cholesky factor of H^{-1}.
    Its running values are the centers of the reverse-order kernel on target
    W, in the reverse of GPTQ's order (that is what :func:`order_and_factor`
    builds for ``gptq``), so the kernel makes exactly GPTQ's decisions.
    Like GPTQ's lazy batch updates, the kernel runs in blocks of
    ``cfg.block_size`` columns. Scores are the levelwise proxy
    ||(Q - W)[:, perm] L||^2 per row.
    """
    return _successive_round(_ordered(w, fact), fact, params, cfg, 1, cfg.block_size)


def gptaq_round(
    w: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig,
    batch: CalibBatch,
    mismatch_scale: float = 1.0,
) -> RoundResult:
    """Sequential rounding with the single-component mismatch surrogate.

    Left to right, step q spreads the rounding error of column q plus the
    surrogate target r_q = mismatch_scale * W_q (xf - xq)_q over the later
    columns by least squares on their student rows. The error part is GPTQ's
    feedback; the surrogate part depends on no decision, so it is added up
    front: in GPTQ's order and with D = (xf - xq) xq^T, GPTAQ is
    :func:`gptq_round` on W + mismatch_scale * W U, U strictly upper with row
    q equal to D[q, q+1:] H[q+1:, q+1:]^{-1}. Those trailing blocks of H are
    leading blocks of the one factor (which is in the reverse order), so U
    costs two triangular solves. Scores are the exact asymmetric objective.
    """
    w = np.asarray(w, dtype=np.float64)
    perm, low = fact
    wp = _ordered(w, fact)
    dx = batch.delta
    # kernel order: U is strictly lower, row i = D[i, :i] (L_i L_i^T)^{-1} with L_i = low[:i, :i]
    d = np.tril((dx @ batch.xq.T)[np.ix_(perm, perm)], -1)
    z = np.tril(solve_lt(low, d), -1)
    u = solve_l(low, z)
    result = _successive_round(wp + mismatch_scale * (wp @ u), fact, params, cfg, 1, cfg.block_size)
    resid = (result.q_dequant - w) @ batch.xq - mismatch_scale * (w @ dx)
    scores = np.sum(resid * resid, axis=1)
    return replace(result, per_row_scores=scores)
