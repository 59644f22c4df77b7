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
  * snrq_greedy    (1, n) on the shifted target M: nearest-level rounding of
                   the center
  * snrq_lazy      (1, block_size): the same codes, block-restructured
  * ksnrq_beam     (beam_width, block_size): K-best beam search under the exact
                   accumulated branch metrics
  * gptq_round     (1, n) on the weights W: classic left-to-right error
                   feedback makes exactly these decisions
  * gptaq_round    (1, n) on W shifted by the single-component mismatch
                   correction, scored by the exact asymmetric objective

Other solvers:
  * rtn_round      nearest rounding, no error feedback (baseline)
  * cd_refine      cyclic exact single-coordinate re-optimization passes

Rows are embarrassingly parallel; work is split into fixed 64-row chunks so
results are bit-identical for any worker count (``SNRQ_THREADS`` caps workers,
0 or unset means auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .calibration import CalibBatch
from .errors import InvalidSpec, MemoryBudget
from .grid import GridParams, column_grid, dequantize, round_to_grid
from .linalg import cholesky, solve_with_factor  # solve_with_factor: perfbench tracer only

__all__ = [
    "SolverConfig",
    "RoundResult",
    "OrderedFactor",
    "permutation_from_diag",
    "order_and_factor",
    "rtn_round",
    "snrq_greedy",
    "snrq_lazy",
    "ksnrq_beam",
    "cd_refine",
    "gptq_round",
    "gptaq_round",
    "proxy_row_scores",
    "proxy_column_costs",
    "worker_count",
]

SOLVER_NAMES = ("rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq")

ROW_CHUNK = 64  # fixed partition size; workers only change scheduling


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
        if self.beam_width < 1 or self.block_size < 1 or self.cd_passes < 0:
            raise InvalidSpec("beam_width/block_size must be >= 1 and cd_passes >= 0")


@dataclass
class RoundResult:
    """Outcome of one layer rounding.

    ``codes`` are in original column order; ``q_dequant`` is exactly
    dequantize(codes). ``per_row_scores`` are the solver's accumulated row
    objectives and sum to ``proxy_loss``. ``objective_trajectory`` is only
    populated by :func:`cd_refine` when tracking is requested.
    """

    codes: np.ndarray
    q_dequant: np.ndarray
    proxy_loss: float
    per_row_scores: np.ndarray
    objective_trajectory: np.ndarray | None = None


class OrderedFactor(NamedTuple):
    """Decision order (original column indices) and the lower factor of H[perm][:, perm]."""

    perm: np.ndarray
    low: np.ndarray


def permutation_from_diag(h: np.ndarray) -> np.ndarray:
    """Stable ascending sort of the diagonal; ties keep original order.

    With reverse-order decoding, columns with the largest diagonal curvature
    are decided first.
    """
    return np.argsort(np.diag(h), kind="stable")


def order_and_factor(h: np.ndarray, cfg: SolverConfig) -> OrderedFactor:
    """Fix the decision order from diag(h) and ``cfg``, then factor h in it.

    Under ``cfg.act_order`` the order is :func:`permutation_from_diag`;
    otherwise it is the natural order, reversed for the left-to-right
    ``gptq``/``gptaq`` so that column 0 is decided first. This is the only
    factorization a layer makes.

    Raises:
        NotPositiveDefinite: h is not positive definite.
    """
    h = np.asarray(h, dtype=np.float64)
    perm = np.arange(h.shape[0])
    if cfg.act_order:
        perm = permutation_from_diag(h)
    elif cfg.solver in ("gptq", "gptaq"):
        perm = perm[::-1]
    return OrderedFactor(perm, cholesky(h[np.ix_(perm, perm)]))


def worker_count() -> int:
    raw = os.environ.get("SNRQ_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v <= 0:
        return min(os.cpu_count() or 1, 8)
    return v


def _run_chunked(task, m: int) -> None:
    """Run task(row_slice) over fixed 64-row chunks, possibly threaded."""
    chunks = [slice(s, min(s + ROW_CHUNK, m)) for s in range(0, m, ROW_CHUNK)]
    workers = worker_count()
    if workers <= 1 or len(chunks) <= 1:
        for c in chunks:
            task(c)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for f in [pool.submit(task, c) for c in chunks]:
            f.result()


def proxy_row_scores(q_dequant: np.ndarray, m_ref: np.ndarray, l_chol: np.ndarray) -> np.ndarray:
    """Independent recomputation of the exact row objectives ||(Q - M) L||^2."""
    el = (q_dequant - m_ref) @ l_chol
    return np.sum(el * el, axis=1)


def proxy_column_costs(e: np.ndarray, l_chol: np.ndarray) -> np.ndarray:
    """Levelwise decomposition terms L_jj^2 ||E_j + sum_{k>j} E_k L_kj/L_jj||^2."""
    n = l_chol.shape[0]
    lu = _unit_lower(l_chol)
    out = np.empty(n)
    for j in range(n):
        v = e[:, j] + e[:, j + 1:] @ lu[j + 1:, j]
        out[j] = l_chol[j, j] ** 2 * float(np.sum(v * v))
    return out


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
    scores = np.asarray(scores, dtype=np.float64)
    return RoundResult(
        codes=codes,
        q_dequant=dequantize(codes, params),
        proxy_loss=float(np.sum(scores)),
        per_row_scores=scores,
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def rtn_round(
    w: np.ndarray,
    params: GridParams,
    m_ref: np.ndarray | None = None,
    fact: OrderedFactor | None = None,
) -> RoundResult:
    """Round-to-nearest baseline, no error feedback.

    Scores are reported against the supplied proxy (m_ref, fact) when given,
    otherwise against the plain weight-rounding error ||Q - w||^2 per row.
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    scale, zero = column_grid(params, np.arange(n))
    codes, values = round_to_grid(w, scale, zero, params.spec)
    if m_ref is not None and fact is not None:
        scores = proxy_row_scores(values[:, fact.perm], _ordered(m_ref, fact), fact.low)
    else:
        scores = np.sum((values - w) ** 2, axis=1)
    return _finish(codes, np.arange(n), params, scores)


# ---------------------------------------------------------------------------
# the successive-rounding kernel and its entry points
# ---------------------------------------------------------------------------


def _kernel_bytes(m: int, n: int, k: int, bsz: int, n_levels: int) -> int:
    """Upper bound on the bytes one kernel call allocates, summed over its phases.

    Layer-wide, per m x n entry: the ordered target (8 B), the gathered
    grid (12 B) and the permuted codes (4 B), alive throughout, plus the
    scattered codes and dequantization at the end (28 B); per n x n entry:
    the unit-lower factor and its two temporaries (24 B). Per live chunk of
    r rows, per beam: the repeated target and value/code tails (20 B x n)
    plus one tail-sized temporary (8 B x n); the block buffers, correction,
    their row gathers and the center difference (40 B x B); and the
    candidate arrays with their sort order (32 B x W, W = 2 min(K, A) - 1).
    """
    b = min(bsz, n)
    width = 2 * min(k, n_levels) - 1
    r = min(m, ROW_CHUNK)
    live = min(worker_count(), -(-m // ROW_CHUNK))
    chunk = r * k * (28 * n + 40 * b + 32 * width + 64)
    return m * n * 52 + n * n * 24 + live * chunk


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

    def pick(a):
        return np.take_along_axis(a.reshape(r, -1), order, axis=1)

    return pick(cand_s), order // len(offsets), pick(cand_v), pick(cand_c)


def _successive_round(mp, fact, params, cfg, k, bsz) -> RoundResult:
    """Reverse-order successive rounding with K beams and blocks of B columns.

    ``mp`` is the target with its columns in the decision order of ``fact``.
    Per row, K partial assignments survive. Column t expands each beam by its
    nearest code (one :func:`round_to_grid` of the interference-cancelled
    center) and the K-1 codes on either side; codes outside the grid score
    +inf. A candidate scores its parent's score plus L_tt^2 (c - v)^2, and a
    stable sort keeps the K best, ties toward the lower (parent, level). With
    K = 1 the nearest code is the only candidate, so the sort is skipped.

    Beams are flattened into (rows*K) x columns arrays, beam b of row i at
    i*K + b, so that centers and the cross-block correction
    (M - Q)[:, i:] Lu[i:, block] are plain 2-D matrix products. Inside a
    block only the block-local buffers follow each survivor's parent; the
    decided tail follows the block's ancestor index once, at the end of the
    block.

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

    codes_p = np.empty((m, n), dtype=np.int32)
    scores = np.empty(m)

    def task(rows: slice) -> None:
        mk = np.repeat(mp[rows], k, axis=0)  # row i's target at flat beams i*K .. i*K+K-1
        r = mk.shape[0] // k
        base = np.arange(r)[:, None] * k
        s = np.full((r, k), np.inf)
        s[:, 0] = 0.0
        tail_v = np.zeros((r * k, n))
        tail_c = np.zeros((r * k, n), dtype=np.int32)
        i = n
        while i > 0:
            start = max(0, i - bsz)
            width = i - start
            t_corr = (mk[:, i:] - tail_v[:, i:]) @ lu[i:, start:i] if i < n else None
            bq = np.zeros((r * k, width))
            bc = np.zeros((r * k, width), dtype=np.int32)
            anc = np.arange(r * k)  # block-start beam of each survivor
            for j in range(width - 1, -1, -1):
                t = start + j
                center = mk[:, t] + (mk[:, t + 1:i] - bq[:, j + 1:]) @ lu[t + 1:i, t]
                if t_corr is not None:
                    center += t_corr[:, j] if k == 1 else t_corr[anc, j]
                center = center.reshape(r, k)
                sc, zc = scale_p[rows, t, None], zero_p[rows, t, None]
                near_c, near_v = round_to_grid(center, sc, zc, spec)
                if k == 1:
                    s += ldiag_sq[t] * (center - near_v) ** 2
                    bq[:, j], bc[:, j] = near_v[:, 0], near_c[:, 0]
                    continue
                s, parent, v_j, c_j = _keep_best(s, center, near_c, sc, zc, ldiag_sq[t], offsets, spec)
                src = (base + parent).ravel()
                anc, bq, bc = anc[src], bq[src], bc[src]
                bq[:, j], bc[:, j] = v_j.ravel(), c_j.ravel()
            if k > 1 and i < n:
                tail_v[:, i:] = tail_v[anc, i:]
                tail_c[:, i:] = tail_c[anc, i:]
            tail_v[:, start:i] = bq
            tail_c[:, start:i] = bc
            i = start
        codes_p[rows] = tail_c[base[:, 0] + np.argmin(s, axis=1)]
        scores[rows] = np.min(s, axis=1)

    _run_chunked(task, m)
    return _finish(codes_p, perm, params, scores)


def snrq_greedy(
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Reverse-order greedy rounding of the shifted target: K = 1, B = n.

    For j = n-1 .. 0 the interference-cancelled center is rounded to its
    nearest level; the accumulated per-row score is the levelwise sum
    sum_j L_jj^2 (c_j - q_j)^2, equal to the exact proxy.
    """
    return _successive_round(_ordered(m_alpha, fact), fact, params, cfg, 1, len(fact.perm))


def snrq_lazy(
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Greedy rounding in blocks of ``cfg.block_size`` columns: K = 1, B = block_size.

    The cross-block correction is computed once per block; decisions are
    identical to :func:`snrq_greedy` for every block size.
    """
    return _successive_round(_ordered(m_alpha, fact), fact, params, cfg, 1, cfg.block_size)


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
    record_trajectory: bool = False,
) -> RoundResult:
    """Cyclic exact single-coordinate re-optimization of a rounding result.

    Each coordinate update moves q_j to the grid level nearest the exact
    conditional center of the full quadratic, so the objective never
    increases. Coordinates are swept in original column order. With
    ``record_trajectory`` the total objective after every single-coordinate
    update is returned on the result (index 0 is the starting value).
    """
    if passes < 0:
        raise InvalidSpec(f"passes must be >= 0, got {passes}")
    m_alpha = np.asarray(m_alpha, dtype=np.float64)
    m, n = m_alpha.shape
    root = np.empty(fact.low.shape)  # C order: the sweep reads rows
    root[fact.perm] = fact.low  # H = root root^T in original column order
    if passes == 0:
        if record_trajectory:
            start = proxy_row_scores(result.q_dequant, m_alpha, root)
            return replace(result, objective_trajectory=np.array([float(np.sum(start))]))
        return result

    h_diag = np.sum(root * root, axis=1)
    scale, zero = column_grid(params, np.arange(n))
    spec = params.spec
    level_codes = np.arange(spec.code_min, spec.code_max + 1, dtype=np.float64)

    codes = result.codes.copy()
    values = result.q_dequant.copy()
    scores = proxy_row_scores(values, m_alpha, root)
    traj = np.empty(1 + passes * n) if record_trajectory else None
    if traj is not None:
        traj[0] = float(np.sum(scores))

    def sweep(rows: slice, log: bool = False) -> None:
        res = (values[rows] - m_alpha[rows]) @ root  # rowwise R q - y, R = root^T
        for p in range(passes):
            for j in range(n):
                g = res @ root[j]
                center = values[rows, j] - g / h_diag[j]
                levels_j = scale[rows, j, None] * (level_codes[None, :] - zero[rows, j, None])
                d = (levels_j - center[:, None]) ** 2
                # nearest level, ties toward the larger code
                idx = (d.shape[1] - 1) - np.argmin(d[:, ::-1], axis=1)
                old_idx = codes[rows, j] - spec.code_min
                rr = np.arange(d.shape[0])
                gain = d[rr, idx] - d[rr, old_idx]      # <= 0 by argmin over levels
                new_v = levels_j[rr, idx]
                res += (new_v - values[rows, j])[:, None] * root[j][None, :]
                scores[rows] += h_diag[j] * gain
                values[rows, j] = new_v
                codes[rows, j] = (idx + spec.code_min).astype(np.int32)
                if log:
                    traj[1 + p * n + j] = float(np.sum(scores))

    if record_trajectory:
        sweep(slice(0, m), log=True)  # all rows at once, so every update has a global objective
    else:
        _run_chunked(sweep, m)
    return replace(
        result, codes=codes, q_dequant=dequantize(codes, params), proxy_loss=float(np.sum(scores)),
        per_row_scores=scores, objective_trajectory=traj,
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
    Scores are the levelwise proxy ||(Q - W)[:, perm] L||^2 per row.
    """
    return _successive_round(_ordered(w, fact), fact, params, cfg, 1, len(fact.perm))


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
    z = np.tril(solve_triangular(low, d.T, lower=True).T, -1)
    u = solve_triangular(low, z.T, lower=True, trans="T").T
    result = _successive_round(wp + mismatch_scale * (wp @ u), fact, params, cfg, 1, len(perm))
    resid = (result.q_dequant - w) @ batch.xq - mismatch_scale * (w @ dx)
    scores = np.sum(resid * resid, axis=1)
    return replace(result, proxy_loss=float(np.sum(scores)), per_row_scores=scores)
