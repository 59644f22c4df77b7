"""Discrete rounding solvers for the triangular least-squares proxy.

Given a shifted target M (m x n), the lower Cholesky factor L of the damped
Hessian, and a fitted grid, every solver here approximately minimizes

    || (Q - M) L ||_F^2   over grid matrices Q,

which decomposes over output rows into independent problems
``min || R q - y ||^2`` with R = L^T and y = R M_i^T. Columns are decided in
reverse order j = n-1 .. 0; the interference-cancelled center for column j is

    c_j = M_j + sum_{k>j} (M_k - Q_k) L_kj / L_jj.

Successive rounding is one kernel over K beams and blocks of B columns
(greedy is K = 1; lazy batching only regroups the updates into blocks, so B
never changes a decision). Its three entry points differ only in (K, B):
  * snrq_greedy    (1, n): reverse-order nearest-level rounding of the center
  * snrq_lazy      (1, block_size): the same codes, block-restructured
  * ksnrq_beam     (beam_width, block_size): K-best beam search under the exact
                   accumulated branch metrics

Other solvers:
  * rtn_round      nearest rounding, no error feedback (baseline)
  * cd_refine      cyclic exact single-coordinate re-optimization passes
  * gptq_round     classic left-to-right error feedback (inverse-Cholesky rows)
  * gptaq_round    left-to-right feedback plus the single-component mismatch
                   correction, solved with trailing-block Cholesky solves

Rows are embarrassingly parallel; work is split into fixed 64-row chunks so
results are bit-identical for any worker count (``SNRQ_THREADS`` caps workers,
0 or unset means auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibration import CalibBatch
from .errors import InvalidSpec, MemoryBudget
from .grid import GridParams, column_grid, dequantize, round_to_grid
from .linalg import cholesky, solve_with_factor

__all__ = [
    "SolverConfig",
    "RoundResult",
    "permutation_from_diag",
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
    permutation_used: np.ndarray
    objective_trajectory: np.ndarray | None = None


def permutation_from_diag(h: np.ndarray) -> np.ndarray:
    """Stable ascending sort of the diagonal; ties keep original order.

    With reverse-order decoding, columns with the largest diagonal curvature
    are decided first.
    """
    return np.argsort(np.diag(h), kind="stable")


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


def _permuted_inputs(m_alpha, l_chol, cfg):
    """Apply the ascending-diagonal permutation when act_order is on.

    Returns (M permuted, L refactored for the permuted H, perm), with perm the
    identity when act_order is off. Grid parameters are never refitted; they
    are fetched through perm by original column index.
    """
    n = l_chol.shape[0]
    if not cfg.act_order:
        return m_alpha, l_chol, np.arange(n)
    h = l_chol @ l_chol.T
    perm = permutation_from_diag(h)
    if np.array_equal(perm, np.arange(n)):
        return m_alpha, l_chol, perm
    return m_alpha[:, perm], cholesky(h[np.ix_(perm, perm)]), perm


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
        permutation_used=np.asarray(perm, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def rtn_round(
    w: np.ndarray,
    params: GridParams,
    m_ref: np.ndarray | None = None,
    l_chol: np.ndarray | None = None,
) -> RoundResult:
    """Round-to-nearest baseline, no error feedback.

    Scores are reported against the supplied proxy (m_ref, l_chol) when given,
    otherwise against the plain weight-rounding error ||Q - w||^2 per row.
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    scale, zero = column_grid(params, np.arange(n))
    codes, values = round_to_grid(w, scale, zero, params.spec)
    if m_ref is not None and l_chol is not None:
        scores = proxy_row_scores(values, m_ref, l_chol)
    else:
        scores = np.sum((values - w) ** 2, axis=1)
    return RoundResult(
        codes=codes,
        q_dequant=dequantize(codes, params),
        proxy_loss=float(np.sum(scores)),
        per_row_scores=scores,
        permutation_used=np.arange(n, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# the successive-rounding kernel and its entry points
# ---------------------------------------------------------------------------


def _kernel_bytes(m: int, n: int, k: int, bsz: int, n_levels: int) -> int:
    """Upper bound on the bytes one kernel call allocates, summed over its phases.

    Layer-wide, per m x n entry: the permuted target (8 B), the gathered
    grid (12 B) and the permuted codes (4 B), alive throughout, plus the
    scattered codes and dequantization at the end (28 B); per n x n entry:
    the refactor and unit-lower factor (16 B) and the refactor's
    temporaries (24 B). Per live chunk of r rows, per beam: the repeated
    target and value/code tails (20 B x n) plus one tail-sized temporary
    (8 B x n); the block buffers, correction, their row gathers and the
    center difference (40 B x B); and the candidate arrays with their sort
    order (32 B x W, W = 2 min(K, A) - 1).
    """
    b = min(bsz, n)
    width = 2 * min(k, n_levels) - 1
    r = min(m, ROW_CHUNK)
    live = min(worker_count(), -(-m // ROW_CHUNK))
    chunk = r * k * (28 * n + 40 * b + 32 * width + 64)
    return m * n * 52 + n * n * 40 + live * chunk


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


def _successive_round(m_alpha, l_chol, params, cfg, k, bsz) -> RoundResult:
    """Reverse-order successive rounding with K beams and blocks of B columns.

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
    m_alpha = np.asarray(m_alpha, dtype=np.float64)
    m, n = m_alpha.shape
    spec = params.spec
    need = _kernel_bytes(m, n, k, bsz, spec.num_levels)
    if need > cfg.memory_budget_mb * (1 << 20):
        raise MemoryBudget(
            f"rounding state of {need / 2**20:.0f} MiB (m={m}, K={k}, n={n}) exceeds "
            f"the {cfg.memory_budget_mb} MiB budget"
        )

    mp, lp, perm = _permuted_inputs(m_alpha, l_chol, cfg)
    lu = _unit_lower(lp)
    ldiag_sq = np.diag(lp) ** 2
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
    l_chol: np.ndarray,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Reverse-order greedy rounding of the shifted target: K = 1, B = n.

    For j = n-1 .. 0 the interference-cancelled center is rounded to its
    nearest level; the accumulated per-row score is the levelwise sum
    sum_j L_jj^2 (c_j - q_j)^2, equal to the exact proxy.
    """
    return _successive_round(m_alpha, l_chol, params, cfg, 1, np.shape(m_alpha)[1])


def snrq_lazy(
    m_alpha: np.ndarray,
    l_chol: np.ndarray,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Greedy rounding in blocks of ``cfg.block_size`` columns: K = 1, B = block_size.

    The cross-block correction is computed once per block; decisions are
    identical to :func:`snrq_greedy` for every block size.
    """
    return _successive_round(m_alpha, l_chol, params, cfg, 1, cfg.block_size)


def ksnrq_beam(
    m_alpha: np.ndarray,
    l_chol: np.ndarray,
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
    return _successive_round(m_alpha, l_chol, params, cfg, cfg.beam_width, cfg.block_size)


# ---------------------------------------------------------------------------
# coordinate-descent refinement
# ---------------------------------------------------------------------------


def cd_refine(
    result: RoundResult,
    m_alpha: np.ndarray,
    l_chol: np.ndarray,
    params: GridParams,
    passes: int,
    record_trajectory: bool = False,
) -> RoundResult:
    """Cyclic exact single-coordinate re-optimization of a rounding result.

    Each coordinate update moves q_j to the grid level nearest the exact
    conditional center of the full quadratic, so the objective never
    increases. With ``record_trajectory`` the total objective after every
    single-coordinate update is returned on the result (index 0 is the
    starting value).
    """
    if passes < 0:
        raise InvalidSpec(f"passes must be >= 0, got {passes}")
    m_alpha = np.asarray(m_alpha, dtype=np.float64)
    m, n = m_alpha.shape
    if passes == 0:
        if record_trajectory:
            start = proxy_row_scores(result.q_dequant, m_alpha, l_chol)
            return replace(result, objective_trajectory=np.array([float(np.sum(start))]))
        return result

    r_upper = l_chol.T
    h_diag = np.sum(r_upper * r_upper, axis=0)  # diag of H = R^T R
    scale, zero = column_grid(params, np.arange(n))
    spec = params.spec
    level_codes = np.arange(spec.code_min, spec.code_max + 1, dtype=np.float64)

    codes = result.codes.copy()
    values = result.q_dequant.copy()
    scores = proxy_row_scores(values, m_alpha, l_chol)
    traj = np.empty(1 + passes * n) if record_trajectory else None
    if traj is not None:
        traj[0] = float(np.sum(scores))

    def sweep(rows: slice, on_update=None) -> None:
        res = (values[rows] - m_alpha[rows]) @ r_upper.T  # rowwise R q - y
        for _ in range(passes):
            for j in range(n):
                g = res @ r_upper[:, j]
                center = values[rows, j] - g / h_diag[j]
                levels_j = scale[rows, j, None] * (level_codes[None, :] - zero[rows, j, None])
                d = (levels_j - center[:, None]) ** 2
                # nearest level, ties toward the larger code
                idx = (d.shape[1] - 1) - np.argmin(d[:, ::-1], axis=1)
                old_idx = codes[rows, j] - spec.code_min
                rr = np.arange(d.shape[0])
                gain = d[rr, idx] - d[rr, old_idx]      # <= 0 by argmin over levels
                new_v = levels_j[rr, idx]
                res += (new_v - values[rows, j])[:, None] * r_upper[:, j][None, :]
                scores[rows] += h_diag[j] * gain
                values[rows, j] = new_v
                codes[rows, j] = (idx + spec.code_min).astype(np.int32)
                if on_update is not None:
                    on_update()

    if record_trajectory:
        # run sequentially over all rows so every update has a global objective
        state = {"step": 0}

        def log():
            state["step"] += 1
            traj[state["step"]] = float(np.sum(scores))

        sweep(slice(0, m), log)
    else:
        _run_chunked(sweep, m)

    return RoundResult(
        codes=codes,
        q_dequant=dequantize(codes, params),
        proxy_loss=float(np.sum(scores)),
        per_row_scores=scores,
        permutation_used=result.permutation_used,
        objective_trajectory=traj,
    )


# ---------------------------------------------------------------------------
# error-feedback baselines
# ---------------------------------------------------------------------------


def gptq_round(
    w: np.ndarray,
    h_damped: np.ndarray,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
) -> RoundResult:
    """Classic left-to-right error feedback using inverse-Cholesky rows.

    Column j is quantized at its running value, and the scaled error is
    propagated into the remaining columns through row j of the upper Cholesky
    factor of H^{-1}. With act_order, columns are processed in descending
    diagonal order (the exact reverse of :func:`permutation_from_diag`), which
    makes the decision sequence match :func:`snrq_greedy` on the same H.
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    if cfg.act_order:
        perm = permutation_from_diag(h_damped)[::-1].copy()
    else:
        perm = np.arange(n)
    hp = h_damped[np.ix_(perm, perm)]
    h_inv = solve_with_factor(cholesky(hp), np.eye(n))
    u_inv = cholesky(h_inv).T  # upper, H^{-1} = U^T U

    scale_p, zero_p = column_grid(params, perm)
    wc = w[:, perm].copy()
    codes_p = np.zeros((m, n), dtype=np.int32)
    values_p = np.zeros((m, n))
    for j in range(n):
        cj, vj = round_to_grid(wc[:, j], scale_p[:, j], zero_p[:, j], params.spec)
        codes_p[:, j] = cj
        values_p[:, j] = vj
        if j + 1 < n:
            err = (wc[:, j] - vj) / u_inv[j, j]
            wc[:, j + 1:] -= np.outer(err, u_inv[j, j + 1:])

    codes = np.empty_like(codes_p)
    codes[:, perm] = codes_p
    q = dequantize(codes, params)
    l_damped = cholesky(h_damped)
    scores = proxy_row_scores(q, w, l_damped)
    return RoundResult(
        codes=codes,
        q_dequant=q,
        proxy_loss=float(np.sum(scores)),
        per_row_scores=scores,
        permutation_used=np.asarray(perm, dtype=np.intp),
    )


def _trailing_solve(rhs: np.ndarray, x_tail: np.ndarray, damping_abs: float) -> np.ndarray:
    """Least-squares spread of an m x N target onto the trailing columns."""
    h_tail = x_tail @ x_tail.T
    if damping_abs > 0:
        h_tail = h_tail + damping_abs * np.eye(h_tail.shape[0])
    return solve_with_factor(cholesky(h_tail), rhs @ x_tail.T)


def _asym_feedback_round(
    w: np.ndarray,
    batch: CalibBatch,
    params: GridParams,
    cfg: SolverConfig,
    damping: float,
    mismatch_scale: float,
    full_target: bool,
) -> RoundResult:
    """Left-to-right rounding with tail solves toward the mismatch target.

    With ``full_target`` the un-absorbed remainder of the whole mismatch
    image is used at every step (the exact tail problem); otherwise only the
    single-component term of the current column (the surrogate).
    """
    w = np.asarray(w, dtype=np.float64)
    m, n = w.shape
    xq = batch.xq
    dx = batch.delta
    h = xq @ xq.T
    damping_abs = damping * float(np.mean(np.diag(h))) if damping > 0 else 0.0

    if cfg.act_order:
        perm = permutation_from_diag(h + damping_abs * np.eye(n))[::-1].copy()
    else:
        perm = np.arange(n)
    xq = xq[perm]
    dx = dx[perm]
    wp = w[:, perm]
    scale_p, zero_p = column_grid(params, perm)

    wc = wp.copy()
    codes_p = np.zeros((m, n), dtype=np.int32)
    remaining = mismatch_scale * (wp @ dx) if full_target else None
    for q in range(n):
        cj, vj = round_to_grid(wc[:, q], scale_p[:, q], zero_p[:, q], params.spec)
        codes_p[:, q] = cj
        delta_q = vj - wc[:, q]
        wc[:, q] = vj
        if q + 1 == n:
            break
        if full_target:
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
    return RoundResult(
        codes=codes,
        q_dequant=q_deq,
        proxy_loss=float(np.sum(scores)),
        per_row_scores=scores,
        permutation_used=np.asarray(perm, dtype=np.intp),
    )


def gptaq_round(
    w: np.ndarray,
    batch: CalibBatch,
    params: GridParams,
    cfg: SolverConfig = SolverConfig(),
    damping: float = 0.0,
    mismatch_scale: float = 1.0,
) -> RoundResult:
    """Sequential rounding with the single-component mismatch surrogate.

    At step q the trailing columns absorb, in the least-squares sense over
    the trailing student rows, the rounding error of column q plus the
    surrogate target r_q = mismatch_scale * W_q (xf - xq)_q. Trailing moment
    blocks are solved by Cholesky (O(n^4) total; fine at desk scale). Scores
    report the exact asymmetric objective per row.

    Raises:
        NotPositiveDefinite: a trailing moment block is singular (increase
            damping or the calibration size).
    """
    return _asym_feedback_round(
        w, batch, params, cfg, damping, mismatch_scale, full_target=False
    )
