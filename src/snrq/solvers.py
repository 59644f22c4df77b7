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
never changes a decision).
Its entry points differ in (K, B) and the target:
  * snrq_greedy    (1, block_size) on the shifted target M: nearest-level
                   rounding of the center
  * ksnrq_beam     (beam_width, block_size): K-best beam search under the exact
                   accumulated branch metrics; each beam is expanded by a
                   window of min(K + 1, A) codes found in closed form from
                   its center, which holds every code that can survive
  * gptq_round     (1, block_size) on the weights W: snrq_greedy itself.
                   GPTQ quantizes column j at its running value and spreads
                   the error over the later columns through row j of the
                   upper Cholesky factor of H^{-1}. Its running values are
                   the kernel's centers on target W, in the reverse of GPTQ's
                   order (what order_and_factor builds for "gptq"), so the
                   kernel makes exactly GPTQ's decisions; its blocks are
                   GPTQ's lazy batch updates
  * gptaq_round    (1, block_size) on W shifted by the single-component
                   mismatch correction

Other solvers:
  * rtn_round      nearest rounding, no error feedback (baseline): the target
                   W under the identity factor, whose proxy is ||Q - W||^2
  * cd_refine      cyclic exact single-coordinate re-optimization passes on
                   the gradient G = (Q - M) H, blocked like the kernel: moves
                   inside a block of block_size coordinates update only the
                   block's columns of G, and one matrix product the rest;
                   a pass that moves nothing ends the refinement, and the
                   result records the total objective after each pass

A solver returns its codes, not their values, which :func:`snrq.grid.dequantize`
gives, and its row scores are the proxy ||(Q - T)[:, perm] L||^2 toward the
target T it rounded. The one scorer of the proxy from codes is
:func:`proxy_row_scores`, which takes the layer's factor.

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
from .grid import GridParams, GridSpec, column_grid, dequantize, round_to_grid
# solve_with_factor: perfbench tracer only
from .linalg import cholesky, solve_l, solve_lt, solve_with_factor

__all__ = [
    "SolverConfig",
    "RoundResult",
    "OrderedFactor",
    "order_and_factor",
    "rtn_round",
    "snrq_greedy",
    "ksnrq_beam",
    "cd_refine",
    "gptq_round",
    "gptaq_round",
    "proxy_row_scores",
]

SOLVER_NAMES = ("rtn", "snrq", "ksnrq", "gptq", "gptaq")


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and search knobs; ``solver`` is one of ``SOLVER_NAMES`` exactly."""

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
    """Outcome of one layer rounding: its codes and their proxy toward the solver's target.

    ``codes`` are in original column order; their values are
    dequantize(codes, params). ``per_row_scores`` are, for every solver, the
    rows of ||(Q - T)[:, perm] L||^2 toward the target T it rounded (W under
    the identity factor for :func:`rtn_round`). ``proxy_loss`` is their sum.
    :func:`cd_refine` sets ``objective_trajectory``, the total objective at
    its start and after each pass it ran.
    """

    codes: np.ndarray
    per_row_scores: np.ndarray
    objective_trajectory: np.ndarray | None = None

    @property
    def proxy_loss(self) -> float:
        return float(np.sum(self.per_row_scores))


class OrderedFactor(NamedTuple):
    """Decision order (original column indices), the lower factor of H[perm][:, perm]
    and the tuple of its diagonal-block inverses, each at its block's own size,
    which every triangular solve with it applies."""

    perm: np.ndarray
    low: np.ndarray
    inv: tuple[np.ndarray, ...]


def order_and_factor(h: np.ndarray, cfg: SolverConfig) -> OrderedFactor:
    """Fix the decision order from diag(h) and ``cfg``, then factor h in it.

    Under ``cfg.act_order`` the order is a stable ascending sort of diag(h),
    so the columns of largest curvature are decided first; otherwise it is
    the natural order, reversed for the left-to-right ``gptq``/``gptaq`` so
    that column 0 is decided first. This is the only factorization a layer
    makes; it returns the block inverses that every solve with it applies.

    Raises:
        NotPositiveDefinite: h is not positive definite.
    """
    h = np.asarray(h, dtype=np.float64)
    perm = np.arange(h.shape[0])
    if cfg.act_order:
        perm = np.argsort(np.diag(h), kind="stable")
    elif cfg.solver in ("gptq", "gptaq"):
        perm = perm[::-1]
    return OrderedFactor(perm, *cholesky(h[np.ix_(perm, perm)]))


def proxy_row_scores(q: np.ndarray, m_ref: np.ndarray, fact: OrderedFactor) -> np.ndarray:
    """Exact row objectives ||(Q - M)[:, perm] L||^2, recomputed from Q in original column order."""
    el = (q - m_ref)[:, fact.perm] @ fact.low
    el *= el
    return np.sum(el, axis=1)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _ordered(a: np.ndarray, fact: OrderedFactor) -> np.ndarray:
    """Columns of ``a`` in the factor's decision order."""
    return np.asarray(a, dtype=np.float64)[:, fact.perm]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def rtn_round(w: np.ndarray, params: GridParams) -> RoundResult:
    """Round-to-nearest baseline, no error feedback, scored by its proxy under L = I: ||Q - w||^2 per row."""
    w = np.asarray(w, dtype=np.float64)
    scale, zero = column_grid(params, np.arange(w.shape[1]))
    codes, err = round_to_grid(w, scale, zero, params.spec)
    err -= w
    err *= err
    return RoundResult(codes, np.sum(err, axis=1))


# ---------------------------------------------------------------------------
# the successive-rounding kernel and its entry points
# ---------------------------------------------------------------------------


def _kernel_bytes(m: int, n: int, k: int, bsz: int, spec: GridSpec) -> int:
    """Upper bound on the bytes one kernel call allocates at any time: its column loop.

    The loop holds the ordered target (8 B per m x n entry); the unit-lower
    factor (8 B per n x n entry), whose broadcast division takes numpy's
    ufunc buffer of up to ``np.getbufsize()`` float64 entries; the gathered
    grid on grouped grids only (16 B per m x n entry: float64 scales and zero
    points; the int32 gather the zero points are converted from is freed
    before the loop, and per-channel grids are views); and the state of all
    m*K beams, which are live at once. Per beam: the difference/code tails
    (12 B x n) and the block buffers and correction (20 B x B). With K > 1
    also the tail-sized temporary of the end-of-block ancestor gather
    (8 B x n), the block buffers' row gathers (12 B x B), and the candidate
    values, scores and sort order (24 B x W, W = min(K, A) + 1). Each beam
    also holds 64 B of vectors, at K = 1 those of the column's rounding.
    The loop's state is freed before the codes are gathered, so after the
    loop the call holds the ordered target and two int32 code arrays, 16 B
    per weight, below the loop's 8 B of target plus 12 B of tails per beam.
    """
    b = min(bsz, n)
    width = min(k, spec.num_levels) + 1
    grid = 16 if spec.group_size else 0
    factor = 8 * (n * n + min(n * n, np.getbufsize()))
    gathers = 8 * n + 12 * b + 24 * width if k > 1 else 0  # K = 1 gathers and sorts nothing
    return m * n * (8 + grid) + factor + m * k * (12 * n + 20 * b + 64 + gathers)


def _keep_best(s, center, scale, zero, cost, spec):
    """Expand K beams by a window of codes around their centers and keep the K best.

    With kk = min(K, A), each beam scores the w = min(kk + 1, A) codes from
    lo = floor(x - kk/2 + 1/2), x = center / scale + zero, clamped into the
    grid. A candidate's score is a valley in its code, so a beam's kk best
    codes by (score, level) form a window that starts at lo or lo + 1; the w
    codes hold both, and one stable sort of the (parent, level) candidates
    keeps the K best, ties toward the lower (parent, level).

    Returns the survivors' (scores, parents, values, codes), each r x K, the
    codes as integral floats; the candidate arrays are freed on return.
    """
    r, k = s.shape
    kk = min(k, spec.num_levels)
    w = min(kk + 1, spec.num_levels)
    lo = np.floor(center / scale + zero - kk / 2 + 0.5)
    np.minimum(lo, spec.code_max - w + 1, out=lo)
    np.maximum(lo, spec.code_min, out=lo)
    cand_v = scale[:, :, None] * ((lo - zero)[:, :, None] + np.arange(w))
    cand_s = center[:, :, None] - cand_v
    cand_s *= cand_s
    cand_s *= cost
    cand_s += s[:, :, None]  # s + cost (c - v)^2, as for K = 1
    order = np.argsort(cand_s.reshape(r, -1), axis=1, kind="stable")[:, :k]
    rows = np.arange(r)[:, None]
    parent, offset = np.divmod(order, w)
    flat = order + rows * (k * w)  # flat index of each survivor
    return cand_s.ravel()[flat], parent, cand_v.ravel()[flat], lo[rows, parent] + offset


def _successive_round(mp, fact, params, cfg, k) -> RoundResult:
    """Reverse-order successive rounding with K beams and blocks of B = ``cfg.block_size`` columns.

    ``mp`` is the target with its columns in the decision order of ``fact``.
    Per row, K partial assignments survive. A candidate scores its parent's
    score plus L_tt^2 (c - v)^2 for the interference-cancelled center c. With
    K = 1 the only candidate is the nearest code (one :func:`round_to_grid`
    of c, ties toward the larger code), so nothing is sorted. With K > 1
    each beam is expanded by a window of min(K + 1, A) codes around its
    center, found in closed form, and a stable sort keeps the K best, ties
    toward the lower (parent, level) (see :func:`_keep_best`).

    All rows run in one pass. Beams are flattened into (m*K) x columns
    arrays, beam b of row i at i*K + b, so that centers and the cross-block
    correction (T - Q)[:, i:] Lu[i:, block] are plain 2-D matrix products.
    Decided columns are kept as differences T - Q. Inside a block only the
    block-local buffers follow each survivor's parent; the decided tail
    follows the block's ancestor index once, at the end of the block. The
    result's codes are scattered back to original column order.

    Raises:
        MemoryBudget: the allocation charged by :func:`_kernel_bytes` exceeds
            ``cfg.memory_budget_mb``.
    """
    m, n = mp.shape
    spec = params.spec
    bsz = cfg.block_size
    need = _kernel_bytes(m, n, k, bsz, spec)
    if need > cfg.memory_budget_mb * (1 << 20):
        raise MemoryBudget(
            f"rounding state of {need / 2**20:.0f} MiB (m={m}, K={k}, n={n}) exceeds "
            f"the {cfg.memory_budget_mb} MiB budget"
        )

    perm, low = fact.perm, fact.low
    # unit lower factor minus the identity: the diagonal of low / diag(low) is
    # exactly 1 (x / x), so zeroing it in place subtracts the identity
    lu = low / np.diag(low)[None, :]
    np.fill_diagonal(lu, 0.0)
    ldiag_sq = np.diag(low) ** 2
    scale_p, zero_p = column_grid(params, perm)

    base = np.arange(m)[:, None] * k
    s = np.full((m, k), np.inf)
    s[:, 0] = 0.0
    tail_d = np.zeros((m * k, n))  # decided columns' T - Q, beam b of row i at i*K + b
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
            target = mp[:, t, None]
            center = (bd[:, j + 1:] @ lu[t + 1:i, t]).reshape(m, k) + target
            if t_corr is not None:
                center += (t_corr[:, j] if k == 1 else t_corr[anc, j]).reshape(m, k)
            sc, zc = scale_p[:, t, None], zero_p[:, t, None]
            if k == 1:
                c_j, v_j = round_to_grid(center, sc, zc, spec)
                s += ldiag_sq[t] * (center - v_j) ** 2
            else:
                s, parent, v_j, c_j = _keep_best(s, center, sc, zc, ldiag_sq[t], spec)
                src = (base + parent).ravel()
                anc, bd, bc = anc[src], bd[src], bc[src]
            bd[:, j], bc[:, j] = (target - v_j).ravel(), c_j.ravel()
        if k > 1:  # at i == n the decided tail is empty
            tail_d[:, i:] = tail_d[anc, i:]
            tail_c[:, i:] = tail_c[anc, i:]
        tail_d[:, start:i] = bd
        tail_c[:, start:i] = bc
        i = start
    # free the layer-wide state before the result allocates, as _kernel_bytes assumes
    del lu, scale_p, zero_p, tail_d, bd, bc, t_corr
    codes_p = tail_c[base[:, 0] + np.argmin(s, axis=1)]
    del tail_c
    codes = np.empty_like(codes_p)
    codes[:, perm] = codes_p
    return RoundResult(codes, np.min(s, axis=1))


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
    return _successive_round(_ordered(m_alpha, fact), fact, params, cfg, 1)


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
    return _successive_round(_ordered(m_alpha, fact), fact, params, cfg, cfg.beam_width)


# ---------------------------------------------------------------------------
# coordinate-descent refinement
# ---------------------------------------------------------------------------


def cd_refine(
    result: RoundResult,
    m_alpha: np.ndarray,
    fact: OrderedFactor,
    params: GridParams,
    passes: int,
    block_size: int,
) -> RoundResult:
    """Cyclic exact single-coordinate re-optimization of a rounding result.

    Each coordinate update rounds the exact conditional center
    q_j - G_j / H_jj, G = (Q - M) H, with :func:`round_to_grid` and moves
    q_j to that level only when the move does not raise the objective, so
    the objective never increases. Coordinates are swept in original column
    order, in blocks of ``block_size``: inside a block a move updates only
    the block's columns of its row of G, and one matrix product applies the
    block's moves to all of G afterwards. Rows are independent, and most
    visits move nothing, which changes no array: so each row's centers are
    computed for the whole block at once, and after a row's first move only
    that row is visited again, from the next coordinate on. A pass that
    moves nothing ends the refinement. The result's ``objective_trajectory``
    holds the total objective at the start and after each pass that ran
    (1 + passes run entries; a pass that moved nothing repeats the entry
    before it); ``passes == 0`` returns ``result``.
    """
    if passes < 0:
        raise InvalidSpec(f"passes must be >= 0, got {passes}")
    if block_size < 1:
        raise InvalidSpec(f"block_size must be >= 1, got {block_size}")
    if passes == 0:
        return result
    m_alpha = np.asarray(m_alpha, dtype=np.float64)
    m, n = m_alpha.shape
    root = np.empty(fact.low.shape)
    root[fact.perm] = fact.low  # H = root root^T in original column order
    h = root @ root.T
    h_diag = np.sum(root * root, axis=1)
    scale, zero = column_grid(params, np.arange(n))

    codes = result.codes.copy()
    values = dequantize(codes, params)
    res = (values - m_alpha) @ root  # rowwise R q - y, R = root^T
    scores = np.sum(res * res, axis=1)
    grad = res @ root.T  # G = (Q - M) H
    traj = [scores.sum()]
    for _ in range(passes):
        moved = False
        for b0 in range(0, n, block_size):
            blk = slice(b0, min(b0 + block_size, n))
            g = grad[:, blk].copy()
            step = np.zeros(g.shape)
            block_moved = False
            rows = np.arange(m)  # rows to scan, each from its block column ``after`` on
            after = np.zeros(m, dtype=np.intp)
            while True:
                q = values[rows, blk]
                center = q - g[rows] / h_diag[blk]
                near_c, near_v = round_to_grid(center, scale[rows, blk], zero[rows, blk], params.spec)
                gain = (near_v - center) ** 2 - (q - center) ** 2
                # a move does not raise the objective and changes the level; a pick
                # one ulp worse than q_j keeps q_j
                move = (gain <= 0.0) & (near_v != q) & (np.arange(g.shape[1]) >= after[:, None])
                hit = np.flatnonzero(move.any(axis=1))
                if not hit.size:
                    break
                after = move[hit].argmax(axis=1)  # each moving row's first move
                rows, j = rows[hit], b0 + after
                step[rows, after] = near_v[hit, after] - q[hit, after]
                g[rows] += step[rows, after, None] * h[j, blk]
                scores[rows] += h_diag[j] * gain[hit, after]
                codes[rows, j] = near_c[hit, after]
                values[rows, j] = near_v[hit, after]
                after = after + 1
                block_moved = True
            if block_moved:
                grad += step @ h[blk]
                moved = True
        traj.append(scores.sum())
        if not moved:
            break
    return replace(result, codes=codes, per_row_scores=scores, objective_trajectory=np.array(traj))


# ---------------------------------------------------------------------------
# error-feedback baselines
# ---------------------------------------------------------------------------


gptq_round = snrq_greedy  # GPTQ's decisions; see the module docstring


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
    costs two triangular solves with the factor's block inverses. Scores are
    the kernel's, the proxy toward that shifted target.
    """
    perm, low, inv = fact
    wp = _ordered(w, fact)
    # kernel order: U is strictly lower, row i = D[i, :i] (L_i L_i^T)^{-1} with L_i = low[:i, :i]
    d = np.tril((batch.delta @ batch.xq.T)[np.ix_(perm, perm)], -1)
    u = solve_l(low, np.tril(solve_lt(low, d, inv), -1), inv)
    return _successive_round(wp + mismatch_scale * (wp @ u), fact, params, cfg, 1)
