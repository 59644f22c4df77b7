"""Rounding solver contracts: greedy, lazy-batch, beam, CD, GPTQ, GPTAQ."""

import os
import tracemalloc

import numpy as np
import pytest

from snrq import (
    AlphaStrategy,
    CalibBatch,
    GridSpec,
    MemoryBudget,
    SolverConfig,
    accumulate_stats,
    cd_refine,
    cholesky,
    fit_grid,
    gptaq_round,
    gptq_round,
    ksnrq_beam,
    order_and_factor,
    permutation_from_diag,
    rtn_round,
    snrq_greedy,
    snrq_lazy,
)
from snrq.grid import GridParams, levels
from snrq.oracle import exhaustive_row, gptaq_reference, greedy_reference
from snrq.solvers import _kernel_bytes, proxy_column_costs, proxy_row_scores

from conftest import natural, random_spd

NO_PERM = SolverConfig(act_order=False)
PERM = SolverConfig(act_order=True)


def gptq_factor(h, cfg):
    """The factor order_and_factor builds for gptq under cfg's act_order."""
    return order_and_factor(h, SolverConfig(solver="gptq", act_order=cfg.act_order))


def grid_01():
    """Asymmetric 2-bit grid with levels {0,1,2,3}; {0,1} decisions dominate."""
    return GridParams(
        scales=np.array([[1.0]]),
        zero_points=np.array([[0]], dtype=np.int32),
        spec=GridSpec(bits=2, symmetric=False),
    )


def layer_instance(rng, m=8, n=16, bits=3, ridge=None):
    w = rng.normal(size=(m, n))
    h = random_spd(rng, n, ridge if ridge is not None else 0.5)
    params = fit_grid(w, GridSpec(bits=bits, symmetric=True))
    return w, h, cholesky(h), params


# --- permutation --------------------------------------------------------


def test_permutation_sorted_input_is_identity():
    h = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(permutation_from_diag(h), [0, 1, 2])


def test_permutation_sorts_ascending():
    h = np.diag([3.0, 1.0, 2.0])
    assert np.array_equal(permutation_from_diag(h), [1, 2, 0])


def test_permutation_stable_on_ties():
    h = np.diag([2.0, 2.0, 2.0])
    assert np.array_equal(permutation_from_diag(h), [0, 1, 2])


# --- greedy -------------------------------------------------------------


def test_greedy_single_column(rng):
    w = rng.normal(size=(4, 1))
    l = np.array([[1.7]])
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    res = snrq_greedy(w, natural(l), params, NO_PERM)
    base = rtn_round(w, params)
    assert np.array_equal(res.codes, base.codes)
    expected = 1.7 ** 2 * np.sum((w - res.q_dequant) ** 2)
    assert np.isclose(res.proxy_loss, expected, rtol=1e-12)


def test_greedy_known_two_column_instance():
    # R = [[1, 0.8], [0, 1]], targets (1.4, 0.6), levels {0,1}:
    # greedy picks (1,1) at cost 0.32, which is also the enumeration optimum
    l = np.array([[1.0, 0.0], [0.8, 1.0]])
    y = np.array([1.4, 0.6])
    m_row = np.linalg.solve(l.T, y)[None, :]
    res = snrq_greedy(m_row, natural(l), grid_01(), NO_PERM)
    assert np.array_equal(res.codes, [[1, 1]])
    assert np.isclose(res.proxy_loss, 0.32, rtol=1e-12)
    orc = exhaustive_row(l.T, y, [np.array([0.0, 1.0])] * 2)
    assert np.isclose(orc.best_cost, 0.32, rtol=1e-12)


def test_greedy_diagonal_h_equals_rtn(rng):
    w = rng.normal(size=(6, 10))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    l = np.diag(rng.uniform(0.5, 2.0, size=10))
    res = snrq_greedy(w, natural(l), params, NO_PERM)
    base = rtn_round(w, params)
    assert np.array_equal(res.codes, base.codes)


def test_greedy_proxy_matches_recomputation(rng):
    for cfg in (NO_PERM, PERM):
        w, h, l, params = layer_instance(rng)
        res = snrq_greedy(w, order_and_factor(h, cfg), params, cfg)
        rec = proxy_row_scores(res.q_dequant, w, l)  # natural-order factor
        assert np.allclose(res.per_row_scores, rec, rtol=1e-9)
        assert abs(res.proxy_loss - rec.sum()) <= 1e-9 * max(1.0, rec.sum())
        assert abs(res.per_row_scores.sum() - res.proxy_loss) <= 1e-9 * max(1.0, res.proxy_loss)


def test_columnwise_decomposition_identity(rng):
    for _ in range(100):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        e = rng.normal(size=(m, n))
        l = cholesky(random_spd(rng, n))
        cols = proxy_column_costs(e, l)
        full = float(np.sum((e @ l) ** 2))
        assert abs(cols.sum() - full) <= 1e-9 * max(1.0, full)


def test_rows_solved_independently_match_joint(rng):
    w, h, l, params = layer_instance(rng, m=6, n=12)
    joint = snrq_greedy(w, natural(l), params, NO_PERM)
    for i in range(6):
        row_params = GridParams(
            scales=params.scales[i:i + 1], zero_points=params.zero_points[i:i + 1],
            spec=params.spec,
        )
        single = snrq_greedy(w[i:i + 1], natural(l), row_params, NO_PERM)
        assert np.array_equal(single.codes[0], joint.codes[i])


def test_act_order_round_trip_and_scale_association(rng):
    # permuted solve returns codes in original order; per-group scales stay
    # attached to original columns
    m, n = 4, 8
    w = rng.normal(size=(m, n)) * np.repeat([1.0, 20.0], 4)[None, :]
    h = random_spd(rng, n)
    h[np.diag_indices(n)] += np.linspace(0, 5, n)[::-1]  # force a real permutation
    params = fit_grid(w, GridSpec(bits=3, symmetric=True, group_size=4))
    fact = order_and_factor(h, PERM)
    assert sorted(fact.perm.tolist()) == list(range(n))
    assert not np.array_equal(fact.perm, np.arange(n))
    res = snrq_greedy(w, fact, params, PERM)
    for c in range(n):
        lv = levels(0, c, params)
        assert res.q_dequant[0, c] in lv


def test_worker_count_does_not_change_codes(rng, monkeypatch):
    w = rng.normal(size=(200, 24))  # several 64-row chunks
    h = random_spd(rng, 24)
    fact = order_and_factor(h, PERM)
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    results = []
    for threads in ("1", "4"):
        monkeypatch.setenv("SNRQ_THREADS", threads)
        results.append(snrq_greedy(w, fact, params, PERM))
    assert np.array_equal(results[0].codes, results[1].codes)
    assert np.array_equal(results[0].per_row_scores, results[1].per_row_scores)


# --- lazy batch ---------------------------------------------------------


def test_lazy_matches_greedy_all_block_sizes(rng):
    for trial in range(20):
        m, n = 16, 32
        w = rng.normal(size=(m, n))
        h = random_spd(rng, n)
        fact = order_and_factor(h, PERM)
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        ref = greedy_reference(w, cholesky(h), params, act_order=True)
        assert np.array_equal(snrq_greedy(w, fact, params, PERM).codes, ref), f"trial {trial}"
        for b in (1, 2, n // 2, n, n + 1):
            lazy = snrq_lazy(w, fact, params, SolverConfig(act_order=True, block_size=b))
            assert np.array_equal(lazy.codes, ref), f"trial {trial}, B={b}"


def test_lazy_block_larger_than_n(rng):
    w, h, l, params = layer_instance(rng, m=3, n=7)
    ref = greedy_reference(w, l, params)
    lazy = snrq_lazy(w, natural(l), params, SolverConfig(act_order=False, block_size=100))
    assert np.array_equal(lazy.codes, ref)


# --- beam search --------------------------------------------------------


def test_beam_k1_equals_greedy(rng):
    for _ in range(20):
        w, h, l, params = layer_instance(rng, m=4, n=10)
        ref = greedy_reference(w, l, params)
        for b in (1, 2, 5, 10, 11):
            cfg = SolverConfig(act_order=False, beam_width=1, block_size=b)
            assert np.array_equal(ksnrq_beam(w, natural(l), params, cfg).codes, ref), f"B={b}"


def test_k1_exact_tie_rounds_up_like_greedy():
    # both centers sit exactly between codes 0 and 1 of {0,1,2,3}; every
    # K = 1 solver takes the larger code, as nearest-level rounding does
    m_row = np.array([[0.5, 0.5]])
    l = np.eye(2)
    assert np.array_equal(greedy_reference(m_row, l, grid_01()), [[1, 1]])
    for res in (
        snrq_greedy(m_row, natural(l), grid_01(), NO_PERM),
        snrq_lazy(m_row, natural(l), grid_01(), SolverConfig(act_order=False, block_size=1)),
        ksnrq_beam(m_row, natural(l), grid_01(), SolverConfig(act_order=False, beam_width=1)),
    ):
        assert np.array_equal(res.codes, [[1, 1]])


def test_beam_improves_known_instance():
    # R=[[1,0.6],[0,1]], targets (1.0, 0.5): greedy 0.41, K=2 finds 0.25
    l = np.array([[1.0, 0.0], [0.6, 1.0]])
    y = np.array([1.0, 0.5])
    m_row = np.linalg.solve(l.T, y)[None, :]
    greedy = snrq_greedy(m_row, natural(l), grid_01(), NO_PERM)
    assert np.isclose(greedy.proxy_loss, 0.41, rtol=1e-12)
    assert np.array_equal(greedy.codes, [[0, 1]])
    beam = ksnrq_beam(m_row, natural(l), grid_01(), SolverConfig(act_order=False, beam_width=2))
    assert np.isclose(beam.proxy_loss, 0.25, rtol=1e-12)
    assert np.array_equal(beam.codes, [[1, 0]])


def test_beam_score_matches_recomputed_row_objective(rng):
    w, h, l, params = layer_instance(rng, m=6, n=12)
    for k in (1, 2, 4):
        res = ksnrq_beam(w, natural(l), params, SolverConfig(act_order=False, beam_width=k))
        rec = proxy_row_scores(res.q_dequant, w, l)
        assert np.allclose(res.per_row_scores, rec, rtol=1e-9, atol=1e-12)


def test_beam_saturation_equals_oracle(rng):
    for _ in range(10):
        n = 4
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.1)
        l = cholesky(h)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        sat = ksnrq_beam(w, natural(l), params, SolverConfig(act_order=False, beam_width=4 ** n))
        lv = [levels(0, j, params) for j in range(n)]
        orc = exhaustive_row(l.T, l.T @ w[0], lv)
        assert abs(sat.proxy_loss - orc.best_cost) <= 1e-9 * max(1.0, orc.best_cost)
        assert np.array_equal(sat.q_dequant[0], orc.best_values)


def test_beam_scores_nondecreasing_in_depth(rng):
    # final score of any beam run is at least the first decision's cost
    w, h, l, params = layer_instance(rng, m=3, n=8)
    res = ksnrq_beam(w, natural(l), params, SolverConfig(act_order=False, beam_width=3))
    assert np.all(res.per_row_scores >= -1e-15)


def test_beam_memory_budget():
    w = np.zeros((64, 512))
    l = np.eye(512)
    params = fit_grid(np.ones((64, 512)), GridSpec(bits=8, symmetric=True))
    cfg = SolverConfig(act_order=False, beam_width=100_000, memory_budget_mb=64)
    with pytest.raises(MemoryBudget):
        ksnrq_beam(w, natural(l), params, cfg)


@pytest.mark.parametrize("m,n,k,bsz,act_order", [(64, 128, 16, 32, False), (200, 64, 8, 16, True)])
def test_beam_memory_charge_bounds_measured_peak(rng, monkeypatch, m, n, k, bsz, act_order):
    monkeypatch.setenv("SNRQ_THREADS", "1")
    w, h, l, params = layer_instance(rng, m=m, n=n)
    cfg = SolverConfig(act_order=act_order, beam_width=k, block_size=bsz)
    fact = order_and_factor(h, cfg)
    ksnrq_beam(w, fact, params, cfg)  # first call pays one-time imports and caches
    tracemalloc.start()
    try:
        ksnrq_beam(w, fact, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = _kernel_bytes(m, n, k, bsz, params.spec.num_levels)
    assert peak <= charge <= 2 * peak


def test_beam_deterministic_tie_break():
    # center exactly between levels 0 and 1 for both columns; identity L means
    # both orders tie everywhere, lower (parent, level) pairs must win
    m_row = np.array([[0.5, 0.5]])
    l = natural(np.eye(2))
    res = ksnrq_beam(m_row, l, grid_01(), SolverConfig(act_order=False, beam_width=2))
    again = ksnrq_beam(m_row, l, grid_01(), SolverConfig(act_order=False, beam_width=2))
    assert np.array_equal(res.codes, again.codes)


# --- coordinate descent -------------------------------------------------


def test_cd_zero_passes_is_noop(rng):
    w, h, l, params = layer_instance(rng)
    res = snrq_greedy(w, natural(l), params, NO_PERM)
    out = cd_refine(res, w, natural(l), params, passes=0)
    assert out is res


def test_cd_monotone_trajectory(rng):
    for _ in range(10):
        w, h, l, params = layer_instance(rng, m=4, n=10)
        res = rtn_round(w, params, m_ref=w, fact=natural(l))
        out = cd_refine(res, w, natural(l), params, passes=3, record_trajectory=True)
        traj = out.objective_trajectory
        assert np.all(np.diff(traj) <= 1e-15)
        rec = proxy_row_scores(out.q_dequant, w, l).sum()
        assert abs(traj[-1] - rec) <= 1e-9 * max(1.0, rec)


def test_cd_cannot_leave_global_optimum(rng):
    n = 4
    w = rng.normal(size=(1, n))
    h = random_spd(rng, n, ridge=0.1)
    l = cholesky(h)
    params = fit_grid(w, GridSpec(bits=2, symmetric=True))
    sat = ksnrq_beam(w, natural(l), params, SolverConfig(act_order=False, beam_width=4 ** n))
    out = cd_refine(sat, w, natural(l), params, passes=4)
    assert np.array_equal(out.codes, sat.codes)
    assert np.isclose(out.proxy_loss, sat.proxy_loss, rtol=1e-9)


def test_cd_on_greedy_suboptimal_instance():
    l = np.array([[1.0, 0.0], [0.6, 1.0]])
    m_row = np.linalg.solve(l.T, np.array([1.0, 0.5]))[None, :]
    greedy = snrq_greedy(m_row, natural(l), grid_01(), NO_PERM)
    out = cd_refine(greedy, m_row, natural(l), grid_01(), passes=1, record_trajectory=True)
    assert out.proxy_loss <= 0.41 + 1e-12
    assert np.all(np.diff(out.objective_trajectory) <= 1e-15)


# --- gptq ---------------------------------------------------------------


def test_gptq_diagonal_h_is_rtn(rng):
    w = rng.normal(size=(5, 9))
    h = np.diag(rng.uniform(0.5, 3.0, size=9))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    res = gptq_round(w, gptq_factor(h, NO_PERM), params, NO_PERM)
    base = rtn_round(w, params)
    assert np.array_equal(res.codes, base.codes)


def test_gptq_single_column(rng):
    w = rng.normal(size=(4, 1))
    res = gptq_round(w, gptq_factor(np.array([[2.0]]), NO_PERM), fit_grid(w, GridSpec(bits=3)), NO_PERM)
    base = rtn_round(w, fit_grid(w, GridSpec(bits=3)))
    assert np.array_equal(res.codes, base.codes)


def test_gptq_equals_greedy_at_alpha_zero(rng):
    # damping 0, well-conditioned H, act_order on both sides; the greedy
    # reference factors the permuted H with numpy
    for _ in range(20):
        w, h, l, params = layer_instance(rng, m=8, n=16, ridge=16.0)
        r_snrq = snrq_greedy(w, order_and_factor(h, PERM), params, PERM)
        r_gptq = gptq_round(w, gptq_factor(h, PERM), params, PERM)
        assert np.array_equal(r_snrq.codes, r_gptq.codes)
        assert np.array_equal(r_gptq.codes, greedy_reference(w, l, params, act_order=True))


# --- gptaq ---------------------------------------------------------------


def make_batch(rng, n, n_seq, mismatch):
    xq = rng.normal(size=(n, n_seq))
    return CalibBatch(xf=xq + mismatch * rng.normal(size=(n, n_seq)), xq=xq)


def gptaq_factor(batch, cfg, damping=0.0):
    """The layer factor the pipeline builds for gptaq from this batch."""
    stats = accumulate_stats(batch, AlphaStrategy(), damping=damping)
    return order_and_factor(stats.h, SolverConfig(solver="gptaq", act_order=cfg.act_order))


def test_gptaq_no_mismatch_equals_gptq(rng):
    n, n_seq = 10, 40
    w = rng.normal(size=(6, n))
    xq = rng.normal(size=(n, n_seq))
    batch = CalibBatch(xf=xq.copy(), xq=xq)
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    r_gptaq = gptaq_round(w, gptaq_factor(batch, NO_PERM), params, NO_PERM, batch)
    r_gptq = gptq_round(w, gptq_factor(xq @ xq.T, NO_PERM), params, NO_PERM)
    assert np.array_equal(r_gptaq.codes, r_gptq.codes)


def orthogonal_rows_batch(rng, n, n_seq, c=0.7):
    """xq with orthogonal rows; mismatch only on row 0, parallel to it."""
    q, _ = np.linalg.qr(rng.normal(size=(n_seq, n_seq)))
    xq = q[:n, :] * rng.uniform(1.0, 2.0, size=(n, 1))
    dx = np.zeros_like(xq)
    dx[0] = c * xq[0]
    return CalibBatch(xf=xq + dx, xq=xq)


def test_gptaq_surrogate_matches_exact_on_orthogonal_construction(rng):
    n = 6
    batch = orthogonal_rows_batch(rng, n, 12)
    w = rng.normal(size=(4, n))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    sur = gptaq_round(w, gptaq_factor(batch, NO_PERM), params, NO_PERM, batch)
    exa = gptaq_reference(w, batch, params, exact=True)
    assert np.array_equal(sur.codes, exa.codes)
    assert abs(sur.proxy_loss - exa.proxy_loss) <= 1e-9 * max(1.0, exa.proxy_loss)


def test_gptaq_surrogate_differs_generically(rng):
    n = 6
    batch = make_batch(rng, n, 12, mismatch=0.5)
    w = rng.normal(size=(4, n))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    sur = gptaq_round(w, gptaq_factor(batch, NO_PERM), params, NO_PERM, batch)
    exa = gptaq_reference(w, batch, params, exact=True)
    assert not np.array_equal(sur.codes, exa.codes)
    assert sur.proxy_loss > exa.proxy_loss  # exact-objective gap is positive


def test_gptaq_mismatch_scale_zero_is_gptq(rng):
    n, n_seq = 8, 32
    w = rng.normal(size=(3, n))
    batch = make_batch(rng, n, n_seq, mismatch=0.4)
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    r0 = gptaq_round(w, gptaq_factor(batch, NO_PERM), params, NO_PERM, batch, mismatch_scale=0.0)
    rq = gptq_round(w, gptq_factor(batch.xq @ batch.xq.T, NO_PERM), params, NO_PERM)
    assert np.array_equal(r0.codes, rq.codes)


def test_gptaq_and_gptq_match_reference_loop(rng):
    # the kernel on the shifted target against the per-column least-squares
    # loop (surrogate mode); at s = 0 the loop is plain GPTQ
    cases = 0
    for trial in range(120):
        n = int(rng.integers(2, 17))
        n_seq = n + int(rng.integers(2, 20))
        m = int(rng.integers(1, 7))
        act_order = bool(trial % 2)
        damping = (0.0, 0.01, 0.1)[trial % 3]
        s = (0.0, 0.25, 1.0)[(trial // 6) % 3]
        spec = GridSpec(bits=int(rng.integers(2, 5)), symmetric=bool((trial // 2) % 2))
        batch = make_batch(rng, n, n_seq, mismatch=0.5)
        w = rng.normal(size=(m, n))
        params = fit_grid(w, spec)
        cfg = SolverConfig(solver="gptaq", act_order=act_order)
        ref = gptaq_reference(w, batch, params, act_order, damping, s)
        got = gptaq_round(w, gptaq_factor(batch, cfg, damping), params, cfg, batch, s)
        assert np.array_equal(got.codes, ref.codes), f"trial {trial}"
        assert abs(got.proxy_loss - ref.proxy_loss) <= 1e-9 * max(1.0, ref.proxy_loss)
        if s == 0.0:
            stats = accumulate_stats(batch, AlphaStrategy(), damping=damping)
            gq = gptq_round(w, gptq_factor(stats.h, cfg), params, cfg)
            assert np.array_equal(gq.codes, ref.codes), f"trial {trial}"
        cases += 1
    assert cases >= 100


# --- cost sandwich ------------------------------------------------------


def test_oracle_lower_bounds_every_solver(rng):
    for _ in range(15):
        n = 5
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.2)
        l = cholesky(h)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        lv = [levels(0, j, params) for j in range(n)]
        orc = exhaustive_row(l.T, l.T @ w[0], lv)
        tol = 1e-9 * max(1.0, orc.best_cost)
        for res in (
            rtn_round(w, params, m_ref=w, fact=natural(l)),
            snrq_greedy(w, natural(l), params, NO_PERM),
            ksnrq_beam(w, natural(l), params, SolverConfig(act_order=False, beam_width=3)),
            gptq_round(w, gptq_factor(h, NO_PERM), params, NO_PERM),
        ):
            rec = proxy_row_scores(res.q_dequant, w, l).sum()
            assert orc.best_cost <= rec + tol
