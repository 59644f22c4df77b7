"""Rounding solver contracts: greedy, lazy-batch, beam, CD, GPTQ, GPTAQ."""

import tracemalloc

import numpy as np
import pytest

from snrq import (
    CalibBatch,
    GridSpec,
    InvalidSpec,
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
    rtn_round,
    snrq_greedy,
)
from snrq import solvers
from snrq.grid import GridParams, dequantize, levels, round_to_grid
from snrq.oracle import (
    beam_reference, cd_reference, exhaustive_row, gptaq_reference, proxy_column_costs,
)
from snrq.solvers import RoundResult, _kernel_bytes, proxy_row_scores

from conftest import act_order_factor, natural, random_spd, same_bits

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
    return w, h, natural(*cholesky(h)), params


# --- permutation --------------------------------------------------------


def test_permutation_sorted_input_is_identity():
    h = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(order_and_factor(h, SolverConfig()).perm, [0, 1, 2])


def test_permutation_sorts_ascending():
    h = np.diag([3.0, 1.0, 2.0])
    assert np.array_equal(order_and_factor(h, SolverConfig()).perm, [1, 2, 0])


def test_permutation_stable_on_ties():
    h = np.diag([2.0, 2.0, 2.0])
    assert np.array_equal(order_and_factor(h, SolverConfig()).perm, [0, 1, 2])


# --- greedy -------------------------------------------------------------


def test_greedy_single_column(rng):
    w = rng.normal(size=(4, 1))
    l = np.array([[1.7]])
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    res = snrq_greedy(w, natural(l), params, NO_PERM)
    base = rtn_round(w, params, w, natural(np.eye(w.shape[1])))
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
    base = rtn_round(w, params, w, natural(np.eye(w.shape[1])))
    assert np.array_equal(res.codes, base.codes)


def test_greedy_proxy_matches_recomputation(rng):
    for cfg in (NO_PERM, PERM):
        w, h, fact, params = layer_instance(rng)
        res = snrq_greedy(w, order_and_factor(h, cfg), params, cfg)
        rec = proxy_row_scores(res.q_dequant, w, fact)
        assert np.allclose(res.per_row_scores, rec, rtol=1e-9)
        assert abs(res.proxy_loss - rec.sum()) <= 1e-9 * max(1.0, rec.sum())
        assert abs(res.per_row_scores.sum() - res.proxy_loss) <= 1e-9 * max(1.0, res.proxy_loss)


def test_proxy_row_scores_gathers_columns_in_factor_order(rng):
    # subtracting before the gather gives the same floats as subtracting gathered columns
    w, h, _, params = layer_instance(rng, m=6, n=12)
    h[np.diag_indices(12)] += np.linspace(0, 5, 12)[::-1]  # act_order permutes
    fact = order_and_factor(h, PERM)
    assert not np.array_equal(fact.perm, np.arange(12))
    q = snrq_greedy(w, fact, params, PERM).q_dequant
    el = (q[:, fact.perm] - w[:, fact.perm]) @ fact.low
    assert np.array_equal(proxy_row_scores(q, w, fact), np.sum(el * el, axis=1))


def test_rtn_scores_with_identity_factor_are_weight_error(rng):
    # m_ref = w and L = I score the plain weight-rounding error, bit for bit
    w = rng.normal(size=(7, 12)) * np.repeat([1.0, 30.0, 0.01], 4)[None, :]
    params = fit_grid(w, GridSpec(bits=3, symmetric=False, group_size=4))
    res = rtn_round(w, params, w, natural(np.eye(12)))
    assert np.array_equal(res.per_row_scores, np.sum((res.q_dequant - w) ** 2, axis=1))


def test_columnwise_decomposition_identity(rng):
    for _ in range(100):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        e = rng.normal(size=(m, n))
        l = cholesky(random_spd(rng, n))[0]
        cols = proxy_column_costs(e, l)
        full = float(np.sum((e @ l) ** 2))
        assert abs(cols.sum() - full) <= 1e-9 * max(1.0, full)


def test_rows_solved_independently_match_joint(rng):
    # every solver runs all rows of a layer in one pass; a row's codes must
    # not depend on which other rows share it
    m, n = 150, 12
    w, h, _, params = layer_instance(rng, m=m, n=n)
    h[np.diag_indices(n)] += np.linspace(0, 5, n)[::-1]  # act_order permutes
    fact = order_and_factor(h, PERM)
    gptq_fact = gptq_factor(h, PERM)
    lazy_cfg = SolverConfig(block_size=4)
    beam_cfg = SolverConfig(beam_width=3, block_size=4)

    def solve_all(w_rows, p):
        return [
            snrq_greedy(w_rows, fact, p, PERM),
            snrq_greedy(w_rows, fact, p, lazy_cfg),
            ksnrq_beam(w_rows, fact, p, beam_cfg),
            gptq_round(w_rows, gptq_fact, p, PERM),
            cd_refine(snrq_greedy(w_rows, fact, p, lazy_cfg), w_rows, fact, p, passes=2, block_size=4),
        ]

    joint = solve_all(w, params)
    for i in range(m):
        row_params = GridParams(
            scales=params.scales[i:i + 1], zero_points=params.zero_points[i:i + 1],
            spec=params.spec,
        )
        for name, one, all_rows in zip(("greedy", "lazy", "beam", "gptq", "cd"),
                                       solve_all(w[i:i + 1], row_params), joint):
            assert np.array_equal(one.codes[0], all_rows.codes[i]), f"{name}, row {i}"


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


# --- lazy batch ---------------------------------------------------------


def test_lazy_matches_greedy_all_block_sizes(rng):
    for trial in range(20):
        m, n = 16, 32
        w = rng.normal(size=(m, n))
        h = random_spd(rng, n)
        fact = order_and_factor(h, PERM)
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        ref = beam_reference(w, act_order_factor(h), params, 1)
        assert np.array_equal(snrq_greedy(w, fact, params, PERM).codes, ref), f"trial {trial}"
        for b in (1, 2, n // 2, n, n + 1):
            lazy = snrq_greedy(w, fact, params, SolverConfig(act_order=True, block_size=b))
            assert np.array_equal(lazy.codes, ref), f"trial {trial}, B={b}"


def test_lazy_block_larger_than_n(rng):
    w, h, fact, params = layer_instance(rng, m=3, n=7)
    ref = beam_reference(w, fact, params, 1)
    lazy = snrq_greedy(w, fact, params, SolverConfig(act_order=False, block_size=100))
    assert np.array_equal(lazy.codes, ref)


# --- beam search --------------------------------------------------------


def test_beam_k1_equals_greedy(rng):
    for _ in range(20):
        w, h, fact, params = layer_instance(rng, m=4, n=10)
        ref = beam_reference(w, fact, params, 1)
        for b in (1, 2, 5, 10, 11):
            cfg = SolverConfig(act_order=False, beam_width=1, block_size=b)
            assert np.array_equal(ksnrq_beam(w, fact, params, cfg).codes, ref), f"B={b}"


def test_k1_exact_tie_rounds_up_like_greedy():
    # both centers sit exactly between codes 0 and 1 of {0,1,2,3}; every
    # K = 1 solver takes the larger code, as nearest-level rounding does
    m_row = np.array([[0.5, 0.5]])
    l = np.eye(2)
    assert np.array_equal(beam_reference(m_row, natural(l), grid_01(), 1), [[1, 1]])
    for res in (
        snrq_greedy(m_row, natural(l), grid_01(), NO_PERM),
        snrq_greedy(m_row, natural(l), grid_01(), SolverConfig(act_order=False, block_size=1)),
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
    w, h, fact, params = layer_instance(rng, m=6, n=12)
    for k in (1, 2, 4):
        res = ksnrq_beam(w, fact, params, SolverConfig(act_order=False, beam_width=k))
        rec = proxy_row_scores(res.q_dequant, w, fact)
        assert np.allclose(res.per_row_scores, rec, rtol=1e-9, atol=1e-12)


def test_beam_saturation_equals_oracle(rng):
    for _ in range(10):
        n = 4
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.1)
        l, inv = cholesky(h)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        sat = ksnrq_beam(w, natural(l, inv), params, SolverConfig(act_order=False, beam_width=4 ** n))
        lv = [levels(0, j, params) for j in range(n)]
        orc = exhaustive_row(l.T, l.T @ w[0], lv)
        assert abs(sat.proxy_loss - orc.best_cost) <= 1e-9 * max(1.0, orc.best_cost)
        assert np.array_equal(sat.q_dequant[0], orc.best_values)


def test_beam_scores_nondecreasing_in_depth(rng):
    # final score of any beam run is at least the first decision's cost
    w, h, fact, params = layer_instance(rng, m=3, n=8)
    res = ksnrq_beam(w, fact, params, SolverConfig(act_order=False, beam_width=3))
    assert np.all(res.per_row_scores >= -1e-15)


def test_beam_memory_budget():
    w = np.zeros((64, 512))
    l = np.eye(512)
    params = fit_grid(np.ones((64, 512)), GridSpec(bits=8, symmetric=True))
    cfg = SolverConfig(act_order=False, beam_width=100_000, memory_budget_mb=64)
    with pytest.raises(MemoryBudget):
        ksnrq_beam(w, natural(l), params, cfg)


CHARGE_CASES = [
    (64, 128, 16, 32, False, 0), (200, 64, 8, 16, True, 0), (200, 96, 1, 32, True, 0),
    (200, 32, 1, 1, True, 0),
    (128, 128, 4, 32, True, 0),  # the beam_cd layer shape
    (128, 128, 4, 32, True, 32), (200, 96, 1, 32, True, 32),  # grouped grids are gathered
]


@pytest.mark.parametrize("m,n,k,bsz,act_order,group_size", CHARGE_CASES, ids=[
    "-".join(map(str, case[:5])) + (f"-group{case[5]}" if case[5] else "") for case in CHARGE_CASES])
def test_beam_memory_charge_bounds_measured_peak(rng, m, n, k, bsz, act_order, group_size):
    # the charge covers the state of all m*K beams, which one pass holds at once;
    # on the 3-bit grid, K = 8 and K = 16 make every one of the 2^3 levels a candidate
    w, h, _, _ = layer_instance(rng, m=m, n=n)
    params = fit_grid(w, GridSpec(bits=3, symmetric=True, group_size=group_size))
    cfg = SolverConfig(act_order=act_order, beam_width=k, block_size=bsz)
    fact = order_and_factor(h, cfg)
    ksnrq_beam(w, fact, params, cfg)  # first call pays one-time imports and caches
    tracemalloc.start()
    try:
        ksnrq_beam(w, fact, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = _kernel_bytes(m, n, k, bsz, params.spec)
    assert peak <= charge <= 2 * peak


def test_beam_exact_tie_keeps_lower_parent_and_level():
    # H = I and centers exactly between codes 0 and 1 of {0,1,2,3}: every
    # candidate pair ties, and K = 2 keeps the lower level, so the codes are
    # 0 where greedy (K = 1) rounds up to 1
    m_row = np.array([[0.5, 0.5]])
    cfg = SolverConfig(act_order=False, beam_width=2)
    res = ksnrq_beam(m_row, natural(np.eye(2)), grid_01(), cfg)
    assert np.array_equal(res.codes, [[0, 0]])
    assert res.proxy_loss == 0.5
    # L = [[1, 0], [0.5, 1]], target (1, 0.5): column 1 keeps codes 0 and 1 as
    # parents 0 and 1 (score 0.25 each); their centers for column 0 are 1.25
    # and 0.75, so (parent 0, code 1) and (parent 1, code 1) tie at 0.3125,
    # and the lower parent is the final beam
    l = np.array([[1.0, 0.0], [0.5, 1.0]])
    res = ksnrq_beam(np.array([[1.0, 0.5]]), natural(l), grid_01(), cfg)
    assert np.array_equal(res.codes, [[1, 0]])
    assert res.proxy_loss == 0.3125


def test_beam_matches_reference(rng):
    # the closed-form (K + 1)-code window against the 2K - 1 codes around the
    # nearest level, one row and one column at a time
    for trial in range(150):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        k, bits = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        divs = [g for g in range(2, n) if n % g == 0]
        group = int(rng.choice(divs)) if divs and trial % 3 == 0 else 0
        spec = GridSpec(bits=bits, symmetric=bool(trial % 2), group_size=group)
        cfg = SolverConfig(act_order=trial % 4 < 2, beam_width=k, block_size=int(rng.integers(1, n + 2)))
        w = rng.normal(size=(m, n))
        target = w + 0.3 * rng.normal(size=(m, n))
        params = fit_grid(w, spec)
        fact = order_and_factor(random_spd(rng, n, 0.3), cfg)
        codes = ksnrq_beam(target, fact, params, cfg).codes
        assert np.array_equal(codes, beam_reference(target, fact, params, k)), trial
    # exact ties: quarter-integer targets on a half-step grid, L = I or with
    # dyadic entries below the diagonal, so every score is exact
    for trial in range(150):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        k, bits = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        spec = GridSpec(bits=bits, symmetric=bool(trial % 2))
        params = GridParams(
            scales=np.full((m, 1), 0.5),
            zero_points=np.full((m, 1), 0 if spec.symmetric else 1 << (bits - 1), dtype=np.int32),
            spec=spec,
        )
        target = rng.integers(-8, 9, size=(m, n)) / 4
        low = np.eye(n)
        if trial % 2:
            low[np.tril_indices(n, -1)] = rng.integers(-2, 3, size=n * (n - 1) // 2) / 4
        cfg = SolverConfig(act_order=False, beam_width=k, block_size=int(rng.integers(1, n + 2)))
        codes = ksnrq_beam(target, natural(low), params, cfg).codes
        assert np.array_equal(codes, beam_reference(target, natural(low), params, k)), trial


# --- coordinate descent -------------------------------------------------


def test_cd_zero_passes_is_noop(rng):
    w, h, fact, params = layer_instance(rng)
    res = snrq_greedy(w, fact, params, NO_PERM)
    out = cd_refine(res, w, fact, params, passes=0, block_size=4)
    assert out is res


def test_cd_rejects_negative_passes_and_empty_blocks(rng):
    w, h, fact, params = layer_instance(rng)
    res = snrq_greedy(w, fact, params, NO_PERM)
    for passes, bsz in ((-1, 4), (1, 0)):
        with pytest.raises(InvalidSpec):
            cd_refine(res, w, fact, params, passes, bsz)


def test_cd_monotone_trajectory(rng):
    for _ in range(10):
        w, h, fact, params = layer_instance(rng, m=4, n=10)
        res = rtn_round(w, params, m_ref=w, fact=fact)
        out = cd_refine(res, w, fact, params, passes=3, block_size=4)
        traj = out.objective_trajectory
        assert np.all(np.diff(traj) <= 0.0)
        rec = proxy_row_scores(out.q_dequant, w, fact).sum()
        assert abs(traj[-1] - rec) <= 1e-9 * max(1.0, rec)


def test_cd_trajectory_is_objective_after_each_pass(rng):
    # entry 0 is the starting objective and entry p the proxy objective of
    # the codes a p-pass run returns
    for _ in range(10):
        m, n = int(rng.integers(1, 20)), int(rng.integers(2, 12))
        w, h, _, params = layer_instance(rng, m=m, n=n)
        fact = order_and_factor(h, PERM)
        start = rtn_round(w, params, m_ref=w, fact=fact)
        bsz = int(rng.integers(1, n + 2))
        traj = cd_refine(start, w, fact, params, 3, bsz).objective_trajectory
        assert 2 <= traj.size <= 4
        assert np.isclose(traj[0], proxy_row_scores(start.q_dequant, w, fact).sum(), rtol=1e-9)
        for p in range(1, traj.size):
            codes = cd_refine(start, w, fact, params, p, bsz).codes
            obj = proxy_row_scores(dequantize(codes, params), w, fact).sum()
            assert np.isclose(traj[p], obj, rtol=1e-9, atol=1e-12), p


def test_cd_cannot_leave_global_optimum(rng):
    n = 4
    w = rng.normal(size=(1, n))
    h = random_spd(rng, n, ridge=0.1)
    l, inv = cholesky(h)
    params = fit_grid(w, GridSpec(bits=2, symmetric=True))
    sat = ksnrq_beam(w, natural(l, inv), params, SolverConfig(act_order=False, beam_width=4 ** n))
    out = cd_refine(sat, w, natural(l, inv), params, passes=4, block_size=2)
    assert np.array_equal(out.codes, sat.codes)
    assert np.isclose(out.proxy_loss, sat.proxy_loss, rtol=1e-9)


def test_cd_on_greedy_suboptimal_instance():
    l = np.array([[1.0, 0.0], [0.6, 1.0]])
    m_row = np.linalg.solve(l.T, np.array([1.0, 0.5]))[None, :]
    greedy = snrq_greedy(m_row, natural(l), grid_01(), NO_PERM)
    out = cd_refine(greedy, m_row, natural(l), grid_01(), passes=1, block_size=1)
    assert out.proxy_loss <= 0.41 + 1e-12
    assert np.all(np.diff(out.objective_trajectory) <= 1e-15)


def test_cd_matches_reference(rng):
    # cd_refine (round_to_grid of the conditional center, blocked on the
    # gradient) against the brute-force level scan of the full objective
    for trial in range(120):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 13))
        divs = [g for g in range(2, n) if n % g == 0]
        group = int(rng.choice(divs)) if divs and trial % 4 >= 2 else 0
        spec = GridSpec(bits=int(rng.integers(2, 9)), symmetric=bool(trial % 2), group_size=group)
        cfg = SolverConfig(act_order=bool((trial // 4) % 2), beam_width=2)
        w = rng.normal(size=(m, n))
        target = w + 0.3 * rng.normal(size=(m, n))
        params = fit_grid(w, spec)
        fact = order_and_factor(random_spd(rng, n, 0.3), cfg)
        start = (rtn_round(w, params, m_ref=target, fact=fact),
                 snrq_greedy(target, fact, params, cfg),
                 ksnrq_beam(target, fact, params, cfg))[trial % 3]
        passes = 1 + trial % 3
        ref = cd_reference(start.codes, target, fact, params, passes)
        for bsz in (1, 2, n // 2, n, n + 1):
            runs = [cd_refine(start, target, fact, params, p, bsz) for p in range(1, passes + 1)]
            out = runs[-1]
            assert np.array_equal(out.codes, ref), (trial, bsz)
            assert out.q_dequant.tobytes() == dequantize(out.codes, params).tobytes()
            # each move adds h_jj * gain <= 0 to its row's score, so no row's
            # score rises in a pass, exactly; the start is scored as the proxy
            before = proxy_row_scores(start.q_dequant, target, fact)
            assert np.all(runs[0].per_row_scores <= before * (1 + 1e-9) + 1e-12), (trial, bsz)
            for prev, cur in zip(runs, runs[1:]):
                assert np.all(cur.per_row_scores <= prev.per_row_scores), (trial, bsz)
    # exact ties on {0,1,2,3} with H = I: both sides take the larger code (3.5 clamps to 3)
    for row in ([0.5, 0.5], [1.5, 2.5], [0.5, 3.5]):
        target = np.array([row])
        for codes in ([[0, 0]], [[3, 3]], [[0, 3]]):
            codes = np.array(codes, dtype=np.int32)
            start = RoundResult(codes, dequantize(codes, grid_01()), np.zeros(1))
            ref = cd_reference(codes, target, natural(np.eye(2)), grid_01(), passes=2)
            assert np.array_equal(ref, np.minimum(np.ceil(target), 3))
            for bsz in (1, 2, 3):
                out = cd_refine(start, target, natural(np.eye(2)), grid_01(), 2, bsz)
                assert np.array_equal(out.codes, ref)
                assert out.q_dequant.tobytes() == dequantize(out.codes, grid_01()).tobytes()


def test_cd_stops_at_exact_fixed_point(rng, monkeypatch):
    # a pass that moves no code changes nothing, so it is the last one: its
    # entry repeats the one before it, and passes=5 gives the codes, scores
    # and trajectory of a run that ends at that pass, and the codes of the
    # reference, which runs every pass
    stopped = 0
    for trial in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 13))
        w, h, _, params = layer_instance(rng, m=m, n=n)
        fact = order_and_factor(h, PERM)
        bsz = int(rng.integers(1, n + 2))
        runs = [rtn_round(w, params, m_ref=w, fact=fact)]
        runs += [cd_refine(runs[0], w, fact, params, p, bsz) for p in range(1, 6)]
        full = runs[5]
        assert np.array_equal(full.codes, cd_reference(runs[0].codes, w, fact, params, 5))
        last = next((p for p in range(1, 6) if np.array_equal(runs[p].codes, runs[p - 1].codes)), None)
        for p in range(1, 6):
            traj = runs[p].objective_trajectory
            assert traj.shape == (1 + (p if last is None else min(p, last)),), (trial, p)
            assert np.array_equal(full.objective_trajectory[:traj.size], traj), (trial, p)
        if last is None:
            continue
        stopped += 1
        for run in runs[last:]:  # every run of at least `last` passes ends at pass `last`
            traj = run.objective_trajectory
            assert traj[-1] == traj[-2]
            assert np.array_equal(traj, full.objective_trajectory)
            assert np.array_equal(run.codes, runs[last].codes)
            assert np.array_equal(run.per_row_scores, runs[last].per_row_scores)
    assert stopped >= 20
    # from a converged start one pass runs (one scan of each block, which
    # finds no move), and its entry is the starting objective
    scans = []

    def counted(*args):
        scans.append(1)
        return round_to_grid(*args)

    monkeypatch.setattr(solvers, "round_to_grid", counted)
    again = cd_refine(full, w, fact, params, 3, bsz)
    assert len(scans) == -(-w.shape[1] // bsz)
    assert np.array_equal(again.codes, full.codes)
    assert again.objective_trajectory.shape == (2,)
    assert again.objective_trajectory[1] == again.objective_trajectory[0]


# --- gptq ---------------------------------------------------------------


def test_gptq_diagonal_h_is_rtn(rng):
    w = rng.normal(size=(5, 9))
    h = np.diag(rng.uniform(0.5, 3.0, size=9))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    res = gptq_round(w, gptq_factor(h, NO_PERM), params, NO_PERM)
    base = rtn_round(w, params, w, natural(np.eye(w.shape[1])))
    assert np.array_equal(res.codes, base.codes)


def test_gptq_single_column(rng):
    w = rng.normal(size=(4, 1))
    res = gptq_round(w, gptq_factor(np.array([[2.0]]), NO_PERM), fit_grid(w, GridSpec(bits=3)), NO_PERM)
    base = rtn_round(w, fit_grid(w, GridSpec(bits=3)), w, natural(np.eye(1)))
    assert np.array_equal(res.codes, base.codes)


def test_gptq_equals_greedy_at_alpha_zero(rng):
    # damping 0, well-conditioned H, act_order on both sides; the greedy
    # reference factors the permuted H with numpy
    for _ in range(20):
        w, h, _, params = layer_instance(rng, m=8, n=16, ridge=16.0)
        r_snrq = snrq_greedy(w, order_and_factor(h, PERM), params, PERM)
        r_gptq = gptq_round(w, gptq_factor(h, PERM), params, PERM)
        assert np.array_equal(r_snrq.codes, r_gptq.codes)
        assert np.array_equal(r_gptq.codes, beam_reference(w, act_order_factor(h), params, 1))


# --- gptaq ---------------------------------------------------------------


def make_batch(rng, n, n_seq, mismatch):
    xq = rng.normal(size=(n, n_seq))
    return CalibBatch(xf=xq + mismatch * rng.normal(size=(n, n_seq)), xq=xq)


def gptaq_factor(batch, cfg, damping=0.0):
    """The layer factor the pipeline builds for gptaq from this batch."""
    stats = accumulate_stats(batch, 0.5, damping=damping)
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
            stats = accumulate_stats(batch, 0.5, damping=damping)
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
        l, inv = cholesky(h)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        lv = [levels(0, j, params) for j in range(n)]
        orc = exhaustive_row(l.T, l.T @ w[0], lv)
        tol = 1e-9 * max(1.0, orc.best_cost)
        for res in (
            rtn_round(w, params, m_ref=w, fact=natural(l, inv)),
            snrq_greedy(w, natural(l, inv), params, NO_PERM),
            ksnrq_beam(w, natural(l, inv), params, SolverConfig(act_order=False, beam_width=3)),
            gptq_round(w, gptq_factor(h, NO_PERM), params, NO_PERM),
        ):
            rec = proxy_row_scores(res.q_dequant, w, natural(l, inv)).sum()
            assert orc.best_cost <= rec + tol


# --- in-place intermediates ---------------------------------------------


def test_proxy_scores_match_the_plain_expression_bit_for_bit(rng):
    for _ in range(30):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        w, h, _, params = layer_instance(rng, m=m, n=n)
        fact = order_and_factor(h, PERM)
        q = rtn_round(w, params, m_ref=w, fact=fact).q_dequant
        el = (q - w)[:, fact.perm] @ fact.low
        assert same_bits(proxy_row_scores(q, w, fact), np.sum(el * el, axis=1))


@pytest.mark.parametrize("act_order", [False, True])
def test_gptaq_scores_match_the_plain_expression_bit_for_bit(rng, act_order):
    cfg = SolverConfig(solver="gptaq", act_order=act_order)
    for _ in range(20):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 40))
        batch = make_batch(rng, n, int(rng.integers(n, 3 * n + 2)), float(rng.uniform(0.0, 1.0)))
        w = rng.normal(size=(m, n))
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        scale = float(rng.uniform(0.0, 2.0))
        res = gptaq_round(w, gptaq_factor(batch, cfg, damping=0.01), params, cfg, batch, scale)
        resid = (res.q_dequant - w) @ batch.xq - scale * (w @ (batch.xf - batch.xq))
        assert same_bits(res.per_row_scores, np.sum(resid * resid, axis=1))


@pytest.mark.parametrize("act_order", [False, True])
@pytest.mark.parametrize("spec", [
    GridSpec(bits=3), GridSpec(bits=3, group_size=4),
    GridSpec(bits=4, symmetric=False), GridSpec(bits=4, symmetric=False, group_size=4),
], ids=["per_channel", "grouped", "asymmetric", "asymmetric_grouped"])
def test_q_dequant_is_dequantize_of_codes_bit_for_bit(rng, spec, act_order):
    # the pipeline keeps a finished layer as its codes and grid, and its
    # held-out pass dequantizes them again: every solver's values, with and
    # without CD passes, are dequantize(codes) byte for byte
    m, n = 7, 16
    for trial in range(4):
        w = rng.normal(size=(m, n))
        batch = make_batch(rng, n, 40, 0.5)
        params = fit_grid(w, spec)
        target = w + 0.3 * rng.normal(size=(m, n))
        for solver, k in (("rtn", 1), ("snrq", 1), ("ksnrq", 2), ("ksnrq", 4), ("gptq", 1), ("gptaq", 1)):
            cfg = SolverConfig(solver=solver, beam_width=k, block_size=4, act_order=act_order)
            fact = order_and_factor(accumulate_stats(batch, 0.5).h, cfg)
            result = {
                "rtn": lambda: rtn_round(w, params, target, fact),
                "snrq": lambda: snrq_greedy(target, fact, params, cfg),
                "ksnrq": lambda: ksnrq_beam(target, fact, params, cfg),
                "gptq": lambda: gptq_round(w, fact, params, cfg),
                "gptaq": lambda: gptaq_round(w, fact, params, cfg, batch, 0.25),
            }[solver]()
            for passes in (0, 2):
                out = cd_refine(result, target, fact, params, passes, cfg.block_size)
                assert same_bits(out.q_dequant, dequantize(out.codes, params)), (trial, solver, k, passes)


def test_kernel_unit_lower_factor_matches_the_plain_expression_bit_for_bit(rng, monkeypatch):
    # the kernel zeroes the diagonal of low / diag(low) in place; since x / x is
    # exactly 1, that equals low / diag(low) - I bit for bit
    seen = []
    fill_diagonal = np.fill_diagonal

    def spy(a, val, wrap=False):
        fill_diagonal(a, val, wrap)
        seen.append(a.copy())

    monkeypatch.setattr(np, "fill_diagonal", spy)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        n = int(rng.integers(1, 70))
        w, h, _, params = layer_instance(rng, m=3, n=n)
        fact = order_and_factor(scale * h, PERM)
        snrq_greedy(w, fact, params, PERM)
        low = fact.low
        assert len(seen) == 1
        assert same_bits(seen.pop(), low / np.diag(low)[None, :] - np.eye(n))
