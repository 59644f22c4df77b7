"""Calibration statistics, the interpolation identity, and weight selection."""

import numpy as np
import pytest

from snrq import (
    AlphaStrategy,
    CalibBatch,
    InvalidSpec,
    SeededRng,
    ShapeMismatch,
    SolverConfig,
    accumulate_stats,
    closed_form_alpha,
    decomposition_check,
    objective_direct,
    order_and_factor,
    shifted_target,
)
from snrq.calibration import gamma_weight, sample_folded_alphas

from conftest import random_batch


def full_rank_batch(rng, n=6, n_seq=24, mismatch=0.3):
    return random_batch(rng, n, n_seq, mismatch)


def factor(stats, act_order=False):
    return order_and_factor(stats.h, SolverConfig(act_order=act_order))


def test_alpha_zero_cross_moment_equals_h(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=0.0), damping=0.0)
    assert np.array_equal(stats.c_alpha, batch.xq @ batch.xq.T)
    assert np.array_equal(stats.h, batch.xq @ batch.xq.T)


def test_alpha_one_cross_moment(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=1.0), damping=0.0)
    assert np.array_equal(stats.c_alpha, batch.xf @ batch.xq.T)


def test_sampled_alphas_folded(rng):
    batch = full_rank_batch(rng, n_seq=500)
    stats = accumulate_stats(
        batch, AlphaStrategy(mode="sampled", beta_lambda=5.0), damping=0.0,
        rng=SeededRng(3, 0),
    )
    assert stats.alpha_trace.shape == (500,)
    assert np.all(stats.alpha_trace >= 0.0) and np.all(stats.alpha_trace <= 0.5)
    # cross moment matches the columnwise definition
    x_alpha = batch.xq + batch.delta * stats.alpha_trace[None, :]
    assert np.allclose(stats.c_alpha, x_alpha @ batch.xq.T, rtol=1e-15, atol=0)


def test_sampled_requires_rng(rng):
    with pytest.raises(InvalidSpec):
        accumulate_stats(full_rank_batch(rng), AlphaStrategy(mode="sampled"), 0.0, rng=None)


def test_relative_damping(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, AlphaStrategy(), damping=0.01)
    h0 = batch.xq @ batch.xq.T
    assert np.allclose(stats.h, h0 + 0.01 * np.mean(np.diag(h0)) * np.eye(6))


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ShapeMismatch):
        CalibBatch(xf=rng.normal(size=(3, 5)), xq=rng.normal(size=(4, 5)))


def test_mode_aliases():
    assert AlphaStrategy(mode="sample").mode == "sampled"
    with pytest.raises(ValueError):
        AlphaStrategy(mode="bogus")


# --- shifted target -----------------------------------------------------


def test_shifted_target_alpha_zero_is_w(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=0.0), damping=0.0)
    w = rng.normal(size=(4, 6))
    for act_order in (False, True):
        m = shifted_target(w, stats, factor(stats, act_order))
        assert np.allclose(m, w, rtol=1e-8, atol=1e-10)


def test_shifted_target_scalar_case():
    # W=2, X_f=3, X_q=2, alpha=1: minimize (6 - 2*v)^2 -> v = 3
    batch = CalibBatch(xf=np.array([[3.0]]), xq=np.array([[2.0]]))
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=1.0), damping=0.0)
    m = shifted_target(np.array([[2.0]]), stats, factor(stats))
    assert np.allclose(m, [[3.0]], rtol=1e-12)
    # cross-check by scanning the scalar objective
    grid = np.linspace(0.0, 5.0, 5001)
    losses = [(6.0 - 2.0 * v) ** 2 for v in grid]
    assert abs(grid[int(np.argmin(losses))] - 3.0) < 1e-3


def test_shifted_target_damping_bias(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=0.0), damping=0.05)
    w = rng.normal(size=(4, 6))
    fact = factor(stats, act_order=True)
    assert not np.array_equal(fact.perm, np.arange(6))
    m = shifted_target(w, stats, fact)
    # direct evaluation of W (H - lambda I) H^{-1}
    lam = stats.damping_abs
    expected = w @ (stats.h - lam * np.eye(6)) @ np.linalg.inv(stats.h)
    assert np.allclose(m, expected, rtol=1e-9)
    assert not np.allclose(m, w, rtol=1e-6, atol=0)


# --- direct objective and its decomposition ------------------------------


def test_objective_endpoints(rng):
    batch = full_rank_batch(rng)
    w = rng.normal(size=(3, 6))
    w_hat = w + 0.1 * rng.normal(size=(3, 6))
    assert objective_direct(w, w, batch, 0.0) == 0.0
    sym = np.sum(((w - w_hat) @ batch.xq) ** 2)
    asym = np.sum((w @ batch.xf - w_hat @ batch.xq) ** 2)
    assert np.isclose(objective_direct(w, w_hat, batch, 0.0), sym, rtol=1e-12)
    assert np.isclose(objective_direct(w, w_hat, batch, 1.0), asym, rtol=1e-12)


def test_decomposition_endpoints(rng):
    batch = full_rank_batch(rng)
    w = rng.normal(size=(3, 6))
    w_hat = w + 0.2 * rng.normal(size=(3, 6))
    lhs0, rhs0, c0 = decomposition_check(w, w_hat, batch, 0.0)
    assert c0 == 0.0 and np.isclose(lhs0, objective_direct(w, w_hat, batch, 0.0))
    lhs1, rhs1, c1 = decomposition_check(w, w_hat, batch, 1.0)
    assert c1 == 0.0 and np.isclose(lhs1, objective_direct(w, w_hat, batch, 1.0))


def test_decomposition_random_instances(rng):
    for _ in range(100):
        m, n, n_seq = (int(rng.integers(1, 9)) for _ in range(3))
        n_seq += 1
        batch = random_batch(rng, n, n_seq, mismatch=0.5)
        w = rng.normal(size=(m, n))
        w_hat = w + rng.normal(size=(m, n))
        alpha = float(rng.uniform())
        lhs, rhs, _ = decomposition_check(w, w_hat, batch, alpha)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs)


def test_proxy_equivalence_constant_in_w_hat(rng):
    # objective_direct - ||(w_hat - M) L||^2 is the same for every w_hat
    batch = full_rank_batch(rng, n=5, n_seq=20)
    w = rng.normal(size=(3, 5))
    alpha = 0.37
    stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=alpha), damping=0.0)
    fact = factor(stats)
    m_t = shifted_target(w, stats, fact)
    low = fact.low
    diffs = []
    for _ in range(10):
        w_hat = w + rng.normal(size=(3, 5))
        proxy = float(np.sum(((w_hat - m_t) @ low) ** 2))
        diffs.append(objective_direct(w, w_hat, batch, alpha) - proxy)
    scale = max(1.0, max(abs(d) for d in diffs))
    assert max(diffs) - min(diffs) <= 1e-7 * scale


# --- closed-form weight -------------------------------------------------


def test_closed_form_zero_when_exact():
    batch = CalibBatch(xf=np.array([[1.0, 2.0]]), xq=np.array([[0.5, 1.5]]))
    w = np.array([[1.0]])
    choice = closed_form_alpha(w, w, batch)
    assert not choice.degenerate
    assert choice.alpha == 0.0


def test_closed_form_scalar_clamped_high():
    # W=1, X_f=1.0, X_q=0.5, W_hat=2: U=0.5, V=-0.5, alpha*=1
    batch = CalibBatch(xf=np.array([[1.0]]), xq=np.array([[0.5]]))
    choice = closed_form_alpha(np.array([[1.0]]), np.array([[2.0]]), batch)
    assert choice.alpha == 1.0
    # grid scan confirms the objective decreases toward alpha = 1
    vals = [objective_direct([[1.0]], [[2.0]], batch, a) for a in np.linspace(0, 1, 101)]
    assert int(np.argmin(vals)) == 100


def test_closed_form_scalar_clamped_low():
    # W=1, X_f=1.0, X_q=0.5, W_hat=0.5: unconstrained -0.5, clamped to 0
    batch = CalibBatch(xf=np.array([[1.0]]), xq=np.array([[0.5]]))
    choice = closed_form_alpha(np.array([[1.0]]), np.array([[0.5]]), batch)
    assert choice.alpha == 0.0
    vals = [objective_direct([[1.0]], [[0.5]], batch, a) for a in np.linspace(0, 1, 101)]
    assert np.all(np.diff(vals) >= 0)  # increasing on [0, 1]


def test_closed_form_degenerate_flag(rng):
    xq = rng.normal(size=(3, 8))
    batch = CalibBatch(xf=xq.copy(), xq=xq)
    choice = closed_form_alpha(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), batch,
                               default_alpha=0.5)
    assert choice.degenerate and choice.alpha == 0.5


def test_closed_form_minimizes_over_grid(rng):
    for _ in range(50):
        batch = random_batch(rng, 4, 12, mismatch=0.6)
        w = rng.normal(size=(2, 4))
        w_hat = w + rng.normal(size=(2, 4))
        choice = closed_form_alpha(w, w_hat, batch)
        best = objective_direct(w, w_hat, batch, choice.alpha)
        grid_vals = [objective_direct(w, w_hat, batch, a) for a in np.linspace(0, 1, 101)]
        scale = max(1.0, max(grid_vals))
        assert best <= min(grid_vals) + 1e-9 * scale


def test_gamma_weight():
    assert gamma_weight(0.5) == 1.0
    xs = np.linspace(0.0, 0.99, 100)
    gs = [gamma_weight(x) for x in xs]
    assert np.all(np.diff(gs) > 0)
    assert gs[0] == 0.0


def test_folded_mean_stable_across_seeds():
    draws = sample_folded_alphas(100_000, 5.0, SeededRng(0, 0))
    se = float(draws.std()) / np.sqrt(100_000)
    means = [
        float(np.mean(sample_folded_alphas(100_000, 5.0, SeededRng(s, 0))))
        for s in (0, 1, 2)
    ]
    # a pairwise difference of two estimates has sd se*sqrt(2)
    assert max(means) - min(means) <= 3 * se * np.sqrt(2.0)


def test_module_wise_schedule():
    from snrq.calibration import module_wise_alpha_schedule

    assert module_wise_alpha_schedule(None, default_alpha=0.5) == 0.5
    # exact predecessor with a real mismatch drives the next weight to 0
    batch = CalibBatch(xf=np.array([[1.0, 2.0]]), xq=np.array([[0.5, 1.5]]))
    w = np.array([[1.0]])
    assert module_wise_alpha_schedule((w, w, batch), default_alpha=0.5) == 0.0


def test_module_wise_schedule_three_layer_chain(rng):
    # every scheduled weight stays in [0, 1] and matches an independent
    # recomputation from the saved features
    from snrq import closed_form_alpha as cfa
    from snrq.calibration import module_wise_alpha_schedule

    prev = None
    for _ in range(3):
        batch = random_batch(rng, 5, 20, mismatch=0.4)
        w = rng.normal(size=(3, 5))
        w_hat = w + 0.3 * rng.normal(size=(3, 5))
        a = module_wise_alpha_schedule(prev, default_alpha=0.5)
        assert 0.0 <= a <= 1.0
        if prev is not None:
            assert a == cfa(*prev, default_alpha=0.5).alpha
        prev = (w, w_hat, batch)
