"""Calibration statistics, the interpolation identity, and weight selection."""

import tracemalloc

import numpy as np
import pytest

from snrq import (
    AlphaStrategy,
    CalibBatch,
    InvalidSpec,
    NonFinite,
    SeededRng,
    ShapeMismatch,
    SolverConfig,
    accumulate_stats,
    closed_form_alpha,
    order_and_factor,
    shifted_target,
)
from snrq.calibration import sample_folded_alphas
from snrq.oracle import decomposition_check, objective_direct
from snrq.pipeline import RunConfig, module_wise_alpha_schedule

from conftest import random_batch, same_bits


def full_rank_batch(rng, n=6, n_seq=24, mismatch=0.3):
    return random_batch(rng, n, n_seq, mismatch)


def factor(stats, act_order=False):
    return order_and_factor(stats.h, SolverConfig(act_order=act_order))


def test_alpha_zero_cross_moment_equals_h(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, 0.0, damping=0.0)
    assert np.array_equal(stats.c_alpha, batch.xq @ batch.xq.T)
    assert np.array_equal(stats.h, batch.xq @ batch.xq.T)


def test_alpha_one_cross_moment(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, 1.0, damping=0.0)
    assert np.array_equal(stats.c_alpha, batch.xf @ batch.xq.T)


def test_sampled_alphas_folded(rng):
    batch = full_rank_batch(rng, n_seq=500)
    alphas = sample_folded_alphas(500, 5.0, SeededRng(3, 0))
    assert alphas.shape == (500,)
    assert np.all(alphas >= 0.0) and np.all(alphas <= 0.5)
    stats = accumulate_stats(batch, alphas, damping=0.0)
    # cross moment matches the columnwise definition
    x_alpha = batch.xq + batch.delta * alphas[None, :]
    assert np.allclose(stats.c_alpha, x_alpha @ batch.xq.T, rtol=1e-15, atol=0)


def test_scalar_weight_equals_a_constant_vector_bit_for_bit(rng):
    for _ in range(20):
        batch = random_batch(rng, int(rng.integers(1, 12)), int(rng.integers(1, 40)))
        a = float(rng.uniform())
        scalar = accumulate_stats(batch, a, 0.01)
        vector = accumulate_stats(batch, np.full(batch.n_sequences, a), 0.01)
        assert same_bits(scalar.c_alpha, vector.c_alpha)
        assert same_bits(scalar.h, vector.h)


@pytest.mark.parametrize("alphas", [np.full(23, 0.5), np.full(25, 0.5), np.full((1, 24), 0.5),
                                    np.full((24, 1), 0.5), np.zeros(0)],
                         ids=["short", "long", "row", "column", "empty"])
def test_weights_of_the_wrong_shape_are_rejected(rng, alphas):
    with pytest.raises(ShapeMismatch, match="24 sequences"):
        accumulate_stats(full_rank_batch(rng), alphas, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_rejected(rng, bad):
    batch = full_rank_batch(rng)
    with pytest.raises(NonFinite, match="weights"):
        accumulate_stats(batch, bad, 0.0)
    alphas = np.full(batch.n_sequences, 0.25)
    alphas[7] = bad
    with pytest.raises(NonFinite, match="weights"):
        accumulate_stats(batch, alphas, 0.0)


def test_relative_damping(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, 0.5, damping=0.01)
    h0 = batch.xq @ batch.xq.T
    assert np.allclose(stats.h, h0 + 0.01 * np.mean(np.diag(h0)) * np.eye(6))


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ShapeMismatch):
        CalibBatch(xf=rng.normal(size=(3, 5)), xq=rng.normal(size=(4, 5)))


def test_mode_aliases():
    # "sample" is a config file's spelling of "sampled": RunConfig.from_dict
    # reads it, and AlphaStrategy takes the canonical name only
    assert RunConfig.from_dict({"alpha": {"mode": "sample"}}).alpha.mode == "sampled"
    for mode in ("sample", "bogus"):
        with pytest.raises(InvalidSpec, match="alpha mode must be one of"):
            AlphaStrategy(mode=mode)


def test_beta_lambda_must_be_positive():
    AlphaStrategy(beta_lambda=1e-300)
    with pytest.raises(InvalidSpec, match="beta_lambda must be positive"):
        AlphaStrategy(beta_lambda=0.0)


@pytest.mark.parametrize("mode", [["fixed"], {}])
def test_non_string_mode_raises_invalid_spec(mode):
    with pytest.raises(InvalidSpec, match="alpha mode must be one of"):
        AlphaStrategy(mode=mode)


# --- shifted target -----------------------------------------------------


def test_shifted_target_alpha_zero_is_w(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, 0.0, damping=0.0)
    w = rng.normal(size=(4, 6))
    for act_order in (False, True):
        m = shifted_target(w, stats, factor(stats, act_order))
        assert np.allclose(m, w, rtol=1e-8, atol=1e-10)


def test_shifted_target_scalar_case():
    # W=2, X_f=3, X_q=2, alpha=1: minimize (6 - 2*v)^2 -> v = 3
    batch = CalibBatch(xf=np.array([[3.0]]), xq=np.array([[2.0]]))
    stats = accumulate_stats(batch, 1.0, damping=0.0)
    m = shifted_target(np.array([[2.0]]), stats, factor(stats))
    assert np.allclose(m, [[3.0]], rtol=1e-12)
    # cross-check by scanning the scalar objective
    grid = np.linspace(0.0, 5.0, 5001)
    losses = [(6.0 - 2.0 * v) ** 2 for v in grid]
    assert abs(grid[int(np.argmin(losses))] - 3.0) < 1e-3


def test_shifted_target_damping_bias(rng):
    batch = full_rank_batch(rng)
    stats = accumulate_stats(batch, 0.0, damping=0.05)
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
    stats = accumulate_stats(batch, alpha, damping=0.0)
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
    assert closed_form_alpha(w, w, batch) == 0.0


def test_closed_form_scalar_clamped_high():
    # W=1, X_f=1.0, X_q=0.5, W_hat=2: U=0.5, V=-0.5, alpha*=1
    batch = CalibBatch(xf=np.array([[1.0]]), xq=np.array([[0.5]]))
    assert closed_form_alpha(np.array([[1.0]]), np.array([[2.0]]), batch) == 1.0
    # grid scan confirms the objective decreases toward alpha = 1
    vals = [objective_direct([[1.0]], [[2.0]], batch, a) for a in np.linspace(0, 1, 101)]
    assert int(np.argmin(vals)) == 100


def test_closed_form_scalar_clamped_low():
    # W=1, X_f=1.0, X_q=0.5, W_hat=0.5: unconstrained -0.5, clamped to 0
    batch = CalibBatch(xf=np.array([[1.0]]), xq=np.array([[0.5]]))
    assert closed_form_alpha(np.array([[1.0]]), np.array([[0.5]]), batch) == 0.0
    vals = [objective_direct([[1.0]], [[0.5]], batch, a) for a in np.linspace(0, 1, 101)]
    assert np.all(np.diff(vals) >= 0)  # increasing on [0, 1]


def test_closed_form_degenerate_flag(rng):
    xq = rng.normal(size=(3, 8))
    batch = CalibBatch(xf=xq.copy(), xq=xq)
    # no mismatch: every weight is optimal, so the configured default comes back
    a = closed_form_alpha(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), batch,
                          default_alpha=0.3)
    assert a == 0.3


def test_closed_form_alpha_does_not_depend_on_the_scale(rng):
    # <V, U> and ||U||^2 scale alike, so weights and activations scaled by a
    # power of two give the same alpha: a vanishing U is an exact zero only,
    # not one below an absolute floor (which 2^-40 once fell under)
    batch = random_batch(rng, 4, 12, mismatch=0.6)
    w = rng.normal(size=(3, 4))
    # (w - w_hat) xq is about -0.3 U, so the optimum is inside (0, 1)
    w_hat = w + 0.3 * (w @ batch.delta) @ np.linalg.pinv(batch.xq)
    w_hat += 0.05 * rng.normal(size=w.shape)
    a = closed_form_alpha(w, w_hat, batch)
    assert 0.0 < a < 1.0 and a != 0.5
    s = 2.0 ** -40
    scaled = CalibBatch(xf=s * batch.xf, xq=s * batch.xq)
    assert closed_form_alpha(s * w, s * w_hat, scaled) == a


def test_closed_form_minimizes_over_grid(rng):
    for _ in range(50):
        batch = random_batch(rng, 4, 12, mismatch=0.6)
        w = rng.normal(size=(2, 4))
        w_hat = w + rng.normal(size=(2, 4))
        best = objective_direct(w, w_hat, batch, closed_form_alpha(w, w_hat, batch))
        grid_vals = [objective_direct(w, w_hat, batch, a) for a in np.linspace(0, 1, 101)]
        scale = max(1.0, max(grid_vals))
        assert best <= min(grid_vals) + 1e-9 * scale


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
    # exact predecessor with a real mismatch drives the next weight to 0
    batch = CalibBatch(xf=np.array([[1.0, 2.0]]), xq=np.array([[0.5, 1.5]]))
    w = np.array([[1.0]])
    assert module_wise_alpha_schedule(w, w, batch, 0.5) == 0.0


def test_module_wise_schedule_three_layer_chain(rng):
    # the weight the pipeline chooses at the end of each of three layers, for
    # the next one, stays in [0, 1] and is closed_form_alpha of that layer
    for _ in range(3):
        batch = random_batch(rng, 5, 20, mismatch=0.4)
        w = rng.normal(size=(3, 5))
        w_hat = w + 0.3 * rng.normal(size=(3, 5))
        a = module_wise_alpha_schedule(w, w_hat, batch, 0.5)
        assert 0.0 <= a <= 1.0
        assert a == closed_form_alpha(w, w_hat, batch, default_alpha=0.5)


# --- in-place intermediates -------------------------------------------


@pytest.mark.parametrize("mode", ["fixed", "closed_form", "sampled"])
def test_cross_moment_matches_the_plain_expression_bit_for_bit(rng, mode):
    # x_alpha is built in place; the float operations are those of the plain
    # expression, for the weights the pipeline passes in each alpha mode
    for trial in range(20):
        batch = random_batch(rng, int(rng.integers(1, 12)), int(rng.integers(1, 40)),
                             mismatch=float(rng.uniform(0.0, 2.0)))
        if mode == "sampled":
            alphas = sample_folded_alphas(batch.n_sequences, 5.0, SeededRng(trial, 0))
        elif mode == "closed_form":
            w = rng.normal(size=(3, batch.n_features))
            alphas = closed_form_alpha(w, w + rng.normal(size=w.shape), batch)
        else:
            alphas = float(rng.uniform())
        stats = accumulate_stats(batch, alphas, 0.01)
        xf, xq = batch.xf, batch.xq
        assert same_bits(stats.c_alpha, (xq + (xf - xq) * alphas) @ xq.T)


@pytest.mark.parametrize("damping", [0.0, 0.01, 1.0])
def test_damped_h_matches_the_plain_expression_bit_for_bit(rng, damping):
    # the damping is added to H's diagonal in place; signed zeros included
    # (rows of 0.0 and -0.0), H equals the product plus the damped identity
    for _ in range(20):
        batch = random_batch(rng, int(rng.integers(1, 12)), int(rng.integers(1, 40)))
        xq = batch.xq.copy()
        xq[rng.random(xq.shape[0]) < 0.3] = 0.0
        xq[rng.random(xq.shape[0]) < 0.3] = -0.0
        stats = accumulate_stats(CalibBatch(xf=batch.xf, xq=xq), 0.5, damping)
        h0 = xq @ xq.T
        damping_abs = damping * float(np.mean(np.diag(h0))) if damping > 0 else 0.0
        assert same_bits(stats.h, h0 + damping_abs * np.eye(xq.shape[0]))


def test_closed_form_matches_the_plain_expression_bit_for_bit(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        batch = random_batch(rng, n, int(rng.integers(1, 30)), mismatch=float(rng.uniform(0.01, 2.0)))
        w = rng.normal(size=(int(rng.integers(1, 6)), n))
        w_hat = w + rng.normal(size=w.shape)
        u = w @ (batch.xf - batch.xq)
        v = (w - w_hat) @ batch.xq
        expected = float(np.clip(-float(np.sum(v * u)) / float(np.sum(u * u)), 0.0, 1.0))
        assert same_bits(closed_form_alpha(w, w_hat, batch), expected)


def traced_peak(fn, *args) -> int:
    fn(*args)  # first call pays one-time imports and caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_accumulate_stats_allocates_one_activation(rng):
    # n = 64 features x N = 2048 sequences: one activation array is 1 MiB;
    # x_alpha is the only activation-sized array, the rest is n x n or N long;
    # a single weight (fixed and closed_form mode) allocates no more
    n, n_seq = 64, 2048
    batch = random_batch(rng, n, n_seq)
    for alphas in (sample_folded_alphas(n_seq, 5.0, SeededRng(0, 0)), 0.3):
        peak = traced_peak(accumulate_stats, batch, alphas, 0.01)
        assert peak <= 1.25 * n * n_seq * 8, "per-sequence" if np.ndim(alphas) else "scalar"


def test_closed_form_alpha_allocates_two_activations(rng):
    # u and v are activation-sized (m = n rows); the squares and products overwrite them
    n, n_seq = 64, 2048
    batch = random_batch(rng, n, n_seq)
    w = rng.normal(size=(n, n))
    w_hat = w + 0.1 * rng.normal(size=(n, n))
    peak = traced_peak(closed_form_alpha, w, w_hat, batch)
    assert peak <= 2.1 * n * n_seq * 8


def test_shifted_target_holds_two_weight_arrays(rng):
    # a weight-heavy layer, width 128 and 16 sequences: w and M are 128 KiB
    # each; the solve divides (w C)[:, perm] in place and M is allocated only
    # after it, so at most two m x n arrays are alive at once
    n = 128
    stats = accumulate_stats(random_batch(rng, n, 16), 0.3, 0.01)
    fact = factor(stats, act_order=True)
    w = rng.normal(size=(n, n))
    peak = traced_peak(shifted_target, w, stats, fact)
    assert peak <= 2.125 * n * n * 8
