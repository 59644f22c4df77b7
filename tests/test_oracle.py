"""Ground-truth machinery: enumeration, alpha scans, dithering Monte Carlo."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from snrq import (
    BudgetExceeded, GridSpec, InvalidSpec, NonFinite, SeededRng, cholesky, fit_grid, snrq_greedy,
)
from snrq.oracle import (
    levels,
    DitherSetup,
    alpha_grid_scan,
    dither_experiment,
    exhaustive_row,
    _ndtr,
)
from snrq.pipeline import folded_alpha_mean
from snrq.solvers import SolverConfig

from conftest import natural, random_batch, random_spd


def test_exhaustive_single_coordinate():
    res = exhaustive_row(np.array([[2.0]]), np.array([1.1]), [np.array([0.0, 0.5, 1.0])])
    # costs: (1.1 - 2v)^2 for v in {0, .5, 1}: 1.21, 0.01, 0.81
    assert res.best_codes.tolist() == [1]
    assert np.isclose(res.best_cost, 0.01)
    assert res.n_evaluated == 3


def test_exhaustive_two_column_instance():
    r_upper = np.array([[1.0, 0.6], [0.0, 1.0]])
    res = exhaustive_row(r_upper, np.array([1.0, 0.5]), [np.array([0.0, 1.0])] * 2)
    assert res.best_values.tolist() == [1.0, 0.0]
    assert np.isclose(res.best_cost, 0.25)
    assert res.n_evaluated == 4


def test_exhaustive_tie_break_lexicographic():
    # symmetric instance: (0,1) and (1,0) tie; lexicographically smaller wins
    r_upper = np.eye(2)
    res = exhaustive_row(r_upper, np.array([0.5, 0.5]), [np.array([0.0, 1.0])] * 2)
    assert res.best_codes.tolist() == [0, 0] or res.best_cost == 0.5
    # all four candidates cost 0.5; the first enumerated is (0, 0)
    assert res.best_codes.tolist() == [0, 0]


def test_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        exhaustive_row(np.eye(30), np.zeros(30), [np.array([0.0, 1.0])] * 30)


def test_exhaustive_every_cost_overflowing_is_non_finite():
    # every ||R q - y||^2 is inf, so no candidate can be the minimizer
    r_upper = np.diag([1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow itself is not reported as a warning
        with pytest.raises(NonFinite, match="overflows"):
            exhaustive_row(r_upper, np.array([1e200, 1e200]), [np.array([-1.0, 0.0, 0.5])] * 2)


def test_exhaustive_beats_greedy(rng):
    for _ in range(10):
        n = 4
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.2)
        l, inv = cholesky(h)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        g = snrq_greedy(w, natural(l, inv), params, SolverConfig(act_order=False))
        orc = exhaustive_row(l.T, l.T @ w[0], [levels(0, j, params) for j in range(n)])
        assert orc.best_cost <= g.proxy_loss + 1e-9


def test_alpha_scan_exact_weights_minimize_at_zero(rng):
    batch = random_batch(rng, 4, 16)
    w = rng.normal(size=(2, 4))
    scan = alpha_grid_scan(w, w, batch, 51)
    assert scan.alpha_best == 0.0


def test_alpha_scan_convex_and_matches_closed_form(rng):
    from snrq import closed_form_alpha

    for _ in range(10):
        batch = random_batch(rng, 4, 16, mismatch=0.5)
        w = rng.normal(size=(2, 4))
        w_hat = w + rng.normal(size=(2, 4))
        scan = alpha_grid_scan(w, w_hat, batch, 101)
        second = np.diff(scan.values, 2)
        scale = max(1.0, float(np.max(scan.values)))
        assert np.all(second >= -1e-9 * scale)
        assert abs(scan.alpha_best - closed_form_alpha(w, w_hat, batch)) <= 1.0 / 100 + 1e-12


def test_alpha_scan_needs_three_points(rng):
    with pytest.raises(InvalidSpec):
        alpha_grid_scan(np.ones((1, 2)), np.ones((1, 2)), random_batch(rng, 2, 4), 2)


# --- dithering ----------------------------------------------------------


def test_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(-40.0, 40.0, 20001), [0.0, -0.0, 1e-300, -1e-300]])
    assert np.max(np.abs(_ndtr(x) - ndtr(x))) <= 1e-15


def test_dither_symmetric_weight_degenerates():
    setup = DitherSetup(w=0.5, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=16, n_trials=2000)
    res = dither_experiment(setup, SeededRng(0, 0))
    assert res.var_fixed_closed == 0.0
    assert res.var_bound == 0.0
    assert res.var_fixed_hat == 0.0  # loss is constant when |1-w| == |w|


def test_dither_closed_form_value():
    setup = DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=64, n_trials=200_000)
    res = dither_experiment(setup, SeededRng(1, 0))
    assert np.isclose(res.var_fixed_closed, 0.04)
    assert abs(res.var_fixed_hat - 0.04) <= 5 * max(res.se_fixed_hat, 1e-12)


def test_dither_bound_halves_when_n_doubles():
    a = DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=100, n_trials=1)
    b = DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=200, n_trials=1)
    ra = dither_experiment(a, SeededRng(0, 0))
    rb = dither_experiment(b, SeededRng(0, 0))
    assert np.isclose(ra.var_bound, 2.0 * rb.var_bound, rtol=1e-12)


def test_dither_smoothed_variance_below_bound():
    setup = DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=64, n_trials=100_000)
    res = dither_experiment(setup, SeededRng(2, 0))
    assert res.var_smoothed_hat <= res.var_bound * (1 + 5 / np.sqrt(setup.n_trials))


def test_dither_setup_validation():
    with pytest.raises(InvalidSpec):
        DitherSetup(w=0.3, x=1.0, tau_z=0.0)
    with pytest.raises(InvalidSpec):
        DitherSetup(w=0.3, x=1.0, n_trials=0)


def test_folded_alpha_mean_reasonable():
    m = folded_alpha_mean(5.0, seed=0)
    assert 0.2 < m < 0.5  # folded Beta(5,5) mass sits below 1/2
