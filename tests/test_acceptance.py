"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned in each test; the printed timing is
informational.
"""

import json
import time

import numpy as np
import pytest

from snrq import (
    AlphaStrategy,
    CalibBatch,
    GridSpec,
    SeededRng,
    SolverConfig,
    accumulate_stats,
    cd_refine,
    cholesky,
    closed_form_alpha,
    decomposition_check,
    fit_grid,
    gptaq_round,
    gptq_round,
    ksnrq_beam,
    objective_direct,
    order_and_factor,
    rtn_round,
    shifted_target,
    snrq_greedy,
    snrq_lazy,
)
from snrq.grid import GridParams, levels
from snrq.oracle import (
    DitherSetup,
    alpha_grid_scan,
    dither_experiment,
    exhaustive_row,
    gptaq_reference,
    greedy_reference,
    sample_folded_alphas,
)
from snrq.pipeline import (
    CalibrationConfig,
    NetworkConfig,
    RunConfig,
    determinism_hash,
    quantize_network,
    strip_timing,
    synth_network,
)
from snrq.solvers import proxy_column_costs

from conftest import natural, random_batch, random_spd


def report_line(cid: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{cid}] {status} {detail} ({time.perf_counter() - t0:.2f}s)")


def grid_01():
    return GridParams(
        scales=np.array([[1.0]]),
        zero_points=np.array([[0]], dtype=np.int32),
        spec=GridSpec(bits=2, symmetric=False),
    )


def test_c01_decomposition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        n_seq = int(rng.integers(1, 33))
        batch = random_batch(rng, n, n_seq, mismatch=0.5)
        w = rng.normal(size=(m, n))
        w_hat = w + rng.normal(size=(m, n))
        alpha = float(rng.uniform())
        lhs, rhs, _ = decomposition_check(w, w_hat, batch, alpha)
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    ok = worst <= 1e-8
    report_line("C01", ok, f"decomposition identity, 100 instances, max rel err {worst:.2e}", t0)
    assert ok


def test_c02_proxy_constant_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 8))
        n_seq = n + int(rng.integers(4, 24))  # full row rank so H is PD undamped
        batch = random_batch(rng, n, n_seq, mismatch=0.5)
        alpha = float(rng.uniform())
        w = rng.normal(size=(m, n))
        stats = accumulate_stats(batch, AlphaStrategy(mode="fixed", alpha_value=alpha), damping=0.0)
        fact = order_and_factor(stats.h, SolverConfig(act_order=False))
        m_t = shifted_target(w, stats, fact)
        low = fact.low
        diffs = []
        for _ in range(10):
            w_hat = w + rng.normal(size=(m, n))
            proxy = float(np.sum(((w_hat - m_t) @ low) ** 2))
            diffs.append(objective_direct(w, w_hat, batch, alpha) - proxy)
        scale = max(1.0, max(abs(d) for d in diffs))
        worst = max(worst, (max(diffs) - min(diffs)) / scale)
    ok = worst <= 1e-7
    report_line("C02", ok, f"proxy-constant identity, 20 instances, max spread {worst:.2e}", t0)
    assert ok


def test_c03_closed_form_alpha_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    worst_gap = -np.inf
    worst_convex = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 8))
        batch = random_batch(rng, n, int(rng.integers(4, 20)), mismatch=0.6)
        w = rng.normal(size=(3, n))
        w_hat = w + rng.normal(size=(3, n))
        choice = closed_form_alpha(w, w_hat, batch)
        scan = alpha_grid_scan(w, w_hat, batch, 101)
        scale = max(1.0, float(np.max(scan.values)))
        gap = objective_direct(w, w_hat, batch, choice.alpha) - float(np.min(scan.values))
        worst_gap = max(worst_gap, gap / scale)
        second = np.diff(scan.values, 2)
        worst_convex = min(worst_convex, float(np.min(second)) / scale)
        ok = ok and gap <= 1e-9 * scale and np.all(second >= -1e-9 * scale)
    report_line(
        "C03", ok,
        f"closed-form alpha optimal on 50 instances (worst gap {worst_gap:.2e}, "
        f"worst curvature {worst_convex:.2e})", t0,
    )
    assert ok


def test_c04_sampling_rule_range():
    t0 = time.perf_counter()
    ok = True
    for lam in (1.0, 2.0, 5.0, 10.0, 20.0):
        draws = sample_folded_alphas(100_000, lam, SeededRng(104, int(lam)))
        ok = ok and bool(np.all(draws >= 0.0) and np.all(draws <= 0.5))
    report_line("C04", ok, "folded Beta draws within [0, 1/2] for lambda in {1,2,5,10,20}", t0)
    assert ok


def test_c05_greedy_beam_oracle_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    ok = True
    max_n = 6
    for trial in range(200):
        n = int(rng.integers(2, max_n + 1))
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.2)
        low = cholesky(h)
        fact = natural(low)
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        cfg = lambda k: SolverConfig(act_order=False, beam_width=k)
        greedy = snrq_greedy(w, fact, params, SolverConfig(act_order=False))
        ref = greedy_reference(w, low, params)
        orc = exhaustive_row(low.T, low.T @ w[0], [levels(0, j, params) for j in range(n)])
        tol = 1e-9 * max(1.0, orc.best_cost)
        beam1 = ksnrq_beam(w, fact, params, cfg(1))
        ok = ok and np.array_equal(greedy.codes, ref) and np.array_equal(beam1.codes, ref)
        for k in (2, 4):
            bk = ksnrq_beam(w, fact, params, cfg(k))
            ok = ok and orc.best_cost <= bk.proxy_loss + tol
            ok = ok and bk.proxy_loss <= greedy.proxy_loss + tol
        sat = ksnrq_beam(w, fact, params, cfg(4 ** n))
        ok = ok and abs(sat.proxy_loss - orc.best_cost) <= tol
        if not ok:
            break
    report_line("C05", ok, "oracle <= beam(K) <= greedy on 200 rows; saturation exact; K=1 == greedy reference", t0)
    assert ok


def test_c06_beam_improves_known_instance():
    t0 = time.perf_counter()
    low = np.array([[1.0, 0.0], [0.6, 1.0]])
    m_row = np.linalg.solve(low.T, np.array([1.0, 0.5]))[None, :]
    greedy = snrq_greedy(m_row, natural(low), grid_01(), SolverConfig(act_order=False))
    beam = ksnrq_beam(m_row, natural(low), grid_01(), SolverConfig(act_order=False, beam_width=2))
    ok = (
        abs(greedy.proxy_loss - 0.41) <= 1e-12
        and abs(beam.proxy_loss - 0.25) <= 1e-12
        and np.array_equal(greedy.codes, [[0, 1]])
        and np.array_equal(beam.codes, [[1, 0]])
    )
    report_line("C06", ok, f"known instance: greedy {greedy.proxy_loss:.2f}, K=2 {beam.proxy_loss:.2f}", t0)
    assert ok


def test_c07_lazy_batch_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    m, n = 16, 32
    ok = True
    for _ in range(20):
        w = rng.normal(size=(m, n))
        h = random_spd(rng, n)
        fact = order_and_factor(h, SolverConfig(act_order=True))
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        ref = greedy_reference(w, cholesky(h), params, act_order=True)
        ok = ok and np.array_equal(snrq_greedy(w, fact, params, SolverConfig(act_order=True)).codes, ref)
        for b in (1, 2, n // 2, n, n + 1):
            lazy = snrq_lazy(w, fact, params, SolverConfig(act_order=True, block_size=b))
            ok = ok and np.array_equal(lazy.codes, ref)
    report_line("C07", ok, "greedy and lazy-batch codes equal the greedy reference for B in "
                "{1,2,n/2,n,n+1}, 20 layers", t0)
    assert ok


def test_c08_gptq_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(20):
        m, n = 8, 16
        w = rng.normal(size=(m, n))
        h = random_spd(rng, n, ridge=float(n))  # well conditioned
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        cfg = SolverConfig(act_order=True)
        gptq_cfg = SolverConfig(solver="gptq", act_order=True)
        gptq = gptq_round(w, order_and_factor(h, gptq_cfg), params, gptq_cfg).codes
        # alpha = 0: the target is W; the reference factors the permuted H with numpy
        ok = ok and np.array_equal(gptq, greedy_reference(w, np.linalg.cholesky(h), params, act_order=True))
        ok = ok and np.array_equal(gptq, snrq_greedy(w, order_and_factor(h, cfg), params, cfg).codes)
    report_line("C08", ok, "gptq codes equal the greedy reference and snrq at alpha=0, damping 0, "
                "20 instances", t0)
    assert ok


def test_c09_gptaq_surrogate_proposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    n, n_seq = 6, 12
    cfg = SolverConfig(solver="gptaq", act_order=False)

    def gptaq_factor(batch):  # undamped, left to right
        return order_and_factor(batch.xq @ batch.xq.T, cfg)

    # constructed: orthogonal student rows, mismatch parallel to row 0 only,
    # which forces the omitted term orthogonal to every trailing block
    q, _ = np.linalg.qr(rng.normal(size=(n_seq, n_seq)))
    xq = q[:n, :] * rng.uniform(1.0, 2.0, size=(n, 1))
    dx = np.zeros_like(xq)
    dx[0] = 0.7 * xq[0]
    batch = CalibBatch(xf=xq + dx, xq=xq)
    w = rng.normal(size=(4, n))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    sur = gptaq_round(w, gptaq_factor(batch), params, cfg, batch)
    exa = gptaq_reference(w, batch, params, exact=True)
    constructed_ok = np.array_equal(sur.codes, exa.codes) and (
        abs(sur.proxy_loss - exa.proxy_loss) <= 1e-9 * max(1.0, exa.proxy_loss)
    )

    # generic: dense mismatch, solutions differ and the surrogate pays a
    # positive gap in the exact asymmetric objective
    xq = rng.normal(size=(n, n_seq))
    batch = CalibBatch(xf=xq + 0.5 * rng.normal(size=(n, n_seq)), xq=xq)
    w = rng.normal(size=(4, n))
    params = fit_grid(w, GridSpec(bits=3, symmetric=True))
    sur = gptaq_round(w, gptaq_factor(batch), params, cfg, batch)
    exa = gptaq_reference(w, batch, params, exact=True)
    gap = sur.proxy_loss - exa.proxy_loss
    generic_ok = (not np.array_equal(sur.codes, exa.codes)) and gap > 0

    ok = constructed_ok and generic_ok
    report_line("C09", ok, f"surrogate == exact on construction; generic gap {gap:.3f} > 0", t0)
    assert ok


def test_c10_cd_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        w = rng.normal(size=(m, n))
        h = random_spd(rng, n, ridge=0.3)
        fact = natural(cholesky(h))
        params = fit_grid(w, GridSpec(bits=3, symmetric=True))
        start = rtn_round(w, params, m_ref=w, fact=fact)
        out = cd_refine(start, w, fact, params, passes=3, record_trajectory=True)
        ok = ok and bool(np.all(np.diff(out.objective_trajectory) <= 0.0))
    # refinement cannot move a global optimum
    for _ in range(5):
        n = 4
        w = rng.normal(size=(1, n))
        h = random_spd(rng, n, ridge=0.2)
        fact = natural(cholesky(h))
        params = fit_grid(w, GridSpec(bits=2, symmetric=True))
        sat = ksnrq_beam(w, fact, params, SolverConfig(act_order=False, beam_width=4 ** n))
        refined = cd_refine(sat, w, fact, params, passes=3)
        ok = ok and np.array_equal(refined.codes, sat.codes)
    report_line("C10", ok, "CD objective non-increasing per update, optimum is a fixed point", t0)
    assert ok


def test_c11_dithering_proposition():
    t0 = time.perf_counter()
    trials = 1_000_000
    ok = True
    bounds = {}
    for n_seq in (10, 10_000):
        setup = DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2,
                            n_sequences=n_seq, n_trials=trials)
        res = dither_experiment(setup, SeededRng(111, n_seq))
        ok = ok and np.isclose(res.var_fixed_closed, 0.04)
        ok = ok and abs(res.var_fixed_hat - 0.04) <= 5 * max(res.se_fixed_hat, 1e-15)
        ok = ok and res.var_smoothed_hat <= res.var_bound * (1 + 5 / np.sqrt(trials))
        bounds[n_seq] = res.var_bound
    # closed-form bound halves exactly when N doubles
    b10 = dither_experiment(
        DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=10, n_trials=1),
        SeededRng(111, 1),
    ).var_bound
    b20 = dither_experiment(
        DitherSetup(w=0.3, x=1.0, tau_s=1.0, tau_z=0.2, n_sequences=20, n_trials=1),
        SeededRng(111, 2),
    ).var_bound
    ok = ok and np.isclose(b10, 2.0 * b20, rtol=1e-12)
    report_line(
        "C11", ok,
        f"fixed-rule var matches 0.04 at N=10 and N=1e4; smoothed var under bound; "
        f"bound halves (b10={b10:.3e}, b20={b20:.3e})", t0,
    )
    assert ok


def test_c12_columnwise_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 14))
        e = rng.normal(size=(m, n))
        low = cholesky(random_spd(rng, n))
        total = float(np.sum((e @ low) ** 2))
        worst = max(worst, abs(proxy_column_costs(e, low).sum() - total) / max(1.0, total))
    ok = worst <= 1e-9
    report_line("C12", ok, f"levelwise sum equals ||EL||^2, 100 trials, max rel err {worst:.2e}", t0)
    assert ok


def _total_proxy(report: dict) -> float:
    return sum(rec["proxy_loss"] for rec in report["layers"])


def test_c13_end_to_end_desk_analog():
    t0 = time.perf_counter()
    base = RunConfig(
        grid=GridSpec(bits=3, symmetric=True),
        alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0),
        solver=SolverConfig(solver="snrq", act_order=True),
        calibration=CalibrationConfig(n_sequences=256),
        network=NetworkConfig(depth=4, width=64),
    )
    n_runs = 40
    wins = 0
    greedy_losses = []
    beam_losses = []
    for seed in range(n_runs):
        cfg = base.with_updates(seed=seed)
        net = synth_network(cfg.network, cfg.seed)
        p_snrq = _total_proxy(quantize_network(net, cfg))
        p_rtn = _total_proxy(quantize_network(net, cfg.with_updates(
            solver=SolverConfig(solver="rtn", act_order=True))))
        p_beam = _total_proxy(quantize_network(net, cfg.with_updates(
            solver=SolverConfig(solver="ksnrq", beam_width=4, act_order=True))))
        wins += int(p_snrq <= p_rtn)
        greedy_losses.append(p_snrq)
        beam_losses.append(p_beam)
    win_rate = wins / n_runs
    beam_mean = float(np.mean(beam_losses))
    greedy_mean = float(np.mean(greedy_losses))
    ok = win_rate >= 0.95 and beam_mean <= greedy_mean
    report_line(
        "C13", ok,
        f"snrq <= rtn in {wins}/{n_runs} runs; beam4 mean {beam_mean:.1f} <= "
        f"greedy mean {greedy_mean:.1f}", t0,
    )
    assert ok


def test_c14_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    cfg = RunConfig(
        grid=GridSpec(bits=3, symmetric=True),
        alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0),
        solver=SolverConfig(solver="snrq", act_order=True),
        calibration=CalibrationConfig(n_sequences=128),
        network=NetworkConfig(depth=3, width=96),  # > one 64-row chunk
        seed=5,
    )
    net = synth_network(cfg.network, cfg.seed)
    r1 = quantize_network(net, cfg.with_updates(out_dir=str(tmp_path / "a")))
    r2 = quantize_network(net, cfg.with_updates(out_dir=str(tmp_path / "b")))
    s1 = json.dumps(strip_timing({k: v for k, v in r1.items()
                                  if k not in ("determinism_hash", "config")}), sort_keys=True)
    s2 = json.dumps(strip_timing({k: v for k, v in r2.items()
                                  if k not in ("determinism_hash", "config")}), sort_keys=True)
    byte_identical = s1 == s2 and r1["determinism_hash"] == determinism_hash(r2)
    same_codes = (
        (tmp_path / "a" / "layer_00_codes.snrqmat").read_bytes()
        == (tmp_path / "b" / "layer_00_codes.snrqmat").read_bytes()
    )

    hashes = []
    for threads in ("1", "4"):
        monkeypatch.setenv("SNRQ_THREADS", threads)
        hashes.append(quantize_network(net, cfg)["determinism_hash"])
    monkeypatch.delenv("SNRQ_THREADS")
    worker_invariant = hashes[0] == hashes[1]

    ok = byte_identical and same_codes and worker_invariant
    report_line("C14", ok, "reports byte-identical modulo timing; worker count changes nothing", t0)
    assert ok
