"""Toy-chain pipeline: synthesis, activation collection, reports, sweeps."""

import json

import numpy as np
import pytest

from snrq import AlphaStrategy, GridSpec, InvalidSpec, SolverConfig, read_matrix
from snrq.oracle import sampling_variance_sweep
from snrq.pipeline import (
    CalibrationConfig,
    NetworkConfig,
    RunConfig,
    ToyNetwork,
    determinism_hash,
    forward_collect,
    quantize_network,
    strip_timing,
    sweep,
    synth_network,
)


def small_config(**kw) -> RunConfig:
    base = RunConfig(
        grid=GridSpec(bits=3, symmetric=True),
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.5),
        solver=SolverConfig(solver="snrq", act_order=True),
        calibration=CalibrationConfig(n_sequences=48),
        network=NetworkConfig(depth=3, width=12),
        damping=0.01,
        seed=7,
    )
    return base.with_updates(**kw)


def test_synth_deterministic():
    spec = NetworkConfig(depth=4, width=8)
    a = synth_network(spec, 3)
    b = synth_network(spec, 3)
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(synth_network(spec, 4).layers[0], a.layers[0])


def test_synth_dims_chain():
    net = synth_network(NetworkConfig(dims=(5, 7, 3)), 0)
    assert [w.shape for w in net.layers] == [(7, 5), (3, 7)]
    with pytest.raises(Exception):
        ToyNetwork(layers=(np.ones((3, 5)), np.ones((4, 9))))


def test_depth_one_network_has_equal_paths(rng):
    net = synth_network(NetworkConfig(depth=1, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(net, x, [])
    assert np.array_equal(batch.xf, batch.xq)
    assert np.array_equal(batch.xf, x)


def test_forward_collect_rejects_full_prefix(rng):
    from snrq import ShapeMismatch

    net = synth_network(NetworkConfig(depth=1, width=6), 0)
    with pytest.raises(ShapeMismatch):
        forward_collect(net, rng.normal(size=(6, 4)), [net.layers[0]])


def test_lossless_prefix_keeps_paths_equal(rng):
    net = synth_network(NetworkConfig(depth=2, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(net, x, [net.layers[0].copy()])
    assert np.array_equal(batch.xf, batch.xq)


def test_lossy_prefix_produces_mismatch(rng):
    net = synth_network(NetworkConfig(depth=2, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(net, x, [np.round(net.layers[0], 1)])
    assert np.linalg.norm(batch.xf - batch.xq) > 0


def test_relu_applied_between_layers(rng):
    net = synth_network(NetworkConfig(depth=2, width=6, nonlinearity="relu"), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(net, x, [net.layers[0]])
    assert np.all(batch.xf >= 0.0)
    none = synth_network(NetworkConfig(depth=2, width=6, nonlinearity="none"), 0)
    batch2 = forward_collect(none, x, [none.layers[0]])
    assert np.any(batch2.xf < 0.0)


def test_quantize_records_and_proxy_recompute():
    cfg = small_config()
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    assert len(report["layers"]) == 3
    for rec in report["layers"]:
        assert rec["proxy_loss"] >= 0.0
        assert rec["weight_mse"] >= 0.0
    assert report["layers"][0]["mean_activation_error"] == 0.0  # layer 1: xf == xq
    assert report["end_to_end"]["heldout_output_mse"] > 0.0
    assert report["end_to_end"]["calibration_output_mse"] > 0.0


def test_layer_one_codes_identical_across_alpha_modes(tmp_path):
    codes = {}
    for mode, strat in {
        "fixed0": AlphaStrategy(mode="fixed", alpha_value=0.0),
        "fixed1": AlphaStrategy(mode="fixed", alpha_value=1.0),
        "sampled": AlphaStrategy(mode="sampled", beta_lambda=5.0),
        "closed": AlphaStrategy(mode="closed_form", alpha_value=0.5),
    }.items():
        cfg = small_config(alpha=strat, out_dir=str(tmp_path / mode))
        net = synth_network(cfg.network, cfg.seed)
        quantize_network(net, cfg)
        codes[mode] = read_matrix(tmp_path / mode / "layer_00_codes.snrqmat")
    ref = codes["fixed0"]
    for mode, arr in codes.items():
        assert np.array_equal(arr, ref), mode


def test_lossless_grid_zero_end_mse(rng):
    # weights already on a symmetric 2-bit lattice, damping 0: every layer
    # rounds to itself and the end-to-end error is exactly zero
    dims = (6, 6, 6)
    layers = []
    for l in range(2):
        scale = 0.25
        codes = rng.integers(-1, 2, size=(dims[l + 1], dims[l]))  # {-s, 0, s}
        w = codes * scale
        w.flat[0] = scale  # pin max|w| so the fitted scale is exactly 0.25
        layers.append(w)
    net = ToyNetwork(layers=tuple(layers), nonlinearity="relu")
    cfg = small_config(
        grid=GridSpec(bits=2, symmetric=True),
        damping=0.0,
        network=NetworkConfig(dims=dims),
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.5),
    )
    report = quantize_network(net, cfg)
    assert report["end_to_end"]["calibration_output_mse"] == 0.0
    assert report["end_to_end"]["heldout_output_mse"] == 0.0
    for rec in report["layers"]:
        assert rec["weight_mse"] == 0.0


def test_closed_form_schedule_first_layer_uses_initial():
    cfg = small_config(alpha=AlphaStrategy(mode="closed_form", alpha_value=0.5))
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    assert report["layers"][0]["alpha"]["alpha_used"] == 0.5
    for rec in report["layers"][1:]:
        assert 0.0 <= rec["alpha"]["alpha_used"] <= 1.0
        assert rec["alpha"]["mode"] == "closed_form"


def test_sampled_alpha_trace_summary():
    cfg = small_config(alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0))
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    tr = report["layers"][1]["alpha"]["alpha_trace"]
    assert tr["n"] == 48
    assert 0.0 <= tr["min"] <= tr["mean"] <= tr["max"] <= 0.5


@pytest.mark.parametrize("solver", ["rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq"])
def test_all_solvers_run_through_pipeline(solver):
    cfg = small_config(
        solver=SolverConfig(solver=solver, beam_width=2, block_size=5, act_order=True),
        calibration=CalibrationConfig(n_sequences=32),
        network=NetworkConfig(depth=2, width=10),
    )
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    assert len(report["layers"]) == 2
    assert all(rec["proxy_loss"] >= 0 for rec in report["layers"])


@pytest.mark.parametrize("act_order", [False, True])
@pytest.mark.parametrize("solver,cd_passes", [
    ("rtn", 1), ("snrq", 0), ("snrq_lazy", 0), ("ksnrq", 0), ("gptq", 0), ("gptaq", 0),
])
def test_one_factorization_per_layer(monkeypatch, solver, cd_passes, act_order):
    from snrq import calibration, linalg, solvers

    calls = {"names": 0, "lapack": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (calibration, solvers):  # the names the benchmark tracer wraps
        monkeypatch.setattr(mod, "cholesky", counted(mod.cholesky, "names"))
    monkeypatch.setattr(linalg, "dpotrf", counted(linalg.dpotrf, "lapack"))
    cfg = small_config(
        solver=SolverConfig(solver=solver, beam_width=2, block_size=4,
                            act_order=act_order, cd_passes=cd_passes),
        network=NetworkConfig(depth=3, width=10),
    )
    quantize_network(synth_network(cfg.network, cfg.seed), cfg)
    assert calls == {"names": 3, "lapack": 3}


def test_cd_passes_reduce_proxy():
    base = small_config(solver=SolverConfig(solver="rtn", cd_passes=0, act_order=False))
    refined = small_config(solver=SolverConfig(solver="rtn", cd_passes=2, act_order=False))
    net = synth_network(base.network, base.seed)
    p0 = sum(r["proxy_loss"] for r in quantize_network(net, base)["layers"])
    p2 = sum(r["proxy_loss"] for r in quantize_network(net, refined)["layers"])
    assert p2 <= p0 + 1e-12


def test_report_determinism_and_artifacts(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "a"))
    net = synth_network(cfg.network, cfg.seed)
    r1 = quantize_network(net, cfg)
    r2 = quantize_network(net, cfg.with_updates(out_dir=str(tmp_path / "b")))
    assert r1["determinism_hash"] == determinism_hash(r2)
    s1 = json.dumps(strip_timing({k: v for k, v in r1.items() if k != "determinism_hash"}),
                    sort_keys=True)
    s2 = json.dumps(strip_timing({k: v for k, v in r2.items() if k != "determinism_hash"}),
                    sort_keys=True)
    assert s1.replace(str(tmp_path / "a"), "") == s2.replace(str(tmp_path / "b"), "")
    codes_a = (tmp_path / "a" / "layer_00_codes.snrqmat").read_bytes()
    codes_b = (tmp_path / "b" / "layer_00_codes.snrqmat").read_bytes()
    assert codes_a == codes_b
    report_file = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report_file["determinism_hash"] == r1["determinism_hash"]


def test_worker_count_invariance(monkeypatch, tmp_path):
    hashes = []
    for threads in ("1", "3"):
        monkeypatch.setenv("SNRQ_THREADS", threads)
        cfg = small_config(network=NetworkConfig(depth=2, width=96),
                           calibration=CalibrationConfig(n_sequences=128))
        net = synth_network(cfg.network, cfg.seed)
        hashes.append(quantize_network(net, cfg)["determinism_hash"])
    assert hashes[0] == hashes[1]


def test_config_roundtrip_and_unknown_keys():
    cfg = small_config()
    d = cfg.to_dict()
    back = RunConfig.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    with pytest.raises(InvalidSpec):
        RunConfig.from_dict({"gird": {}})
    with pytest.raises(InvalidSpec):
        RunConfig.from_dict({"grid": {"bitz": 3}})
    alias = RunConfig.from_dict({"alpha": {"alpha_mode": "sample"}})
    assert alias.alpha.mode == "sampled"


def test_sweep_single_value_no_marginal():
    cfg = small_config(network=NetworkConfig(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    table = sweep(cfg, "K", [2])
    assert len(table["rows"]) == 1
    assert "marginal_improvement_per_s" not in table["rows"][0]


def test_sweep_k_axis_emits_marginals():
    cfg = small_config(network=NetworkConfig(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    table = sweep(cfg, "K", [1, 2, 4])
    assert [r["value"] for r in table["rows"]] == [1, 2, 4]
    assert "marginal_improvement_per_s" not in table["rows"][0]
    assert all("marginal_improvement_per_s" in r for r in table["rows"][1:])


def test_sweep_alpha_axis_mirrors_grid():
    cfg = small_config(network=NetworkConfig(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    table = sweep(cfg, "alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(table["rows"]) == 5
    assert all("marginal_improvement_per_s" not in r for r in table["rows"])


def test_sweep_unknown_axis():
    with pytest.raises(InvalidSpec):
        sweep(small_config(), "bits", [2, 3])


def test_pipeline_snrq_equals_gptq_at_alpha_zero(tmp_path):
    # fixed alpha 0 with zero damping: the shifted target is the weights, so
    # the two error-feedback solvers make identical decisions layer by layer
    base = small_config(
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.0),
        calibration=CalibrationConfig(n_sequences=96),
        network=NetworkConfig(depth=3, width=12),
        damping=0.0,
        seed=3,
    )
    net = synth_network(base.network, base.seed)
    quantize_network(net, base.with_updates(out_dir=str(tmp_path / "s")))
    quantize_network(net, base.with_updates(
        solver=SolverConfig(solver="gptq", act_order=True),
        out_dir=str(tmp_path / "g"),
    ))
    for l in range(3):
        a = read_matrix(tmp_path / "s" / f"layer_{l:02d}_codes.snrqmat")
        b = read_matrix(tmp_path / "g" / f"layer_{l:02d}_codes.snrqmat")
        assert np.array_equal(a, b), f"layer {l}"


def test_errors_carry_layer_context():
    from snrq import NotPositiveDefinite

    # rank-deficient student moment with zero damping fails the factorization
    cfg = small_config(
        damping=0.0,
        calibration=CalibrationConfig(n_sequences=4),
        network=NetworkConfig(depth=2, width=12),
    )
    net = synth_network(cfg.network, cfg.seed)
    with pytest.raises(NotPositiveDefinite, match="layer 0"):
        quantize_network(net, cfg)


def test_variance_sweep_degenerate_cases():
    cfg = small_config(
        alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0),
        network=NetworkConfig(depth=2, width=8),
        calibration=CalibrationConfig(n_sequences=24),
    )
    with pytest.warns(UserWarning):
        single = sampling_variance_sweep(cfg, 1)
    assert single["modes"]["sampled"]["std"] == 0.0
    frozen = sampling_variance_sweep(cfg, 3, vary_seeds=False)
    assert frozen["modes"]["sampled"]["std"] == 0.0
    assert frozen["modes"]["fixed_at_mean"]["std"] == 0.0
    varied = sampling_variance_sweep(cfg, 3)
    assert varied["modes"]["sampled"]["std"] >= 0.0
    assert "sampled_std_leq_fixed" in varied
