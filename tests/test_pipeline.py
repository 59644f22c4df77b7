"""Toy-chain pipeline: synthesis, activation collection, reports, sweeps."""

import inspect
import json
import re
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from snrq import AlphaStrategy, GridSpec, InvalidSpec, NonFinite, SolverConfig, read_matrix, write_matrix
from snrq import pipeline
from snrq.grid import dequantize
from snrq.pipeline import (
    STREAM_CALIBRATION,
    STREAM_HELDOUT,
    CalibrationConfig,
    NetworkConfig,
    RunConfig,
    _draw_inputs,
    determinism_hash,
    folded_alpha_mean,
    forward_collect,
    json_text,
    quantize_network,
    sampling_variance_sweep,
    sweep,
    sweep_config,
    synth_network,
)
from snrq.rng import SeededRng

from conftest import _forward_output, same_bits


def small_config(**kw) -> RunConfig:
    base = RunConfig(
        grid=GridSpec(bits=3, symmetric=True),
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.5),
        solver=SolverConfig(solver="snrq", act_order=True),
        calibration=CalibrationConfig(n_sequences=48),
        network=NetworkConfig.chain(depth=3, width=12),
        damping=0.01,
        seed=7,
    )
    return replace(base, **kw)


def solver_config(**fields) -> SolverConfig:
    """A solver section as a config file writes it, where "snrq_lazy" is a spelling of "snrq"."""
    return RunConfig.from_dict({"solver": fields}).solver


def test_synth_deterministic():
    spec = NetworkConfig.chain(depth=4, width=8)
    a = synth_network(spec, 3)
    b = synth_network(spec, 3)
    for wa, wb in zip(a, b):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(synth_network(spec, 4)[0], a[0])


def test_synth_dims_chain():
    layers = synth_network(NetworkConfig(dims=(5, 7, 3)), 0)
    assert [w.shape for w in layers] == [(7, 5), (3, 7)]


def test_depth_one_network_has_equal_paths(rng):
    layers = synth_network(NetworkConfig.chain(depth=1, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(layers, x, [], "relu")
    assert np.array_equal(batch.xf, batch.xq)
    assert np.array_equal(batch.xf, x)


def test_forward_collect_rejects_full_prefix(rng):
    from snrq import ShapeMismatch

    layers = synth_network(NetworkConfig.chain(depth=1, width=6), 0)
    with pytest.raises(ShapeMismatch):
        forward_collect(layers, rng.normal(size=(6, 4)), [layers[0]], "relu")


def test_lossless_prefix_keeps_paths_equal(rng):
    layers = synth_network(NetworkConfig.chain(depth=2, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(layers, x, [layers[0].copy()], "relu")
    assert np.array_equal(batch.xf, batch.xq)


def test_lossy_prefix_produces_mismatch(rng):
    layers = synth_network(NetworkConfig.chain(depth=2, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(layers, x, [np.round(layers[0], 1)], "relu")
    assert np.linalg.norm(batch.xf - batch.xq) > 0


def test_relu_applied_between_layers(rng):
    layers = synth_network(NetworkConfig.chain(depth=2, width=6), 0)
    x = rng.normal(size=(6, 10))
    batch = forward_collect(layers, x, [layers[0]], "relu")
    assert np.all(batch.xf >= 0.0)
    batch2 = forward_collect(layers, x, [layers[0]], "none")
    assert np.any(batch2.xf < 0.0)


def test_quantize_records_and_proxy_recompute():
    cfg = small_config()
    report = quantize_network(cfg)
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
        quantize_network(small_config(alpha=strat), tmp_path / mode)
        codes[mode] = read_matrix(tmp_path / mode / "layer_00_codes.snrqmat")
    ref = codes["fixed0"]
    for mode, arr in codes.items():
        assert np.array_equal(arr, ref), mode


def test_lossless_grid_zero_end_mse(rng, tmp_path):
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
    paths = [str(tmp_path / f"weights_{l:02d}.snrqmat") for l in range(2)]
    for path, w in zip(paths, layers):
        write_matrix(path, w, dtype="f64")
    cfg = small_config(
        grid=GridSpec(bits=2, symmetric=True),
        damping=0.0,
        network=NetworkConfig(dims=dims, weight_paths=paths),
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.5),
    )
    report = quantize_network(cfg)
    assert report["end_to_end"]["calibration_output_mse"] == 0.0
    assert report["end_to_end"]["heldout_output_mse"] == 0.0
    for rec in report["layers"]:
        assert rec["weight_mse"] == 0.0


def test_closed_form_schedule_first_layer_uses_initial():
    cfg = small_config(alpha=AlphaStrategy(mode="closed_form", alpha_value=0.5))
    report = quantize_network(cfg)
    assert report["layers"][0]["alpha"]["alpha_used"] == 0.5
    for rec in report["layers"][1:]:
        assert 0.0 <= rec["alpha"]["alpha_used"] <= 1.0
        assert rec["alpha"]["mode"] == "closed_form"


def test_sampled_alpha_trace_summary():
    cfg = small_config(alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0))
    report = quantize_network(cfg)
    tr = report["layers"][1]["alpha"]["alpha_trace"]
    assert tr["n"] == 48
    assert 0.0 <= tr["min"] <= tr["mean"] <= tr["max"] <= 0.5


@pytest.mark.parametrize("solver", ["rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq"])
def test_all_solvers_run_through_pipeline(solver):
    cfg = small_config(
        solver=solver_config(solver=solver, beam_width=2, block_size=5, act_order=True),
        calibration=CalibrationConfig(n_sequences=32),
        network=NetworkConfig.chain(depth=2, width=10),
    )
    report = quantize_network(cfg)
    assert len(report["layers"]) == 2
    assert all(rec["proxy_loss"] >= 0 for rec in report["layers"])


def counted(fn, calls, key):
    """``fn``, counting its calls in ``calls[key]``."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


SOLVER_RUNS = pytest.mark.parametrize("solver,cd_passes", [
    ("rtn", 1), ("snrq", 0), ("snrq_lazy", 0), ("ksnrq", 0), ("gptq", 0), ("gptaq", 0),
])


@pytest.mark.parametrize("act_order", [False, True])
@SOLVER_RUNS
def test_one_factorization_per_layer(monkeypatch, solver, cd_passes, act_order):
    from snrq import calibration, solvers

    # linalg.cholesky calls numpy's cholesky once per 32-wide diagonal block,
    # and these 10-wide layers are one block each; so the count of the names
    # the benchmark tracer wraps is what pins one factorization per layer
    calls = {"names": 0, "lapack": 0}
    for mod in (calibration, solvers):
        monkeypatch.setattr(mod, "cholesky", counted(mod.cholesky, calls, "names"))
    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky, calls, "lapack"))
    cfg = small_config(
        solver=solver_config(solver=solver, beam_width=2, block_size=4,
                             act_order=act_order, cd_passes=cd_passes),
        network=NetworkConfig.chain(depth=3, width=10),
    )
    quantize_network(cfg)
    assert calls == {"names": 3, "lapack": 3}


@pytest.mark.parametrize("act_order", [False, True])
@SOLVER_RUNS
def test_one_block_inverse_per_layer(monkeypatch, solver, cd_passes, act_order):
    # the layer's one factorization inverts each of its diagonal blocks, and
    # every solve with the factor (the shifted target, GPTAQ's surrogate)
    # applies those inverses: numpy's inv runs only inside cholesky
    from snrq import calibration, solvers

    calls = {"cholesky": 0, "inv": 0, "inv_outside": 0}
    inside, inv = [], np.linalg.inv

    def tracked(fn):
        def wrapper(*args, **kwargs):
            calls["cholesky"] += 1
            inside.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def counted_inv(a):
        calls["inv" if inside else "inv_outside"] += 1
        return inv(a)

    for mod in (calibration, solvers):
        monkeypatch.setattr(mod, "cholesky", tracked(mod.cholesky))
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    cfg = small_config(
        solver=solver_config(solver=solver, beam_width=2, block_size=4,
                             act_order=act_order, cd_passes=cd_passes),
        network=NetworkConfig.chain(depth=3, width=40),  # two diagonal blocks per layer
    )
    quantize_network(cfg)
    assert calls == {"cholesky": 3, "inv": 6, "inv_outside": 0}


def test_cd_passes_reduce_proxy():
    base = small_config(solver=SolverConfig(solver="rtn", cd_passes=0, act_order=False))
    refined = small_config(solver=SolverConfig(solver="rtn", cd_passes=2, act_order=False))
    p0 = sum(r["proxy_loss"] for r in quantize_network(base)["layers"])
    p2 = sum(r["proxy_loss"] for r in quantize_network(refined)["layers"])
    assert p2 <= p0 + 1e-12


def without_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


def test_report_determinism_and_artifacts(tmp_path):
    cfg = small_config()
    r1 = quantize_network(cfg, tmp_path / "a")
    r2 = quantize_network(cfg, tmp_path / "b")
    assert r1["determinism_hash"] == determinism_hash(r2)
    assert without_timing(r1) == without_timing(r2)
    assert set(r1["timing"]) == {"layer_ms", "total_ms"}
    assert len(r1["timing"]["layer_ms"]) == len(r1["layers"])
    codes_a = (tmp_path / "a" / "layer_00_codes.snrqmat").read_bytes()
    codes_b = (tmp_path / "b" / "layer_00_codes.snrqmat").read_bytes()
    assert codes_a == codes_b
    report_file = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report_file == json.loads(json_text(r1))


def test_hash_does_not_depend_on_whether_a_run_wrote_files(tmp_path):
    # the report is the same whether or not the run wrote files, apart from
    # its timing section, which the hash leaves out
    cfg = small_config(network=NetworkConfig.chain(depth=2, width=8))
    wrote = quantize_network(cfg, tmp_path)
    assert (tmp_path / "layer_01_codes.snrqmat").is_file()
    assert without_timing(quantize_network(cfg)) == without_timing(wrote)


def test_config_roundtrip_and_unknown_keys():
    cfg = small_config()
    d = asdict(cfg)
    back = RunConfig.from_dict(json.loads(json.dumps(d)))
    assert asdict(back) == d
    with pytest.raises(InvalidSpec):
        RunConfig.from_dict({"gird": {}})
    with pytest.raises(InvalidSpec):
        RunConfig.from_dict({"grid": {"bitz": 3}})
    alias = RunConfig.from_dict({"alpha": {"alpha_mode": "sample"}})
    assert alias.alpha.mode == "sampled"


@pytest.mark.parametrize("network", [NetworkConfig.chain(depth=2, width=8), NetworkConfig(dims=(12, 9, 7))],
                         ids=["depth-width", "dims"])
def test_report_states_its_network(network):
    # a network is its dims; depth and width only build them
    report = quantize_network(small_config(network=network))
    stated = json.loads(json_text(report))["config"]
    assert set(stated["network"]) == {"dims", "nonlinearity", "weight_paths"}
    assert stated["network"]["dims"] == list(network.dims)
    assert RunConfig.from_dict(stated).network == network


def test_report_in_process_equals_its_json():
    # the report that quantize_network returns is the one report.json holds:
    # its config states dims and weight_paths as arrays, not tuples
    report = quantize_network(small_config(network=NetworkConfig(dims=(12, 9, 7))))
    assert json.loads(json_text(report)) == report
    assert report["config"]["network"]["dims"] == [12, 9, 7]
    assert report["determinism_hash"] == determinism_hash(json.loads(json_text(report)))


def test_network_dims_with_depth_or_width_is_invalid():
    for extra in ({"depth": 3}, {"width": 8}, {"depth": None, "width": 6}, {"depth": None}):
        with pytest.raises(InvalidSpec, match="'dims' and also 'depth' or 'width'"):
            RunConfig.from_dict({"network": dict({"dims": [8, 6]}, **extra)})
    assert NetworkConfig.chain(depth=2, width=5).dims == (5, 5, 5)
    assert RunConfig.from_dict({"network": {"width": 5}}).network == NetworkConfig.chain(width=5)
    assert NetworkConfig() == NetworkConfig.chain() == NetworkConfig(dims=[64] * 5)


def test_network_config_holds_its_dims_only():
    # depth and width are a config file's spelling and chain()'s arguments, not fields
    names = ["dims", "nonlinearity", "weight_paths"]
    assert [f.name for f in fields(NetworkConfig)] == names
    assert list(inspect.signature(NetworkConfig).parameters) == names
    with pytest.raises(TypeError):
        NetworkConfig(depth=2, width=8)
    with pytest.raises(AttributeError):
        NetworkConfig.chain(depth=2, width=8).depth
    for depth, width in ((0, 8), (2, 0), (2.0, 8), (True, 8), (2, None)):
        with pytest.raises(InvalidSpec):
            NetworkConfig.chain(depth=depth, width=width)


@pytest.mark.parametrize("network, message", [
    ({"dims": None}, "dims must be an array, got None"),
    ({"depth": None}, "depth must be an integer, got None"),
    ({"width": None, "depth": 2}, "width must be an integer, got None"),
    ({"dims": [4, 4], "weight_paths": [5]}, "weight_paths must be an array of strings, got [5]"),
    ({"dims": [4, 4], "weight_paths": ["a", None]},
     "weight_paths must be an array of strings, got ['a', None]"),
], ids=["null-dims", "null-depth", "null-width", "int-weight-path", "null-weight-path"])
def test_network_section_of_wrong_type_is_invalid(network, message):
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        RunConfig.from_dict({"network": network})


def test_weight_paths_may_be_null():
    # every report writes "weight_paths": null for a synthesized network
    assert RunConfig.from_dict({"network": {"weight_paths": None}}).network == NetworkConfig()


def test_run_config_defaults():
    assert RunConfig() == RunConfig.from_dict({})
    assert RunConfig().seed == 0 and RunConfig().damping == 0.01
    assert RunConfig().network.dims == (64,) * 5


def test_snrq_lazy_is_read_as_snrq():
    # one kernel, one name: "snrq_lazy" is a config file's spelling of "snrq",
    # which leaves no trace in the report or its hash; SolverConfig takes "snrq" only
    lazy = quantize_network(small_config(solver=solver_config(solver="snrq_lazy")))
    plain = quantize_network(small_config(solver=SolverConfig(solver="snrq")))
    assert lazy["config"]["solver"]["solver"] == "snrq"
    assert lazy["determinism_hash"] == plain["determinism_hash"]
    with pytest.raises(InvalidSpec, match="solver must be one of"):
        SolverConfig(solver="snrq_lazy")


def test_sweep_single_value_no_marginal():
    cfg = small_config(network=NetworkConfig.chain(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    table = sweep(cfg, "K", [2])
    assert len(table["rows"]) == 1
    assert set(table["rows"][0]) == {"value", "proxy_loss", "heldout_output_mse", "wall_ms"}


@pytest.mark.parametrize("axis,values", [("beta_lambda", [0.5, 5.0]), ("cd_passes", [0, 1, 2])])
def test_sweep_rows_are_runs_of_the_swept_config(axis, values):
    cfg = small_config(network=NetworkConfig.chain(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    rows = sweep(cfg, axis, values)["rows"]
    assert [r["value"] for r in rows] == values
    for v, row in zip(values, rows):
        run_cfg = sweep_config(cfg, axis, v)
        report = quantize_network(run_cfg)
        assert row["proxy_loss"] == sum(rec["proxy_loss"] for rec in report["layers"])
        assert row["heldout_output_mse"] == report["end_to_end"]["heldout_output_mse"]
        if axis == "beta_lambda":
            assert run_cfg.alpha.mode == "sampled" and run_cfg.alpha.beta_lambda == v
        else:
            assert run_cfg.solver.cd_passes == v
    if axis == "beta_lambda":
        assert rows[0]["proxy_loss"] != rows[1]["proxy_loss"]


def test_uniform_calibration_inputs():
    cfg = small_config(calibration=CalibrationConfig(n_sequences=48, distribution="uniform"))
    x = _draw_inputs(12, 48, SeededRng(cfg.seed, STREAM_CALIBRATION), "uniform")
    assert np.array_equal(x, SeededRng(cfg.seed, STREAM_CALIBRATION).uniform(-1.0, 1.0, size=(12, 48)))
    assert np.all(np.abs(x) <= 1.0)
    report = quantize_network(cfg)
    assert report["config"]["calibration"]["distribution"] == "uniform"
    normal = quantize_network(small_config())
    assert report["determinism_hash"] != normal["determinism_hash"]
    assert report["layers"][0]["mean_activation_error"] == 0.0  # the raw inputs feed both paths
    with pytest.raises(InvalidSpec, match="distribution"):
        CalibrationConfig(distribution="laplace")


def test_sweep_alpha_axis_mirrors_grid():
    cfg = small_config(network=NetworkConfig.chain(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    table = sweep(cfg, "alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(table["rows"]) == 5


def test_sweep_unknown_axis():
    with pytest.raises(InvalidSpec):
        sweep(small_config(), "bits", [2, 3])


def test_sweep_checks_every_value_before_its_first_run(monkeypatch):
    runs = []
    monkeypatch.setattr(pipeline, "quantize_network", runs.append)
    with pytest.raises(InvalidSpec, match="beam_width"):
        sweep(small_config(), "K", [2, 0])
    assert runs == []


def test_sweep_rows_read_their_run_reports(monkeypatch):
    def fake_run(cfg):
        k = cfg.solver.cd_passes
        return {"layers": [{"proxy_loss": 1.0 + k}, {"proxy_loss": 2.0}],
                "end_to_end": {"heldout_output_mse": 0.5 * k},
                "timing": {"layer_ms": [3.0, 4.0], "total_ms": 10.0 + k}}

    monkeypatch.setattr(pipeline, "quantize_network", fake_run)
    assert sweep(small_config(), "cd_passes", [0, 2])["rows"] == [
        {"value": 0, "proxy_loss": 3.0, "heldout_output_mse": 0.0, "wall_ms": 10.0},
        {"value": 2, "proxy_loss": 5.0, "heldout_output_mse": 1.0, "wall_ms": 12.0},
    ]


def test_pipeline_snrq_equals_gptq_at_alpha_zero(tmp_path):
    # fixed alpha 0 with zero damping: the shifted target is the weights, so
    # the two error-feedback solvers make identical decisions layer by layer
    base = small_config(
        alpha=AlphaStrategy(mode="fixed", alpha_value=0.0),
        calibration=CalibrationConfig(n_sequences=96),
        network=NetworkConfig.chain(depth=3, width=12),
        damping=0.0,
        seed=3,
    )
    quantize_network(base, tmp_path / "s")
    quantize_network(replace(base, solver=SolverConfig(solver="gptq", act_order=True)), tmp_path / "g")
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
        network=NetworkConfig.chain(depth=2, width=12),
    )
    with pytest.raises(NotPositiveDefinite, match="layer 0"):
        quantize_network(cfg)


def test_variance_sweep_degenerate_cases():
    cfg = small_config(
        alpha=AlphaStrategy(mode="sampled", beta_lambda=5.0),
        network=NetworkConfig.chain(depth=2, width=8),
        calibration=CalibrationConfig(n_sequences=24),
    )
    with pytest.warns(UserWarning):
        single = sampling_variance_sweep(cfg, 1)
    assert single["modes"]["sampled"]["std"] == 0.0
    varied = sampling_variance_sweep(cfg, 3)
    assert varied["modes"]["sampled"]["std"] >= 0.0
    assert "sampled_std_leq_fixed" in varied


def test_variance_sweep_identical_losses_have_zero_spread(monkeypatch):
    # three equal floats whose mean, (a + a + a) / 3, is not a
    loss = 5.888131383978264
    monkeypatch.setattr(pipeline, "quantize_network",
                        lambda cfg: {"layers": [{"proxy_loss": loss}]})
    out = sampling_variance_sweep(small_config(), 3)
    assert [m["std"] for m in out["modes"].values()] == [0.0, 0.0]


def test_variance_sweep_runs_both_sweep_configs_at_consecutive_seeds(monkeypatch):
    runs = []

    def recording_run(cfg):
        runs.append(cfg)
        return {"layers": [{"proxy_loss": float(len(runs))}]}

    monkeypatch.setattr(pipeline, "quantize_network", recording_run)
    cfg = small_config(alpha=AlphaStrategy(mode="closed_form", alpha_value=0.3, beta_lambda=3.0), seed=4)
    out = sampling_variance_sweep(cfg, 3)
    mean_alpha = folded_alpha_mean(3.0, 4)
    modes = [sweep_config(cfg, "alpha", mean_alpha), sweep_config(cfg, "beta_lambda", 3.0)]
    assert runs == [replace(mode, seed=seed) for mode in modes for seed in (4, 5, 6)]
    assert modes[0].alpha == AlphaStrategy(mode="fixed", alpha_value=mean_alpha, beta_lambda=3.0)
    assert modes[1].alpha == AlphaStrategy(mode="sampled", alpha_value=0.3, beta_lambda=3.0)
    assert out["alpha_mean"] == mean_alpha
    assert out["modes"]["fixed_at_mean"]["losses"] == [1.0, 2.0, 3.0]
    assert out["modes"]["sampled"]["losses"] == [4.0, 5.0, 6.0]


@pytest.mark.parametrize("mode", ["fixed", "closed_form", "sampled"])
@pytest.mark.parametrize("nonlinearity", ["relu", "none"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_carried_batches_equal_prefix_replay(monkeypatch, depth, nonlinearity, mode):
    batches, dequants = [], []
    accumulate_stats, solve_layer = pipeline.accumulate_stats, pipeline._solve_layer

    def recording_stats(batch, *args):
        batches.append(batch)
        return accumulate_stats(batch, *args)

    def recording_solve(w, batch, m_alpha, fact, params, config):
        result = solve_layer(w, batch, m_alpha, fact, params, config)
        dequants.append(dequantize(result.codes, params))
        return result

    monkeypatch.setattr(pipeline, "accumulate_stats", recording_stats)
    monkeypatch.setattr(pipeline, "_solve_layer", recording_solve)
    cfg = small_config(
        alpha=AlphaStrategy(mode=mode, alpha_value=0.5),
        network=NetworkConfig(dims=(6, 9, 5, 8, 7)[:depth + 1], nonlinearity=nonlinearity),
    )
    report = quantize_network(cfg)

    layers = synth_network(cfg.network, cfg.seed)
    x_cal = _draw_inputs(layers[0].shape[1], cfg.calibration.n_sequences,
                         SeededRng(cfg.seed, STREAM_CALIBRATION), cfg.calibration.distribution)
    assert len(batches) == len(dequants) == depth
    # compared after the run, so a later layer writing into an earlier batch also fails
    for l, batch in enumerate(batches):
        replay = forward_collect(layers, x_cal, dequants[:l], nonlinearity)
        assert np.array_equal(batch.xf, replay.xf), f"layer {l} teacher"
        assert np.array_equal(batch.xq, replay.xq), f"layer {l} student"
    y_f = _forward_output(layers, x_cal, nonlinearity)
    y_q = _forward_output(dequants, x_cal, nonlinearity)
    assert report["end_to_end"]["calibration_output_mse"] == float(np.mean((y_q - y_f) ** 2))


def test_quantize_network_replays_no_prefix(monkeypatch):
    cfg = small_config(network=NetworkConfig.chain(depth=4, width=10))
    expected = quantize_network(cfg)["determinism_hash"]

    def replay(*args, **kwargs):
        raise AssertionError("quantize_network replayed a prefix from the raw inputs")

    monkeypatch.setattr(pipeline, "forward_collect", replay)
    assert quantize_network(cfg)["determinism_hash"] == expected


def _loop_charge(width: int, n_seq: int, mode: str) -> int:
    """Upper bound on the bytes ``quantize_network`` allocates on a width-``width`` chain.

    Activation-sized arrays (width x n_seq), at the stage that holds the most:
    the carried pair (2) plus the stats' X_alpha (1), or in closed_form mode
    closed_form_alpha's u and v while the next alpha is chosen from this
    layer's batch (2). The activation error, the carries and the held-out
    passes hold at most 3. Plus 8 vectors of length n_seq (alpha draws and
    their summary); the weights and the width x width statistics are negligible.
    """
    live = {"sampled": 3, "fixed": 3, "closed_form": 4}[mode]
    return (live * width + 8) * n_seq * 8


@pytest.mark.parametrize("mode", ["fixed", "closed_form", "sampled"])
def test_layer_loop_holds_few_activation_arrays(mode):
    # width 32 and 4,096 sequences: one activation array is 1 MiB, and the
    # weights, statistics and codes of a layer are 8 KiB each
    width, n_seq = 32, 4096
    cfg = small_config(alpha=AlphaStrategy(mode=mode, alpha_value=0.5),
                       calibration=CalibrationConfig(n_sequences=n_seq),
                       network=NetworkConfig.chain(depth=6, width=width))
    quantize_network(cfg)  # first call pays one-time imports and caches
    tracemalloc.start()
    try:
        quantize_network(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = _loop_charge(width, n_seq, mode)
    assert peak <= charge < peak + width * n_seq * 8


def test_finished_layers_are_held_as_codes():
    # a weight-heavy chain, width 128 and 16 sequences: a layer's weights are
    # 128 KiB and an activation array 16 KiB. The run builds its own network,
    # so each extra layer adds its float64 weights (8 B per weight); the peak
    # is at the last layer, so each finished layer before it also adds what
    # the run keeps of it: its int32 codes (4 B per weight), plus its grid and
    # report record (under 1 B per weight). A finished layer kept as float64
    # values would add 8 B per weight more.
    width = 128

    def traced_peak(depth):
        cfg = small_config(calibration=CalibrationConfig(n_sequences=16),
                           network=NetworkConfig.chain(depth=depth, width=width))
        quantize_network(cfg)  # first call pays one-time imports and caches
        tracemalloc.start()
        try:
            quantize_network(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = traced_peak(6) - traced_peak(2)
    charge = 4 * width * width * (8 + 4)  # four more layers: weights and codes
    assert charge <= grown < charge + 4 * width * width


@pytest.mark.parametrize("mode", ["fixed", "closed_form", "sampled"])
def test_layer_batch_lives_only_while_read(monkeypatch, mode):
    # each event records, per layer seen so far, whether its batch or either
    # of its arrays is still alive; only closed-form alpha reads a batch, at
    # the end of its layer, to choose the next layer's weight
    events, refs = [], []
    accumulate_stats, alpha_schedule = pipeline.accumulate_stats, pipeline.module_wise_alpha_schedule

    def alive():
        return [any(r() is not None for r in layer_refs) for layer_refs in refs]

    def recording_stats(batch, *args):
        events.append(("stats", len(refs), alive()))
        refs.append([weakref.ref(batch), weakref.ref(batch.xf), weakref.ref(batch.xq)])
        return accumulate_stats(batch, *args)

    def recording_alpha(w, w_hat, batch, default_alpha):
        events.append(("alpha", len(refs), alive()))
        return alpha_schedule(w, w_hat, batch, default_alpha)

    monkeypatch.setattr(pipeline, "accumulate_stats", recording_stats)
    monkeypatch.setattr(pipeline, "module_wise_alpha_schedule", recording_alpha)
    cfg = small_config(alpha=AlphaStrategy(mode=mode, alpha_value=0.5),
                       network=NetworkConfig.chain(depth=4, width=10))
    quantize_network(cfg)
    stats = [a for kind, l, a in events if kind == "stats"]
    assert stats == [[False] * l for l in range(4)]
    alphas = [(l, a) for kind, l, a in events if kind == "alpha"]
    if mode == "closed_form":
        assert alphas == [(l + 1, [False] * l + [True]) for l in range(3)]
    else:
        assert alphas == []


def test_json_text_refuses_non_finite_values():
    assert json_text({"a": 1.5}) == '{\n  "a": 1.5\n}'
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFinite):
            json_text({"layers": [{"proxy_loss": bad}]})


@pytest.mark.parametrize("nonlinearity", ["relu", "none"])
def test_report_errors_match_the_plain_expressions_bit_for_bit(tmp_path, nonlinearity):
    # the report's error means use one difference array each and reused forward
    # buffers; they equal the plain expressions over fresh arrays bit for bit
    cfg = small_config(network=NetworkConfig(dims=(6, 9, 5, 8), nonlinearity=nonlinearity))
    report = quantize_network(cfg, tmp_path)
    dequants = [read_matrix(tmp_path / f"layer_{l:02d}_dequant.snrqmat")
                for l in range(len(report["layers"]))]

    def forward(layers, x):
        inputs = []
        for l, w in enumerate(layers):
            inputs.append(x)
            x = w @ x
            if l + 1 < len(layers) and nonlinearity == "relu":
                x = np.maximum(x, 0.0)
        return inputs, x

    layers = synth_network(cfg.network, cfg.seed)
    x_cal, x_held = (_draw_inputs(layers[0].shape[1], cfg.calibration.n_sequences,
                                  SeededRng(cfg.seed, stream), cfg.calibration.distribution)
                     for stream in (STREAM_CALIBRATION, STREAM_HELDOUT))
    (xf, y_f), (xq, y_q) = forward(layers, x_cal), forward(dequants, x_cal)
    for rec, w, q, f, s in zip(report["layers"], layers, dequants, xf, xq):
        assert same_bits(rec["weight_mse"], float(np.mean((w - q) ** 2)))
        assert same_bits(rec["mean_activation_error"], float(np.mean(np.abs(f - s))))
    e2e = report["end_to_end"]
    assert same_bits(e2e["calibration_output_mse"], float(np.mean((y_q - y_f) ** 2)))
    y_f_held, y_q_held = forward(layers, x_held)[1], forward(dequants, x_held)[1]
    assert same_bits(e2e["heldout_output_mse"], float(np.mean((y_q_held - y_f_held) ** 2)))
