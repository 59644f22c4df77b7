"""Toy-chain pipeline: synthesis, activation collection, reports, sweeps."""

import json
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from snrq import AlphaStrategy, GridSpec, InvalidSpec, NonFinite, SolverConfig, read_matrix
from snrq import pipeline
from snrq.oracle import sampling_variance_sweep
from snrq.pipeline import (
    STREAM_CALIBRATION,
    STREAM_HELDOUT,
    CalibrationConfig,
    NetworkConfig,
    RunConfig,
    ToyNetwork,
    _draw_inputs,
    determinism_hash,
    forward_collect,
    json_text,
    quantize_network,
    strip_timing,
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
        network=NetworkConfig(depth=3, width=12),
        damping=0.01,
        seed=7,
    )
    return replace(base, **kw)


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
        solver=SolverConfig(solver=solver, beam_width=2, block_size=4,
                            act_order=act_order, cd_passes=cd_passes),
        network=NetworkConfig(depth=3, width=10),
    )
    quantize_network(synth_network(cfg.network, cfg.seed), cfg)
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
        solver=SolverConfig(solver=solver, beam_width=2, block_size=4,
                            act_order=act_order, cd_passes=cd_passes),
        network=NetworkConfig(depth=3, width=40),  # two diagonal blocks per layer
    )
    quantize_network(synth_network(cfg.network, cfg.seed), cfg)
    assert calls == {"cholesky": 3, "inv": 6, "inv_outside": 0}


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
    r2 = quantize_network(net, replace(cfg, out_dir=str(tmp_path / "b")))
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


def test_snrq_lazy_is_read_as_snrq():
    # one kernel, one name: the alias leaves no trace in the report or its hash
    net = synth_network(small_config().network, 7)
    lazy = quantize_network(net, small_config(solver=SolverConfig(solver="snrq_lazy")))
    plain = quantize_network(net, small_config(solver=SolverConfig(solver="snrq")))
    assert lazy["config"]["solver"]["solver"] == "snrq"
    assert lazy["determinism_hash"] == plain["determinism_hash"]


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


def test_sweep_rate_is_null_when_wall_time_does_not_rise(monkeypatch):
    # a clock that moves only between runs: K = 3 runs faster than K = 2, and
    # K = 4 as fast as K = 3, so neither has a rate
    clock = {"now": 0.0}
    seconds = {1: 1.0, 2: 3.0, 3: 2.5, 4: 2.5}
    real = pipeline.quantize_network

    def timed(net, cfg):
        report = real(net, cfg)
        clock["now"] += seconds[cfg.solver.beam_width]
        return report

    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
    monkeypatch.setattr(pipeline, "quantize_network", timed)
    cfg = small_config(network=NetworkConfig(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    rows = sweep(cfg, "K", [1, 2, 3, 4])["rows"]
    assert [r["wall_ms"] for r in rows] == [1000.0, 3000.0, 2500.0, 2500.0]
    gain = rows[0]["proxy_loss"] - rows[1]["proxy_loss"]
    assert rows[1]["marginal_improvement_per_s"] == gain / 2.0
    assert rows[2]["marginal_improvement_per_s"] is None
    assert rows[3]["marginal_improvement_per_s"] is None
    assert "null" in json_text(rows)


@pytest.mark.parametrize("axis,values", [("beta_lambda", [0.5, 5.0]), ("cd_passes", [0, 1, 2])])
def test_sweep_rows_are_runs_of_the_swept_config(axis, values):
    cfg = small_config(network=NetworkConfig(depth=2, width=8),
                       calibration=CalibrationConfig(n_sequences=24))
    net = synth_network(cfg.network, cfg.seed)
    rows = sweep(cfg, axis, values)["rows"]
    assert [r["value"] for r in rows] == values
    for v, row in zip(values, rows):
        run_cfg = sweep_config(cfg, axis, v)
        report = quantize_network(net, run_cfg)
        assert row["proxy_loss"] == sum(rec["proxy_loss"] for rec in report["layers"])
        assert row["heldout_output_mse"] == report["end_to_end"]["heldout_output_mse"]
        if axis == "beta_lambda":
            assert run_cfg.alpha.mode == "sampled" and run_cfg.alpha.beta_lambda == v
        else:
            assert run_cfg.solver.cd_passes == v
    if axis == "cd_passes":
        assert all("marginal_improvement_per_s" in r for r in rows[1:])
    else:
        assert all("marginal_improvement_per_s" not in r for r in rows)
        assert rows[0]["proxy_loss"] != rows[1]["proxy_loss"]


def test_uniform_calibration_inputs():
    cfg = small_config(calibration=CalibrationConfig(n_sequences=48, distribution="uniform"))
    x = _draw_inputs(12, 48, SeededRng(cfg.seed, STREAM_CALIBRATION), "uniform")
    assert np.array_equal(x, SeededRng(cfg.seed, STREAM_CALIBRATION).uniform(-1.0, 1.0, size=(12, 48)))
    assert np.all(np.abs(x) <= 1.0)
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    assert report["config"]["calibration"]["distribution"] == "uniform"
    normal = quantize_network(net, small_config())
    assert report["determinism_hash"] != normal["determinism_hash"]
    assert report["layers"][0]["mean_activation_error"] == 0.0  # the raw inputs feed both paths
    with pytest.raises(InvalidSpec, match="distribution"):
        CalibrationConfig(distribution="laplace")


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
    quantize_network(net, replace(base, out_dir=str(tmp_path / "s")))
    quantize_network(net, replace(
        base,
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
    varied = sampling_variance_sweep(cfg, 3)
    assert varied["modes"]["sampled"]["std"] >= 0.0
    assert "sampled_std_leq_fixed" in varied


def test_variance_sweep_identical_losses_have_zero_spread(monkeypatch):
    # three equal floats whose mean, (a + a + a) / 3, is not a
    loss = 5.888131383978264
    monkeypatch.setattr(pipeline, "synth_network", lambda spec, seed: None)
    monkeypatch.setattr(pipeline, "quantize_network",
                        lambda net, cfg: {"layers": [{"proxy_loss": loss}]})
    out = sampling_variance_sweep(small_config(), 3)
    assert [m["std"] for m in out["modes"].values()] == [0.0, 0.0]


@pytest.mark.parametrize("mode", ["fixed", "closed_form", "sampled"])
@pytest.mark.parametrize("nonlinearity", ["relu", "none"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_carried_batches_equal_prefix_replay(monkeypatch, depth, nonlinearity, mode):
    batches, dequants = [], []
    accumulate_stats, solve_layer = pipeline.accumulate_stats, pipeline._solve_layer

    def recording_stats(batch, *args):
        batches.append(batch)
        return accumulate_stats(batch, *args)

    def recording_solve(*args):
        result = solve_layer(*args)
        dequants.append(result.q_dequant)
        return result

    monkeypatch.setattr(pipeline, "accumulate_stats", recording_stats)
    monkeypatch.setattr(pipeline, "_solve_layer", recording_solve)
    cfg = small_config(
        alpha=AlphaStrategy(mode=mode, alpha_value=0.5),
        network=NetworkConfig(dims=(6, 9, 5, 8, 7)[:depth + 1], nonlinearity=nonlinearity),
    )
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)

    x_cal = _draw_inputs(net.input_dim, cfg.calibration.n_sequences,
                         SeededRng(cfg.seed, STREAM_CALIBRATION), cfg.calibration.distribution)
    assert len(batches) == len(dequants) == depth
    # compared after the run, so a later layer writing into an earlier batch also fails
    for l, batch in enumerate(batches):
        replay = forward_collect(net, x_cal, dequants[:l])
        assert np.array_equal(batch.xf, replay.xf), f"layer {l} teacher"
        assert np.array_equal(batch.xq, replay.xq), f"layer {l} student"
    y_f = _forward_output(net.layers, x_cal, nonlinearity)
    y_q = _forward_output(dequants, x_cal, nonlinearity)
    assert report["end_to_end"]["calibration_output_mse"] == float(np.mean((y_q - y_f) ** 2))


def test_quantize_network_replays_no_prefix(monkeypatch):
    cfg = small_config(network=NetworkConfig(depth=4, width=10))
    net = synth_network(cfg.network, cfg.seed)
    expected = quantize_network(net, cfg)["determinism_hash"]

    def replay(*args, **kwargs):
        raise AssertionError("quantize_network replayed a prefix from the raw inputs")

    monkeypatch.setattr(pipeline, "forward_collect", replay)
    monkeypatch.setattr(pipeline, "_forward_input_to_layer", replay)
    assert quantize_network(net, cfg)["determinism_hash"] == expected


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
                       network=NetworkConfig(depth=6, width=width))
    net = synth_network(cfg.network, cfg.seed)
    quantize_network(net, cfg)  # first call pays one-time imports and caches
    tracemalloc.start()
    try:
        quantize_network(net, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = _loop_charge(width, n_seq, mode)
    assert peak <= charge < peak + width * n_seq * 8


def test_finished_layers_are_held_as_codes():
    # a weight-heavy chain, width 128 and 16 sequences: a layer's weights are
    # 128 KiB and an activation array 16 KiB. The peak is at the last layer, so
    # each finished layer before it adds what the run keeps of it: its int32
    # codes (4 B per weight), plus its grid and report record (under 1 B per
    # weight). A finished layer kept as float64 values would add 8 B per weight.
    width = 128

    def traced_peak(depth):
        cfg = small_config(calibration=CalibrationConfig(n_sequences=16),
                           network=NetworkConfig(depth=depth, width=width))
        net = synth_network(cfg.network, cfg.seed)
        quantize_network(net, cfg)  # first call pays one-time imports and caches
        tracemalloc.start()
        try:
            quantize_network(net, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = traced_peak(6) - traced_peak(2)
    charge = 4 * width * width * 4  # four more finished layers, 4 B per weight
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
                       network=NetworkConfig(depth=4, width=10))
    quantize_network(synth_network(cfg.network, cfg.seed), cfg)
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
    cfg = small_config(network=NetworkConfig(dims=(6, 9, 5, 8), nonlinearity=nonlinearity),
                       out_dir=str(tmp_path))
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    dequants = [read_matrix(tmp_path / rec["dequant_file"]) for rec in report["layers"]]

    def forward(layers, x):
        inputs = []
        for l, w in enumerate(layers):
            inputs.append(x)
            x = w @ x
            if l + 1 < len(layers) and nonlinearity == "relu":
                x = np.maximum(x, 0.0)
        return inputs, x

    x_cal, x_held = (_draw_inputs(net.input_dim, cfg.calibration.n_sequences,
                                  SeededRng(cfg.seed, stream), cfg.calibration.distribution)
                     for stream in (STREAM_CALIBRATION, STREAM_HELDOUT))
    (xf, y_f), (xq, y_q) = forward(net.layers, x_cal), forward(dequants, x_cal)
    for rec, w, q, f, s in zip(report["layers"], net.layers, dequants, xf, xq):
        assert same_bits(rec["weight_mse"], float(np.mean((w - q) ** 2)))
        assert same_bits(rec["mean_activation_error"], float(np.mean(np.abs(f - s))))
    e2e = report["end_to_end"]
    assert same_bits(e2e["calibration_output_mse"], float(np.mean((y_q - y_f) ** 2)))
    y_f_held, y_q_held = forward(net.layers, x_held)[1], forward(dequants, x_held)[1]
    assert same_bits(e2e["heldout_output_mse"], float(np.mean((y_q_held - y_f_held) ** 2)))
