"""Command-line surface: subcommands, exit codes, artifact round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import snrq
from snrq import CalibBatch, GridSpec, SeededRng, cholesky, cli, fit_grid, oracle, pipeline
from snrq.cli import cli_main
from snrq.matio import write_matrix
from snrq.oracle import DitherSetup, alpha_grid_scan, dither_experiment, exhaustive_row, levels


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_missing_config_exits_1_and_names_path(capsys):
    code, _, err = run(capsys, "quantize", "--config", "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_bad_json_config_exits_1(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert "cfg.json" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"solvr": {}}))
    code, _, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1


@pytest.mark.parametrize("cfg, message", [
    ({"solver": [["solver", "gptq"]]}, "must be a JSON object"),
    ({"solver": []}, "must be a JSON object"),
    ([], "must be a JSON object"),
    ({"network": {"weight_paths": "abc"}}, "weight_paths must be an array"),
    ({"network": {"dims": "12"}}, "dims must be an array"),
    ({"network": {"dims": [4, 4], "weight_paths": [5]}}, "weight_paths must be an array of strings"),
], ids=["pairs-section", "empty-list-section", "list-top-level", "str-weight-paths", "str-dims",
        "int-weight-path"])
def test_config_of_wrong_json_type_exits_1(tmp_path, capsys, cfg, message):
    # dict() would read a list of pairs as a section, and tuple() a string as a list of characters
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err.startswith("usage error:") and message in err and "Traceback" not in err
    assert out == ""


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_invalid_group_size_is_validation_failure(tmp_path, capsys):
    cfg = {
        "grid": {"bits": 3, "group_size": 5},
        "network": {"depth": 2, "width": 8},
        "calibration": {"n_sequences": 16},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "quantize", "--config", str(p))
    assert code == 2
    assert "group_size" in err


def test_group_size_is_checked_for_every_layer_before_any_runs(tmp_path, capsys, monkeypatch):
    # layer 0 (16 columns) fits group_size 16 but layer 1 (8 columns) does not
    solved, solve = [], pipeline._solve_layer
    monkeypatch.setattr(pipeline, "_solve_layer", lambda *args: solved.append(args) or solve(*args))
    cfg = {
        "grid": {"bits": 3, "group_size": 16},
        "network": {"dims": [16, 8, 12]},
        "calibration": {"n_sequences": 16},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "quantize", "--config", str(p), "--out-dir", str(out_dir))
    assert code == 2
    assert err == "error: layer 1: group_size 16 does not divide 8 columns\n"
    assert out == "" and solved == []
    assert not list(out_dir.glob("layer_*"))


def test_synth_then_quantize_roundtrip(tmp_path, capsys):
    net_dir = tmp_path / "net"
    code, out, _ = run(capsys, "synth", "--depth", "2", "--dim", "8",
                       "--seed", "5", "--out-dir", str(net_dir))
    assert code == 0
    manifest = json.loads((net_dir / "network.json").read_text())
    assert manifest["dims"] == [8, 8, 8]

    cfg = {
        "grid": {"bits": 3},
        "alpha": {"alpha_mode": "sample", "beta_lambda": 5.0},
        "solver": {"solver": "snrq"},
        "calibration": {"n_sequences": 24},
        "network": {
            "dims": manifest["dims"],
            "weight_paths": [str(net_dir / p) for p in manifest["weight_paths"]],
        },
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "quantize", "--config", str(cfg_path),
                       "--out-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["version"] == 3
    assert {"layers", "end_to_end", "config", "determinism_hash", "tool", "timing"} <= set(report)
    assert len(report["layers"]) == len(report["timing"]["layer_ms"]) == 2
    for l, rec in enumerate(report["layers"]):
        assert (out_dir / f"layer_{l:02d}_codes.snrqmat").is_file()
        assert (out_dir / f"layer_{l:02d}_dequant.snrqmat").is_file()
        assert rec["proxy_loss"] >= 0.0


def test_overflowing_finite_weights_exit_2_without_infinity(tmp_path, capsys):
    # every weight is finite, but squares of the second layer's errors overflow
    rng = np.random.default_rng(0)
    write_matrix(tmp_path / "w0.snrqmat", rng.normal(size=(8, 8)), dtype="f64")
    write_matrix(tmp_path / "w1.snrqmat", 1e200 * rng.normal(size=(8, 8)), dtype="f64")
    cfg = {"calibration": {"n_sequences": 16},
           "network": {"dims": [8, 8, 8], "weight_paths": ["w0.snrqmat", "w1.snrqmat"]}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "quantize", "--config", str(p),
                             "--out-dir", str(tmp_path / "run"))
    assert code == 2
    assert "Infinity" not in out + err
    assert err.splitlines() == ["error: layer 1: proxy_loss, weight_mse not finite"]
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "run" / "report.json").exists()


def test_dither_demo_prints_closed_form(capsys):
    code, out, _ = run(capsys, "dither-demo", "--w", "0.3", "--x", "1",
                       "--trials", "200000", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["var_fixed_hat"] - 0.04) < 1e-3
    assert np.isclose(payload["var_fixed_closed"], 0.04)


def test_oracle_synth(capsys, tmp_path):
    out_file = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "oracle", "--synth-n", "4", "--bits", "2",
                       "--seed", "3", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_evaluated"] == 4 ** 4
    assert len(payload["best_codes"]) == 4


def test_oracle_requires_inputs(capsys):
    code, _, err = run(capsys, "oracle")
    assert code == 1


def test_alpha_scan_synth(capsys):
    code, out, _ = run(capsys, "alpha-scan", "--synth", "--grid-points", "11")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 11
    assert 0.0 <= payload["alpha_best"] <= 1.0


def test_sweep_cli(tmp_path, capsys):
    cfg = {
        "network": {"depth": 2, "width": 8},
        "calibration": {"n_sequences": 16},
        "grid": {"bits": 3},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "sweep", "--config", str(p), "--axis", "K",
                       "--values", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert [r["value"] for r in payload["rows"]] == [1, 2]


def test_sweep_bad_values(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "sweep", "--config", str(p), "--axis", "K",
                       "--values", "one,two")
    assert code == 1


def test_variance_sweep_cli(tmp_path, capsys):
    cfg = {
        "network": {"depth": 2, "width": 8},
        "calibration": {"n_sequences": 16},
        "alpha": {"alpha_mode": "sample"},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "variance-sweep", "--config", str(p), "--repeats", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["modes"]) == {"fixed_at_mean", "sampled"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0


def test_oracle_budget_overflow_exits_2(capsys):
    # 8**30 candidates: an int64 product would wrap past the budget check
    code, _, err = run(capsys, "oracle", "--synth-n", "30", "--bits", "3")
    assert code == 2
    assert "exceed the budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", [
    {"damping": float("nan")},
    {"damping": "x"},
    {"damping": -1},
    {"damping": True},
    {"gptaq_alpha": float("inf")},
    {"gptaq_alpha": "x"},
    {"seed": "a"},
    {"seed": 1.5},
    {"seed": True},
], ids=["nan-damping", "str-damping", "negative-damping", "bool-damping", "inf-gptaq-alpha",
        "str-gptaq-alpha", "str-seed", "float-seed", "bool-seed"])
def test_bad_top_level_scalar_is_usage_error(tmp_path, capsys, entry):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict({"network": {"depth": 1, "width": 4}}, **entry)))
    code, _, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("out_dir", [5, ["a"], True, "run", None],
                         ids=["int", "list", "bool", "str", "null"])
def test_out_dir_of_wrong_type_is_usage_error(tmp_path, capsys, out_dir):
    # the output directory is the --out-dir argument, not part of the run's
    # config: an out_dir key in a config file, of any type, is an unknown key
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 1, "width": 4}, "out_dir": out_dir}))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err == f"usage error: config file {p}: unknown config keys: ['out_dir']\n"
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["quantize", "--config", "{cfg}", "--out-dir", "{file}"], "not a directory"),
    (["synth", "--out-dir", "{file}"], "not a directory"),
    (["quantize", "--config", "{cfg}", "--out-dir", "{file}/sub"], "not a directory"),
    (["sweep", "--config", "{cfg}", "--axis", "K", "--values", "1", "--out", "{dir}"],
     "is a directory"),
], ids=["quantize-out-dir-is-file", "synth-out-dir-is-file", "quantize-out-dir-under-file",
        "sweep-out-is-dir"])
def test_output_path_of_wrong_kind_is_usage_error(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"depth": 1, "width": 4},
                               "calibration": {"n_sequences": 8}}))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    paths = {"cfg": cfg, "file": tmp_path / "file", "dir": tmp_path / "dir"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("usage error:") and message in err and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("out, message", [
    ("{dir}", "is a directory"),
    ("{dir}/missing/x.json", "file not found"),
    ("{file}/x.json", "not a directory"),
], ids=["dir", "missing-parent", "parent-is-file"])
def test_bad_out_path_fails_before_the_work(tmp_path, capsys, monkeypatch, out, message):
    calls = []
    monkeypatch.setattr(cli, "sweep", lambda *args: calls.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"depth": 1, "width": 4},
                               "calibration": {"n_sequences": 8}}))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = out.format(dir=tmp_path / "dir", file=tmp_path / "file")
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--axis", "K",
                            "--values", "1", "--out", out)
    assert code == 1
    assert err == f"usage error: {message}: {out}\n"
    assert stdout == "" and calls == []


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array with shape (10**15,)")

    monkeypatch.setattr(oracle, "dither_experiment", exhausted)  # cli imports it per call
    code, out, err = run(capsys, "dither-demo", "--w", "0.3", "--x", "1", "--trials", "100")
    assert code == 2
    assert err == "error: out of memory: Unable to allocate 7.11 PiB for an array with shape (10**15,)\n"
    assert out == ""


@pytest.mark.parametrize("section,entry", [
    ("solver", {"solver": "ksnrq", "beam_width": 1.5}),
    ("solver", {"solver": "ksnrq", "beam_width": True}),
    ("solver", {"cd_passes": 0.5}),
    ("solver", {"block_size": 2.5}),
    ("solver", {"act_order": "no"}),
    ("solver", {"memory_budget_mb": -1}),
    ("grid", {"bits": 3.5}),
    ("grid", {"group_size": 2.5}),
    ("grid", {"symmetric": "yes"}),
    ("grid", {"mse_clip": 1}),
    ("calibration", {"n_sequences": 16.5}),
    ("network", {"depth": 1, "width": 8.5}),
    ("network", {"depth": 1.5, "width": 8}),
    ("network", {"dims": [8.5, 4]}),
    ("alpha", {"alpha_mode": "sample", "beta_lambda": float("nan")}),
    ("alpha", {"alpha_mode": "sample", "beta_lambda": float("inf")}),
    ("alpha", {"alpha_mode": "sample", "beta_lambda": True}),
    ("alpha", {"alpha_value": True}),
], ids=["float-beam-width", "bool-beam-width", "float-cd-passes", "float-block-size",
        "str-act-order", "negative-memory-budget", "float-bits", "float-group-size",
        "str-symmetric", "int-mse-clip", "float-n-sequences", "float-width", "float-depth",
        "float-dims", "nan-beta-lambda", "inf-beta-lambda", "bool-beta-lambda",
        "bool-alpha-value"])
def test_config_field_of_wrong_type_is_usage_error(tmp_path, capsys, section, entry):
    cfg = {"network": {"depth": 1, "width": 8}, "calibration": {"n_sequences": 16}}
    cfg[section] = dict(cfg.get(section, {}), **entry)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in err


BOTH_KEYS = "alpha config sets both 'alpha_mode' and 'mode'"
MODES = "alpha mode must be one of ('fixed', 'closed_form', 'sampled')"


@pytest.mark.parametrize("alpha,message", [
    ({"alpha_mode": "fixed", "mode": "sampled"}, BOTH_KEYS),
    ({"alpha_mode": "sample", "mode": "sampled"}, BOTH_KEYS),
    ({"mode": {}}, f"{MODES}, got {{}}"),
    ({"mode": ["fixed"]}, f"{MODES}, got ['fixed']"),
], ids=["both-keys", "both-keys-same-after-alias", "object-mode", "array-mode"])
def test_bad_alpha_mode_is_usage_error(tmp_path, capsys, alpha, message):
    # a mode named twice would run one of them silently; a non-string one
    # once failed in the alias lookup with "unhashable type"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 1, "width": 8},
                             "calibration": {"n_sequences": 16}, "alpha": alpha}))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err == f"usage error: config file {p}: {message}\n"
    assert out == ""


def test_network_dims_with_depth_is_usage_error(tmp_path, capsys):
    # dims and depth are two spellings of one network: given both, which one
    # the run means is unknown
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 3, "dims": [8, 6]}}))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err == (f"usage error: config file {p}: network config sets 'dims' "
                   "and also 'depth' or 'width'\n")
    assert out == ""


@pytest.mark.parametrize("section,field", [
    ("alpha", "alpha_value"), ("alpha", "beta_lambda"), (None, "damping"), (None, "gptaq_alpha"),
], ids=lambda v: v or "top")
def test_float_field_beyond_the_float_range_is_usage_error(tmp_path, capsys, section, field):
    # JSON has integers of any length; one that no float holds is a bad value,
    # not an OverflowError traceback out of the range check
    huge = int("1" + "0" * 400)
    cfg = {"network": {"depth": 1, "width": 4}, "calibration": {"n_sequences": 8}}
    if section is None:
        cfg[field] = huge
    else:
        cfg[section] = {field: huge}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err == f"usage error: config file {p}: {field} must be a finite number, got {huge}\n"
    assert out == ""


@pytest.mark.parametrize("axis,values", [("cd_passes", "0.7,1.9"), ("K", "2,2.5")])
def test_sweep_non_integral_integer_value_is_usage_error(tmp_path, capsys, axis, values):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 1, "width": 8},
                             "calibration": {"n_sequences": 16}}))
    code, out, err = run(capsys, "sweep", "--config", str(p), "--axis", axis, "--values", values)
    assert code == 1
    assert "usage error" in err
    assert out == ""


def test_sweep_zero_beam_width_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "sweep", "--config", str(p), "--axis", "K", "--values", "0")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("flags", [("--tau-z", "1e-320"), ("--tau-s", "1e200"), ("--tau-z", "1e300")],
                         ids=["tau-z-squared-underflows", "tau-s-squared-overflows",
                              "tau-z-squared-overflows"])
def test_dither_demo_closed_form_out_of_range_is_non_finite(capsys, flags):
    # squaring tau underflows to 0 or overflows; Python's float arithmetic
    # raises ZeroDivisionError or OverflowError there, numpy's gives inf or nan
    code, out, err = run(capsys, "dither-demo", "--w", "1", "--x", "1", *flags, "--trials", "10")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


def test_dither_demo_zero_trials_is_usage_error(capsys):
    code, _, err = run(capsys, "dither-demo", "--w", "0.3", "--x", "1", "--trials", "0")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("flag,value", [("--w", "nan"), ("--x", "inf"), ("--tau-s", "inf")])
def test_dither_demo_non_finite_input_is_usage_error(capsys, flag, value):
    argv = {"--w": "0.3", "--x": "1", "--tau-s": "1"}
    argv[flag] = value
    code, out, err = run(capsys, "dither-demo", *[t for kv in argv.items() for t in kv],
                         "--trials", "10")
    assert code == 1
    assert "usage error" in err
    assert out == ""


def test_warning_is_one_line_without_source(tmp_path, capsys):
    # one repeat warns that the spreads degenerate to 0: the CLI prints one
    # "warning:" line, not Python's file:line header and echoed source line
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 2, "width": 8},
                             "calibration": {"n_sequences": 16}}))
    src = Path(snrq.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "snrq.cli", "variance-sweep", "--config", str(p),
                           "--repeats", "1"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("warning: ") and ".py:" not in proc.stderr
    # in process, the caller's warning handler is back in place afterwards
    handler = warnings.showwarning
    code, _, err = run(capsys, "variance-sweep", "--config", str(p), "--repeats", "1")
    assert code == 0 and err.startswith("warning: ") and len(err.splitlines()) == 1
    assert warnings.showwarning is handler


def test_variance_sweep_zero_repeats_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "variance-sweep", "--config", str(p), "--repeats", "0")
    assert code == 1
    assert "usage error" in err


def test_synth_weight_paths_resolve_against_config_dir(tmp_path, capsys, monkeypatch):
    net_dir = tmp_path / "net"
    code, _, _ = run(capsys, "synth", "--depth", "2", "--dim", "8", "--out-dir", str(net_dir))
    assert code == 0
    manifest = json.loads((net_dir / "network.json").read_text())
    cfg = {
        "calibration": {"n_sequences": 24},
        "network": {"dims": manifest["dims"], "weight_paths": manifest["weight_paths"]},
    }
    (net_dir / "cfg.json").write_text(json.dumps(cfg))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, _, err = run(capsys, "quantize", "--config", str(net_dir / "cfg.json"),
                       "--out-dir", "run")
    assert code == 0, err
    assert (elsewhere / "run" / "report.json").is_file()


def synth_6_5_3(capsys, net_dir):
    """Weight files of a 6-5-3 network, and their manifest."""
    code, _, _ = run(capsys, "synth", "--dims", "6,5,3", "--seed", "2", "--out-dir", str(net_dir))
    assert code == 0
    return json.loads((net_dir / "network.json").read_text())


def test_hash_does_not_depend_on_how_weight_paths_are_spelled(tmp_path, capsys, monkeypatch):
    net_dir = tmp_path / "net"
    manifest = synth_6_5_3(capsys, net_dir)
    cfg = {"calibration": {"n_sequences": 24}, "seed": 4,
           "network": {"dims": manifest["dims"], "weight_paths": manifest["weight_paths"]}}
    (net_dir / "c8.json").write_text(json.dumps(cfg))
    sub = tmp_path / "sub"
    sub.mkdir()
    cfg["network"]["weight_paths"] = ["../net/" + p for p in manifest["weight_paths"]]
    (sub / "c8.json").write_text(json.dumps(cfg))

    reports = []
    for cwd, config in [(net_dir, "c8.json"), (tmp_path, str(net_dir / "c8.json")),
                        (sub, "c8.json")]:
        monkeypatch.chdir(cwd)
        code, out, err = run(capsys, "quantize", "--config", config)
        assert code == 0, err
        reports.append(json.loads(out))
    paths = [tuple(r["config"]["network"]["weight_paths"]) for r in reports]
    assert len(set(paths)) == 3  # three spellings of the same files
    assert len({r["determinism_hash"] for r in reports}) == 1


@pytest.mark.parametrize("dims, message", [
    ([16, 16, 16], "weights_00.snrqmat: layer 0 of dims [16, 16, 16] is 16 x 16, the file is 5 x 6"),
    ([6, 5, 4], "weights_01.snrqmat: layer 1 of dims [6, 5, 4] is 4 x 5, the file is 3 x 5"),
    ([6, 5], "2 weight files for the 1 layers of dims [6, 5]"),
    ([6, 5, 3, 2], "2 weight files for the 3 layers of dims [6, 5, 3, 2]"),
], ids=["wider", "last-layer", "fewer-layers", "more-layers"])
def test_weight_files_must_match_dims(tmp_path, capsys, dims, message):
    manifest = synth_6_5_3(capsys, tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"calibration": {"n_sequences": 24},
                             "network": {"dims": dims, "weight_paths": manifest["weight_paths"]}}))
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "quantize", "--config", str(p), "--out-dir", str(out_dir))
    assert code == 2
    assert err.startswith("error: ") and err.rstrip().endswith(message) and len(err.splitlines()) == 1
    assert out == ""
    assert not out_dir.exists()  # fails before any layer file is written


def test_weight_paths_without_dims_is_usage_error(tmp_path, capsys):
    manifest = synth_6_5_3(capsys, tmp_path)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"weight_paths": manifest["weight_paths"]}}))
    code, out, err = run(capsys, "quantize", "--config", str(p))
    assert code == 1
    assert err.startswith("usage error:") and "weight_paths needs dims" in err
    assert out == ""


def alpha_scan_files(tmp_path, w_scale=1.0, xq_cols=16):
    rng = np.random.default_rng(3)
    files = {
        "--w-path": w_scale * rng.normal(size=(4, 8)),
        "--w-hat-path": rng.normal(size=(4, 8)),
        "--xf-path": rng.normal(size=(8, 16)),
        "--xq-path": rng.normal(size=(8, xq_cols)),
    }
    argv = []
    for flag, m in files.items():
        path = tmp_path / (flag.strip("-") + ".snrqmat")
        write_matrix(path, m, dtype="f64")
        argv += [flag, str(path)]
    return argv, files


def test_alpha_scan_matrix_files(tmp_path, capsys):
    argv, m = alpha_scan_files(tmp_path)
    code, out, err = run(capsys, "alpha-scan", *argv, "--grid-points", "11")
    assert code == 0, err
    batch = CalibBatch(xf=m["--xf-path"], xq=m["--xq-path"])
    expected = alpha_grid_scan(m["--w-path"], m["--w-hat-path"], batch, 11)
    payload = json.loads(out)
    assert payload["alpha_best"] == expected.alpha_best
    assert payload["values"] == expected.values.tolist()


def test_alpha_scan_mismatched_activations_exit_2(tmp_path, capsys):
    argv, _ = alpha_scan_files(tmp_path, xq_cols=15)
    code, out, err = run(capsys, "alpha-scan", *argv)
    assert code == 2
    assert err == "error: xf (8, 16) and xq (8, 15) must be equal 2-D shapes\n"
    assert out == ""


def test_alpha_scan_needs_all_four_paths(tmp_path, capsys):
    argv, _ = alpha_scan_files(tmp_path)
    code, out, err = run(capsys, "alpha-scan", *argv[:4])
    assert code == 1
    assert err == "usage error: alpha-scan needs --synth or all four matrix paths\n"
    assert out == ""


def test_alpha_scan_overflow_is_one_error_line(tmp_path, capsys):
    argv, _ = alpha_scan_files(tmp_path, w_scale=1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "alpha-scan", *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert out == ""


def test_alpha_scan_too_few_grid_points_is_usage_error(capsys):
    code, _, err = run(capsys, "alpha-scan", "--synth", "--grid-points", "2")
    assert code == 1
    assert "usage error" in err


def test_oracle_negative_synth_n_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "--synth-n", "-3")
    assert code == 1
    assert "usage error" in err


def test_sweep_empty_values_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "sweep", "--config", str(p), "--axis", "K", "--values", ",")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_sweep_non_finite_integer_value_is_usage_error(tmp_path, capsys, value):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "sweep", "--config", str(p), "--axis", "K", "--values", value)
    assert code == 1
    assert "usage error" in err


def test_sweep_non_finite_beta_lambda_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"network": {"depth": 1, "width": 4},
                             "calibration": {"n_sequences": 8}}))
    code, out, err = run(capsys, "sweep", "--config", str(p), "--axis", "beta_lambda",
                         "--values", "inf")
    assert code == 1
    assert "usage error" in err
    assert out == ""


@pytest.mark.parametrize("bits", ["1", "9"])
def test_oracle_bits_out_of_range_is_usage_error(capsys, bits):
    code, _, err = run(capsys, "oracle", "--synth-n", "3", "--bits", bits)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("flags", [
    ["--dims", "a,b"], ["--dims", "4"], ["--depth", "0"], ["--dim", "-3"],
], ids=["non-integer-dims", "one-dim", "zero-depth", "negative-dim"])
def test_synth_bad_flags_are_usage_errors(tmp_path, capsys, flags):
    code, out, err = run(capsys, "synth", *flags, "--out-dir", str(tmp_path / "net"))
    assert code == 1
    assert err.startswith("usage error")
    assert out == ""
    assert not (tmp_path / "net").exists()


def _oracle_files(tmp_path, r, y):
    write_matrix(tmp_path / "r.snrqmat", np.asarray(r, dtype=float), dtype="f64")
    write_matrix(tmp_path / "y.snrqmat", np.asarray(y, dtype=float), dtype="f64")
    return ["oracle", "--r-path", str(tmp_path / "r.snrqmat"),
            "--y-path", str(tmp_path / "y.snrqmat")]


@pytest.mark.parametrize("r, y, message", [
    ([[1, 2, 3], [0, 1, 4]], [[1, 2]], "need an n x n R"),
    ([[2, 1], [0, 1]], [[1, 2, 3]], "need an n x n R"),
    ([[0, 1], [0, 1]], [[1, 2]], "--r-path"),
    ([[1e200, 0], [0, 1e200]], [[1e200, 3e200]], "overflows"),
], ids=["non-square-r", "wrong-y-length", "singular-r", "overflowing-costs"])
def test_oracle_bad_matrix_files_exit_2(tmp_path, capsys, r, y, message):
    code, out, err = run(capsys, *_oracle_files(tmp_path, r, y))
    assert code == 2
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
    assert out == ""


def test_oracle_overflowing_solve_names_its_inputs(tmp_path, capsys):
    # the solve of R w = y overflows to inf without raising; the error names
    # the two files and the overflow, not the grid fit that would meet the inf
    argv = _oracle_files(tmp_path, [[1e-300, 1], [0, 1e-300]], [[1e300, 1e300]])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --r-path {argv[2]}, --y-path {argv[4]}: "
                                f"the solution of R w = y overflows"]


def test_oracle_empty_matrix_files_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, *_oracle_files(tmp_path, np.zeros((0, 0)), np.zeros((1, 0))))
    assert code == 2
    assert err.startswith("error:") and "need an n x n R (n >= 1)" in err
    assert len(err.splitlines()) == 1 and out == ""


def test_oracle_matrix_files_solve_for_the_row(tmp_path, capsys):
    code, out, _ = run(capsys, *_oracle_files(tmp_path, [[2, 1], [0, 1]], [[1, 2]]))
    assert code == 0
    assert json.loads(out)["n_evaluated"] == 4 ** 2


def test_result_commands_print_every_dataclass_field(capsys):
    # stdout is every field of the result, arrays as lists, numbers as Python writes them
    def dumped(payload):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    rng = SeededRng(3, 7)
    a = rng.normal(size=(4, 8))
    r_upper = cholesky(a @ a.T + 4 * np.eye(4))[0].T
    w_row = rng.normal(size=(1, 4))
    params = fit_grid(w_row, GridSpec(bits=2, symmetric=True))
    res = exhaustive_row(r_upper, r_upper @ w_row[0], [levels(0, j, params) for j in range(4)])
    expected = dumped({"best_codes": res.best_codes.tolist(), "best_values": res.best_values.tolist(),
                       "best_cost": res.best_cost, "n_evaluated": res.n_evaluated})
    assert run(capsys, "oracle", "--synth-n", "4", "--seed", "3")[1] == expected

    rng = SeededRng(5, 11)
    w = rng.normal(size=(4, 8))
    w_hat = w + 0.1 * rng.normal(size=(4, 8))
    xq = rng.normal(size=(8, 32))
    xf = xq + 0.2 * rng.normal(size=(8, 32))
    scan = alpha_grid_scan(w, w_hat, CalibBatch(xf=xf, xq=xq), 7)
    expected = dumped({"alpha_best": scan.alpha_best, "alphas": scan.alphas.tolist(),
                       "values": scan.values.tolist()})
    assert run(capsys, "alpha-scan", "--synth", "--grid-points", "7", "--seed", "5")[1] == expected

    res = dither_experiment(DitherSetup(w=0.3, x=1.0, n_trials=500), SeededRng(2, 13))
    expected = dumped({k: getattr(res, k) for k in (
        "var_fixed_hat", "var_smoothed_hat", "var_fixed_closed", "var_bound",
        "se_fixed_hat", "se_smoothed_hat")})
    assert run(capsys, "dither-demo", "--w", "0.3", "--x", "1", "--trials", "500",
               "--seed", "2")[1] == expected


def _oracle_case(n, non_square, long_y, zero_diag, seed):
    """oracle over small integer R and y files: R possibly non-square or with a zero on its
    diagonal, y possibly one value too long."""
    rng = np.random.default_rng(seed)
    r = np.triu(rng.integers(-3, 4, size=(n, n + non_square))).astype(float)
    r[np.diag_indices(n)] = rng.integers(1, 4, size=n)
    if zero_diag:
        k = rng.integers(n)
        r[k, k] = 0.0
    y = rng.integers(-3, 4, size=(1, n + long_y)).astype(float)
    return ["oracle", "--r-path", "r.snrqmat", "--y-path", "y.snrqmat"], {"r.snrqmat": r, "y.snrqmat": y}


_fast_argv = st.one_of(
    st.builds(
        lambda n, bits, asym: (["oracle", "--synth-n", str(n), "--bits", str(bits)]
                               + (["--asymmetric"] if asym else []), {}),
        st.integers(-3, 8), st.integers(0, 10), st.booleans(),
    ),
    st.builds(lambda k: (["alpha-scan", "--synth", "--grid-points", str(k)], {}), st.integers(-2, 20)),
    st.builds(
        lambda dims, depth, dim: (["synth", "--dims", dims, "--depth", str(depth), "--dim", str(dim),
                                   "--out-dir", "net"], {}),
        st.text(alphabet="0123,- a", max_size=6), st.integers(-2, 3), st.integers(-2, 6),
    ),
    st.builds(_oracle_case, st.integers(1, 4), st.booleans(), st.booleans(), st.booleans(),
              st.integers(0, 2 ** 16)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_fast_argv)
def test_fast_subcommands_exit_0_1_2_without_traceback(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, a in files.items():
            write_matrix(name, a, dtype="f64")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# every key of every config section, with some values it takes (every file
# spelling among them) and values of every JSON type, null included
_CONFIG_VALUES = {
    "grid": {"bits": [2, 3, 4], "symmetric": [True, False], "group_size": [0, 2, 4],
             "mse_clip": [True, False]},
    "alpha": {"mode": ["fixed", "closed_form", "sampled", "sample"],
              "alpha_mode": ["fixed", "closed_form", "sampled", "sample"],
              "alpha_value": [0.0, 0.25, 1.0], "beta_lambda": [0.5, 5.0]},
    "solver": {"solver": ["rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq"],
               "beam_width": [1, 2], "block_size": [1, 2, 32], "act_order": [True, False],
               "cd_passes": [0, 1], "memory_budget_mb": [1, 2048]},
    "calibration": {"n_sequences": [1, 8], "distribution": ["normal", "uniform"]},
    "network": {"dims": [[4, 4, 4], [6, 4, 2]], "depth": [2], "width": [2, 4],
                "nonlinearity": ["relu", "none"], "weight_paths": [None]},
}
_SCALAR_VALUES = {"damping": [0.0, 0.01, 1e300], "gptaq_alpha": [0.25, -1e300],
                  "seed": [0, 3]}
_any_json = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.sampled_from([0.5, -1.0, 1e300]),
    st.sampled_from(["", "x", "sample", "snrq_lazy", "relu"]),
    st.lists(st.one_of(st.integers(-1, 9), st.none(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _value(values):
    return st.one_of(st.sampled_from(values), _any_json)


_config_dicts = st.fixed_dictionaries({}, optional=dict(
    {name: st.fixed_dictionaries({}, optional={k: _value(v) for k, v in keys.items()})
     for name, keys in _CONFIG_VALUES.items()},
    **{k: _value(v) for k, v in _SCALAR_VALUES.items()}))


# the values that a config takes, with a 2-layer network in every config
_small_config_dicts = st.fixed_dictionaries(
    {"network": st.fixed_dictionaries(
        {}, optional={k: st.sampled_from(v) for k, v in _CONFIG_VALUES["network"].items()})},
    optional=dict({name: st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in keys.items()})
                   for name, keys in _CONFIG_VALUES.items() if name != "network"},
                  **{k: st.sampled_from(v) for k, v in _SCALAR_VALUES.items()}))


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=_config_dicts)
def test_config_file_is_a_config_or_invalid_spec(d):
    # from_dict is the one reader of a config file: it returns a config or
    # raises InvalidSpec, and the config it returns reads back as itself
    try:
        cfg = pipeline.RunConfig.from_dict(d)
    except snrq.InvalidSpec:
        return
    assert pipeline.RunConfig.from_dict(json.loads(pipeline.json_text(asdict(cfg)))) == cfg


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(d=_small_config_dicts)
def test_quantize_of_an_accepted_config_exits_0_1_2_with_standard_json(d):
    try:
        cfg = pipeline.RunConfig.from_dict(d)
    except snrq.InvalidSpec:
        cfg = None
    assume(cfg is not None and len(cfg.network.dims) == 3)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("cfg.json").write_text(json.dumps(d))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["quantize", "--config", "cfg.json", "--out-dir", "run"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            report = _strict_json(out.getvalue())
            assert report["determinism_hash"] == pipeline.determinism_hash(report)
            assert _strict_json(Path("run", "report.json").read_text()) == report
        else:  # a run that fails writes nothing
            assert out.getvalue() == ""
            assert not Path("run").exists() or not any(Path("run").iterdir())


def _extreme_layers(dims, exponents, seed):
    """Layers of entries +-m * 10^e, m in [1, 10), with zeros, constant groups and one-signed rows."""
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(len(dims) - 1):
        shape = (dims[l + 1], dims[l])
        w = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(1.0, 10.0, size=shape)
        w *= 10.0 ** np.clip(exponents[l] + rng.integers(-2, 3, size=shape), -300, 307)
        w[rng.random(size=w.shape) < 0.2] = 0.0
        row = rng.integers(w.shape[0])
        w[row, :2] = w[row, 0]  # a constant group of the 2-column groups
        row = rng.integers(w.shape[0])
        w[row] = np.abs(w[row])  # a one-signed row
        layers.append(w)
    return layers


_extreme_runs = st.fixed_dictionaries({
    "dims": st.lists(st.sampled_from([2, 4]), min_size=2, max_size=3),
    "exponents": st.lists(st.integers(-300, 307), min_size=2, max_size=2),
    "seed": st.integers(0, 2 ** 16),
    "solver": st.sampled_from([("rtn", 1), ("snrq", 1), ("ksnrq", 2), ("gptq", 1), ("gptaq", 1)]),
    "cd_passes": st.sampled_from([0, 1]),
    "grid": st.fixed_dictionaries({"bits": st.sampled_from([2, 3, 4]), "symmetric": st.booleans(),
                                   "group_size": st.sampled_from([0, 2]), "mse_clip": st.booleans()}),
    "alpha": st.sampled_from(["fixed", "closed_form", "sampled"]),
})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run_case=_extreme_runs)
def test_quantize_of_extreme_weight_files_exits_0_or_2_with_standard_json(run_case):
    # weight files of any finite magnitude, through every solver, grid and alpha
    # mode: a run succeeds with a report whose hash recomputes, or fails with one
    # error line, never with a traceback
    dims = run_case["dims"]
    solver, k = run_case["solver"]
    config = {
        "network": {"dims": dims, "weight_paths": [f"w{l}.snrqmat" for l in range(len(dims) - 1)]},
        "grid": run_case["grid"], "alpha": {"mode": run_case["alpha"]},
        "solver": {"solver": solver, "beam_width": k, "cd_passes": run_case["cd_passes"]},
        "calibration": {"n_sequences": 8},
    }
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        layers = _extreme_layers(dims, run_case["exponents"], run_case["seed"])
        for path, w in zip(config["network"]["weight_paths"], layers):
            write_matrix(path, w, dtype="f64")
        Path("cfg.json").write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["quantize", "--config", "cfg.json", "--out-dir", "run"])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            report = _strict_json(Path("run", "report.json").read_text())
            assert _strict_json(out.getvalue()) == report
            assert report["determinism_hash"] == pipeline.determinism_hash(report)
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_failed_run_leaves_no_stale_report(tmp_path, capsys):
    # a run that fails at layer 1 into the directory of an earlier run leaves
    # every file there as it was: the files are written only once a run succeeds
    out_dir = tmp_path / "run"
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"calibration": {"n_sequences": 16},
                                 "network": {"depth": 1, "width": 4}}))
    assert run(capsys, "quantize", "--config", str(small), "--out-dir", str(out_dir))[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(before) == ["layer_00_codes.snrqmat", "layer_00_dequant.snrqmat", "report.json"]

    rng = np.random.default_rng(0)
    write_matrix(tmp_path / "w0.snrqmat", rng.normal(size=(8, 8)), dtype="f64")
    write_matrix(tmp_path / "w1.snrqmat", 1e200 * rng.normal(size=(8, 8)), dtype="f64")
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"calibration": {"n_sequences": 16},
                               "network": {"dims": [8, 8, 8],
                                           "weight_paths": ["w0.snrqmat", "w1.snrqmat"]}}))
    code, _, err = run(capsys, "quantize", "--config", str(big), "--out-dir", str(out_dir))
    assert code == 2 and err.startswith("error: layer 1:"), err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_rerun_leaves_only_its_own_layer_files(tmp_path, capsys):
    # a depth-2 run into the directory of a depth-3 run removes the third
    # layer's files, and writes its layer files as new files: a hard link to
    # an earlier one keeps the earlier contents. Files of other names stay.
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    others = ["notes.txt", "layer_xx_codes.snrqmat", "layer_00_codes.snrqmat.bak", "layer_00_codes.csv"]
    for name in others:
        (out_dir / name).write_text("keep")
    for depth, seed in ((3, 1), (2, 2)):
        cfg = tmp_path / f"depth{depth}.json"
        cfg.write_text(json.dumps({"calibration": {"n_sequences": 16},
                                   "network": {"depth": depth, "width": 6}}))
        argv = ["quantize", "--config", str(cfg), "--out-dir", str(out_dir), "--seed", str(seed)]
        assert run(capsys, *argv)[0] == 0
        if depth == 3:
            first = (out_dir / "layer_00_codes.snrqmat").read_bytes()
            os.link(out_dir / "layer_00_codes.snrqmat", tmp_path / "kept_codes")
    layer_files = [f"layer_{l:02d}_{kind}.snrqmat" for l in range(2) for kind in ("codes", "dequant")]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(["report.json"] + layer_files + others)
    assert len(json.loads((out_dir / "report.json").read_text())["layers"]) == 2
    assert (tmp_path / "kept_codes").read_bytes() == first
    assert (out_dir / "layer_00_codes.snrqmat").read_bytes() != first
    assert all((out_dir / name).read_text() == "keep" for name in others)


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from snrq.cli import cli_main

tmp = Path(sys.argv[1])
base = {"calibration": {"n_sequences": 16}, "network": {"depth": 2, "width": 8},
        "grid": {"bits": 3}}
runs = []
solvers = [(s, {"solver": s}) for s in ("rtn", "snrq", "snrq_lazy", "ksnrq", "gptq", "gptaq")]
for name, solver in solvers + [("cd", {"solver": "snrq", "cd_passes": 1})]:
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(dict(base, solver=dict(solver, beam_width=2))))
    runs.append(["quantize", "--config", str(cfg), "--out-dir", str(tmp / name)])
cfg = tmp / "cd.json"
runs += [
    ["synth", "--depth", "2", "--dim", "8", "--out-dir", str(tmp / "net")],
    ["oracle", "--synth-n", "4", "--bits", "2"],
    ["alpha-scan", "--synth", "--grid-points", "5"],
    ["dither-demo", "--w", "0.3", "--x", "1", "--trials", "1000"],
    ["variance-sweep", "--config", str(cfg), "--repeats", "2"],
    ["sweep", "--config", str(cfg), "--axis", "K", "--values", "1,2"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli_main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # the production path is numpy only; scipy is a test dependency
    src = Path(snrq.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 13, "scipy": []}
