"""Command-line surface: subcommands, exit codes, artifact round trips."""

import json

import numpy as np
import pytest

from snrq.cli import cli_main


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
    assert report["version"] == 1
    assert {"layers", "end_to_end", "config", "determinism_hash", "tool"} <= set(report)
    assert len(report["layers"]) == 2
    for rec in report["layers"]:
        assert (out_dir / rec["codes_file"]).is_file()
        assert (out_dir / rec["dequant_file"]).is_file()
        assert rec["proxy_loss"] >= 0.0


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


def test_sweep_zero_beam_width_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    code, _, err = run(capsys, "sweep", "--config", str(p), "--axis", "K", "--values", "0")
    assert code == 1
    assert "usage error" in err


def test_dither_demo_zero_trials_is_usage_error(capsys):
    code, _, err = run(capsys, "dither-demo", "--w", "0.3", "--x", "1", "--trials", "0")
    assert code == 1
    assert "usage error" in err


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
