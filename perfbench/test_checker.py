"""Self-test of the benchmark's op checker.

Each tampered output must count as a failed op, so that a run cannot report
zero failures because a check never fires. Run from the repository root:

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checker  # noqa: E402
import harness  # noqa: E402

TINY = {
    "grid": {"bits": 3, "symmetric": True, "group_size": 0, "mse_clip": False},
    "alpha": {"alpha_mode": "fixed", "alpha_value": 0.5, "beta_lambda": 5.0},
    "solver": {"solver": "snrq", "act_order": True},
    "calibration": {"n_sequences": 32, "distribution": "normal"},
    "network": {"depth": 2, "width": 16, "nonlinearity": "relu"},
}
HEAD = len(checker.MAGIC) + checker.HEADER.size


@pytest.fixture
def op(tmp_path, monkeypatch):
    """A checker that has accepted one real op, and that op's outputs."""
    monkeypatch.setitem(harness.WORKLOADS, "tiny", {"config": TINY})
    wl = harness.setup("tiny", 7, tmp_path)
    _, code, out = harness.run_op(wl)
    chk = checker.OpChecker(wl.ref)
    assert chk.check(code, out, wl.out_dir) is not None, chk.problems
    return chk, code, out, wl


def _patch_payload(path: Path, dtype, edit) -> None:
    data = bytearray(path.read_bytes())
    values = np.frombuffer(bytes(data[HEAD:]), dtype=dtype).copy()
    edit(values)
    data[HEAD:] = values.tobytes()
    path.write_bytes(bytes(data))


def test_repeated_op_passes(op):
    chk, code, out, wl = op
    assert chk.check(code, out, wl.out_dir) is not None
    assert (chk.attempted, chk.failed) == (2, 0)


def test_tampered_dequant_file_fails(op):
    chk, code, out, wl = op

    def nudge(v):
        v[0] += 1e-3

    _patch_payload(wl.out_dir / "layer_01_dequant.snrqmat", "<f8", nudge)
    assert chk.check(code, out, wl.out_dir) is None
    assert (chk.attempted, chk.failed) == (2, 1)
    assert "heldout_output_mse" in chk.problems[0]


def test_out_of_range_code_fails(op):
    chk, code, out, wl = op

    def overflow(v):
        v[0] = wl.ref.code_max + 1

    _patch_payload(wl.out_dir / "layer_00_codes.snrqmat", "<i4", overflow)
    assert chk.check(code, out, wl.out_dir) is None
    assert (chk.attempted, chk.failed) == (2, 1)
    assert "outside" in chk.problems[0]


def test_hash_differing_between_ops_fails(op):
    chk, code, out, wl = op
    report = json.loads(out)
    report["determinism_hash"] = "0" * 64
    assert chk.check(code, json.dumps(report), wl.out_dir) is None
    assert (chk.attempted, chk.failed) == (2, 1)
    assert "determinism_hash" in chk.problems[0]


@pytest.mark.parametrize("code, out", [(2, ""), ("RuntimeError: boom", "")])
def test_nonzero_exit_or_exception_fails(op, code, out):
    chk, _, _, wl = op
    assert chk.check(code, out, wl.out_dir) is None
    assert (chk.attempted, chk.failed) == (2, 1)
