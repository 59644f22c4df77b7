"""The benchmark workloads still produce their committed outputs.

tests/golden.json pins, per workload config and seed, every layer file's
sha256, each layer's proxy loss and the held-out output MSE. A change that
moves codes on purpose regenerates it with tests/make_golden.py. The
workloads' reports also do not depend on the BLAS thread count.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from make_golden import GOLDEN, ROOT, ROW_DIGEST_CHARS, SEEDS, run_workload, workload_configs

GOLDEN_ENTRIES = json.loads(GOLDEN.read_text())
RTOL = 1e-12


def _codes_moved(got: str, want: str) -> str:
    """How many rows of codes differ, from the concatenated per-row digests."""
    k = ROW_DIGEST_CHARS
    moved = sum(got[i:i + k] != want[i:i + k] for i in range(0, max(len(got), len(want)), k))
    return f"codes differ in {moved} of {len(want) // k} rows"


def test_golden_covers_every_workload_and_seed():
    assert set(GOLDEN_ENTRIES) == set(workload_configs())
    for entries in GOLDEN_ENTRIES.values():
        assert set(entries) == {str(s) for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workload_configs()))
def test_workload_matches_golden(workload, seed):
    want = GOLDEN_ENTRIES[workload][str(seed)]
    got = run_workload(workload_configs()[workload], seed)
    where = f"{workload} seed {seed}"
    assert len(got["layers"]) == len(want["layers"]), f"{where}: layer count"
    for l, (g, w) in enumerate(zip(got["layers"], want["layers"])):
        assert g["codes_file"] == w["codes_file"], \
            f"{where} layer {l}: {_codes_moved(g['code_rows'], w['code_rows'])}"
        assert g["dequant_file"] == w["dequant_file"], f"{where} layer {l}: dequant bytes"
        assert g["proxy_loss"] == pytest.approx(w["proxy_loss"], rel=RTOL, abs=0.0), \
            f"{where} layer {l}: proxy_loss"
    assert got["heldout_output_mse"] == pytest.approx(want["heldout_output_mse"], rel=RTOL, abs=0.0), \
        f"{where}: heldout_output_mse"


def _blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


THREAD_CONFIGS = dict(workload_configs(),
                      width_128={"network": {"depth": 3, "width": 128},
                                 "calibration": {"n_sequences": 256}})


@pytest.mark.skipif(not _blas_is_openblas(),
                    reason="numpy's BLAS is not OpenBLAS, so OPENBLAS_NUM_THREADS sets nothing")
@pytest.mark.parametrize("workload", sorted(THREAD_CONFIGS))
def test_hash_is_the_same_at_one_and_two_blas_threads(tmp_path, workload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THREAD_CONFIGS[workload]))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "snrq.cli", "quantize", "--config", str(config),
                               "--seed", "1"], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(json.loads(proc.stdout)["determinism_hash"])
    assert hashes[0] == hashes[1], f"{workload}: the hash differs at 1 and 2 BLAS threads"
