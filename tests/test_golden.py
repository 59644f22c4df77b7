"""The benchmark workloads still produce their committed outputs.

tests/golden.json pins, per workload config and seed, every layer file's
sha256, each layer's proxy loss and the held-out output MSE. A change that
moves codes on purpose regenerates it with tests/make_golden.py.
"""

import json

import pytest

from make_golden import GOLDEN, ROW_DIGEST_CHARS, SEEDS, run_workload, workload_configs

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
