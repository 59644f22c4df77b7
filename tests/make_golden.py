"""Golden outputs of the benchmark workloads, for tests/test_golden.py.

For each config in perfbench/workloads.json at each seed in SEEDS, one
in-process ``quantize_network`` run records the sha256 of every layer file,
a short digest of every row of codes (so a failing test can say how many
rows moved), each layer's ``proxy_loss`` and the run's
``heldout_output_mse``. On these workloads neither the layer files nor
the floats depend on the BLAS thread count, but on other BLAS builds or
hosts the floats can move in their last bits, so the test compares them at
a relative tolerance.

A change that alters codes on purpose rewrites the file and lists each
changed entry, and why, in CHANGES.md:

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from snrq.matio import read_matrix
from snrq.pipeline import RunConfig, quantize_network

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.json"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = (1, 2)
ROW_DIGEST_CHARS = 8


def row_digests(codes) -> str:
    """One short blake2b digest per row of ``codes``, concatenated."""
    return "".join(hashlib.blake2b(row.tobytes(), digest_size=ROW_DIGEST_CHARS // 2).hexdigest()
                   for row in codes)


def run_workload(config: dict, seed: int) -> dict:
    """The golden entry of one workload config at one seed."""
    with tempfile.TemporaryDirectory() as tmp:
        report = quantize_network(RunConfig.from_dict(dict(config, seed=seed)), tmp)
        layers = []
        for l, rec in enumerate(report["layers"]):
            entry = {"proxy_loss": rec["proxy_loss"]}
            files = {key: Path(tmp) / f"layer_{l:02d}_{kind}.snrqmat"
                     for key, kind in (("codes_file", "codes"), ("dequant_file", "dequant"))}
            for key, path in files.items():
                entry[key] = hashlib.sha256(path.read_bytes()).hexdigest()
            entry["code_rows"] = row_digests(read_matrix(files["codes_file"]))
            layers.append(entry)
    return {"layers": layers, "heldout_output_mse": report["end_to_end"]["heldout_output_mse"]}


def workload_configs() -> dict:
    return {name: w["config"] for name, w in json.loads(WORKLOADS.read_text())["workloads"].items()}


def main() -> int:
    golden = {name: {str(seed): run_workload(config, seed) for seed in SEEDS}
              for name, config in workload_configs().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
