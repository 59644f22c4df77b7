"""Benchmark of `snrq quantize`: end-to-end time and quality, or a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload deep_greedy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The seed generates the workload (network, calibration and held-out data all
follow from the config's seed). With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it prints the per-layer metrics of a separate traced
run. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload in its
own process, one after the other, and with --trace 1 it makes both the timed
and the traced run of each.

Thread counts are pinned before numpy is imported: SNRQ_THREADS=2 row-chunk
workers and one BLAS/OpenMP thread, so at most two compute threads run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(json.loads((HERE / "workloads.json").read_text())["workloads"])

PINNED = {
    "SNRQ_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=_positive, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_argv(args, workload, trace):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]


def run_all(args) -> int:
    """Every workload in its own process, timed and then, with --trace 1, traced.

    Combines the result lines, with metric names prefixed by the workload.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, trace in [(w, t) for w in WORKLOADS for t in range(args.trace + 1)]:
        proc = subprocess.run(_child_argv(args, w, trace), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {w} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "snrq" / "__init__.py").is_file():
        print(f"no snrq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # numpy and snrq load here, after the thread pins

    if args.setup_probe:
        work_dir = harness.WORK / f"probe-pid{os.getpid()}"
        harness.setup(args.workload, args.seed, work_dir)
        print(harness.READY, flush=True)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    harness.WORK.mkdir(exist_ok=True)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), PINNED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
