"""Workload set-up, the timed and the traced op loops, and their metrics.

One op is one in-process `snrq quantize --config <generated> --out-dir <dir>`
through `snrq.cli.cli_main`, with stdout captured. Ops run as a closed loop
with one client: each starts when the previous one has been checked.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checker
import tracer
from snrq.cli import cli_main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]

TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it
SETUP_PROBES = 7
READY = "ready"

END_TO_END = (
    ("quantize_s_p50", "s"),
    ("quantize_s_tail", "s"),
    ("weights_per_s", "weights/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("proxy_loss_total", "1"),
)
# Printed and checked, but not in the result line: across seeds its spread is
# wider than any bound a regression check could use (deep ReLU chains scale
# the output, and so its error, differently per seed).
REPORTED = (("heldout_output_mse", "1"),)


@dataclass
class Workload:
    name: str
    config: dict
    config_path: Path
    out_dir: Path
    ref: checker.Reference


def setup(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate the config and the checker's reference data for one seed."""
    config = copy.deepcopy(WORKLOADS[name]["config"])
    config["seed"] = seed
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Workload(name, config, config_path, work_dir / "op",
                    checker.Reference.from_config(config))


def run_op(wl: Workload):
    """One quantize op; returns (wall seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["quantize", "--config", str(wl.config_path), "--out-dir", str(wl.out_dir)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception as e:  # an op that raises is a failed op, not a failed run
        code = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if code != 0:
        print(f"op failed ({code}): {err.getvalue().strip()}", file=sys.stderr)
    return seconds, code, out.getvalue()


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it has the workload ready.

    The child imports numpy and snrq and generates the workload, as a run
    does before its first op (see run.py --setup-probe).
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line != READY:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return seconds


def tail(times: list[float]) -> tuple[float, int]:
    """(value, rank) of the highest percentile with TAIL_BEYOND ops beyond it.

    The value is the rank-th smallest time. With TAIL_BEYOND or fewer ops no
    percentile qualifies, and the maximum is returned.
    """
    s = sorted(times)
    k = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[k - 1], k


def environment(workload: str, seed: int, pinned: dict) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in pinned},
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _quality(report: dict | None) -> dict:
    if report is None:  # no op passed; the run reports correct: false
        return {"heldout_output_mse": 0.0, "proxy_loss_total": 0.0}
    return {
        "heldout_output_mse": report["end_to_end"]["heldout_output_mse"],
        "proxy_loss_total": sum(rec["proxy_loss"] for rec in report["layers"]),
    }


def timed_run(wl: Workload, seconds: float) -> dict:
    """Warm-up op, then ops for ``seconds``; end-to-end metrics with tracing off.

    Set-up probes are spread over the run, between ops, because the speed of
    a shared machine drifts over tens of seconds and imports feel it most.
    The time they take is added to the run, so ops still get ``seconds``.
    """
    chk = checker.OpChecker(wl.ref)
    _, code, out = run_op(wl)
    first = chk.check(code, out, wl.out_dir)
    times, setup_times = [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while time.perf_counter() < t_end:
        due = t_start + len(setup_times) * seconds / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and time.perf_counter() >= due:
            setup_times.append(probe_setup(wl.name, wl.config["seed"]))
            t_end += setup_times[-1]
            continue
        dt, code, out = run_op(wl)
        report = chk.check(code, out, wl.out_dir)
        first = first or report
        times.append(dt)
    p50 = statistics.median(times)
    tail_s, tail_rank = tail(times)
    values = {
        "quantize_s_p50": p50,
        "quantize_s_tail": tail_s,
        "weights_per_s": wl.ref.n_weights / p50,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_quality(first),
    }
    notes = {
        "quantize_s_p50": f"median of {len(times)} timed ops after 1 warm-up op",
        "quantize_s_tail": f"p{100 * tail_rank / len(times):.0f} of {len(times)} timed ops, "
                           f"{len(times) - tail_rank} beyond it",
        "weights_per_s": f"{wl.ref.n_weights} weights per op",
        "setup_s": f"median of {len(setup_times)} fresh processes",
    }
    for name, unit in END_TO_END + REPORTED:
        print(f"  {name:<20} {values[name]:.6g} {unit:<10} {notes.get(name, '')}")
    print(f"  {'failed_frac':<20} {chk.failed / chk.attempted:.6g} ratio      "
          f"{chk.failed} of {chk.attempted} ops failed")
    return {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {n: _metric(values[n], u) for n, u in END_TO_END},
        "problems": chk.problems,
        "op_seconds": times,
        "setup_seconds": setup_times,
    }


def traced_run(wl: Workload, seconds: float) -> dict:
    """Per-layer metrics from traced ops, interleaved with untraced ones.

    The untraced ops give the tracing overhead; one extra op measures the
    solvers' tracemalloc peak, which would distort the traced timings.
    """
    chk = checker.OpChecker(wl.ref)
    _, code, out = run_op(wl)
    chk.check(code, out, wl.out_dir)
    peaks: list[int] = []
    with tracer.solver_memory_peaks(peaks):
        _, code, out = run_op(wl)
    chk.check(code, out, wl.out_dir)

    tr = tracer.Tracer()
    traced, untraced, summaries = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(traced) < 2 or not untraced:
        if len(traced) <= len(untraced):
            first_span = len(tr.spans)
            with tr.traced_op(len(traced)):
                dt, code, out = run_op(wl)
            traced.append(dt)
            summaries.append(tracer.op_summary(tr.spans[first_span:]))
        else:
            dt, code, out = run_op(wl)
            untraced.append(dt)
        chk.check(code, out, wl.out_dir)

    per_op = [tracer.layer_metrics(sm, len(wl.ref.shapes)) for sm in summaries]
    problems = list(chk.problems)
    for name in sorted(tracer.COMPUTED):
        seen = {m[name] for m in per_op}
        if len(seen) != 1:
            problems.append(f"computed count {name} differs between traced ops: {sorted(seen)}")
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["solvers.tracemalloc_peak_mb"] = max(peaks, default=0) / 2**20
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    for name, unit in tracer.LAYER_METRICS:
        label = "(computed)" if name in tracer.COMPUTED else ""
        print(f"  {name:<36} {metrics[name]:.6g} {unit:<6} {label}")
    print(f"  traced ops {len(traced)}, untraced ops {len(untraced)}; "
          f"{chk.failed} of {chk.attempted} ops failed")
    print("  share of traced op time (span totals, nested spans overlap):")
    shares = stress_shares(summaries)
    for name, share in shares.items():
        print(f"    {name:<36} {share:.3f}")
    return {
        "correct": not problems,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {n: _metric(metrics[n], u) for n, u in tracer.LAYER_METRICS},
        "problems": problems,
        "shares": shares,
        "spans": tr.spans,
    }


def stress_shares(summaries: list[dict]) -> dict:
    """Median over traced ops of each span name's total time / op time."""
    shares: dict = {}
    for summary in summaries:
        root = summary[tracer.ROOT]["total_s"]
        for name, agg in summary.items():
            if name.count(".") == 1 and name != tracer.ROOT:
                shares.setdefault(name, []).append(agg["total_s"] / root)
    med = {n: statistics.median(v) for n, v in shares.items()}
    return dict(sorted(med.items(), key=lambda kv: -kv[1]))


def run(workload: str, seed: int, seconds: float, trace: bool, pinned: dict) -> dict:
    work_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    env = environment(workload, seed, pinned)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  seconds {seconds}")
    print("environment " + json.dumps(env, sort_keys=True))
    wl = setup(workload, seed, work_dir)
    try:
        result = traced_run(wl, seconds) if trace else timed_run(wl, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in result["problems"]:
        print(f"  problem: {p}")
    record = {"environment": env, "config": wl.config, **result}
    out = WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, sort_keys=True) + "\n")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
