"""Spans around the public snrq functions, recorded from outside the package.

`Tracer.traced_op()` replaces functions as they are imported into the
`snrq.cli`, `snrq.pipeline`, `snrq.calibration` and `snrq.solvers`
namespaces with wrappers that record one span per call: name, start, end,
parent span and op id. Spans stay in memory until the run writes them out.
A wrapper may also attach counts derived from the call's arguments
("computed" counts, such as n^3/3 flops for a Cholesky of size n), which
must repeat exactly between ops of the same workload.

All wrapped functions are called from the thread that runs the op (the
solvers' row-chunk workers call none of them), so the parent of a span is
the innermost open span of its own thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = "cli.cli_main"

_SOLVERS = ("snrq_greedy", "snrq_lazy", "ksnrq_beam", "rtn_round", "gptq_round", "gptaq_round")
CLIP_RATIOS = 100  # fit_grid(mse_clip=True) scans 100 clipping ratios per cell


def _cholesky_counts(args, kwargs, result):
    n = np.shape(args[0])[0]
    return {"flops_computed": n ** 3 / 3}


def _forward_collect_counts(args, kwargs, result):
    return {"matmuls_computed": 2 * len(args[2])}


def _fit_grid_counts(args, kwargs, result):
    m, n = np.shape(args[0])
    spec = args[1]
    return {"cells_computed": m * spec.groups_for(n) * (CLIP_RATIOS if spec.mse_clip else 1)}


def _decision_counts(args, kwargs, result):
    m, n = result.codes.shape
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    k = cfg.beam_width if cfg is not None and cfg.solver == "ksnrq" else 1
    return {"decisions_computed": m * n * k}


def _cd_counts(args, kwargs, result):
    m, n = result.codes.shape
    passes = args[4]
    return {
        "visited_computed": m * n * passes,
        "changed": int(np.count_nonzero(result.codes != args[0].codes)),
    }


def _write_counts(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


# (module, attribute, span name, counts); one wrapper per (module, attribute),
# and the caller's namespace is kept on the span as "caller".
TARGETS = (
    ("snrq.cli", "synth_network", "pipeline.synth_network", None),
    ("snrq.cli", "quantize_network", "pipeline.quantize_network", None),
    ("snrq.pipeline", "forward_collect", "pipeline.forward_collect", _forward_collect_counts),
    ("snrq.pipeline", "accumulate_stats", "calibration.accumulate_stats", None),
    ("snrq.pipeline", "module_wise_alpha_schedule", "calibration.alpha_schedule", None),
    ("snrq.pipeline", "shifted_target", "calibration.shifted_target", None),
    ("snrq.pipeline", "fit_grid", "grid.fit_grid", _fit_grid_counts),
    ("snrq.pipeline", "cd_refine", "solvers.cd_refine", _cd_counts),
    ("snrq.pipeline", "proxy_row_scores", "solvers.proxy_row_scores", None),
    ("snrq.pipeline", "write_matrix", "matio.write_matrix", _write_counts),
    ("snrq.solvers", "proxy_row_scores", "solvers.proxy_row_scores", None),
    ("snrq.solvers", "dequantize", "grid.dequantize", None),
    ("snrq.calibration", "cholesky", "linalg.cholesky", _cholesky_counts),
    ("snrq.solvers", "cholesky", "linalg.cholesky", _cholesky_counts),
    ("snrq.calibration", "solve_with_factor", "linalg.solve_with_factor", None),
    ("snrq.solvers", "solve_with_factor", "linalg.solve_with_factor", None),
) + tuple(("snrq.pipeline", s, f"solvers.{s}", _decision_counts) for s in _SOLVERS)


class Tracer:
    """In-memory span recorder for traced ops."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, caller: str | None = None):
        stack = self._stack()
        rec = {"op": self.op, "id": len(self.spans), "name": name,
               "parent": stack[-1]["id"] if stack else None}
        if caller:
            rec["caller"] = caller
        self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def traced_op(self, op_id: int):
        """Root span for one op, with every target wrapped."""
        self.op = op_id
        with _patched(self._wrap):
            with self.span(ROOT):
                yield
        self.op = None

    def _wrap(self, module: str, fn, name: str, counts):
        caller = module.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, caller) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            return result

        return wrapper


@contextlib.contextmanager
def solver_memory_peaks(peaks: list):
    """Append the tracemalloc peak (bytes) of every solver call to ``peaks``."""

    def wrap(module, fn, name, counts):
        if fn.__name__ not in _SOLVERS + ("cd_refine",):
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    with _patched(wrap):
        yield


@contextlib.contextmanager
def _patched(make_wrapper):
    saved = []
    try:
        for module, attr, name, counts in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, make_wrapper(module, fn, name, counts))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-op layer metrics
# ---------------------------------------------------------------------------

# (metric, unit) in the order they are printed; "(computed)" marks counts
# derived from call arguments rather than observed.
LAYER_METRICS = (
    ("linalg.cholesky_ms", "ms"),
    ("linalg.cholesky_calls", "count"),
    ("linalg.cholesky_calls_per_layer", "count"),
    ("linalg.cholesky_ms.calibration", "ms"),
    ("linalg.cholesky_ms.solvers", "ms"),
    ("linalg.cholesky_flops_computed", "flop"),
    ("linalg.solve_with_factor_ms", "ms"),
    ("linalg.solve_with_factor_calls", "count"),
    ("pipeline.forward_collect_ms", "ms"),
    ("pipeline.forward_collect_matmuls", "count"),
    ("solvers.snrq_greedy_self_ms", "ms"),
    ("solvers.ksnrq_beam_self_ms", "ms"),
    ("solvers.tracemalloc_peak_mb", "MiB"),
    ("solvers.column_decisions", "count"),
    ("solvers.cd_refine_ms", "ms"),
    ("solvers.cd_changed_frac", "ratio"),
    ("solvers.gptaq_round_self_ms", "ms"),
    ("grid.fit_grid_ms", "ms"),
    ("grid.cells_evaluated", "count"),
    ("calibration.accumulate_stats_ms", "ms"),
    ("calibration.shifted_target_self_ms", "ms"),
    ("calibration.alpha_schedule_ms", "ms"),
    ("grid.dequantize_ms", "ms"),
    ("solvers.proxy_row_scores_ms", "ms"),
    ("pipeline.synth_network_ms", "ms"),
    ("pipeline.quantize_network_self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("matio.write_matrix_ms", "ms"),
    ("matio.bytes_written", "byte"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

COMPUTED = frozenset({
    "linalg.cholesky_flops_computed",
    "pipeline.forward_collect_matmuls",
    "solvers.column_decisions",
    "grid.cells_evaluated",
})


def op_summary(spans: list[dict]) -> dict:
    """Per-name totals of one op: calls, total and self seconds, summed counts."""
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s["end"] - s["start"]
        keys = [s["name"]] + ([f"{s['name']}.{s['caller']}"] if "caller" in s else [])
        for key in keys:
            agg = out[key]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_s[s["id"]]
            for k, v in s.items():
                if k.endswith("_computed") or k in ("changed", "bytes"):
                    agg[k] += v
    return out


def layer_metrics(summary: dict, depth: int) -> dict:
    """The LAYER_METRICS of one traced op (overhead and memory are added by the run)."""
    def get(name, key="total_s"):
        return summary[name][key] if name in summary else 0.0

    def ms(name, key="total_s"):
        return get(name, key) * 1e3

    chol_calls = get("linalg.cholesky", "calls")
    cd_visited = get("solvers.cd_refine", "visited_computed")
    root_s = get(ROOT)
    container_s = get(ROOT, "self_s") + get("pipeline.quantize_network", "self_s")
    return {
        "linalg.cholesky_ms": ms("linalg.cholesky"),
        "linalg.cholesky_calls": chol_calls,
        "linalg.cholesky_calls_per_layer": chol_calls / depth,
        "linalg.cholesky_ms.calibration": ms("linalg.cholesky.calibration"),
        "linalg.cholesky_ms.solvers": ms("linalg.cholesky.solvers"),
        "linalg.cholesky_flops_computed": get("linalg.cholesky", "flops_computed"),
        "linalg.solve_with_factor_ms": ms("linalg.solve_with_factor"),
        "linalg.solve_with_factor_calls": get("linalg.solve_with_factor", "calls"),
        "pipeline.forward_collect_ms": ms("pipeline.forward_collect"),
        "pipeline.forward_collect_matmuls": get("pipeline.forward_collect", "matmuls_computed"),
        "solvers.snrq_greedy_self_ms": ms("solvers.snrq_greedy", "self_s"),
        "solvers.ksnrq_beam_self_ms": ms("solvers.ksnrq_beam", "self_s"),
        "solvers.column_decisions": sum(get(f"solvers.{s}", "decisions_computed") for s in _SOLVERS),
        "solvers.cd_refine_ms": ms("solvers.cd_refine"),
        "solvers.cd_changed_frac": get("solvers.cd_refine", "changed") / cd_visited if cd_visited else 0.0,
        "solvers.gptaq_round_self_ms": ms("solvers.gptaq_round", "self_s"),
        "grid.fit_grid_ms": ms("grid.fit_grid"),
        "grid.cells_evaluated": get("grid.fit_grid", "cells_computed"),
        "calibration.accumulate_stats_ms": ms("calibration.accumulate_stats"),
        "calibration.shifted_target_self_ms": ms("calibration.shifted_target", "self_s"),
        "calibration.alpha_schedule_ms": ms("calibration.alpha_schedule"),
        "grid.dequantize_ms": ms("grid.dequantize"),
        "solvers.proxy_row_scores_ms": ms("solvers.proxy_row_scores"),
        "pipeline.synth_network_ms": ms("pipeline.synth_network"),
        "pipeline.quantize_network_self_ms": ms("pipeline.quantize_network", "self_s"),
        "cli.self_ms": ms(ROOT, "self_s"),
        "matio.write_matrix_ms": ms("matio.write_matrix"),
        "matio.bytes_written": get("matio.write_matrix", "bytes"),
        "trace.coverage_frac": 1.0 - container_s / root_s,
    }
