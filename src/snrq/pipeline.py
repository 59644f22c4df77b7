"""End-to-end harness: toy networks, layer-by-layer quantization, reports.

A toy network is a chain of dense layers with an optional relu between them
(relu by default, so upstream rounding error produces a nontrivial
teacher/student mismatch). Layers are quantized in order; the dequantized
result of each layer becomes the student prefix for the next, exactly the
sequential setting the calibration statistics assume.

All randomness flows from the single config seed through fixed stream ids,
so identical configs produce byte-identical reports modulo timing fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    AlphaStrategy,
    CalibBatch,
    accumulate_stats,
    module_wise_alpha_schedule,
    shifted_target,
)
from .errors import InvalidSpec, ShapeMismatch, SnrqError
from .grid import GridSpec, fit_grid
from .matio import read_matrix, write_matrix
from .rng import SeededRng
from .solvers import (
    RoundResult,
    SolverConfig,
    cd_refine,
    gptaq_round,
    gptq_round,
    ksnrq_beam,
    order_and_factor,
    proxy_row_scores,
    rtn_round,
    snrq_greedy,
    snrq_lazy,
)

__all__ = [
    "ToyNetwork",
    "RunConfig",
    "CalibrationConfig",
    "NetworkConfig",
    "synth_network",
    "forward_collect",
    "quantize_network",
    "sweep",
    "sweep_config",
    "strip_timing",
    "determinism_hash",
]

# fixed rng stream ids; layer-indexed streams add the layer number
STREAM_NETWORK = 1000
STREAM_CALIBRATION = 2000
STREAM_HELDOUT = 3000
STREAM_ALPHA = 4000

TIMING_KEYS = frozenset({"solve_ms", "total_ms", "wall_ms"})

REPORT_VERSION = 1

NONLINEARITIES = ("none", "relu")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationConfig:
    n_sequences: int = 256
    distribution: str = "normal"

    def __post_init__(self):
        if self.n_sequences < 1:
            raise InvalidSpec("n_sequences must be >= 1")
        if self.distribution not in ("normal", "uniform"):
            raise InvalidSpec(f"unknown input distribution {self.distribution!r}")


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 4
    width: int = 64
    dims: tuple[int, ...] | None = None
    nonlinearity: str = "relu"
    weight_paths: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise InvalidSpec(f"nonlinearity must be one of {NONLINEARITIES}")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
            if len(self.dims) < 2 or any(d < 1 for d in self.dims):
                raise InvalidSpec("dims needs at least two positive entries")
        elif self.depth < 1 or self.width < 1:
            raise InvalidSpec("depth and width must be >= 1")

    def layer_dims(self) -> tuple[int, ...]:
        if self.dims is not None:
            return self.dims
        return tuple([self.width] * (self.depth + 1))


@dataclass(frozen=True)
class RunConfig:
    """Full run description; every field has a desk-scale default."""

    grid: GridSpec = field(default_factory=GridSpec)
    alpha: AlphaStrategy = field(default_factory=AlphaStrategy)
    solver: SolverConfig = field(default_factory=SolverConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    damping: float = 0.01
    gptaq_alpha: float = 0.25
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        def finite(v):
            return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)

        if not (finite(self.damping) and self.damping >= 0):
            raise InvalidSpec(f"damping must be a finite number >= 0, got {self.damping!r}")
        if not finite(self.gptaq_alpha):
            raise InvalidSpec(f"gptaq_alpha must be a finite number, got {self.gptaq_alpha!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise InvalidSpec(f"seed must be an integer, got {self.seed!r}")

    def with_updates(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["network"]["dims"] = list(self.network.layer_dims())
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        sections = {
            "grid": GridSpec,
            "alpha": AlphaStrategy,
            "solver": SolverConfig,
            "calibration": CalibrationConfig,
            "network": NetworkConfig,
        }
        known_top = set(sections) | {"damping", "gptaq_alpha", "seed", "out_dir"}
        unknown = set(d) - known_top
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, cls in sections.items():
            sub = dict(d.get(name, {}))
            if name == "alpha" and "alpha_mode" in sub:
                sub["mode"] = sub.pop("alpha_mode")
            allowed = set(cls.__dataclass_fields__)
            bad = set(sub) - allowed
            if bad:
                raise InvalidSpec(f"unknown {name} config keys: {sorted(bad)}")
            if "weight_paths" in sub and sub["weight_paths"] is not None:
                sub["weight_paths"] = tuple(sub["weight_paths"])
            if "dims" in sub and sub["dims"] is not None:
                sub["dims"] = tuple(sub["dims"])
            kwargs[name] = cls(**sub)
        for scalar in ("damping", "gptaq_alpha", "seed", "out_dir"):
            if scalar in d:
                kwargs[scalar] = d[scalar]
        return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# toy networks and activation collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyNetwork:
    """Chain of dense layers; layer l maps dims[l] -> dims[l+1]."""

    layers: tuple[np.ndarray, ...]
    nonlinearity: str = "relu"

    def __post_init__(self):
        if not self.layers:
            raise InvalidSpec("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.shape[1] != a.shape[0]:
                raise ShapeMismatch(
                    f"layer dims do not chain: {a.shape} then {b.shape}"
                )
        if self.nonlinearity not in NONLINEARITIES:
            raise InvalidSpec(f"nonlinearity must be one of {NONLINEARITIES}")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[1]


def _act(h: np.ndarray, nonlinearity: str) -> np.ndarray:
    return np.maximum(h, 0.0) if nonlinearity == "relu" else h


def synth_network(spec: NetworkConfig, seed: int) -> ToyNetwork:
    """Gaussian layers scaled by 1/sqrt(fan_in), deterministic per seed."""
    if spec.weight_paths is not None:
        layers = tuple(np.asarray(read_matrix(p), dtype=np.float64) for p in spec.weight_paths)
        return ToyNetwork(layers=layers, nonlinearity=spec.nonlinearity)
    dims = spec.layer_dims()
    layers = []
    for l in range(len(dims) - 1):
        rng = SeededRng(seed, STREAM_NETWORK + l)
        layers.append(rng.normal(size=(dims[l + 1], dims[l])) / np.sqrt(dims[l]))
    return ToyNetwork(layers=tuple(layers), nonlinearity=spec.nonlinearity)


def _forward_input_to_layer(
    layers, x: np.ndarray, upto: int, nonlinearity: str
) -> np.ndarray:
    """Input activations reaching layer ``upto`` (0 = the raw inputs)."""
    h = x
    for l in range(upto):
        h = _act(layers[l] @ h, nonlinearity)
    return h


def _forward_output(layers, x: np.ndarray, nonlinearity: str) -> np.ndarray:
    h = x
    for l, w in enumerate(layers):
        h = w @ h
        if l + 1 < len(layers):
            h = _act(h, nonlinearity)
    return h


def forward_collect(
    net: ToyNetwork, inputs: np.ndarray, quantized_prefix
) -> CalibBatch:
    """Teacher/student activations feeding the next layer to quantize.

    The teacher path runs the full-precision prefix, the student path the
    dequantized prefix; with an empty prefix the two coincide exactly.
    """
    l = len(quantized_prefix)
    if l >= net.depth:
        raise ShapeMismatch(f"prefix of length {l} leaves no layer to calibrate")
    xf = _forward_input_to_layer(net.layers, inputs, l, net.nonlinearity)
    xq = _forward_input_to_layer(list(quantized_prefix), inputs, l, net.nonlinearity)
    return CalibBatch(xf=xf, xq=xq)


def _draw_inputs(dim: int, n: int, rng: SeededRng, distribution: str) -> np.ndarray:
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size=(dim, n))
    return rng.normal(size=(dim, n))


# ---------------------------------------------------------------------------
# quantization driver
# ---------------------------------------------------------------------------


def _alpha_for_layer(config: RunConfig, layer: int, prev) -> tuple[AlphaStrategy, dict]:
    """Effective strategy for one layer plus its report summary."""
    strategy = config.alpha
    if strategy.mode == "closed_form":
        prev_result = (prev["w"], prev["q"], prev["batch"]) if layer > 0 and prev else None
        a = module_wise_alpha_schedule(prev_result, default_alpha=strategy.alpha_value)
        return strategy.with_alpha(a), {"mode": "closed_form", "alpha_used": a}
    if strategy.mode == "sampled":
        return strategy, {"mode": "sampled", "beta_lambda": strategy.beta_lambda}
    return strategy, {"mode": strategy.mode, "alpha_used": strategy.alpha_value}


def _solve_layer(
    w: np.ndarray,
    batch: CalibBatch,
    m_alpha: np.ndarray,
    fact,
    params,
    config: RunConfig,
) -> RoundResult:
    cfg = config.solver
    name = cfg.solver
    if name == "rtn":
        result = rtn_round(w, params, m_ref=m_alpha, fact=fact)
    elif name == "snrq":
        result = snrq_greedy(m_alpha, fact, params, cfg)
    elif name == "snrq_lazy":
        result = snrq_lazy(m_alpha, fact, params, cfg)
    elif name == "ksnrq":
        result = ksnrq_beam(m_alpha, fact, params, cfg)
    elif name == "gptq":
        result = gptq_round(w, fact, params, cfg)
    elif name == "gptaq":
        result = gptaq_round(w, fact, params, cfg, batch, mismatch_scale=config.gptaq_alpha)
    else:  # pragma: no cover - guarded by SolverConfig validation
        raise InvalidSpec(f"unknown solver {name!r}")
    if cfg.cd_passes > 0:
        result = cd_refine(result, m_alpha, fact, params, cfg.cd_passes)
    return result


def _trace_summary(trace: np.ndarray) -> dict:
    trace = np.asarray(trace, dtype=np.float64)
    return {
        "n": int(trace.size),
        "mean": float(trace.mean()),
        "std": float(trace.std(ddof=1)) if trace.size > 1 else 0.0,
        "min": float(trace.min()),
        "max": float(trace.max()),
    }


def quantize_network(net: ToyNetwork, config: RunConfig) -> dict:
    """Quantize every layer in order and return the report dictionary.

    When ``config.out_dir`` is set, per-layer code/dequant matrices and the
    report JSON are also written there (codes as the i32 binary variant).
    """
    t_start = time.perf_counter()
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    seed = config.seed
    x_cal = _draw_inputs(
        net.input_dim, config.calibration.n_sequences,
        SeededRng(seed, STREAM_CALIBRATION), config.calibration.distribution,
    )
    x_held = _draw_inputs(
        net.input_dim, config.calibration.n_sequences,
        SeededRng(seed, STREAM_HELDOUT), config.calibration.distribution,
    )

    prefix: list[np.ndarray] = []
    records = []
    prev = None
    for l, w in enumerate(net.layers):
        t_layer = time.perf_counter()
        try:
            batch = forward_collect(net, x_cal, prefix)
            strategy, alpha_summary = _alpha_for_layer(config, l, prev)
            rng = SeededRng(seed, STREAM_ALPHA + l)
            stats = accumulate_stats(batch, strategy, config.damping, rng)
            params = fit_grid(w, config.grid)
            fact = order_and_factor(stats.h, config.solver)
            m_alpha = shifted_target(w, stats, fact)
            result = _solve_layer(w, batch, m_alpha, fact, params, config)
        except SnrqError as e:
            e.args = (f"layer {l}: {e}",)
            raise
        solve_ms = (time.perf_counter() - t_layer) * 1e3

        row_scores = proxy_row_scores(result.q_dequant[:, fact.perm], m_alpha[:, fact.perm], fact.low)
        proxy = float(np.sum(row_scores))
        if strategy.mode == "sampled":
            alpha_summary = dict(alpha_summary, alpha_trace=_trace_summary(stats.alpha_trace))
        record = {
            "layer": l,
            "shape": [int(w.shape[0]), int(w.shape[1])],
            "alpha": alpha_summary,
            "proxy_loss": proxy,
            "weight_mse": float(np.mean((w - result.q_dequant) ** 2)),
            "mean_activation_error": float(np.mean(np.abs(batch.xf - batch.xq))),
            "solve_ms": solve_ms,
        }
        if out_dir is not None:
            codes_file = f"layer_{l:02d}_codes.snrqmat"
            deq_file = f"layer_{l:02d}_dequant.snrqmat"
            write_matrix(out_dir / codes_file, result.codes, dtype="i32")
            write_matrix(out_dir / deq_file, result.q_dequant, dtype="f64")
            record["codes_file"] = codes_file
            record["dequant_file"] = deq_file
        records.append(record)
        prefix.append(result.q_dequant)
        prev = {"w": w, "q": result.q_dequant, "batch": batch}

    y_f_cal = _forward_output(net.layers, x_cal, net.nonlinearity)
    y_q_cal = _forward_output(prefix, x_cal, net.nonlinearity)
    y_f_held = _forward_output(net.layers, x_held, net.nonlinearity)
    y_q_held = _forward_output(prefix, x_held, net.nonlinearity)

    report = {
        "version": REPORT_VERSION,
        "tool": {"name": "snrq", "version": __version__},
        "config": config.to_dict(),
        "layers": records,
        "end_to_end": {
            "calibration_output_mse": float(np.mean((y_q_cal - y_f_cal) ** 2)),
            "heldout_output_mse": float(np.mean((y_q_held - y_f_held) ** 2)),
        },
        "total_ms": (time.perf_counter() - t_start) * 1e3,
    }
    report["determinism_hash"] = determinism_hash(report)
    if out_dir is not None:
        with open(out_dir / "report.json", "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return report


def strip_timing(obj):
    """Recursively drop timing fields (they never enter the determinism hash)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def determinism_hash(report: dict) -> str:
    core = strip_timing({k: v for k, v in report.items() if k != "determinism_hash"})
    if isinstance(core.get("config"), dict):
        # the output location is an IO detail, not a scientific input
        core["config"] = {k: v for k, v in core["config"].items() if k != "out_dir"}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("alpha", "beta_lambda", "K", "cd_passes")


def sweep_config(config: RunConfig, axis: str, value) -> RunConfig:
    """The run config for one value of a sweep axis; raises if the value is invalid."""
    if axis == "alpha":
        return config.with_updates(
            alpha=AlphaStrategy(mode="fixed", alpha_value=float(value),
                                beta_lambda=config.alpha.beta_lambda)
        )
    if axis == "beta_lambda":
        return config.with_updates(
            alpha=AlphaStrategy(mode="sampled", alpha_value=config.alpha.alpha_value,
                                beta_lambda=float(value))
        )
    if axis == "K":
        return config.with_updates(
            solver=replace(config.solver, solver="ksnrq", beam_width=int(value))
        )
    if axis == "cd_passes":
        return config.with_updates(solver=replace(config.solver, cd_passes=int(value)))
    raise InvalidSpec(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep(config: RunConfig, axis: str, values) -> dict:
    """Re-run the pipeline per value of one axis and tabulate the results.

    For the search axes (K, cd_passes) rows after the first also carry the
    marginal improvement per second between consecutive values.
    """
    values = list(values)
    if not values:
        raise InvalidSpec("sweep needs at least one value")
    net = synth_network(config.network, config.seed)
    rows = []
    for v in values:
        cfg = sweep_config(config, axis, v).with_updates(out_dir=None)
        t0 = time.perf_counter()
        report = quantize_network(net, cfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rows.append({
            "value": v,
            "proxy_loss": sum(rec["proxy_loss"] for rec in report["layers"]),
            "heldout_output_mse": report["end_to_end"]["heldout_output_mse"],
            "wall_ms": wall_ms,
        })
    if axis in ("K", "cd_passes") and len(rows) > 1:
        for i in range(1, len(rows)):
            dt_s = max((rows[i]["wall_ms"] - rows[i - 1]["wall_ms"]) / 1e3, 1e-9)
            rows[i]["marginal_improvement_per_s"] = (
                rows[i - 1]["proxy_loss"] - rows[i]["proxy_loss"]
            ) / dt_s
    return {"axis": axis, "rows": rows}
