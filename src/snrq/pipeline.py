"""End-to-end harness: toy networks, layer-by-layer quantization, reports.

A toy network is a chain of dense layers with an optional relu between them
(relu by default, so upstream rounding error produces a nontrivial
teacher/student mismatch). Layers are quantized in order; the dequantized
result of each layer becomes the student prefix for the next, exactly the
sequential setting the calibration statistics assume.

The calibration activations are carried from layer to layer: starting from
the raw inputs, each solved layer advances the teacher path by
``act(W_l @ xf)`` and the student path by ``act(Q_l @ xq)``, one matmul per
path and layer, so the pipeline never replays a prefix. After the last layer
(which has no activation) the carried pair is the calibration output. The
same float operations run in the same order as the prefix replay of
``forward_collect``, so every batch is bit-identical to it.

All randomness flows from the single config seed through fixed stream ids,
so identical configs produce byte-identical reports modulo timing fields at a
fixed BLAS thread count (on the benchmark workloads, also across thread counts).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    AlphaStrategy,
    CalibBatch,
    accumulate_stats,
    module_wise_alpha_schedule,  # closed_form_alpha, under the name the perfbench tracer wraps
    sample_folded_alphas,
    shifted_target,
)
from .errors import InvalidSpec, NonFinite, ShapeMismatch, SnrqError, require_finite, require_int
from .grid import GridSpec, dequantize, fit_grid
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
    snrq_lazy,  # perfbench tracer only
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
    "json_text",
]

# fixed rng stream ids; layer-indexed streams add the layer number
STREAM_NETWORK = 1000
STREAM_CALIBRATION = 2000
STREAM_HELDOUT = 3000
STREAM_ALPHA = 4000

TIMING_KEYS = frozenset({"solve_ms", "total_ms", "wall_ms"})

REPORT_VERSION = 1

# the layer files a quantize run writes, and removes from its out_dir first
LAYER_FILE = re.compile(r"layer_[0-9]+_(codes|dequant)\.snrqmat")

NONLINEARITIES = ("none", "relu")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationConfig:
    n_sequences: int = 256
    distribution: str = "normal"

    def __post_init__(self):
        require_int("n_sequences", self.n_sequences, 1)
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
        for key in ("dims", "weight_paths"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, (list, tuple)):
                raise InvalidSpec(f"{key} must be an array, got {value!r}")
        if self.dims is not None:
            if len(self.dims) < 2:
                raise InvalidSpec("dims needs at least two positive entries")
            for d in self.dims:
                require_int("dims entry", d, 1)
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        else:
            require_int("depth", self.depth, 1)
            require_int("width", self.width, 1)
        if self.weight_paths is not None:
            if self.dims is None:
                raise InvalidSpec("weight_paths needs dims, the layer widths of its files")
            object.__setattr__(self, "weight_paths", tuple(self.weight_paths))

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
        require_finite("damping", self.damping)
        if self.damping < 0:
            raise InvalidSpec(f"damping must be >= 0, got {self.damping!r}")
        require_finite("gptaq_alpha", self.gptaq_alpha)
        require_int("seed", self.seed)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise InvalidSpec(f"out_dir must be a string or null, got {self.out_dir!r}")

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
        if not isinstance(d, dict):
            raise InvalidSpec(f"config must be a JSON object, got {type(d).__name__}")
        known_top = set(sections) | {"damping", "gptaq_alpha", "seed", "out_dir"}
        unknown = set(d) - known_top
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, cls in sections.items():
            sub = d.get(name, {})
            if not isinstance(sub, dict):
                raise InvalidSpec(f"config section {name!r} must be a JSON object, "
                                  f"got {type(sub).__name__}")
            sub = dict(sub)
            if name == "alpha" and "alpha_mode" in sub:
                sub["mode"] = sub.pop("alpha_mode")
            allowed = set(cls.__dataclass_fields__)
            bad = set(sub) - allowed
            if bad:
                raise InvalidSpec(f"unknown {name} config keys: {sorted(bad)}")
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
    """Gaussian layers scaled by 1/sqrt(fan_in), deterministic per seed.

    With ``spec.weight_paths`` the layers are read from those files instead.

    Raises:
        ShapeMismatch: the files are not one per layer of ``spec.dims``, or a
            file's shape is not its layer's dims[l + 1] x dims[l].
    """
    dims = spec.layer_dims()
    layers = []
    if spec.weight_paths is not None:
        if len(spec.weight_paths) != len(dims) - 1:
            raise ShapeMismatch(f"{len(spec.weight_paths)} weight files for the "
                                f"{len(dims) - 1} layers of dims {list(dims)}")
        for l, path in enumerate(spec.weight_paths):
            w = np.asarray(read_matrix(path), dtype=np.float64)
            if w.shape != (dims[l + 1], dims[l]):
                raise ShapeMismatch(f"{path}: layer {l} of dims {list(dims)} is "
                                    f"{dims[l + 1]} x {dims[l]}, the file is {w.shape[0]} x {w.shape[1]}")
            layers.append(w)
        return ToyNetwork(layers=tuple(layers), nonlinearity=spec.nonlinearity)
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


def forward_collect(
    net: ToyNetwork, inputs: np.ndarray, quantized_prefix
) -> CalibBatch:
    """Teacher/student activations feeding the next layer to quantize.

    The teacher path runs the full-precision prefix, the student path the
    dequantized prefix; with an empty prefix the two coincide exactly.

    This replays the whole prefix from the raw inputs. It is the reference
    that tests compare the carried activations of ``quantize_network``
    against, and a span the benchmark tracer wraps; the pipeline does not
    call it.
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
    elif name == "ksnrq":
        result = ksnrq_beam(m_alpha, fact, params, cfg)
    elif name == "gptq":
        result = gptq_round(w, fact, params, cfg)
    else:  # "gptaq", the last name SolverConfig admits
        result = gptaq_round(w, fact, params, cfg, batch, mismatch_scale=config.gptaq_alpha)
    if cfg.cd_passes > 0:
        result = cd_refine(result, m_alpha, fact, params, cfg.cd_passes, cfg.block_size)
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


def _carry(layer: np.ndarray, h: np.ndarray, last: bool, nonlinearity: str) -> np.ndarray:
    """One layer step of a carried path, into a fresh array.

    The activation runs in place on the product.
    """
    h = np.matmul(layer, h)
    if not last and nonlinearity == "relu":
        np.maximum(h, 0.0, out=h)
    return h


def _mean_of(a: np.ndarray, b: np.ndarray, ufunc) -> float:
    """mean(ufunc(a - b)), with the ufunc applied in place to the one difference array."""
    d = np.subtract(a, b)
    ufunc(d, out=d)
    return float(np.mean(d))


def _require_finite(where: str, values: dict) -> None:
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        raise NonFinite(f"{where}: {', '.join(bad)} not finite")


# overflow and NaN surface as a non-finite layer or end-to-end value, which
# raises NonFinite; numpy's warnings would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def quantize_network(net: ToyNetwork, config: RunConfig) -> dict:
    """Quantize every layer in order and return the report dictionary.

    When ``config.out_dir`` is set, per-layer code/dequant matrices and the
    report JSON are also written there (codes as the i32 binary variant). A
    ``report.json`` and any ``layer_<digits>_codes.snrqmat`` or
    ``layer_<digits>_dequant.snrqmat`` already there are removed before
    layer 0, and other files are left alone. So a failed run leaves no
    report, no earlier run's layer file outlives its report, and every layer
    file is written as a new file (ext4 flushes a file on close after it was
    truncated on open, which costs about 1 ms per rewritten file).

    Each activation-sized array lives only while something reads it. A layer
    holds its carried pair plus the stage temporaries: the statistics'
    X_alpha, the activation error's difference, or one new path of the carry.
    In closed_form mode the next layer's alpha is chosen at the end of this
    layer, from this layer's batch, with that alpha's two products. So at
    most 3 arrays are alive in sampled and fixed mode and 4 in closed_form
    mode. After the loop, the held-out inputs are drawn and run through
    teacher and student side by side: at most 3 arrays.

    A finished layer is kept as its int32 codes and its grid, 4 B per weight,
    and its other per-layer arrays are dropped before the next layer starts.
    The held-out student pass dequantizes one layer at a time, which gives
    each layer's ``q_dequant`` again bit for bit.

    Raises InvalidSpec, before any layer runs, when ``group_size`` does not
    divide a layer's input width, and NonFinite, before the report is
    written, when a layer's proxy loss, weight MSE or activation error, or an
    end-to-end MSE, is not finite.
    """
    t_start = time.perf_counter()
    for l, w in enumerate(net.layers):  # every layer's width, before a layer runs or writes
        try:
            config.grid.groups_for(w.shape[1])
        except InvalidSpec as e:
            raise InvalidSpec(f"layer {l}: {e}") from None
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in out_dir.iterdir():
            if path.name == "report.json" or LAYER_FILE.fullmatch(path.name):
                path.unlink(missing_ok=True)

    seed, depth, nonlinearity = config.seed, net.depth, net.nonlinearity
    n_seq, distribution = config.calibration.n_sequences, config.calibration.distribution
    # the calibration inputs start both carried paths
    xf = xq = _draw_inputs(net.input_dim, n_seq, SeededRng(seed, STREAM_CALIBRATION), distribution)

    finished = []  # (codes, grid) of each quantized layer; dequantized again only when read
    records = []
    alpha = float(config.alpha.alpha_value)  # fixed mode's weight, and closed_form's for layer 0
    for l, w in enumerate(net.layers):
        t_layer = time.perf_counter()
        last = l + 1 == depth
        try:
            batch = CalibBatch(xf=xf, xq=xq)
            if config.alpha.mode == "sampled":
                lam = config.alpha.beta_lambda
                alphas = sample_folded_alphas(n_seq, lam, SeededRng(seed, STREAM_ALPHA + l))
                alpha_summary = {"mode": "sampled", "beta_lambda": lam,
                                 "alpha_trace": _trace_summary(alphas)}
            else:
                alphas = alpha
                alpha_summary = {"mode": config.alpha.mode, "alpha_used": alpha}
            stats = accumulate_stats(batch, alphas, config.damping)
            params = fit_grid(w, config.grid)
            fact = order_and_factor(stats.h, config.solver)
            m_alpha = shifted_target(w, stats, fact)
            del stats  # H and C are not read again
            result = _solve_layer(w, batch, m_alpha, fact, params, config)
            if config.alpha.mode == "closed_form" and not last:  # the next layer's weight
                alpha = module_wise_alpha_schedule(w, result.q_dequant, batch,
                                                   config.alpha.alpha_value)
        except SnrqError as e:
            e.args = (f"layer {l}: {e}",)
            raise
        activation_error = _mean_of(batch.xf, batch.xq, np.abs)
        del batch
        # each old path is dropped as its carry is bound; the carries are fresh
        # arrays, so a batch kept by a caller never changes
        xf = _carry(w, xf, last, nonlinearity)
        xq = _carry(result.q_dequant, xq, last, nonlinearity)
        solve_ms = (time.perf_counter() - t_layer) * 1e3

        proxy = float(np.sum(proxy_row_scores(result.q_dequant, m_alpha, fact)))
        record = {
            "layer": l,
            "shape": [int(w.shape[0]), int(w.shape[1])],
            "alpha": alpha_summary,
            "proxy_loss": proxy,
            "weight_mse": _mean_of(w, result.q_dequant, np.square),
            "mean_activation_error": activation_error,
            "solve_ms": solve_ms,
        }
        _require_finite(f"layer {l}", {k: record[k] for k in (
            "proxy_loss", "weight_mse", "mean_activation_error")})
        if out_dir is not None:
            codes_file = f"layer_{l:02d}_codes.snrqmat"
            deq_file = f"layer_{l:02d}_dequant.snrqmat"
            write_matrix(out_dir / codes_file, result.codes, dtype="i32")
            write_matrix(out_dir / deq_file, result.q_dequant, dtype="f64")
            record["codes_file"] = codes_file
            record["dequant_file"] = deq_file
        records.append(record)
        finished.append((result.codes, params))
        del result, m_alpha, fact  # not read again; the next layer allocates its own

    # the carried pair is now the calibration output; the held-out inputs are
    # drawn only now and run through teacher and student side by side, so at
    # most three activation arrays are alive after the loop
    calibration_mse = _mean_of(xq, xf, np.square)
    del xf, xq
    yf = yq = _draw_inputs(net.input_dim, n_seq, SeededRng(seed, STREAM_HELDOUT), distribution)
    for l, (w, (codes, params)) in enumerate(zip(net.layers, finished)):
        yf = _carry(w, yf, l + 1 == depth, nonlinearity)
        yq = _carry(dequantize(codes, params), yq, l + 1 == depth, nonlinearity)
    end_to_end = {
        "calibration_output_mse": calibration_mse,
        "heldout_output_mse": _mean_of(yq, yf, np.square),
    }
    _require_finite("end to end", end_to_end)

    report = {
        "version": REPORT_VERSION,
        "tool": {"name": "snrq", "version": __version__},
        "config": config.to_dict(),
        "layers": records,
        "end_to_end": end_to_end,
        "total_ms": (time.perf_counter() - t_start) * 1e3,
    }
    report["determinism_hash"] = determinism_hash(report)
    if out_dir is not None:
        (out_dir / "report.json").write_text(json_text(report) + "\n")
    return report


def _plain(obj):
    """numpy arrays and scalars as lists and Python numbers, for :func:`json_text`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(payload) -> str:
    """The one JSON writer for reports and CLI output: standard JSON, no NaN or Infinity."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_plain)
    except ValueError as e:
        raise NonFinite(f"refusing to write non-standard JSON: {e}") from None


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
        # file locations are IO details, not scientific inputs: the output
        # directory, and the weight files, whose contents the layer records hold
        config = {k: v for k, v in core["config"].items() if k != "out_dir"}
        if isinstance(config.get("network"), dict):
            config["network"] = {k: v for k, v in config["network"].items() if k != "weight_paths"}
        core["config"] = config
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("alpha", "beta_lambda", "K", "cd_passes")


def sweep_config(config: RunConfig, axis: str, value) -> RunConfig:
    """The run config for one value of a sweep axis; raises if the value is invalid."""
    if axis == "alpha":
        alpha = AlphaStrategy(mode="fixed", alpha_value=float(value),
                              beta_lambda=config.alpha.beta_lambda)
        return replace(config, alpha=alpha)
    if axis == "beta_lambda":
        alpha = AlphaStrategy(mode="sampled", alpha_value=config.alpha.alpha_value,
                              beta_lambda=float(value))
        return replace(config, alpha=alpha)
    if axis == "K":
        return replace(config, solver=replace(config.solver, solver="ksnrq", beam_width=value))
    if axis == "cd_passes":
        return replace(config, solver=replace(config.solver, cd_passes=value))
    raise InvalidSpec(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def sweep(config: RunConfig, axis: str, values) -> dict:
    """Re-run the pipeline per value of one axis and tabulate the results.

    For the search axes (K, cd_passes) rows after the first also carry the
    marginal improvement per second between consecutive values; it is None
    when the row's wall time did not rise over the row before.
    """
    values = list(values)
    if not values:
        raise InvalidSpec("sweep needs at least one value")
    net = synth_network(config.network, config.seed)
    rows = []
    for v in values:
        cfg = replace(sweep_config(config, axis, v), out_dir=None)
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
            dt_s = (rows[i]["wall_ms"] - rows[i - 1]["wall_ms"]) / 1e3
            gain = rows[i - 1]["proxy_loss"] - rows[i]["proxy_loss"]
            rows[i]["marginal_improvement_per_s"] = gain / dt_s if dt_s > 0 else None
    return {"axis": axis, "rows": rows}
