"""End-to-end harness: toy networks, layer-by-layer quantization, reports.

A run is its config, whose network is a chain of dense layers with an
optional relu between them (relu by default, so upstream rounding error
produces a nontrivial teacher/student mismatch). Layers are quantized in
order; the dequantized result of each layer becomes the student prefix for
the next, exactly the sequential setting the calibration statistics assume.

The calibration activations are carried from layer to layer: starting from
the raw inputs, each solved layer advances the teacher path by
``act(W_l @ xf)`` and the student path by ``act(Q_l @ xq)``, one matmul per
path and layer, so the pipeline never replays a prefix. After the last layer
(which has no activation) the carried pair is the calibration output. The
same float operations run in the same order as the prefix replay of
``forward_collect``, so every batch is bit-identical to it.

All randomness flows from the single config seed through fixed stream ids,
so identical configs produce byte-identical reports apart from ``timing`` at a
fixed BLAS thread count (on the benchmark workloads, also across thread counts).

A study is a set of runs of :func:`sweep_config` configs, each result read
from its run's report: :func:`sweep` over one axis, and
:func:`sampling_variance_sweep` over seeds for two alpha modes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    AlphaStrategy,
    CalibBatch,
    accumulate_stats,
    closed_form_alpha as module_wise_alpha_schedule,  # the name the perfbench tracer wraps
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
    snrq_greedy as snrq_lazy,  # perfbench tracer only
)

__all__ = [
    "RunConfig",
    "CalibrationConfig",
    "NetworkConfig",
    "synth_network",
    "forward_collect",
    "quantize_network",
    "sweep",
    "sweep_config",
    "sampling_variance_sweep",
    "determinism_hash",
    "json_text",
]

# fixed rng stream ids; layer-indexed streams add the layer number
STREAM_NETWORK = 1000
STREAM_CALIBRATION = 2000
STREAM_HELDOUT = 3000
STREAM_ALPHA = 4000

REPORT_VERSION = 3

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
    """A chain of dense layers: layer l maps dims[l] inputs to dims[l + 1] outputs.

    The default is 4 square layers of width 64; :meth:`chain` builds any
    square chain. With ``weight_paths`` the layers are read from those files,
    one per layer.
    """

    dims: tuple[int, ...] = (64,) * 5
    nonlinearity: str = "relu"
    weight_paths: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise InvalidSpec(f"nonlinearity must be one of {NONLINEARITIES}")
        if not isinstance(self.dims, (list, tuple)):
            raise InvalidSpec(f"dims must be an array, got {self.dims!r}")
        paths = self.weight_paths
        if paths is not None and not (isinstance(paths, (list, tuple))
                                      and all(isinstance(p, str) for p in paths)):
            raise InvalidSpec(f"weight_paths must be an array of strings, got {paths!r}")
        if len(self.dims) < 2:
            raise InvalidSpec("dims needs at least two positive entries")
        for d in self.dims:
            require_int("dims entry", d, 1)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if paths is not None:
            object.__setattr__(self, "weight_paths", tuple(paths))

    @classmethod
    def chain(cls, depth: int = 4, width: int = 64, **fields) -> "NetworkConfig":
        """``depth`` square layers of ``width``: dims = [width] * (depth + 1)."""
        require_int("depth", depth, 1)
        require_int("width", width, 1)
        return cls(dims=[width] * (depth + 1), **fields)


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

    def __post_init__(self):
        require_finite("damping", self.damping)
        if self.damping < 0:
            raise InvalidSpec(f"damping must be >= 0, got {self.damping!r}")
        require_finite("gptaq_alpha", self.gptaq_alpha)
        require_int("seed", self.seed)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """The run a parsed config file describes; every failure is an InvalidSpec.

        The one reader of a file's spellings (the config classes take canonical
        values): ``alpha_mode`` for ``mode``, ``"sample"`` for ``"sampled"``,
        ``"snrq_lazy"`` for ``"snrq"``, and ``depth``/``width`` for a chain's ``dims``.
        """
        sections = {"grid": GridSpec, "alpha": AlphaStrategy, "solver": SolverConfig,
                    "calibration": CalibrationConfig, "network": NetworkConfig}
        if not isinstance(d, dict):
            raise InvalidSpec(f"config must be a JSON object, got {type(d).__name__}")
        scalars = ("damping", "gptaq_alpha", "seed")
        unknown = set(d) - set(sections) - set(scalars)
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
                if "mode" in sub:
                    raise InvalidSpec("alpha config sets both 'alpha_mode' and 'mode'")
                sub["mode"] = sub.pop("alpha_mode")
            allowed = set(cls.__dataclass_fields__) | ({"depth", "width"} if name == "network" else set())
            bad = set(sub) - allowed
            if bad:
                raise InvalidSpec(f"unknown {name} config keys: {sorted(bad)}")
            if name == "alpha" and sub.get("mode") == "sample":
                sub["mode"] = "sampled"
            if name == "solver" and sub.get("solver") == "snrq_lazy":
                sub["solver"] = "snrq"
            shape = {k: sub.pop(k) for k in ("depth", "width") if k in sub}  # network only
            section = kwargs[name] = cls(**sub)
            if shape and "dims" in sub:
                raise InvalidSpec("network config sets 'dims' and also 'depth' or 'width'")
            if name == "network" and "dims" not in sub:  # depth (default 4) layers of width (64)
                if section.weight_paths is not None:
                    raise InvalidSpec("weight_paths needs dims, the layer widths of its files")
                kwargs[name] = NetworkConfig.chain(nonlinearity=section.nonlinearity, **shape)
        kwargs.update({k: d[k] for k in scalars if k in d})
        return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# toy networks and activation collection
# ---------------------------------------------------------------------------


def synth_network(spec: NetworkConfig, seed: int) -> tuple[np.ndarray, ...]:
    """The layers of ``spec``: layer l is a dims[l + 1] x dims[l] matrix.

    Gaussian layers scaled by 1/sqrt(fan_in), deterministic per seed. With
    ``spec.weight_paths`` the layers are read from those files instead.

    Raises:
        ShapeMismatch: the files are not one per layer of ``spec.dims``, or a
            file's shape is not its layer's dims[l + 1] x dims[l].
    """
    dims = spec.dims
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
        return tuple(layers)
    for l in range(len(dims) - 1):
        rng = SeededRng(seed, STREAM_NETWORK + l)
        layers.append(rng.normal(size=(dims[l + 1], dims[l])) / np.sqrt(dims[l]))
    return tuple(layers)


def forward_collect(layers, inputs: np.ndarray, quantized_prefix, nonlinearity: str) -> CalibBatch:
    """Teacher/student activations feeding the next layer to quantize.

    The teacher path runs the full-precision prefix of ``layers``, the
    student path the dequantized prefix, both with ``nonlinearity``; with an
    empty prefix the two coincide exactly.

    This replays the whole prefix from the raw inputs, out of place. It is
    the reference that tests compare the carried activations of
    ``quantize_network`` against, and a span the benchmark tracer wraps; the
    pipeline does not call it.
    """
    if len(quantized_prefix) >= len(layers):
        raise ShapeMismatch(f"prefix of length {len(quantized_prefix)} leaves no layer to calibrate")
    xf = xq = inputs
    for w, q in zip(layers, quantized_prefix):
        xf, xq = w @ xf, q @ xq
        if nonlinearity == "relu":
            xf, xq = np.maximum(xf, 0.0), np.maximum(xq, 0.0)
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
        result = rtn_round(w, params)
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
def quantize_network(config: RunConfig, out_dir: str | Path | None = None) -> dict:
    """Build the network of ``config``, quantize its layers in order, return the report.

    The layers are built first, by ``synth_network(config.network,
    config.seed)``, so the report's config is the one its layers came from.

    With ``out_dir`` the directory is created before layer 0, and the run's
    files are written there only once its report is complete, by
    :func:`_write_run`: a run that fails writes nothing. The report is the
    same either way; its ``timing`` section (``layer_ms`` per layer and
    ``total_ms``) holds its only values that are not deterministic.

    Each activation-sized array lives only while something reads it. A layer
    holds its carried pair plus the stage temporaries: the statistics'
    X_alpha, the activation error's difference, or one new path of the carry.
    In closed_form mode the next layer's alpha is chosen at the end of this
    layer, from this layer's batch, with that alpha's two products. So at
    most 3 arrays are alive in sampled and fixed mode and 4 in closed_form
    mode. After the loop, the held-out inputs are drawn and run through
    teacher and student side by side: at most 3 arrays.

    A layer's codes are dequantized once, and that one array is the layer's
    values for the closed-form alpha, the student carry, the proxy, the
    weight MSE. A finished layer is kept as its int32 codes and its grid,
    4 B per weight, and its other per-layer arrays are dropped before the
    next layer starts. The held-out student pass and the dequant files
    dequantize one layer at a time, with the same :func:`dequantize`.

    Raises ShapeMismatch when the weight files do not fit
    ``config.network.dims``; InvalidSpec, before any layer runs, when
    ``group_size`` does not divide a layer's input width; and NonFinite,
    before any file is written, when a layer's proxy loss, weight MSE or
    activation error, or an end-to-end MSE, is not finite.
    """
    t_start = time.perf_counter()
    layers = synth_network(config.network, config.seed)
    for l, w in enumerate(layers):  # every layer's width, before a layer runs
        try:
            config.grid.groups_for(w.shape[1])
        except InvalidSpec as e:
            raise InvalidSpec(f"layer {l}: {e}") from None
    if out_dir is not None:  # a path that cannot be a directory fails before any work
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    seed, depth, input_dim = config.seed, len(layers), layers[0].shape[1]
    n_seq, distribution = config.calibration.n_sequences, config.calibration.distribution
    nonlinearity = config.network.nonlinearity
    # the calibration inputs start both carried paths
    xf = xq = _draw_inputs(input_dim, n_seq, SeededRng(seed, STREAM_CALIBRATION), distribution)

    finished = []  # (codes, grid) of each quantized layer; dequantized again only when read
    records, layer_ms = [], []
    alpha = float(config.alpha.alpha_value)  # fixed mode's weight, and closed_form's for layer 0
    for l, w in enumerate(layers):
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
            q = dequantize(result.codes, params)  # the layer's one dequantized copy
            if config.alpha.mode == "closed_form" and not last:  # the next layer's weight
                alpha = module_wise_alpha_schedule(w, q, batch, config.alpha.alpha_value)
        except SnrqError as e:
            e.args = (f"layer {l}: {e}",)
            raise
        activation_error = _mean_of(batch.xf, batch.xq, np.abs)
        del batch
        # each old path is dropped as its carry is bound; the carries are fresh
        # arrays, so a batch kept by a caller never changes
        xf = _carry(w, xf, last, nonlinearity)
        xq = _carry(q, xq, last, nonlinearity)
        layer_ms.append((time.perf_counter() - t_layer) * 1e3)

        proxy = float(np.sum(proxy_row_scores(q, m_alpha, fact)))
        record = {
            "layer": l,
            "shape": [int(w.shape[0]), int(w.shape[1])],
            "alpha": alpha_summary,
            "proxy_loss": proxy,
            "weight_mse": _mean_of(w, q, np.square),
            "mean_activation_error": activation_error,
        }
        _require_finite(f"layer {l}", {k: record[k] for k in (
            "proxy_loss", "weight_mse", "mean_activation_error")})
        records.append(record)
        finished.append((result.codes, params))
        del result, q, m_alpha, fact  # not read again; the next layer allocates its own

    # the carried pair is now the calibration output; the held-out inputs are
    # drawn only now and run through teacher and student side by side, so at
    # most three activation arrays are alive after the loop
    calibration_mse = _mean_of(xq, xf, np.square)
    del xf, xq
    yf = yq = _draw_inputs(input_dim, n_seq, SeededRng(seed, STREAM_HELDOUT), distribution)
    for l, (w, (codes, params)) in enumerate(zip(layers, finished)):
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
        "config": json.loads(json_text(asdict(config))),  # as report.json states it
        "layers": records,
        "end_to_end": end_to_end,
        "timing": {"layer_ms": layer_ms, "total_ms": (time.perf_counter() - t_start) * 1e3},
    }
    report["determinism_hash"] = determinism_hash(report)
    if out_dir is not None:
        _write_run(Path(out_dir), report, finished)
    return report


def _write_run(out_dir: Path, report: dict, finished) -> None:
    """Write a finished run into ``out_dir``: its layer files, then ``report.json``.

    The report is serialized first, so a report that ``json_text`` refuses
    leaves the directory as it was. Then the ``report.json`` and the
    :data:`LAYER_FILE` matches already there are removed (other files stay),
    so no earlier run's layer file outlives its report, and each layer file
    is written as a new file: ext4 flushes a file on close after it was
    truncated on open, about 1 ms per rewritten file. Codes are written as
    i32 and ``dequantize(codes, grid)`` as f64.
    """
    text = json_text(report)
    for path in out_dir.iterdir():
        if path.name == "report.json" or LAYER_FILE.fullmatch(path.name):
            path.unlink(missing_ok=True)
    for l, (codes, params) in enumerate(finished):
        write_matrix(out_dir / f"layer_{l:02d}_codes.snrqmat", codes, dtype="i32")
        write_matrix(out_dir / f"layer_{l:02d}_dequant.snrqmat", dequantize(codes, params), dtype="f64")
    (out_dir / "report.json").write_text(text + "\n")


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


def determinism_hash(report: dict) -> str:
    """sha256 of a report without its ``timing``, its hash and ``config.network.weight_paths``.

    Where the weight files were read from is no scientific input; their
    contents are in the layer records.
    """
    core = {k: v for k, v in report.items() if k not in ("timing", "determinism_hash")}
    config = core["config"]
    core["config"] = dict(config, network={k: v for k, v in config["network"].items()
                                           if k != "weight_paths"})
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parameter sweeps and the seed study
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

    Every value's config is built before the first run, so an invalid value
    raises before any layer work. Each row is a ``quantize_network`` run of
    its swept config: it builds the same network again (no axis touches it),
    and ``wall_ms`` is the run's ``timing.total_ms``, which includes that.
    """
    values = list(values)
    if not values:
        raise InvalidSpec("sweep needs at least one value")
    configs = [sweep_config(config, axis, v) for v in values]
    rows = []
    for v, cfg in zip(values, configs):
        report = quantize_network(cfg)
        rows.append({
            "value": v,
            "proxy_loss": sum(rec["proxy_loss"] for rec in report["layers"]),
            "heldout_output_mse": report["end_to_end"]["heldout_output_mse"],
            "wall_ms": report["timing"]["total_ms"],
        })
    return {"axis": axis, "rows": rows}


# run-to-run variability of the end proxy loss
_ALPHA_MEAN_STREAM = 9001
_ALPHA_MEAN_DRAWS = 100_000


def folded_alpha_mean(beta_lambda: float, seed: int = 0) -> float:
    """Monte Carlo estimate of E[min(b, 1-b)] for b ~ Beta(l, l)."""
    rng = SeededRng(seed, _ALPHA_MEAN_STREAM)
    return float(np.mean(sample_folded_alphas(_ALPHA_MEAN_DRAWS, beta_lambda, rng)))


def sampling_variance_sweep(config: RunConfig, n_repeats: int) -> dict:
    """Run-to-run spread of the end proxy loss: fixed-at-mean vs sampled.

    The modes are the "alpha" sweep config at the :func:`folded_alpha_mean`
    of ``config.alpha.beta_lambda`` and the "beta_lambda" one at that lambda.
    Each runs ``n_repeats`` times, at seeds seed, seed + 1, ..., so each run
    resamples the network and the calibration data. Reports mean and standard
    deviation of the total proxy loss per mode; no hard ordering is asserted,
    the result just flags the observed direction.
    """
    if n_repeats < 1:
        raise InvalidSpec(f"n_repeats must be >= 1, got {n_repeats}")
    if n_repeats == 1:
        warnings.warn("n_repeats == 1: standard deviations degenerate to 0", stacklevel=2)

    lam = config.alpha.beta_lambda
    mean_alpha = folded_alpha_mean(lam, config.seed)
    modes = {
        "fixed_at_mean": sweep_config(config, "alpha", mean_alpha),
        "sampled": sweep_config(config, "beta_lambda", lam),
    }

    out: dict = {"n_repeats": n_repeats, "alpha_mean": mean_alpha, "modes": {}}
    for name, mode_config in modes.items():
        vals = []
        for rep in range(n_repeats):
            report = quantize_network(replace(mode_config, seed=config.seed + rep))
            vals.append(sum(rec["proxy_loss"] for rec in report["layers"]))
        arr = np.array(vals)
        out["modes"][name] = {
            "mean": float(arr.mean()),
            # shifted by the first loss, so identical repeats give exactly 0
            # (the mean of n equal floats need not equal them)
            "std": float((arr - arr[0]).std(ddof=1)) if n_repeats > 1 else 0.0,
            "losses": vals,
        }
    out["sampled_std_leq_fixed"] = bool(
        out["modes"]["sampled"]["std"] <= out["modes"]["fixed_at_mean"]["std"]
    )
    return out
