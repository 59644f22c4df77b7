"""Command-line surface.

Subcommands: quantize, synth, oracle, alpha-scan, dither-demo,
variance-sweep, sweep. Exit codes: 0 on success, 1 on usage errors (bad
arguments, missing or malformed config), 2 on numerical or validation
failures during a run. All randomness flows from the single --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibBatch
from .errors import InvalidSpec, SnrqError
from .grid import GridSpec, fit_grid, levels
from .linalg import cholesky
from .matio import read_matrix, write_matrix
from .oracle import (
    DitherSetup,
    alpha_grid_scan,
    dither_experiment,
    exhaustive_row,
    sampling_variance_sweep,
)
from .pipeline import (
    NetworkConfig,
    RunConfig,
    quantize_network,
    sweep,
    sweep_config,
    synth_network,
)
from .rng import SeededRng

__all__ = ["cli_main", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def _load_config(path: str, overrides: dict) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from None
    try:
        cfg = RunConfig.from_dict(raw)
        paths = cfg.network.weight_paths
        if paths is not None:  # relative paths (as `snrq synth` writes them) start at the config
            network = replace(cfg.network, weight_paths=tuple(str(p.parent / w) for w in paths))
            cfg = cfg.with_updates(network=network)
    except (InvalidSpec, TypeError, ValueError) as e:
        raise UsageError(f"config file {path}: {e}") from None
    updates = {k: v for k, v in overrides.items() if v is not None}
    return cfg.with_updates(**updates) if updates else cfg


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --values list: {raw!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="snrq", description=__doc__)
    p.add_argument("--version", action="version", version=f"snrq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a toy network per config")
    q.add_argument("--config", required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out-dir", default=None)

    s = sub.add_parser("synth", help="synthesize a toy network to disk")
    s.add_argument("--depth", type=int, default=4)
    s.add_argument("--dim", type=int, default=64)
    s.add_argument("--dims", default=None, help="comma-separated layer dims, overrides --depth/--dim")
    s.add_argument("--nonlinearity", choices=("none", "relu"), default="relu")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)

    o = sub.add_parser("oracle", help="exhaustive single-row rounding oracle")
    o.add_argument("--r-path", help="upper-triangular R (matrix file)")
    o.add_argument("--y-path", help="target vector y (1 x n or n x 1 matrix file)")
    o.add_argument("--synth-n", type=int, default=None, help="synthesize a random instance of this size")
    o.add_argument("--bits", type=int, default=2)
    o.add_argument("--asymmetric", action="store_true")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out", default=None)

    a = sub.add_parser("alpha-scan", help="grid scan of the interpolation weight")
    a.add_argument("--w-path")
    a.add_argument("--w-hat-path")
    a.add_argument("--xf-path")
    a.add_argument("--xq-path")
    a.add_argument("--synth", action="store_true", help="synthesize a random instance")
    a.add_argument("--grid-points", type=int, default=101)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)

    d = sub.add_parser("dither-demo", help="binary-grid dithering variance demo")
    d.add_argument("--w", type=float, required=True)
    d.add_argument("--x", type=float, required=True)
    d.add_argument("--tau-s", type=float, default=1.0)
    d.add_argument("--tau-z", type=float, default=0.2)
    d.add_argument("--n-sequences", type=int, default=128)
    d.add_argument("--trials", type=int, default=100_000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)

    v = sub.add_parser("variance-sweep", help="fixed-at-mean vs sampled run-to-run spread")
    v.add_argument("--config", required=True)
    v.add_argument("--repeats", type=int, default=20)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None)

    w = sub.add_parser("sweep", help="sweep one config axis")
    w.add_argument("--config", required=True)
    w.add_argument("--axis", required=True, choices=("alpha", "beta_lambda", "K", "cd_passes"))
    w.add_argument("--values", required=True, help="comma-separated values")
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--out", default=None)
    return p


def _cmd_quantize(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed, "out_dir": args.out_dir})
    net = synth_network(cfg.network, cfg.seed)
    report = quantize_network(net, cfg)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    dims = tuple(int(t) for t in args.dims.split(",")) if args.dims else None
    spec = NetworkConfig(depth=args.depth, width=args.dim, dims=dims, nonlinearity=args.nonlinearity)
    net = synth_network(spec, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for l, wmat in enumerate(net.layers):
        name = f"weights_{l:02d}.snrqmat"
        write_matrix(out / name, wmat, dtype="f64")
        paths.append(name)
    manifest = {
        "nonlinearity": net.nonlinearity,
        "dims": [net.input_dim] + [w.shape[0] for w in net.layers],
        "seed": args.seed,
        "weight_paths": paths,
    }
    (out / "network.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    spec = GridSpec(bits=args.bits, symmetric=not args.asymmetric, group_size=0)
    if args.r_path and args.y_path:
        r_upper = read_matrix(args.r_path)
        y = read_matrix(args.y_path).ravel()
        n = r_upper.shape[0]
        w_row = np.linalg.solve(r_upper, y)[None, :]
    elif args.synth_n:
        n = args.synth_n
        rng = SeededRng(args.seed, 7)
        a = rng.normal(size=(n, 2 * n))
        r_upper = cholesky(a @ a.T + n * np.eye(n)).T
        w_row = rng.normal(size=(1, n))
        y = r_upper @ w_row[0]
    else:
        raise UsageError("oracle needs either --r-path/--y-path or --synth-n")
    params = fit_grid(w_row, spec)
    level_lists = [levels(0, j, params) for j in range(n)]
    res = exhaustive_row(r_upper, y, level_lists)
    _emit(
        {
            "best_codes": res.best_codes.tolist(),
            "best_values": res.best_values.tolist(),
            "best_cost": res.best_cost,
            "n_evaluated": res.n_evaluated,
        },
        args.out,
    )
    return 0


def _cmd_alpha_scan(args) -> int:
    if args.synth:
        rng = SeededRng(args.seed, 11)
        m, n, nseq = 4, 8, 32
        w = rng.normal(size=(m, n))
        w_hat = w + 0.1 * rng.normal(size=(m, n))
        xq = rng.normal(size=(n, nseq))
        xf = xq + 0.2 * rng.normal(size=(n, nseq))
    elif args.w_path and args.w_hat_path and args.xf_path and args.xq_path:
        w = read_matrix(args.w_path)
        w_hat = read_matrix(args.w_hat_path)
        xf = read_matrix(args.xf_path)
        xq = read_matrix(args.xq_path)
    else:
        raise UsageError("alpha-scan needs --synth or all four matrix paths")
    scan = alpha_grid_scan(w, w_hat, CalibBatch(xf=xf, xq=xq), args.grid_points)
    _emit(
        {
            "alpha_best": scan.alpha_best,
            "alphas": scan.alphas.tolist(),
            "values": scan.values.tolist(),
        },
        args.out,
    )
    return 0


def _cmd_dither(args) -> int:
    try:
        setup = DitherSetup(
            w=args.w, x=args.x, tau_s=args.tau_s, tau_z=args.tau_z,
            n_sequences=args.n_sequences, n_trials=args.trials,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    res = dither_experiment(setup, SeededRng(args.seed, 13))
    _emit(
        {
            "var_fixed_hat": res.var_fixed_hat,
            "var_smoothed_hat": res.var_smoothed_hat,
            "var_fixed_closed": res.var_fixed_closed,
            "var_bound": res.var_bound,
            "se_fixed_hat": res.se_fixed_hat,
            "se_smoothed_hat": res.se_smoothed_hat,
        },
        args.out,
    )
    return 0


def _cmd_variance_sweep(args) -> int:
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = _load_config(args.config, {"seed": args.seed})
    _emit(sampling_variance_sweep(cfg, args.repeats), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed})
    values = _parse_values(args.values)
    if args.axis in ("K", "cd_passes"):
        values = [int(v) for v in values]
    try:
        for v in values:
            sweep_config(cfg, args.axis, v)
    except (InvalidSpec, ValueError) as e:
        raise UsageError(f"bad --values for axis {args.axis}: {e}") from None
    _emit(sweep(cfg, args.axis, values), args.out)
    return 0


_COMMANDS = {
    "quantize": _cmd_quantize,
    "synth": _cmd_synth,
    "oracle": _cmd_oracle,
    "alpha-scan": _cmd_alpha_scan,
    "dither-demo": _cmd_dither,
    "variance-sweep": _cmd_variance_sweep,
    "sweep": _cmd_sweep,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"usage error: file not found: {e.filename}", file=sys.stderr)
        return 1
    except SnrqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
