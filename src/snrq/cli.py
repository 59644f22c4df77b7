"""Command-line surface.

Subcommands: quantize, synth, oracle, alpha-scan, dither-demo,
variance-sweep, sweep. Exit codes: 0 on success, 1 on usage errors (bad
arguments, missing or malformed config, an --out path that cannot be
written), 2 on numerical or validation failures during a run and when memory
runs out. All randomness flows from the single --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibBatch
from .errors import InvalidSpec, NonFinite, ShapeMismatch, SnrqError
from .grid import GridSpec, fit_grid
from .linalg import cholesky
from .matio import read_matrix, write_matrix
from .pipeline import (
    NONLINEARITIES,
    SWEEP_AXES,
    NetworkConfig,
    RunConfig,
    json_text,
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


def _load_config(path: str, seed: int | None) -> RunConfig:
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
            cfg = replace(cfg, network=network)
    except InvalidSpec as e:
        raise UsageError(f"config file {path}: {e}") from None
    return cfg if seed is None else replace(cfg, seed=seed)


def _check_out(out: str | None) -> None:
    """Raise, before a command's work, the error that writing ``out`` would raise.

    Covers an existing directory and a parent that is missing or is not a
    directory: opening such a path without creating it fails as the write would.
    """
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        open(out, "rb+").close()


def _emit(payload: dict, out: str | Path | None) -> None:
    text = json_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


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
    s.add_argument("--nonlinearity", choices=NONLINEARITIES, default="relu")
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
    w.add_argument("--axis", required=True, choices=SWEEP_AXES)
    w.add_argument("--values", required=True, help="comma-separated values")
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--out", default=None)
    return p


def _cmd_quantize(args) -> int:
    _emit(quantize_network(_load_config(args.config, args.seed), args.out_dir), None)
    return 0


def _cmd_synth(args) -> int:
    try:
        dims = ([int(t) for t in args.dims.split(",")] if args.dims
                else NetworkConfig.chain(args.depth, args.dim).dims)
        spec = NetworkConfig(dims=dims, nonlinearity=args.nonlinearity)
    except (InvalidSpec, ValueError) as e:
        raise UsageError(f"bad --depth/--dim/--dims: {e}") from None
    layers = synth_network(spec, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for l, wmat in enumerate(layers):
        name = f"weights_{l:02d}.snrqmat"
        write_matrix(out / name, wmat, dtype="f64")
        paths.append(name)
    manifest = {
        "nonlinearity": spec.nonlinearity,
        "dims": list(spec.dims),
        "seed": args.seed,
        "weight_paths": paths,
    }
    _emit(manifest, out / "network.json")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import exhaustive_row, levels  # imported per command, so quantize never loads the oracles

    try:
        spec = GridSpec(bits=args.bits, symmetric=not args.asymmetric, group_size=0)
    except InvalidSpec as e:
        raise UsageError(f"bad --bits: {e}") from None
    if args.r_path and args.y_path:
        r_upper = read_matrix(args.r_path)
        y = read_matrix(args.y_path).ravel()
        n = r_upper.shape[0]
        if n == 0 or r_upper.shape != (n, n) or y.shape != (n,):
            raise ShapeMismatch(f"need an n x n R (n >= 1) and n values of y, "
                                f"got {r_upper.shape} and {y.size}")
        try:
            w_row = np.linalg.solve(r_upper, y)[None, :]
        except np.linalg.LinAlgError as e:
            raise SnrqError(f"--r-path {args.r_path}: cannot solve R w = y ({e})") from None
        if not np.all(np.isfinite(w_row)):  # the solve overflows without raising
            raise NonFinite(f"--r-path {args.r_path}, --y-path {args.y_path}: "
                            f"the solution of R w = y overflows")
    elif args.synth_n is not None:
        if args.synth_n < 1:
            raise UsageError(f"--synth-n must be >= 1, got {args.synth_n}")
        n = args.synth_n
        rng = SeededRng(args.seed, 7)
        a = rng.normal(size=(n, 2 * n))
        r_upper = cholesky(a @ a.T + n * np.eye(n))[0].T
        w_row = rng.normal(size=(1, n))
        y = r_upper @ w_row[0]
    else:
        raise UsageError("oracle needs either --r-path/--y-path or --synth-n")
    params = fit_grid(w_row, spec)
    level_lists = [levels(0, j, params) for j in range(n)]
    _emit(asdict(exhaustive_row(r_upper, y, level_lists)), args.out)
    return 0


# overflow surfaces as a non-finite value, which json_text refuses (exit 2);
# numpy's warnings would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def _cmd_alpha_scan(args) -> int:
    from .oracle import alpha_grid_scan

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
    try:
        scan = alpha_grid_scan(w, w_hat, CalibBatch(xf=xf, xq=xq), args.grid_points)
    except InvalidSpec as e:
        raise UsageError(f"bad --grid-points: {e}") from None
    _emit(asdict(scan), args.out)
    return 0


def _cmd_dither(args) -> int:
    from .oracle import DitherSetup, dither_experiment

    try:
        setup = DitherSetup(
            w=args.w, x=args.x, tau_s=args.tau_s, tau_z=args.tau_z,
            n_sequences=args.n_sequences, n_trials=args.trials,
        )
    except InvalidSpec as e:
        raise UsageError(str(e)) from None
    _emit(asdict(dither_experiment(setup, SeededRng(args.seed, 13))), args.out)
    return 0


def _cmd_variance_sweep(args) -> int:
    from .oracle import sampling_variance_sweep

    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = _load_config(args.config, args.seed)
    _emit(sampling_variance_sweep(cfg, args.repeats), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    values = _parse_values(args.values)
    if not values:
        raise UsageError("--values needs at least one value")
    if args.axis in ("K", "cd_passes"):
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise UsageError(f"axis {args.axis} takes integers, got {bad[0]}")
        values = [int(v) for v in values]
    try:
        for v in values:
            sweep_config(cfg, args.axis, v)
    except InvalidSpec as e:
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
    # each warning is one "warning: <message>" line on stderr; catch_warnings
    # restores the caller's handler, so in-process callers keep theirs
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            _check_out(getattr(args, "out", None))
            return _COMMANDS[args.command](args)
        except UsageError as e:
            print(f"usage error: {e}", file=sys.stderr)
            return 1
        except FileNotFoundError as e:
            print(f"usage error: file not found: {e.filename}", file=sys.stderr)
            return 1
        except (FileExistsError, NotADirectoryError) as e:  # a path that must be a directory is not
            print(f"usage error: not a directory: {e.filename}", file=sys.stderr)
            return 1
        except IsADirectoryError as e:  # a path that must be a file is a directory
            print(f"usage error: is a directory: {e.filename}", file=sys.stderr)
            return 1
        except SnrqError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except MemoryError as e:  # numpy's message names the allocation that failed
            print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
                  file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
