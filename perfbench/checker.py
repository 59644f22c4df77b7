"""Output checks for one `snrq quantize` op, independent of the snrq package.

The checker rebuilds what the program should have computed from the config
alone: the teacher network and the held-out inputs follow the documented
seeding scheme (numpy Philox keyed by (seed, stream id), teacher layer l on
stream 1000 + l scaled by 1/sqrt(fan_in), held-out inputs on stream 3000).
It reads the written matrix files with its own SNRQMAT1 reader and runs a
plain numpy forward pass, so a defect in `snrq.matio` or in the pipeline's
own evaluation cannot hide itself.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"SNRQMAT1"
HEADER = struct.Struct("<IIB")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4")}

STREAM_NETWORK = 1000
STREAM_HELDOUT = 3000
MSE_REL_TOL = 1e-9


def read_snrqmat(path) -> np.ndarray:
    """Read an SNRQMAT1 file: magic, u32 rows, u32 cols, u8 dtype code, payload."""
    data = Path(path).read_bytes()
    head = len(MAGIC) + HEADER.size
    if len(data) < head or data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an SNRQMAT1 file")
    rows, cols, code = HEADER.unpack_from(data, len(MAGIC))
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    dt = _DTYPES[code]
    if len(data) - head != rows * cols * dt.itemsize:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    return np.frombuffer(data, dtype=dt, offset=head).reshape(rows, cols)


def _philox_normal(seed: int, stream: int, size) -> np.ndarray:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).normal(size=size)


def forward(layers, x: np.ndarray, relu: bool) -> np.ndarray:
    h = x
    for l, w in enumerate(layers):
        h = w @ h
        if relu and l + 1 < len(layers):
            h = np.maximum(h, 0.0)
    return h


@dataclass
class Reference:
    """What a correct op must reproduce, built from the workload config."""

    shapes: list
    code_min: int
    code_max: int
    x_held: np.ndarray
    y_teacher: np.ndarray
    relu: bool

    @staticmethod
    def from_config(config: dict) -> "Reference":
        net, grid = config["network"], config["grid"]
        seed = config["seed"]
        dims = net.get("dims") or [net["width"]] * (net["depth"] + 1)
        teacher = [
            _philox_normal(seed, STREAM_NETWORK + l, (dims[l + 1], dims[l])) / np.sqrt(dims[l])
            for l in range(len(dims) - 1)
        ]
        bits = grid["bits"]
        if grid["symmetric"]:
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        else:
            lo, hi = 0, (1 << bits) - 1
        relu = net["nonlinearity"] == "relu"
        x_held = _philox_normal(
            seed, STREAM_HELDOUT, (dims[0], config["calibration"]["n_sequences"])
        )
        return Reference(
            shapes=[w.shape for w in teacher],
            code_min=lo,
            code_max=hi,
            x_held=x_held,
            y_teacher=forward(teacher, x_held, relu),
            relu=relu,
        )

    @property
    def n_weights(self) -> int:
        return sum(m * n for m, n in self.shapes)


class OpFailed(Exception):
    """An op's output failed a check."""


@dataclass
class OpChecker:
    """Checks every op of a run and counts the ones that fail.

    An op fails on a nonzero exit, an exception, unparsable output, a
    `determinism_hash` that differs from the run's first op, a code outside
    the grid's range, or a held-out MSE that a plain forward pass over the
    written dequantized layers does not reproduce to `MSE_REL_TOL`.
    """

    ref: Reference
    run_hash: str | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, exit_code, stdout: str, out_dir) -> dict | None:
        """Record one op; returns its report when every check passed."""
        self.attempted += 1
        try:
            return self._check(exit_code, stdout, Path(out_dir))
        except (OpFailed, OSError, ValueError, KeyError, TypeError) as e:
            self.failed += 1
            self.problems.append(str(e) if isinstance(e, OpFailed) else f"{type(e).__name__}: {e}")
            return None

    def _check(self, exit_code, stdout: str, out_dir: Path) -> dict:
        if exit_code != 0:
            raise OpFailed(f"exit code {exit_code}")
        report = json.loads(stdout)
        digest = report["determinism_hash"]
        if self.run_hash is None:
            self.run_hash = digest
        elif digest != self.run_hash:
            raise OpFailed(f"determinism_hash {digest[:12]} differs from {self.run_hash[:12]}")
        if len(report["layers"]) != len(self.ref.shapes):
            raise OpFailed(f"report has {len(report['layers'])} layers, expected {len(self.ref.shapes)}")
        student = []
        for l, shape in enumerate(self.ref.shapes):
            codes = read_snrqmat(out_dir / f"layer_{l:02d}_codes.snrqmat")
            deq = read_snrqmat(out_dir / f"layer_{l:02d}_dequant.snrqmat")
            if codes.dtype != np.int32 or codes.shape != shape or deq.shape != shape:
                raise OpFailed(f"layer {l}: codes {codes.dtype}{codes.shape}, dequant {deq.shape}, want {shape}")
            lo, hi = int(codes.min()), int(codes.max())
            if lo < self.ref.code_min or hi > self.ref.code_max:
                raise OpFailed(f"layer {l}: codes span [{lo}, {hi}] outside "
                               f"[{self.ref.code_min}, {self.ref.code_max}]")
            student.append(deq.astype(np.float64))
        y_q = forward(student, self.ref.x_held, self.ref.relu)
        mse = float(np.mean((y_q - self.ref.y_teacher) ** 2))
        reported = report["end_to_end"]["heldout_output_mse"]
        if not abs(mse - reported) <= MSE_REL_TOL * abs(mse):
            raise OpFailed(f"heldout_output_mse {reported!r} but the dequantized layers give {mse!r}")
        return report
