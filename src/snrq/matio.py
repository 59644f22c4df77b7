"""Matrix file I/O.

Binary format "SNRQMAT1": 8 ASCII magic bytes ``SNRQMAT1``, little-endian u32
rows, u32 cols, u8 dtype code (0 = f32, 1 = f64, 2 = i32), then rows x cols
values little-endian row-major. Write-then-read is bit-exact for f64 and i32.

CSV fallback (``*.csv``): comma-separated rows, newline-separated, no header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

__all__ = ["read_matrix", "write_matrix", "MAGIC"]

MAGIC = b"SNRQMAT1"

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4")}
_CODES = {"f32": 0, "f64": 1, "i32": 2}


def write_matrix(path, m: np.ndarray, dtype: str | None = None) -> None:
    """Write a 2-D array; ``.csv`` paths get the text format, else SNRQMAT1.

    ``dtype`` is one of f32/f64/i32 and defaults to i32 for integer arrays and
    f64 otherwise.
    """
    path = Path(path)
    m = np.asarray(m)
    if m.ndim != 2:
        raise FormatError(f"only 2-D matrices are supported, got ndim={m.ndim}")
    if path.suffix.lower() == ".csv":
        with open(path, "w") as f:
            for row in m:
                f.write(",".join(repr(v) for v in row.tolist()) + "\n")
        return
    if dtype is None:
        dtype = "i32" if np.issubdtype(m.dtype, np.integer) else "f64"
    if dtype not in _CODES:
        raise FormatError(f"unknown dtype {dtype!r}")
    code = _CODES[dtype]
    payload = np.ascontiguousarray(m, dtype=_DTYPES[code])  # no copy when m already is one
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIB", m.shape[0], m.shape[1], code))
        f.write(payload)  # a contiguous array is written from its own buffer


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`.

    Returns float64 for dtype codes 0/1 is preserved as written (f32 promotes
    to f64 values exactly), int32 for code 2.

    Raises:
        FormatError: bad magic, truncated payload, or non-finite entry.
        OSError: the file cannot be read.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 9:
        raise FormatError(f"{path}: truncated header")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:8]!r}")
    rows, cols, code = struct.unpack_from("<IIB", data, len(MAGIC))
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dt = _DTYPES[code]
    want = rows * cols * dt.itemsize
    payload = data[len(MAGIC) + 9:]
    if len(payload) != want:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {want}")
    m = np.frombuffer(payload, dtype=dt).reshape(rows, cols)
    if code == 2:
        return m.astype(np.int32)
    m = m.astype(np.float64)
    if not np.all(np.isfinite(m)):
        raise FormatError(f"{path}: non-finite entry")
    return m


def _read_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as e:
                raise FormatError(f"{path}:{ln}: {e}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(f"{path}:{ln}: ragged row ({len(row)} != {width})")
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty CSV")
    m = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise FormatError(f"{path}: non-finite entry")
    return m
