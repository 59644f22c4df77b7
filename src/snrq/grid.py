"""Uniform quantization grids: fitting, rounding, dequantization.

A grid is defined per output row and per column group. Symmetric grids use the
full signed code range [-2^(b-1), 2^(b-1)-1] with the scale fitted to
2^(b-1)-1, so the number of representable levels is always A = 2^b. Asymmetric
grids use codes [0, 2^b-1] with an integer zero point. Every cell's range is
widened to cover zero, so zero is a level and a constant cell keeps its value.

Scales and zero points are always fitted from the original full-precision
weights and are always looked up by original column index; solvers that
permute columns fetch parameters through their permutation. MSE clipping fits
all (row, group) cells at once, a chunk of clip ratios per array pass, and
each cell keeps the first ratio that minimizes its round-trip error. One
private helper holds the rounding rule for both the clip search and
:func:`round_to_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, NonFinite, require_bool, require_int

__all__ = [
    "GridSpec",
    "GridParams",
    "fit_grid",
    "round_to_grid",
    "column_grid",
    "dequantize",
]

_DEGENERATE_SCALE = 1e-12  # the scale of a cell whose fitted scale is 0: an all-zero cell
_CLIP_RATIOS = np.linspace(0.5, 1.0, 100)  # MSE-clip candidates, in the order ties are broken
_CLIP_CHUNK_ENTRIES = 1 << 16  # (ratio, weight) pairs one MSE-clip chunk rounds at once


@dataclass(frozen=True)
class GridSpec:
    """Grid definition: bit width, symmetry, and column grouping.

    group_size 0 means one group spanning the whole row (per-channel); a
    positive group_size must divide the layer's column count.
    """

    bits: int = 3
    symmetric: bool = True
    group_size: int = 0
    mse_clip: bool = False

    def __post_init__(self):
        require_int("bits", self.bits, 2)
        if self.bits > 8:
            raise InvalidSpec(f"bits must be in [2, 8], got {self.bits}")
        require_int("group_size", self.group_size, 0)
        require_bool("symmetric", self.symmetric)
        require_bool("mse_clip", self.mse_clip)

    @property
    def num_levels(self) -> int:
        return 1 << self.bits

    @property
    def code_min(self) -> int:
        return -(1 << (self.bits - 1)) if self.symmetric else 0

    @property
    def code_max(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.symmetric else (1 << self.bits) - 1

    def groups_for(self, n_cols: int) -> int:
        if self.group_size == 0:
            return 1
        if n_cols % self.group_size != 0:
            raise InvalidSpec(
                f"group_size {self.group_size} does not divide {n_cols} columns"
            )
        return n_cols // self.group_size


@dataclass(frozen=True)
class GridParams:
    """Fitted scales (m x G, positive) and zero points (m x G, int32)."""

    scales: np.ndarray
    zero_points: np.ndarray
    spec: GridSpec = field(default_factory=GridSpec)


def _fit_cells(vmin: np.ndarray, vmax: np.ndarray, spec: GridSpec) -> GridParams:
    """Scales and zero points for cells with the given value ranges, widened to cover zero."""
    vmin = np.minimum(vmin, 0.0)
    vmax = np.maximum(vmax, 0.0)
    if spec.symmetric:
        scale = np.maximum(-vmin, vmax) / spec.code_max
    else:
        steps = spec.num_levels - 1
        with np.errstate(over="ignore"):
            scale = (vmax - vmin) / steps
        # split only a range that overflows: elsewhere the split moves last bits
        scale = np.where(np.isinf(scale), vmax / steps - vmin / steps, scale)
    scale[scale == 0.0] = _DEGENERATE_SCALE
    zeros = np.zeros(vmin.shape, dtype=np.int32)
    if not spec.symmetric:
        zeros[...] = np.clip(np.floor(-vmin / scale + 0.5), 0, spec.code_max)
    return GridParams(scales=scale, zero_points=zeros, spec=spec)


def fit_grid(w: np.ndarray, spec: GridSpec) -> GridParams:
    """Fit scales and zero points from the full-precision weights.

    With ``spec.mse_clip`` the min/max range of every (row, group) cell is
    shrunk by the ratio (100-point grid over [0.5, 1.0]) minimizing that
    cell's squared round-trip error; the first minimizing ratio wins. All
    cells are fitted together, a chunk of ratios at a time: each chunk rounds
    at most ``_CLIP_CHUNK_ENTRIES`` (ratio, weight) pairs in one reused
    buffer, so temporaries stay O(m * n) plus a fixed budget. Default is
    plain min/max fitting.

    Raises:
        InvalidSpec: group_size does not divide the column count.
        NonFinite: w contains NaN or Inf.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFinite("fit_grid input contains NaN or Inf")
    m, n = w.shape
    n_groups = spec.groups_for(n)
    cells = w.reshape(m, n_groups, n // n_groups)
    cmin = cells.min(axis=2)
    cmax = cells.max(axis=2)
    if not spec.mse_clip:
        return _fit_cells(cmin, cmax, spec)
    # a cell whose every error overflows keeps the first ratio, as a running minimum would
    best = _fit_cells(_CLIP_RATIOS[0] * cmin, _CLIP_RATIOS[0] * cmax, spec)
    best_err = np.full((m, n_groups), np.inf)
    chunk = min(len(_CLIP_RATIOS), max(1, _CLIP_CHUNK_ENTRIES // (m * n)))
    buf = np.empty((chunk,) + cells.shape)
    with np.errstate(over="ignore"):  # an overflowing error is inf, and loses to every finite one
        for start in range(0, len(_CLIP_RATIOS), chunk):
            _merge_clip_chunk(best, best_err, cells, cmin, cmax, _CLIP_RATIOS[start:start + chunk], buf)
    return best


def _merge_clip_chunk(best, best_err, cells, cmin, cmax, ratios, buf) -> None:
    """Fold one chunk of clip ratios into every cell's running best fit, in place.

    ``buf`` has room for ``len(ratios)`` rounded copies of ``cells``. The
    chunk's per-cell arrays are freed on return, before the next chunk's.
    """
    spec = best.spec
    r = ratios[:, None, None]
    # a positive ratio preserves order, so min(cell * r) == r * min(cell) exactly
    cand = _fit_cells(r * cmin, r * cmax, spec)
    scale = cand.scales[..., None]
    zero = cand.zero_points[..., None].astype(np.float64)
    diff = _round_codes(cells, scale, zero, spec, buf[:len(ratios)])
    diff -= zero
    diff *= scale
    diff -= cells
    np.square(diff, out=diff)
    err = diff.sum(axis=3)
    # flat index of each cell's first minimizing ratio in the chunk
    pick = err.argmin(axis=0) * best_err.size + np.arange(best_err.size).reshape(best_err.shape)
    err = np.take(err, pick)
    better = err < best_err  # strict: an earlier chunk's equal error wins
    np.copyto(best_err, err, where=better)
    np.copyto(best.scales, np.take(cand.scales, pick), where=better)
    np.copyto(best.zero_points, np.take(cand.zero_points, pick), where=better)


def _round_codes(x, scale, zero, spec: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """The rounding rule: floor(x / scale + zero + 1/2) clamped to [code_min, code_max].

    Float64 codes, written into ``out`` when it is given.
    """
    codes = np.asarray(np.add(np.divide(x, scale, out=out), zero, out=out))
    codes += 0.5
    np.floor(codes, out=codes)
    np.maximum(codes, spec.code_min, out=codes)
    return np.minimum(codes, spec.code_max, out=codes)


def round_to_grid(x, scale, zero, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nearest grid codes (int32) and their values, ties toward the larger code.

    ``scale`` and ``zero`` broadcast against ``x``; codes are clamped to
    [code_min, code_max].
    """
    codes = _round_codes(x, scale, zero, spec)
    values = np.subtract(codes, zero)  # dequantize's levels, scale * (codes - zero)
    values *= scale
    return codes.astype(np.int32), values


def column_grid(params: GridParams, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, zero point) arrays, m x len(cols), for original column indices.

    Zero points come back as float64, so rounding arithmetic stays in one dtype.
    On per-channel grids (``group_size`` 0) both are read-only broadcast views
    of the one column of scales and zero points; on grouped grids they are
    gathered copies.
    """
    gidx = np.asarray(cols, dtype=np.intp)
    if params.spec.group_size == 0:
        shape = (params.scales.shape[0], gidx.size)
        zeros = params.zero_points[:, :1].astype(np.float64)
        return np.broadcast_to(params.scales[:, :1], shape), np.broadcast_to(zeros, shape)
    gidx = gidx // params.spec.group_size
    return params.scales[:, gidx], params.zero_points[:, gidx].astype(np.float64)


def dequantize(codes: np.ndarray, params: GridParams) -> np.ndarray:
    """Dequantize an m x n integer code matrix: scale * (codes - zero), in one new array."""
    scale, zero = column_grid(params, np.arange(codes.shape[1]))
    values = codes.astype(np.float64)  # exact, as the subtraction's own cast would be
    values -= zero
    values *= scale
    return values
