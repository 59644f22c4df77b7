"""Uniform quantization grids: fitting, rounding, level enumeration.

A grid is defined per output row and per column group. Symmetric grids use the
full signed code range [-2^(b-1), 2^(b-1)-1] with the scale fitted to
2^(b-1)-1, so the number of representable levels is always A = 2^b. Asymmetric
grids use codes [0, 2^b-1] with an integer zero point.

Scales and zero points are always fitted from the original full-precision
weights and are always looked up by original column index; solvers that
permute columns fetch parameters through their permutation. MSE clipping fits
all (row, group) cells at once, one array pass per clip ratio, and each cell
keeps the first ratio that minimizes its round-trip error.
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
    "levels",
    "dequantize",
]

_DEGENERATE_SCALE = 1e-12


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
    """Scales and zero points for cells with the given value ranges."""
    if spec.symmetric:
        scale = np.maximum(np.abs(vmin), np.abs(vmax)) / spec.code_max
        scale = np.maximum(scale, _DEGENERATE_SCALE)
    else:
        scale = np.maximum((vmax - vmin) / (spec.num_levels - 1), _DEGENERATE_SCALE)
    scale = np.where(vmax == vmin, _DEGENERATE_SCALE, scale)
    zeros = np.zeros(vmin.shape, dtype=np.int32)
    if not spec.symmetric:
        zeros[...] = np.clip(np.floor(-vmin / scale + 0.5), 0, spec.code_max)
    return GridParams(scales=scale, zero_points=zeros, spec=spec)


def fit_grid(w: np.ndarray, spec: GridSpec) -> GridParams:
    """Fit scales and zero points from the full-precision weights.

    With ``spec.mse_clip`` the min/max range of every (row, group) cell is
    shrunk by the ratio (100-point grid over [0.5, 1.0]) minimizing that
    cell's squared round-trip error; the first minimizing ratio wins. All
    cells are fitted together, one array pass per ratio, so temporaries stay
    O(m * n). Default is plain min/max fitting.

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
    ratios = np.linspace(0.5, 1.0, 100)
    # a cell whose every error overflows keeps the first ratio, as a running minimum would
    best = _fit_cells(ratios[0] * cmin, ratios[0] * cmax, spec)
    best_err = np.full((m, n_groups), np.inf)
    for ratio in ratios:
        # a positive ratio preserves order, so min(cell * r) == r * min(cell) exactly
        cand = _fit_cells(ratio * cmin, ratio * cmax, spec)
        scale, zero = cand.scales[:, :, None], cand.zero_points[:, :, None]
        _, approx = round_to_grid(cells, scale, zero, spec)
        err = np.sum((cells - approx) ** 2, axis=2)
        better = err < best_err  # strict: the first minimizing ratio wins
        best_err[better] = err[better]
        best.scales[better] = cand.scales[better]
        best.zero_points[better] = cand.zero_points[better]
    return best


def round_to_grid(x, scale, zero, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nearest grid codes (int32) and their values, ties toward the larger code.

    ``scale`` and ``zero`` broadcast against ``x``; codes are clamped to
    [code_min, code_max].
    """
    codes = np.clip(np.floor(x / scale + zero + 0.5), spec.code_min, spec.code_max)
    return codes.astype(np.int32), scale * (codes - zero)


def column_grid(params: GridParams, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, zero point) arrays, m x len(cols), for original column indices.

    Zero points come back as float64, so rounding arithmetic stays in one dtype.
    """
    gidx = np.asarray(cols, dtype=np.intp)
    if params.spec.group_size == 0:
        gidx = np.zeros_like(gidx)
    else:
        gidx = gidx // params.spec.group_size
    return params.scales[:, gidx], params.zero_points[:, gidx].astype(np.float64)


def levels(row: int, col: int, params: GridParams) -> np.ndarray:
    """All A = 2^bits dequantized values for one grid cell, ascending."""
    spec = params.spec
    scale, zero = column_grid(params, [col])
    codes = np.arange(spec.code_min, spec.code_max + 1)
    return scale[row, 0] * (codes - zero[row, 0])


def dequantize(codes: np.ndarray, params: GridParams) -> np.ndarray:
    """Dequantize an m x n integer code matrix."""
    scale, zero = column_grid(params, np.arange(codes.shape[1]))
    return scale * (codes - zero)
