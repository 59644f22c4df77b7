"""Regularized asymmetric calibration and successive rounding, desk scale.

Quantizes linear layers by interpolating between symmetric and asymmetric
calibration objectives, completing the square into a triangular least-squares
proxy, and solving the discrete rounding problem with greedy, lazy-batch,
beam-search, or coordinate-descent refinement solvers. Everything is checked
against brute-force oracles on small instances.
"""

__version__ = "0.1.0"

from .calibration import (
    AlphaStrategy,
    CalibBatch,
    CalibStats,
    accumulate_stats,
    closed_form_alpha,
    shifted_target,
)
from .errors import (
    BudgetExceeded,
    FormatError,
    InvalidSpec,
    MemoryBudget,
    NonFinite,
    NotPositiveDefinite,
    ShapeMismatch,
    SnrqError,
)
from .grid import GridParams, GridSpec, dequantize, fit_grid
from .linalg import cholesky
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
    rtn_round,
    snrq_greedy,
)

__all__ = [
    "__version__",
    "AlphaStrategy",
    "BudgetExceeded",
    "CalibBatch",
    "CalibStats",
    "FormatError",
    "GridParams",
    "GridSpec",
    "InvalidSpec",
    "MemoryBudget",
    "NonFinite",
    "NotPositiveDefinite",
    "RoundResult",
    "SeededRng",
    "ShapeMismatch",
    "SnrqError",
    "SolverConfig",
    "accumulate_stats",
    "cd_refine",
    "cholesky",
    "closed_form_alpha",
    "dequantize",
    "fit_grid",
    "gptaq_round",
    "gptq_round",
    "ksnrq_beam",
    "order_and_factor",
    "read_matrix",
    "rtn_round",
    "shifted_target",
    "snrq_greedy",
    "write_matrix",
]
