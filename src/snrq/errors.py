"""Exception types shared across the package."""


class SnrqError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefinite(SnrqError):
    """A Cholesky pivot was non-positive; the caller should increase damping."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} = {pivot_value:.6e}"
        )


class ShapeMismatch(SnrqError):
    """Operands have incompatible dimensions."""


class NonFinite(SnrqError):
    """A matrix contains NaN or Inf where finite values are required."""


class FormatError(SnrqError):
    """A matrix file is malformed (bad magic, truncated payload, non-finite entry)."""


class InvalidSpec(SnrqError):
    """A grid or network specification is internally inconsistent."""


class BudgetExceeded(SnrqError):
    """An enumeration exceeded its candidate budget."""


class MemoryBudget(SnrqError):
    """The successive-rounding kernel's state would exceed the configured memory cap."""
