"""Exception types shared across the package, and the config field checks that raise them."""

import math
import numbers


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
    """The successive-rounding kernel's state would exceed the configured memory cap.

    The kernel holds the state of all m*K beams of a layer at once, so the
    charge grows with m*K.
    """


def require_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; raise InvalidSpec unless it is an integer (bools rejected) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidSpec(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def require_finite(name: str, value) -> float:
    """``value`` as a float, -0.0 as 0.0, so each number has one form.

    Raises InvalidSpec unless ``value`` is a real number (bools rejected)
    that is finite as a float: an integer beyond the float range is not.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value) + 0.0
        except OverflowError:  # an integer too large for a float
            pass
    raise InvalidSpec(f"{name} must be a finite number, got {value!r}")


def require_bool(name: str, value) -> None:
    """Raise InvalidSpec unless ``value`` is true or false."""
    if not isinstance(value, bool):
        raise InvalidSpec(f"{name} must be true or false, got {value!r}")
