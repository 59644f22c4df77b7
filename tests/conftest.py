import numpy as np
import pytest

from snrq import CalibBatch
from snrq.solvers import OrderedFactor


def random_spd(rng: np.random.Generator, n: int, ridge: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, 2 * n))
    return a @ a.T + ridge * np.eye(n)


def random_batch(rng: np.random.Generator, n: int, n_seq: int, mismatch: float = 0.3) -> CalibBatch:
    xq = rng.normal(size=(n, n_seq))
    xf = xq + mismatch * rng.normal(size=(n, n_seq))
    return CalibBatch(xf=xf, xq=xq)


def natural(low: np.ndarray) -> OrderedFactor:
    """A lower factor taken in natural column order (no act-order permutation)."""
    return OrderedFactor(np.arange(low.shape[0]), low)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
