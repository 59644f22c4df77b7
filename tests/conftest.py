import numpy as np
import pytest

from snrq import CalibBatch
from snrq.linalg import block_inverses
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
    return OrderedFactor(np.arange(low.shape[0]), low, block_inverses(low))


def act_order_factor(h: np.ndarray) -> OrderedFactor:
    """The act-order factor built apart from the solvers: a stable ascending
    sort of diag(h), then numpy's Cholesky factor of the permuted h."""
    perm = np.argsort(np.diag(h), kind="stable")
    low = np.linalg.cholesky(h[np.ix_(perm, perm)])
    return OrderedFactor(perm, low, block_inverses(low))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike ==, tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward_output(layers, x: np.ndarray, nonlinearity: str) -> np.ndarray:
    """Network output for inputs ``x``: one product per layer, the activation between layers."""
    for l, w in enumerate(layers):
        x = w @ x
        if l + 1 < len(layers) and nonlinearity == "relu":
            x = np.maximum(x, 0.0)
    return x


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
