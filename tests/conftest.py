import numpy as np
import pytest

from snrq import CalibBatch, cholesky
from snrq.linalg import _BLOCK
from snrq.solvers import OrderedFactor


def random_spd(rng: np.random.Generator, n: int, ridge: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, 2 * n))
    return a @ a.T + ridge * np.eye(n)


def random_batch(rng: np.random.Generator, n: int, n_seq: int, mismatch: float = 0.3) -> CalibBatch:
    xq = rng.normal(size=(n, n_seq))
    xf = xq + mismatch * rng.normal(size=(n, n_seq))
    return CalibBatch(xf=xf, xq=xq)


def diagonal_block_inverses(low: np.ndarray) -> tuple[np.ndarray, ...]:
    """Inverses of the ``_BLOCK``-wide diagonal blocks of ``low``, each at its
    own size (the form the triangular solves take), from one batched
    ``np.linalg.inv`` of the blocks with the last one padded with the
    identity: the reference for what ``cholesky`` returns."""
    n = low.shape[0]
    blocks = np.tile(np.eye(_BLOCK), (-(-n // _BLOCK), 1, 1))
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        blocks[s // _BLOCK, :e - s, :e - s] = low[s:e, s:e]
    inverses = np.linalg.inv(blocks)
    return tuple(inverses[s // _BLOCK, :min(_BLOCK, n - s), :min(_BLOCK, n - s)]
                 for s in range(0, n, _BLOCK))


def natural(low: np.ndarray, inv: tuple[np.ndarray, ...] | None = None) -> OrderedFactor:
    """A lower factor taken in natural column order (no act-order permutation).

    ``inv`` is what ``cholesky`` returned with ``low``; a factor built by hand
    has none, and gets :func:`diagonal_block_inverses`.
    """
    if inv is None:
        inv = diagonal_block_inverses(low)
    return OrderedFactor(np.arange(low.shape[0]), low, inv)


def act_order_factor(h: np.ndarray) -> OrderedFactor:
    """The act-order factor built apart from the solvers: a stable ascending
    sort of diag(h), then the Cholesky factor of the permuted h."""
    perm = np.argsort(np.diag(h), kind="stable")
    return OrderedFactor(perm, *cholesky(h[np.ix_(perm, perm)]))


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
