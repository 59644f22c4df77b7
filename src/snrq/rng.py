"""Deterministic seeded randomness.

Every random draw in the package flows through a :class:`SeededRng`, which is a
thin wrapper around numpy's counter-based Philox generator. A (seed, stream_id)
pair fully determines the draw sequence, independently of thread count or of
the order in which sibling streams are consumed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeededRng"]


class SeededRng:
    """Reproducible random stream keyed by (seed, stream_id).

    Two instances constructed with the same key produce identical sequences;
    streams with different ids are statistically independent, so workers and
    sub-tasks can each own a stream without coordination.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def normal(self, size=None, loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=loc, scale=scale, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def beta(self, a: float, b: float, size=None) -> np.ndarray:
        return self._gen.beta(a, b, size=size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
