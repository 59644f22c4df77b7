"""Deterministic seeded randomness.

Every random draw in the package comes from a :class:`SeededRng`, a numpy
``Generator`` over the counter-based Philox bit generator whose key is the
(seed, stream_id) pair. The key fully determines the draw sequence,
independently of thread count or of the order in which sibling streams are
consumed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeededRng"]


class SeededRng(np.random.Generator):
    """Reproducible random stream keyed by (seed, stream_id).

    Two instances constructed with the same key produce identical sequences;
    streams with different ids are statistically independent, so workers and
    sub-tasks can each own a stream without coordination. Both parts of the
    key are taken modulo 2**64.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream_id) & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        super().__init__(np.random.Philox(key=key))
