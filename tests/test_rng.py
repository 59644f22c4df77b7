"""Seeded stream reproducibility."""

import numpy as np

from snrq import SeededRng


def test_same_key_same_sequence():
    a = SeededRng(42, 7).normal(size=100)
    b = SeededRng(42, 7).normal(size=100)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = SeededRng(42, 0).normal(size=50)
    b = SeededRng(42, 1).normal(size=50)
    assert not np.array_equal(a, b)


def test_stream_independent_of_evaluation_order():
    # draw stream 3 first in one ordering, last in the other
    first = {k: SeededRng(9, k).normal(size=16) for k in (3, 1, 2)}
    second = {k: SeededRng(9, k).normal(size=16) for k in (1, 2, 3)}
    for k in (1, 2, 3):
        assert np.array_equal(first[k], second[k])


def test_is_a_philox_generator_keyed_modulo_2_64():
    rng = SeededRng(-5, 2**64 + 3)
    raw = np.random.Generator(np.random.Philox(key=np.array([2**64 - 5, 3], dtype=np.uint64)))
    assert isinstance(rng, np.random.Generator)
    assert np.array_equal(rng.normal(size=16), raw.normal(size=16))
    assert np.array_equal(rng.beta(5.0, 5.0, size=16), raw.beta(5.0, 5.0, size=16))


def test_beta_and_integers_reproducible():
    r1, r2 = SeededRng(1, 2), SeededRng(1, 2)
    assert np.array_equal(r1.beta(5.0, 5.0, size=32), r2.beta(5.0, 5.0, size=32))
    assert np.array_equal(r1.integers(0, 100, size=32), r2.integers(0, 100, size=32))
