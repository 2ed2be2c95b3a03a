import numpy as np

from polarvol.rng import RngStream


def test_generator_reproducible():
    a = RngStream(42, 3).generator().standard_normal(8)
    b = RngStream(42, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_distinct():
    a = RngStream(42, 0).generator().standard_normal(8)
    b = RngStream(42, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_chunk_generators_independent_of_order():
    s = RngStream(7, 2)
    first = [s.chunk_generator(k).uniform(size=4) for k in range(3)]
    second = [s.chunk_generator(k).uniform(size=4) for k in (2, 0, 1)]
    assert np.array_equal(first[0], second[1])
    assert np.array_equal(first[2], second[0])

