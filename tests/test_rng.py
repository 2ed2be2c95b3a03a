import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarvol.rng import RngStream, generators, stream_keys


def _reference_keys(seed, streams):
    keys = [np.random.SeedSequence(seed, spawn_key=(s,)).generate_state(2, np.uint64) for s in streams]
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


def _reference_generator(seed, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


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


# 2^200 has 7 words, more than SeedSequence's pool of 4; from 2^96 to 2^160 the words
# past the pool go from 0 to 1 (at 2^128) and to 2 (at 2^160)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200, 2**96, 2**128 - 1, 2**128, 2**160]
TOP = 2**32 - 1


# each stream is the one-word spawn key (stream,): single words at both ends of [0, 2^32),
# a run of them, the X and Z streams of 5 trials, and words out of order with a repeat
@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("spawn_keys", [
    [0], [TOP], list(range(9)),
    [*range(0, 20, 4), *range(2, 20, 4)], [TOP, 7, 2**31, 7, 2**31 - 1],
])
def test_stream_keys_equal_seed_sequence_at_edge_seeds(seed, spawn_keys):
    got = stream_keys(seed, spawn_keys)
    assert got.dtype == np.uint64 and got.shape == (len(spawn_keys), 2)
    assert got.tobytes() == _reference_keys(seed, spawn_keys).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**256), spawn_keys=st.lists(st.integers(0, TOP), max_size=8))
def test_stream_keys_equal_seed_sequence(seed, spawn_keys):
    assert stream_keys(seed, spawn_keys).tobytes() == _reference_keys(seed, spawn_keys).tobytes()


# a stream is one SeedSequence word: an integer in [0, 2^32), not a pair and not a float
@pytest.mark.parametrize("seed,spawn_keys", [
    (1, [2**32]), (1, [0, 2**32]), (1, [0, 2**40]), (1, [-1]), (-1, [0]),
    (1, [0.5]), (1, [0, 2.0]), (1, [(0, 1)]),
])
def test_stream_keys_refuse_what_is_not_one_word_a_spawn_entry(seed, spawn_keys):
    # an integer out of range is a ValueError; a float or a pair is not an integer at all
    error = ValueError if all(isinstance(s, int) for s in spawn_keys) else TypeError
    with pytest.raises(error):
        stream_keys(seed, spawn_keys)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (0, 2**32)])
def test_a_stream_out_of_range_is_refused_when_built(seed, stream):
    with pytest.raises(ValueError):
        RngStream(seed, stream)


def _same_draws(gen, ref):
    return (gen.random(1000).tobytes() == ref.random(1000).tobytes()
            and gen.standard_normal(1000).tobytes() == ref.standard_normal(1000).tobytes())


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_generators_equal_fresh_seed_sequence_generators(seed):
    assert _same_draws(RngStream(seed, 5).generator(), _reference_generator(seed, (5,)))
    assert _same_draws(RngStream(seed, 5).chunk_generator(3), _reference_generator(seed, (5, 3)))
    streams = [0, 4, 8, TOP]
    for stream, gen in zip(streams, generators(seed, streams), strict=True):
        # one generator re-keyed for each stream: a partly used buffer must not carry over
        gen.integers(0, 2**32, dtype=np.uint32)
        ref = _reference_generator(seed, (stream,))
        ref.integers(0, 2**32, dtype=np.uint32)
        assert _same_draws(gen, ref)


def test_generators_of_no_streams_yield_nothing():
    assert list(generators(3, [])) == []
