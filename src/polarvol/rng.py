"""Reproducible counter-based random streams.

Every random draw in the library flows through an :class:`RngStream`,
a (seed, stream) pair backed by the Philox counter-based generator.
Distinct stream indices give statistically independent sequences, and
a (seed, stream) pair fully determines its output, so estimators can
hand one stream per worker/chunk and stay deterministic regardless of
scheduling.

A stream is the Philox generator of ``SeedSequence(seed, spawn_key=k)``,
built through numpy: k = (stream,) for ``generator()`` and (stream, chunk)
for ``chunk_generator()``.

`generators` serves a serial loop over many streams with one generator.
Philox is counter-based (Salmon et al., SC 2011): a stream's state is a
128-bit key and a zero counter, so `stream_keys` hashes all the keys at
once and the generator is re-keyed through the Philox state setter
before each stream.  The seed's pool comes from numpy's SeedSequence;
only the spawn word's mix and the output hash, which numpy has no
batched form of, are written out in uint32 arithmetic.  Every item is
the same object, for one thread that finishes each stream's draws
before it takes the next; threads and anything that keeps a generator
take their own from `RngStream`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# numpy's SeedSequence: a pool of 4 uint32 words, hashed as in O'Neill's seed_seq_fe
POOL = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def _powers(init: int, mult: int, count: int) -> list:
    """init·mult^t mod 2^32 for t = 0..count-1: the hash constant at each step."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & MASK32)
    return out


def _hash(value, xor: int, mul: int):
    """SeedSequence's word hash, mod 2^32, of a uint64 array of words."""
    value = (value ^ xor) * mul & MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (MIX_L * x - MIX_R * y) & MASK32
    return r ^ r >> 16


# the constants of SeedSequence's output hash, generate_state(2, uint64): 4 words
_OUT = _powers(INIT_B, MULT_B, POOL + 1)


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """numpy's pool once `seed` is mixed in, and the hash constants left for the spawn word.

    SeedSequence mixes in the seed's 32-bit words, padded to the pool size,
    through POOL·(POOL + extra) hash constants (4 words in, 12 pool mixes, 4
    steps for each word past the pool); a spawn key leaves that pool as it
    is and takes the constants from there on.
    """
    extra = max(0, (seed.bit_length() + 31) // 32 - POOL)
    start = INIT_A * pow(MULT_A, POOL * (POOL + extra), 1 << 32) & MASK32
    return tuple(np.random.SeedSequence(seed).pool.tolist()), tuple(_powers(start, MULT_A, POOL + 1))


def stream_keys(seed: int, streams: Iterable[int]) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64: row i is the key of the i-th stream of `seed`.

    Row i equals ``SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)``.
    A stream is one SeedSequence word, an integer in [0, 2^32); all rows
    are hashed at once in uint64 arrays, masked to 32-bit arithmetic.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed}")
    streams = [operator.index(s) for s in streams]
    if not all(0 <= s <= MASK32 for s in streams):
        raise ValueError("streams: expected integers in [0, 2^32)")
    pool, const = _seed_pool(seed)
    # the spawn word mixed into each pool word, for all rows at once
    w = np.array(streams, dtype=np.uint64)
    pool = [_mix(p, _hash(w, const[d], const[d + 1])) for d, p in enumerate(pool)]
    s = [_hash(p, _OUT[d], _OUT[d + 1]) for d, p in enumerate(pool)]
    # generate_state(2, uint64) reads its 4 words as 2 little-endian pairs
    return np.stack([s[0] | s[1] << 32, s[2] | s[3] << 32], axis=1)


def _generator(seed: int, spawn_key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def generators(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """The generator of each stream of `seed` in turn, for a serial loop.

    Every item is the same generator, re-keyed through the Philox state
    setter, so a caller finishes one stream's draws before it takes the
    next and keeps none of them: the items are for one thread only.
    """
    gen = np.random.Generator(np.random.Philox(0))
    zero = (0, 0, 0, 0)  # the setter reads plain ints faster than numpy scalars
    for key in stream_keys(seed, streams).tolist():
        # a fresh Philox: counter 0 and an empty output buffer
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": key},
            "buffer": zero,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed}")
        if not 0 <= self.stream <= MASK32:
            raise ValueError(f"stream: expected an integer in [0, 2^32), got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return _generator(self.seed, (self.stream,))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for sub-chunk `chunk` of this stream.

        Chunk generators live in a separate key space from
        ``generator()``, so mixing the two never collides.
        """
        return _generator(self.seed, (self.stream, chunk))
