"""Reproducible counter-based random streams.

Every random draw in the library flows through an :class:`RngStream`,
a (seed, stream) pair backed by the Philox counter-based generator.
Distinct stream indices give statistically independent sequences, and
a (seed, stream) pair fully determines its output, so estimators can
hand one stream per worker/chunk and stay deterministic regardless of
scheduling.

A stream is the Philox generator of ``SeedSequence(seed, spawn_key=k)``:
k = (stream,) for ``generator()`` and (stream, chunk) for
``chunk_generator()``.  Philox is counter-based (Salmon et al., SC 2011),
so its whole state is a 128-bit key and a counter that starts at 0.
`stream_keys` computes those keys for many spawn keys at once, with
SeedSequence's hash written out in uint32 arithmetic, and each
generator is built from its key: the same bits, without a SeedSequence
object per stream.  The key reaches Philox through `_PhiloxKey`, a
seed sequence that holds only the key, because ``Philox(key=...)``
still builds a SeedSequence from OS entropy and drops it.

`generators` serves a serial loop over many streams with one generator,
re-keyed through the Philox state setter before each stream.  It hands
out the same object every time, so it is for one thread that finishes
each stream's draws before it takes the next; threads and anything
that keeps a generator take their own from `RngStream`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    """SeedSequence's word hash, mod 2^32; `value` is an int or a uint64 array of words."""
    value = (value ^ xor) * mul & MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (MIX_L * x - MIX_R * y) & MASK32
    return r ^ r >> 16


# the constants of SeedSequence's output hash, generate_state(2, uint64): 4 words
_OUT = _powers(INIT_B, MULT_B, POOL + 1)


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """The pool once `seed` is mixed in, and the hash constants left for the spawn words.

    A spawn key always follows, so SeedSequence pads the seed's words
    (little-endian, 32 bits each) with zeros to the pool size.
    """
    words = []
    while seed:
        words.append(seed & MASK32)
        seed >>= 32
    words += [0] * (POOL - len(words))
    extra = len(words) - POOL
    # 4 words in, 12 pool mixes, then 4 steps for each word left and for up to two spawn words
    const = _powers(INIT_A, MULT_A, POOL * (POOL + extra + 2) + 1)
    pool = [_hash(w, const[t], const[t + 1]) for t, w in enumerate(words[:POOL])]
    t = POOL
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], const[t], const[t + 1]))
                t += 1
    pool = _absorb(pool, words[POOL:], const, t)
    return tuple(pool), tuple(const[POOL * (POOL + extra):])


def _absorb(pool, words, const, t: int) -> list:
    """Mix each word into every pool word, from hash constant t on."""
    for w in words:
        pool = [_mix(p, _hash(w, const[t + d], const[t + d + 1])) for d, p in enumerate(pool)]
        t += POOL
    return pool


def stream_keys(seed: int, spawn_keys: Sequence[Sequence[int]]) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64: row i is the key of SeedSequence(seed, spawn_key=spawn_keys[i]).

    It equals ``SeedSequence(seed, spawn_key=k).generate_state(2, np.uint64)``
    row by row.  The spawn keys all have one length, 1 or 2 entries, each
    in [0, 2^32), where a spawn entry is one SeedSequence word.  One key
    is hashed in Python integers, more in uint64 arrays over all rows; the
    masks keep either to SeedSequence's 32-bit arithmetic.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed}")
    rows = [[operator.index(v) for v in key] for key in spawn_keys]
    widths = {len(key) for key in rows}
    if len(widths) > 1 or widths - {1, 2}:
        raise ValueError("spawn_keys: expected rows of 1 or 2 entries, all of one length")
    if not all(0 <= v <= MASK32 for key in rows for v in key):
        raise ValueError("spawn_keys: entries must be integers in [0, 2^32)")
    if not rows:
        return np.empty((0, 2), dtype=np.uint64)
    pool, const = _seed_pool(seed)
    if len(rows) == 1:
        words = rows[0]
    else:
        pool = [np.full(len(rows), p, dtype=np.uint64) for p in pool]
        words = list(np.array(rows, dtype=np.uint64).T)
    s = [_hash(p, _OUT[d], _OUT[d + 1]) for d, p in enumerate(_absorb(pool, words, const, 0))]
    # generate_state(2, uint64) reads its 4 words as 2 little-endian pairs
    return np.array([s[0] | s[1] << 32, s[2] | s[3] << 32], dtype=np.uint64).T.reshape(-1, 2)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a Philox one given key.

    ``Philox(_PhiloxKey(k))`` is ``Philox(key=k)`` without the OS-entropy
    SeedSequence that the ``key=`` path builds and drops, which costs
    more than the key's hash.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


def _philox(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def generators(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """The generator of each stream of `seed` in turn, for a serial loop.

    Every item is the same generator, re-keyed through the Philox state
    setter, so a caller finishes one stream's draws before it takes the
    next and keeps none of them: the items are for one thread only.
    """
    gen = _philox(np.zeros(2, dtype=np.uint64))
    zero = (0, 0, 0, 0)  # the setter reads plain ints faster than numpy scalars
    for key in stream_keys(seed, [(s,) for s in streams]).tolist():
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
        return _philox(stream_keys(self.seed, [(self.stream,)])[0])

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for sub-chunk `chunk` of this stream.

        Chunk generators live in a separate key space from
        ``generator()``, so mixing the two never collides.
        """
        return _philox(stream_keys(self.seed, [(self.stream, chunk)])[0])
