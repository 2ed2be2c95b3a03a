"""Reproducible counter-based random streams.

Every random draw in the library flows through an :class:`RngStream`,
a (seed, stream) pair backed by the Philox counter-based generator.
Distinct stream indices give statistically independent sequences, and
a (seed, stream) pair fully determines its output, so estimators can
hand one stream per worker/chunk and stay deterministic regardless of
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for sub-chunk `chunk` of this stream.

        Chunk generators live in a separate key space from
        ``generator()``, so mixing the two never collides.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, chunk))
        return np.random.Generator(np.random.Philox(ss))
