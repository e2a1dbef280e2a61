"""Deterministic sampling for verifier code paths.

A splitmix64 stream drives every sampled check so that CI verdicts are
reproducible from (seed, count) alone.  Test vectors for the stream live
in tests/test_rng.py; do not change the constants without updating them.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0xD0B1E
DEFAULT_SAMPLES = 1000


class SplitMix64:
    """The splitmix64 stream: output i (from 1) is mix(seed + i*GOLDEN mod 2^64)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def _next(self, count: int) -> np.ndarray:
        """The next count outputs as one uint64 array; uint64 wraps mod 2^64."""
        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        self.state = (self.state + count * GOLDEN) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def next_u64(self) -> int:
        return int(self._next(1)[0])

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def vec(self, n: int, p: int) -> np.ndarray:
        return self.mat(1, n, p)[0]

    def mat(self, rows: int, cols: int, p: int) -> np.ndarray:
        """rows x cols values below p, drawn row by row."""
        return (self._next(rows * cols) % np.uint64(p)).astype(np.int64).reshape(rows, cols)


def check_samples(samples: int) -> None:
    if samples < 1:  # a sampled check on no samples would pass vacuously
        raise ValueError(f"samples must be at least 1, got {samples}")
