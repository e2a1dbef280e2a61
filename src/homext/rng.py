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
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def scalar(self, p: int) -> int:
        return self.below(p)

    def nonzero_scalar(self, p: int) -> int:
        return 1 + self.below(p - 1)

    def vec(self, n: int, p: int) -> np.ndarray:
        return np.array([self.below(p) for _ in range(n)], dtype=np.int64)

    def nonzero_vec(self, n: int, p: int) -> np.ndarray:
        while True:
            v = self.vec(n, p)
            if v.any():
                return v

    def mat(self, rows: int, cols: int, p: int) -> np.ndarray:
        values = [self.below(p) for _ in range(rows * cols)]  # row by row
        return np.array(values, dtype=np.int64).reshape(rows, cols)


def check_samples(samples: int) -> None:
    if samples < 1:  # a sampled check on no samples would pass vacuously
        raise ValueError(f"samples must be at least 1, got {samples}")


def derive_seed(seed: int, tag: int) -> int:
    """Disjoint child stream seed for parallel or per-check sharding."""
    return SplitMix64((seed ^ (tag * GOLDEN)) & MASK64).next_u64()
