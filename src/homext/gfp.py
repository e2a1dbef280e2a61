"""Exact linear algebra over the prime field GF(p).

Vectors and matrices are numpy int64 arrays with entries reduced into
[0, p).  Every function reduces its output mod p, so callers may pass
unreduced integer data.  Matrices act on column vectors.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DimMismatch, ZeroInverse


def asvec(v, p: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.int64)
    if a.ndim != 1:
        raise DimMismatch(f"expected a vector, got shape {a.shape}")
    return mod(a, p)


def asmat(m, p: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise DimMismatch(f"expected a matrix, got shape {a.shape}")
    return mod(a, p)


def mod(a: np.ndarray, p: int) -> np.ndarray:
    """a % p by floor division, which numpy vectorises and np.remainder does not."""
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def inv(a: int, p: int) -> int:
    """Multiplicative inverse in GF(p)."""
    a = int(a) % p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the twelve prime bases up to 37.

    No composite below 3.1 * 10^23 (so none below 2^64) is a strong
    pseudoprime to all twelve, so the verdict is exact there; it costs
    twelve modular exponentiations instead of sqrt(p) trial divisions.
    """
    p = int(p)
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def unit(n: int, j: int) -> np.ndarray:
    e = zeros(n)
    e[j] = 1
    return e


def rref(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns.

    Rows are processed top-down and the pivot is the first nonzero entry
    found scanning down the current column, which keeps the output
    deterministic.
    """
    a = asmat(m, p).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = None
        for i in range(r, rows):
            if a[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * inv(int(a[r, c]), p)) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel(m, p: int) -> list[np.ndarray]:
    """Basis of the right null space {v : Mv = 0}, in reduced echelon form.

    All-zero rows do not change the null space, so rref never sees them.
    """
    a = asmat(m, p)
    cols = a.shape[1]
    r, pivots = rref(a[a.any(axis=1)], p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = zeros(cols)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-r[i, f]) % p
        basis.append(v)
    if not basis:
        return []
    stacked, _ = rref(np.stack(basis), p)
    return [stacked[i].copy() for i in range(stacked.shape[0]) if stacked[i].any()]


def solve(m, b, p: int) -> np.ndarray | None:
    """Some x with Mx = b, or None.  Free variables are set to 0."""
    a = asmat(m, p)
    rhs = asvec(b, p)
    rows, cols = a.shape
    if rhs.shape[0] != rows:
        raise DimMismatch("solve: shape mismatch")
    aug, pivots = rref(np.hstack([a, rhs[:, None]]), p)
    if cols in pivots:
        return None
    x = zeros(cols)
    for i, c in enumerate(pivots):
        x[c] = aug[i, cols]
    return x


def mat_inv(m, p: int) -> np.ndarray | None:
    """Matrix inverse mod p, or None when singular."""
    a = asmat(m, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimMismatch("inverse needs a square matrix")
    aug, pivots = rref(np.hstack([a, eye(n)]), p)
    if pivots != list(range(n)):
        return None
    return aug[:, n:].copy()


def mat_pow(m, k: int, p: int) -> np.ndarray:
    """m^k mod p by repeated squaring: O(log k) products, for k >= 0."""
    if k < 0:
        raise ValueError(f"matrix power needs k >= 0, got {k}")
    a = asmat(m, p)
    out = eye(a.shape[0])
    while k:
        if k & 1:
            out = (out @ a) % p
        a = (a @ a) % p
        k >>= 1
    return out


# Spaces whose all_vectors and low_weight arrays stay cached.
_DOMAIN_CACHE = 4


def vectors(idx, n: int, p: int) -> np.ndarray:
    """The rows of GF(p)^n at the given vec_index values."""
    pows = p ** np.arange(n, dtype=np.int64)
    return (np.asarray(idx, dtype=np.int64)[:, None] // pows[None, :]) % p


@functools.lru_cache(maxsize=_DOMAIN_CACHE)
def all_vectors(n: int, p: int) -> np.ndarray:
    """All p**n vectors of GF(p)^n as rows; row index equals vec_index.

    Cached per (n, p) and read-only, so every exhaustive check of one
    space shares one array.
    """
    out = vectors(np.arange(p**n, dtype=np.int64), n, p)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=_DOMAIN_CACHE)
def low_weight(n: int, p: int, d: int) -> np.ndarray:
    """The rows of all_vectors(n, p) with at most d nonzero coordinates, in
    all_vectors order: sum over k <= d of C(n, k) (p-1)^k rows.

    Built from the supports, without enumerating GF(p)^n.  Cached per
    (n, p, d) and read-only.
    """
    pows = p ** np.arange(n, dtype=np.int64)
    idx = [np.zeros(1, dtype=np.int64)]
    for k in range(1, min(d, n) + 1):
        values = np.array(list(itertools.product(range(1, p), repeat=k)), dtype=np.int64)
        idx += [values @ pows[list(support)] for support in itertools.combinations(range(n), k)]
    out = vectors(np.sort(np.concatenate(idx)), n, p)
    out.setflags(write=False)
    return out


def vec_index(x, p: int) -> np.ndarray | int:
    """Index of a vector (or batch of row vectors) in the all_vectors order."""
    a = np.asarray(x, dtype=np.int64) % p
    pows = p ** np.arange(a.shape[-1], dtype=np.int64)
    return a @ pows
