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

    Columns are scanned left to right and the pivot is the first nonzero
    entry found scanning down the current column, which keeps the output
    deterministic.  Each pivot is one row update of the rows with a nonzero
    entry in its column; every product is below p^2.
    """
    a = asmat(m, p).copy()
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = a[r:, c].nonzero()[0]
        if not below.size:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        if a[r, c] != 1:
            a[r] = (a[r] * inv(int(a[r, c]), p)) % p
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            a[hit] = (a[hit] - a[hit, c, None] * a[r]) % p
        pivots.append(c)
    return a, pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def null_basis(m, p: int) -> np.ndarray:
    """Basis of the right null space {v : Mv = 0} as the rows of one array,
    in reduced echelon form.

    All-zero rows do not change the null space, so rref never sees them.
    """
    a = asmat(m, p)
    cols = a.shape[1]
    r, pivots = rref(a[a.any(axis=1)], p)
    free = np.delete(np.arange(cols), pivots)  # np.setdiff1d's first call costs ~1 MB of RSS
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[:len(pivots), free].T) % p
    return rref(basis, p)[0]


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
    x[pivots] = aug[:len(pivots), cols]
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


# Multiply-adds below which int64 beats float64 BLAS with its operand copies,
# and the largest result matrices of a stack that stay on int64 past that,
# where numpy calls BLAS once per matrix (README, "Exact products on float64").
_FLOAT_MACS = 6000
_STACK_TINY = 3


def matmul(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p of operands reduced into [0, p), as int64 in [0, p).

    Every partial sum of the k products behind an entry is an integer of
    at most k(p-1)^2.  Below 2^53 float64 holds each one exactly, so a
    product of at least _FLOAT_MACS multiply-adds runs on float64 BLAS and
    its summation order cannot change the result (README, "Exact products
    on float64").  Smaller ones, stacks of result matrices of at most
    _STACK_TINY rows and columns, and any below 2^63, which bundle.parse's
    dim*(p-1)^2 guard ensures for k <= dim, run on int64 (numpy's integer
    matmul has no BLAS), and past 2^63 on Python integers.  An operand may
    also be float64, a constant matrix converted once, where every product
    it meets takes the float64 route, which then reads it without a copy.
    """
    a, b = np.asarray(a), np.asarray(b)
    bound = a.shape[-1] * (p - 1) ** 2
    if bound >= 2**63:
        return (np.matmul(a.astype(object), b.astype(object)) % p).astype(np.int64)
    rows, cols = a.shape[-2] if a.ndim > 1 else 1, b.shape[-1] if b.ndim > 1 else 1
    tiny = max(a.ndim, b.ndim) > 2 and max(rows, cols) <= _STACK_TINY
    if tiny or max(a.size * cols, b.size * rows) < _FLOAT_MACS:
        return np.matmul(a, b) % p
    if bound >= 2**53:
        return mod(np.matmul(a, b), p)
    # the float product is freed before mod runs: no third array of its size
    return mod(np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)).astype(np.int64), p)


def mat_pow(m, k: int, p: int) -> np.ndarray:
    """m^k mod p by repeated squaring: O(log k) products, for k >= 0."""
    if k < 0:
        raise ValueError(f"matrix power needs k >= 0, got {k}")
    a = asmat(m, p)
    out = eye(a.shape[0])
    while k:
        if k & 1:
            out = matmul(out, a, p)
        k >>= 1
        if k:
            a = matmul(a, a, p)
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
