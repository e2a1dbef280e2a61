"""The vectorised GF(p) elimination against the row-at-a-time oracle.

gfp.rref updates every row of a pivot column in one step, and kernel,
solve, mat_inv and Subspace read their answers off it; oracles.rref_loop
and the routes built on it eliminate one row at a time.  Both must agree
bit for bit, up to the largest p whose products (p - 1)^2 fit int64.
"""

import math

import numpy as np
import oracles
import pytest

from homext import gfp
from homext.algebra import BilinearForm, HomLieAlgebra, Subspace
from homext.isom import verify_adapted_iso

P_MAX = 3_037_000_493  # the largest prime with (p - 1)^2 < 2^63
PRIMES = [2, 3, 5, 7, P_MAX]


def test_p_max_is_the_largest_prime_whose_square_fits_int64():
    assert gfp.is_prime(P_MAX) and (P_MAX - 1) ** 2 < 2**63
    assert not any(gfp.is_prime(q) for q in range(P_MAX + 1, math.isqrt(2**63 - 1) + 2))


def _exact(p, a, b):
    """a @ b mod p on Python integers, so no product wraps at any p."""
    return np.asarray((a.astype(object) @ b.astype(object)) % p, dtype=np.int64)


def _corpus(p, seed):
    """Random, sparse, low-rank, all-zero, empty, wide and tall matrices."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (3, 3), (4, 7), (7, 4), (2, 12), (12, 2), (9, 9), (30, 6), (6, 30)]
    out = [np.zeros((0, 0), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
           np.zeros((5, 0), dtype=np.int64), np.zeros((4, 6), dtype=np.int64)]
    for rows, cols in shapes:
        out.append(rng.integers(0, p, size=(rows, cols)))
        out.append(rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.15))
        k = int(rng.integers(1, min(rows, cols) + 1))
        out.append(_exact(p, rng.integers(0, p, size=(rows, k)), rng.integers(0, p, size=(k, cols))))
    out.append(np.array([[0, 0, 0], [0, 0, p - 1], [0, 1, 0]], dtype=np.int64))  # pivots found low down
    out.append(np.array([[p - 1, 1], [-1, 2 * p + 1]], dtype=np.int64))  # unreduced input
    return out


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_rank_and_kernel_equal_the_row_loop(p):
    for m in _corpus(p, p % 1000):
        r, piv = gfp.rref(m, p)
        want_r, want_piv = oracles.rref_loop(m, p)
        assert _same(r, want_r) and piv == want_piv
        assert gfp.rank(m, p) == len(want_piv)
        got, want = list(gfp.null_basis(m, p)), oracles.kernel_loop(m, p)
        assert type(got) is list and len(got) == len(want)
        assert all(_same(g, w) for g, w in zip(got, want))
        if got:
            assert not _exact(p, m, np.stack(got).T).any()


@pytest.mark.parametrize("p", PRIMES)
def test_solve_and_mat_inv_equal_the_row_loop(p):
    rng = np.random.default_rng(7 + p % 1000)
    for m in _corpus(p, 11 + p % 1000):
        rows, cols = m.shape
        x = rng.integers(0, p, size=cols)
        for b in (_exact(p, m, x), rng.integers(0, p, size=rows), np.zeros(rows, dtype=np.int64)):
            got, want = gfp.solve(m, b, p), oracles.solve_loop(m, b, p)
            assert (got is None) == (want is None)
            if got is not None:
                assert _same(got, want) and np.array_equal(_exact(p, m, got), b % p)
        if rows == cols:
            got, want = gfp.mat_inv(m, p), oracles.mat_inv_loop(m, p)
            assert (got is None) == (want is None)
            if got is not None:
                assert _same(got, want) and np.array_equal(_exact(p, m, got), gfp.eye(rows))


@pytest.mark.parametrize("p", PRIMES)
def test_subspace_equals_the_row_loop(p):
    rng = np.random.default_rng(23 + p % 1000)
    for m in _corpus(p, 31 + p % 1000):
        n = m.shape[1]
        if n == 0:
            continue
        S = Subspace.from_vectors(list(m), n, p)
        assert _same(S.basis, oracles.subspace_loop(list(m), n, p))
        inside = _exact(p, rng.integers(0, p, size=(3, m.shape[0])), m)  # combinations of the rows
        for v in list(inside) + list(rng.integers(0, p, size=(3, n))) + [gfp.unit(n, n - 1)]:
            got = S.reduce(v)
            assert _same(got, oracles.subspace_reduce_loop(S.basis, v, p))
            assert S.contains(v) == (not got.any())
        assert all(S.contains(v) for v in inside)


def _flag_by_rref(pi, p):
    """The flag check as two echelon forms compared: pi(span(e_1..e_{N-1}))
    against span(e_1..e_{N-1})."""
    flag = gfp.eye(pi.shape[0])[1:]
    image, target = oracles.rref_loop((pi @ flag.T).T % p, p)[0], oracles.rref_loop(flag, p)[0]
    image, target = image[image.any(axis=1)], target[target.any(axis=1)]
    return image.shape == target.shape and np.array_equal(image, target)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flag_preserved_equals_the_two_rref_check(p):
    """On the abelian algebra with B = I, for invertible and singular pi:
    random, block-triangular (which preserves the flag when invertible) and
    rank-deficient."""
    rng = np.random.default_rng(100 + p)
    seen = set()
    for N in range(1, 6):
        L = HomLieAlgebra(p, np.zeros((N, N, N), dtype=np.int64), gfp.eye(N))
        B = BilinearForm(gfp.eye(N), p)
        for t in range(60):
            pi = rng.integers(0, p, size=(N, N))
            if t % 3 == 1:
                pi[0, 1:] = 0
            elif t % 3 == 2:
                pi[:, int(rng.integers(N))] = 0
            want = _flag_by_rref(pi, p)
            rep = verify_adapted_iso(L, B, L, B, pi)
            assert rep.check("flag_preserved").ok == want
            seen.add((want, rep.check("invertible").ok))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
