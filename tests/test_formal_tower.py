"""The formal tower of the s_i and eta_i against oracles.formal_tower_full.

On an alternating tensor the kernel leaves out the coefficient rows that
[x, x] = 0 makes zero, and a y shared by the batch is one matrix
ad(alpha^t(y)) per step.  Neither may change a bit of the tower, the s_i
or the eta_i, on any tensor, alpha, p or depth.
"""

import numpy as np
import oracles
import pytest
from oracles import compute_eta_batch

from homext import gfp, restricted
from homext.algebra import BilinearForm, Derivation, HomLieAlgebra, d_invariant
from homext.doubleext import _central_extension
from homext.restricted import _formal_tower, compute_s_batch

N = 5


def _alphas(p, rng):
    """An invertible and a singular twist on GF(p)^N."""
    inv = rng.integers(0, p, size=(N, N))
    while gfp.mat_inv(inv, p) is None:
        inv = rng.integers(0, p, size=(N, N))
    sing = rng.integers(0, p, size=(N, N))
    sing[:, 0] = (2 * sing[:, 1]) % p
    return {"invertible": inv, "singular": sing}


def _algebras(p, rng):
    """Alternating tensors (dense, and sparse with central e3, e4) and
    non-alternating ones (random, and [e0, e0] = e1 only), each under an
    invertible and a singular alpha."""
    c = rng.integers(0, p, size=(N, N, N))
    sparse = c * (rng.random((N, N, N)) < 0.3)
    sparse[3:], sparse[:, 3:] = 0, 0
    square = np.zeros((N, N, N), dtype=np.int64)
    square[0, 0, 1] = 1
    tensors = {"dense": (c - c.transpose(1, 0, 2)) % p, "central": (sparse - sparse.transpose(1, 0, 2)) % p,
               "random": c, "[e0, e0] = e1": square}
    out = {}
    for name, t in tensors.items():
        for kind, alpha in _alphas(p, rng).items():
            A = HomLieAlgebra(p, t, alpha)
            assert A.alternating == (name in ("dense", "central")), name
            out[f"{name}, {kind} alpha"] = A
    return out


def _pairs(p, rng, m=24):
    """Random xs with zero rows and a row equal to its y; per-row ys with a
    zero row; shared ys: random, a unit vector and zero."""
    xs = rng.integers(0, p, size=(m, N))
    ys = rng.integers(0, p, size=(m, N))
    xs[[0, 5]] = 0
    ys[[1, 5]] = 0
    xs[2] = ys[2]
    return xs, {"per-row": ys, "shared": ys[3], "shared unit": gfp.unit(N, 4), "shared zero": gfp.zeros(N)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_formal_tower_s_and_eta_equal_the_full_tower(p, monkeypatch):
    rng = np.random.default_rng(100 + p)
    B = BilinearForm(rng.integers(0, p, size=(N, N)), p)
    D = Derivation(rng.integers(0, p, size=(N, N)), p)
    for name, A in _algebras(p, rng).items():
        xs, ys_cases = _pairs(p, rng)
        for kind, ys in ys_cases.items():
            case = f"{name}, {kind} y"
            for depth in {p - 1, max(p - 2, 0)}:
                want = oracles.formal_tower_full(A, xs, ys, depth)
                assert np.array_equal(_formal_tower(A, xs, ys, depth), want), (case, depth)
                if A.alternating and depth:
                    assert not want[:, depth].any(), (case, depth)  # the rows left out are zero
            got = [compute_s_batch(A, xs, ys)] + ([compute_eta_batch(A, B, D, xs, ys)] if p > 2 else [])
            with monkeypatch.context() as m:
                m.setattr(restricted, "_formal_tower", oracles.formal_tower_full)
                want = [compute_s_batch(A, xs, ys)] + ([compute_eta_batch(A, B, D, xs, ys)] if p > 2 else [])
            per_row = np.broadcast_to(ys, xs.shape)
            assert np.array_equal(got[0], compute_s_batch(A, xs, per_row)), case
            for g, w in zip(got, want):
                assert np.array_equal(g, w), case
            assert not got[0][0].any(), case  # s_i(0, y) = 0 on any tensor
            if A.alternating and kind == "per-row":
                assert not got[0][2].any(), case  # s_i(y, y) = 0 needs [y, y] = 0


def _counted(A):
    """Count the row-brackets of A.bracket_batch (rows of the broadcast
    arguments) and the vectors A.ad_batch turns into matrices."""
    counts = {"rows": 0, "ad": 0}
    bracket, ad = A.bracket_batch, A.ad_batch

    def bracket_batch(xs, ys):
        counts["rows"] += int(np.prod(np.broadcast_shapes(np.shape(xs), np.shape(ys))[:-1]))
        return bracket(xs, ys)

    def ad_batch(xs):
        counts["ad"] += len(xs)
        return ad(xs)

    A.bracket_batch, A.ad_batch = bracket_batch, ad_batch
    return counts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_row_brackets_per_pair(p):
    """1 + (p-1)(p-2) row-brackets a pair on an alternating tensor and
    p(p-1) otherwise.  With a shared y the constant parts are one ad matrix
    per step, and only the k-parts, (p-1)(p-2)/2 or p(p-1)/2 rows a pair,
    go through bracket_batch."""
    rng = np.random.default_rng(200 + p)
    m = 7
    xs, ys = rng.integers(0, p, size=(m, N)), rng.integers(0, p, size=(m, N))
    for name, A in _algebras(p, rng).items():
        counts = _counted(A)
        compute_s_batch(A, xs, ys)
        per_pair = 1 + (p - 1) * (p - 2) if A.alternating else p * (p - 1)
        assert counts == {"rows": m * per_pair, "ad": 0}, name
        counts.update(rows=0)
        compute_s_batch(A, xs, ys[0])
        k_parts = (p - 1) * (p - 2) // 2 if A.alternating else p * (p - 1) // 2
        assert counts == {"rows": m * k_parts, "ad": p - 1}, name


@pytest.mark.parametrize("p", [3, 5, 7])
def test_central_extension_tower_skips_its_central_square(p):
    """W = V + Ke for an alternating V and a D that is not B-skew: [x, x]_W =
    B(Dx, x) e is not zero, so W is not alternating, but e is central and
    the second factor kills it.  Past depth 1 the tower brackets the
    alternating count, 1 + (p-1)(p-2) rows a pair (13 at p = 5, not 20),
    and every coefficient equals the full tower's, under an invertible and
    a singular alpha and for per-row and shared y."""
    rng = np.random.default_rng(300 + p)
    m = N - 1
    c = rng.integers(0, p, size=(m, m, m))
    B = BilinearForm(rng.integers(0, p, size=(m, m)), p)
    D = Derivation(rng.integers(0, p, size=(m, m)), p)
    assert not d_invariant(B, D, p)
    for kind, alpha in _alphas(p, rng).items():
        W = _central_extension(HomLieAlgebra(p, (c - c.transpose(1, 0, 2)) % p, alpha[:m, :m]), B, D)
        assert W.central_squares and not W.alternating, kind
        xs, ys_cases = _pairs(p, rng)
        assert oracles.formal_tower_full(W, xs, xs, 1)[:, 1].any(), kind  # the [x, x] row depth 1 keeps
        for case, ys in ys_cases.items():
            for depth in {p - 1, p - 2}:
                want = oracles.formal_tower_full(W, xs, ys, depth)
                assert np.array_equal(_formal_tower(W, xs, ys, depth), want), (kind, case, depth)
        counts = _counted(W)
        compute_s_batch(W, xs, ys_cases["per-row"])
        assert counts == {"rows": len(xs) * (1 + (p - 1) * (p - 2)), "ad": 0}, kind


def _ad_exact(c, vs, p):
    """ad(v)[b, k] = sum_a v_a c[a, b, k] per row of vs, on Python integers."""
    return np.einsum("...a,abk->...bk", np.asarray(vs).astype(object), c.astype(object)) % p


def test_shared_factor_product_does_not_wrap_at_the_largest_p():
    """3 (p-1)^2 is just below 2^63 here, so a reduced coefficient row times
    ad(alpha^t(y)) fits int64, but a row below 2p, as a step leaves it, does
    not.  Depth 4 reads such a row on the alternating tensor, depth 3 on the
    non-alternating one."""
    p, n = 1753413037, 3
    assert n * (p - 1) ** 2 < 2**63 <= 2 * n * (p - 1) ** 2
    rng = np.random.default_rng(11)
    c = rng.integers(p // 2, p, size=(n, n, n))
    for c, depth in (((c - c.transpose(1, 0, 2)) % p, 4), (c, 3)):
        A = HomLieAlgebra(p, c, rng.integers(p // 2, p, size=(n, n)))
        xs, y = rng.integers(p // 2, p, size=(60, n)), rng.integers(p // 2, p, size=n)
        coeffs = np.zeros((len(xs), depth + 1, n), dtype=object)
        coeffs[:, 0] = xs
        xt, yt = xs.astype(object), y.astype(object)
        for t in range(depth):
            if t:
                xt, yt = oracles.product_exact(p, xt, A.alpha.T), oracles.product_exact(p, yt, A.alpha.T)
            adx = _ad_exact(A.c, xt, p)
            step = np.stack([oracles.product_exact(p, coeffs[:, d], _ad_exact(A.c, yt, p))
                             for d in range(depth + 1)], axis=1).astype(object)
            step[:, 1:] += np.einsum("mdb,mbk->mdk", coeffs[:, :-1], adx)
            coeffs = step % p
        assert np.array_equal(_formal_tower(A, xs, y, depth), coeffs.astype(np.int64)), A.alternating
