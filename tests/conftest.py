import random

import numpy as np
import pytest

from homext import bundle, gfp
from homext.algebra import BilinearForm, Derivation, HomLieAlgebra
from homext.doubleext import DoubleExtensionData, PExtensionData, double_extend, extend_pstructure
from homext.restricted import PStructure
from homext.twist import (
    TwistData,
    build_heisenberg_dual,
    build_psl3,
    build_sl2_gf5,
    twist_algebra,
    twist_derivation,
    twist_pmap,
)


@pytest.fixture(scope="session")
def heis():
    return build_heisenberg_dual()


@pytest.fixture(scope="session")
def heis_ext(heis):
    L, B_L = double_extend(heis.V, heis.B, heis.ext)
    P_L = extend_pstructure(L, heis.V, heis.B, heis.P, heis.ext, heis.pext)
    return L, B_L, P_L


@pytest.fixture(scope="session")
def psl3():
    return build_psl3()


@pytest.fixture(scope="session")
def psl3_twisted(psl3):
    ga, ba = twist_algebra(psl3.g, psl3.B, psl3.twist)
    pa = twist_pmap(psl3.P, ga, psl3.twist)
    derivs = {
        name: twist_derivation(psl3.g, psl3.derivations[name], psl3.twist)
        for name in ("D2", "D3")
    }
    return ga, ba, pa, derivs


@pytest.fixture(scope="session")
def psl3_pipelines(psl3, psl3_twisted):
    """The three dim-9 extensions: D1 over untwisted psl(3), D2/D3 over psl(3)_a."""
    ga, ba, pa, derivs = psl3_twisted
    out = {}
    for name in ("D1", "D2", "D3"):
        if name == "D1":
            V, B, P, D = psl3.g, psl3.B, psl3.P, psl3.derivations["D1"]
        else:
            V, B, P, D = ga, ba, pa, derivs[name]
        ext = DoubleExtensionData(D, gfp.zeros(7), 1, 0)
        pe = PExtensionData(
            xi=psl3.table[name]["xi"], a0=psl3.table[name]["a0"],
            m=0, l=0, u0=gfp.zeros(7), P_basis=gfp.zeros(7), p=3,
        )
        L, B_L = double_extend(V, B, ext)
        P_L = extend_pstructure(L, V, B, P, ext, pe)
        out[name] = dict(V=V, B=B, P=P, D=D, ext=ext, pe=pe, L=L, B_L=B_L, P_L=P_L)
    return out


@pytest.fixture(scope="session")
def sl2():
    return build_sl2_gf5()


@pytest.fixture(scope="session")
def sl2_ext(sl2):
    L, B_L = double_extend(sl2.g, sl2.B, sl2.ext)
    P_L = extend_pstructure(L, sl2.g, sl2.B, sl2.P, sl2.ext, sl2.pext)
    return L, B_L, P_L


def null_lines(A, B, P, k):
    """A + GF(p)^k: k central lines on which alpha is 0, with B + I as the
    form and zero p-images there.  Every axiom still holds, and alpha is
    singular, so verify_pstructure walks the domain of the sum."""
    p, n = A.p, A.n
    N = n + k
    c = np.zeros((N, N, N), dtype=np.int64)
    c[:n, :n, :n] = A.c
    alpha, gram, images = np.zeros((N, N), dtype=np.int64), gfp.eye(N), np.zeros((N, N), dtype=np.int64)
    alpha[:n, :n], gram[:n, :n], images[:n, :n] = A.alpha, B.gram, P.images
    W = HomLieAlgebra(p, c, alpha)
    return W, BilinearForm(gram, p), PStructure(W, images)


@pytest.fixture(scope="session")
def heis_null(heis):
    """heisenberg-dual V + two null lines: dim 8 at p = 2, alpha singular."""
    return null_lines(heis.V, heis.B, heis.P, 2)


@pytest.fixture(scope="session")
def psl3_null(psl3):
    """psl(3) + two null lines: dim 9 at p = 3, alpha singular."""
    return null_lines(psl3.g, psl3.B, psl3.P, 2)


@pytest.fixture(scope="session")
def sl2_null(sl2_ext):
    """The sl2-gf5 extension + one null line: dim 6 at p = 5, alpha singular."""
    return null_lines(*sl2_ext, 1)


def _hyperbolic_sum(V, B, P, D, k, d_block, pe_args):
    """V + GF(p)^{2k}: an abelian block with alpha = id, zero p-map and the
    form [[0, I], [I, 0]], derivation D + d_block, and its double extension
    with x0 = 0, lambda = 1, lambda0 = 0 and PExtensionData(*pe_args)."""
    p, n = V.p, V.n
    N = n + 2 * k
    c = np.zeros((N, N, N), dtype=np.int64)
    c[:n, :n, :n] = V.c
    alpha = gfp.eye(N)
    gram, images, dm = (np.zeros((N, N), dtype=np.int64) for _ in range(3))
    alpha[:n, :n] = V.alpha
    gram[:n, :n] = B.gram
    gram[n:n + k, n + k:] = gram[n + k:, n:n + k] = gfp.eye(k)
    images[:n, :n] = P.images
    dm[:n, :n], dm[n:, n:] = D.mat, d_block
    W = HomLieAlgebra(p, c, alpha)
    B_W, P_W, D_W = BilinearForm(gram, p), PStructure(W, images), Derivation(dm, p)
    ext = DoubleExtensionData(D_W, gfp.zeros(N), 1, 0)
    pe = PExtensionData(*pe_args, p=p)
    L, B_L = double_extend(W, B_W, ext)
    P_L = extend_pstructure(L, W, B_W, P_W, ext, pe)
    return dict(V=W, B=B_W, P=P_W, D=D_W, ext=ext, pe=pe, L=L, B_L=B_L, P_L=P_L)


@pytest.fixture(scope="session")
def sampled_p5(sl2):
    """The benchmark's sampled-p5 input at seed 0: sl2-gf5 + GF(5)^8 with
    D = ad(H) + [[0, S], [0, 0]], S a seeded skew 4x4 matrix."""
    k, p, rnd = 4, 5, random.Random(0)
    s = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            s[i, j] = rnd.randrange(p)
            s[j, i] = (-s[i, j]) % p
    block = np.zeros((2 * k, 2 * k), dtype=np.int64)
    block[:k, k:] = s
    zero = gfp.zeros(3 + 2 * k)
    return _hyperbolic_sum(sl2.g, sl2.B, sl2.P, sl2.D, k, block, (0, gfp.unit(3 + 2 * k, 1), 0, 0, zero, zero))


@pytest.fixture(scope="session")
def wide_char2(heis):
    """The benchmark's wide-char2 input: heisenberg-dual + GF(2)^32 with D = fixture D + id."""
    k, n = 16, 6 + 32
    z = gfp.unit(n, 2)
    return _hyperbolic_sum(heis.V, heis.B, heis.P, heis.D, k, gfp.eye(2 * k), (1, z, 0, 0, z, gfp.zeros(n)))


def sl_n(n, p, g=None):
    """sl_n over GF(p), p not dividing n, as (A, B, P, D): the basis E_ij
    (i != j, row-major) then H_i = E_ii - E_{i+1,i+1}, the trace form,
    E^[p] = 0 and H^[p] = H, and D = ad(H_0).  With g, a list of n entries
    +-1, it is the Yau twist by alpha = Ad(diag(g)), an involutive
    automorphism that is self-adjoint for the trace form."""
    N = n * n - 1
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = np.zeros((N, n, n), dtype=np.int64)
    for b, (i, j) in enumerate(off):
        mats[b, i, j] = 1
    for t in range(n - 1):
        mats[len(off) + t, t, t], mats[len(off) + t, t + 1, t + 1] = 1, -1

    def coords(x):  # [..., n, n] trace-zero matrices -> [..., N]; h_t is the partial sum of the diagonal
        i, j = np.array(off).T
        return np.concatenate([x[..., i, j], np.cumsum(np.diagonal(x, axis1=-2, axis2=-1), axis=-1)[..., :-1]],
                              axis=-1) % p

    prod = np.einsum("aij,bjk->abik", mats, mats)
    A = HomLieAlgebra(p, coords(prod - prod.transpose(1, 0, 2, 3)), gfp.eye(N),
                      [f"E{i}_{j}" for i, j in off] + [f"H{t}" for t in range(n - 1)])
    B = BilinearForm(np.einsum("aij,bji->ab", mats, mats), p)
    images = np.zeros((N, N), dtype=np.int64)
    images[len(off):, len(off):] = gfp.eye(n - 1)
    P, D = PStructure(A, images), Derivation(A.ad(gfp.unit(N, len(off))), p)
    if g is None:
        return A, B, P, D
    t = TwistData(coords(np.einsum("i,aij,j->aij", g, mats, g)).T, p)  # column b is g E_b g
    At, Bt = twist_algebra(A, B, t)
    return At, Bt, twist_pmap(P, At, t), twist_derivation(A, D, t)


def sl_n_bundle(n, p, g=None) -> str:
    """sl_n(n, p, g) as a bundle file's text, its derivation named "D"."""
    A, B, P, D = sl_n(n, p, g)
    return bundle.emit(bundle.from_parts(A, B, P, {"D": D}))
