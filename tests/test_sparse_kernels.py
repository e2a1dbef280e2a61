"""The kernels that pay per nonzero structure constant against the dense oracles.

bracket_batch and ad_batch skip the k groups and (b, k) columns without a
constant, contract multiplies only the nonzero pairs (i, j), and Hom-Jacobi
evaluates J only on the rotations of the triples with T(i; j, k) != 0.  Each
is compared, counts, witnesses and lhs/rhs included, with the dense route on
wide sparse, abelian, dense and untrusted tensors.
"""

import numpy as np
import oracles
import pytest
from conftest import _hyperbolic_sum

from homext import gfp
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    bracket_sides,
    centralizer_of_image,
    contract,
    invariance_sides,
    verify_derivation,
    verify_hom_lie,
    verify_quadratic,
)
from homext.doubleext import AlgebraExtensionData, check_algebra_extension_data, reduce
from homext.twist import TwistData, twist_algebra


def heis_sum(heis, k):
    """heisenberg-dual + GF(2)^{2k} and its double extension."""
    z, zero = gfp.unit(6 + 2 * k, 2), gfp.zeros(6 + 2 * k)
    return _hyperbolic_sum(heis.V, heis.B, heis.P, heis.D, k, gfp.eye(2 * k), (1, z, 0, 0, z, zero))


def cases(heis):
    """name -> algebra; every twist but the heisenberg sums' is random."""
    rng = np.random.default_rng(1501)
    out = {}
    for k in (2, 5):
        gen = heis_sum(heis, k)
        out[f"heis+GF(2)^{2 * k} V"], out[f"heis+GF(2)^{2 * k} L"] = gen["V"], gen["L"]
        L = gen["L"]
        out[f"heis+GF(2)^{2 * k} L, random alpha"] = HomLieAlgebra(2, L.c, rng.integers(0, 2, (L.n, L.n)))
    alpha = rng.integers(0, 3, (9, 9))
    out["abelian, one bracket"] = HomLieAlgebra.from_upper(3, 9, {(2, 5): gfp.unit(9, 7)}, alpha)
    c = rng.integers(0, 3, (8, 8, 8))
    out["dense alternating"] = HomLieAlgebra(3, (c - c.transpose(1, 0, 2)) % 3, rng.integers(0, 3, (8, 8)))
    c = np.zeros((9, 9, 9), dtype=np.int64)
    c[tuple(rng.integers(0, 9, (3, 25)))] = rng.integers(1, 5, 25)
    out["untrusted"] = HomLieAlgebra(5, c, rng.integers(0, 5, (9, 9)))  # neither alternating nor antisymmetric
    c = np.zeros((7, 7, 7), dtype=np.int64)
    p = 65521
    c[:, :, [1, 4]] = rng.integers(0, p, (7, 7, 2))
    out["p = 65521, empty k groups"] = HomLieAlgebra(p, (c - c.transpose(1, 0, 2)) % p, rng.integers(0, p, (7, 7)))
    return out


@pytest.fixture(scope="module")
def algebras(heis):
    return cases(heis)


def test_cases_exercise_empty_and_full_k_groups(algebras):
    """bracket_batch sums a group only for the k that have a constant."""
    V = algebras["heis+GF(2)^10 V"]
    assert 0 < V._ks.size < V.n
    assert algebras["dense alternating"]._ks.tolist() == list(range(8))
    assert algebras["p = 65521, empty k groups"]._ks.tolist() == [1, 4]
    assert algebras["abelian, one bracket"]._ks.tolist() == [7]
    assert algebras["abelian, one bracket"]._ad_cols.tolist() == [2 * 9 + 7, 5 * 9 + 7]  # (b, k) of both signs
    assert algebras["dense alternating"]._ad_cols.size == 8 * 8


def test_bracket_and_ad_batch_match_the_dense_oracles(algebras):
    rng = np.random.default_rng(1502)
    for name, A in algebras.items():
        n, p = A.n, A.p
        xs, ys = rng.integers(0, p, (2, 30, n))
        assert np.array_equal(A.bracket_batch(xs, ys), oracles.bracket_dense(A, xs, ys)), name
        eye = gfp.eye(n)
        basis = oracles.bracket_dense(A, eye[:, None], eye[None])
        assert np.array_equal(A.bracket_batch(eye[:, None], eye[None]), basis), name
        assert np.array_equal(A.bracket_batch(xs[:, None, :], ys[None, :5, :]),
                              oracles.bracket_dense(A, xs[:, None, :], ys[None, :5, :])), name
        assert np.array_equal(A.ad_batch(xs), oracles.ad_dense(A, xs)), name
        assert np.array_equal(A.ad_batch(eye), oracles.ad_dense(A, eye)), name


def test_run_split_with_empty_k_groups_is_exact():
    """At the int64 envelope each k group is summed in runs; groups only for
    the k that have constants, checked on Python integers."""
    p, n = 1239850223, 6
    rng = np.random.default_rng(1503)
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:, :, [0, 3]] = rng.integers(0, p, (n, n, 2))
    c = (c - c.transpose(1, 0, 2)) % p
    A = HomLieAlgebra(p, c, gfp.eye(n))
    assert A._runs is not None and A._ks.tolist() == [0, 3]
    xs, ys = rng.integers(0, p, (2, 20, n))
    xs[0], ys[0] = p - 1, p - 1
    want = [[sum(int(x[a]) * int(y[b]) * int(c[a, b, k]) for a in range(n) for b in range(n)) % p
             for k in range(n)] for x, y in zip(xs, ys)]
    assert A.bracket_batch(xs, ys).tolist() == want


def test_hom_jacobi_and_leibniz_reports_match_the_dense_oracles(algebras):
    rng = np.random.default_rng(1504)
    for name, A in algebras.items():
        got, want = verify_hom_lie(A).to_dict(), oracles.hom_jacobi_dense(A).to_dict()
        assert got == want, name
        for k in (1, 2):
            D = Derivation(rng.integers(0, A.p, (A.n, A.n)), A.p, k=k)
            assert verify_derivation(A, D).to_dict() == oracles.leibniz_dense(A, D).to_dict(), name
    # the random twists do fail, with witnesses
    rep = verify_hom_lie(algebras["heis+GF(2)^10 L, random alpha"])
    assert rep.check("hom_jacobi").failed and rep.check("multiplicativity").failed


def test_wide_char2_reports_match_the_dense_oracles(wide_char2):
    for A in (wide_char2["V"], wide_char2["L"]):
        assert verify_hom_lie(A).to_dict() == oracles.hom_jacobi_dense(A).to_dict()
    V = wide_char2["V"]
    assert verify_derivation(V, wide_char2["D"]).to_dict() == oracles.leibniz_dense(V, wide_char2["D"]).to_dict()


def test_contractions_match_the_einsum_routes(algebras):
    rng = np.random.default_rng(1505)
    for name, A in algebras.items():
        n, p = A.n, A.p
        m = rng.integers(0, p, (n, 2 * n + 1))
        assert np.array_equal(contract(A.c, m, p), oracles.contract_dense(A.c, m, p)), name
        pi = rng.integers(0, p, (n, n))
        for got, want in zip(bracket_sides(pi, A, A), oracles.bracket_sides_dense(pi, A, A)):
            assert np.array_equal(got, want), name
        g = rng.integers(0, p, (n, n))
        for got, want in zip(invariance_sides(A.c, g, p), oracles.invariance_sides_dense(A.c, g, p)):
            assert np.array_equal(got, want), name
        for M in (gfp.eye(n), A.alpha, pi):
            assert np.array_equal(centralizer_of_image(A, M).basis, oracles.centralizer_dense(A, M).basis), name
        assert np.array_equal(contract(A.c, pi.T, p), oracles.twisted_tensor_dense(A.c, pi, p)), name


def test_quadratic_report_matches_the_einsum_sides(algebras):
    """verify_quadratic's invariance check, failures included, on random forms."""
    rng = np.random.default_rng(1506)
    for name, A in algebras.items():
        g = rng.integers(0, A.p, (A.n, A.n))
        inv = verify_quadratic(A, BilinearForm(g, A.p)).check("invariance")
        lhs, rhs = oracles.invariance_sides_dense(A.c, g, A.p)
        failed = (lhs - rhs) % A.p != 0
        assert (inv.failed, inv.passed) == (int(failed.sum()), int((~failed).sum())), name
        for f, idx in zip(inv.failures, np.argwhere(failed)):
            assert f.lhs == lhs[tuple(idx)] and f.rhs == rhs[tuple(idx)], name


def test_twist_and_reduce_on_a_wide_sum(heis, wide_char2):
    """twist_algebra's tensor and reduce's frame rewrite on sparse wide algebras."""
    gen = heis_sum(heis, 3)
    V, B = gen["V"], gen["B"]
    t = TwistData(V.alpha, 2)  # alpha is an involution, self-adjoint for B
    tw, _ = twist_algebra(HomLieAlgebra(2, V.c, gfp.eye(V.n)), B, t)
    assert np.array_equal(tw.c, oracles.twisted_tensor_dense(V.c, t.alpha, 2))
    for g in (gen, wide_char2):
        L, B_L, P_L = g["L"], g["B_L"], g["P_L"]
        e = gfp.unit(L.n, L.n - 1)
        got, want = reduce(L, B_L, P_L, e), oracles.reduce_loop(L, B_L, P_L, e)
        assert np.array_equal(got.V.c, want.V.c) and np.array_equal(got.d.D.mat, want.d.D.mat)
        assert np.array_equal(got.V.c, g["V"].c) and np.array_equal(got.P_V.images, g["P"].images)


def test_phi_bracket_compat_on_a_wide_sum(heis):
    """The alpha phi_b [e_i, e_j] side of phi_bracket_compat, failures included."""
    V, B = heis_sum(heis, 2)["V"], heis_sum(heis, 2)["B"]
    rng = np.random.default_rng(1507)
    A = HomLieAlgebra(2, np.zeros((2, 2, 2), dtype=np.int64), gfp.eye(2))
    x = AlgebraExtensionData(A, [gfp.eye(V.n), rng.integers(0, 2, (V.n, V.n))], BilinearForm(gfp.eye(2), 2))
    got = check_algebra_extension_data(V, B, x).check("phi_bracket_compat")
    want = oracles.phi_bracket_compat_loop(V, x).check("phi_bracket_compat")
    assert got.failed > 0 and got.to_dict() == want.to_dict()


def _index_cases(heis):
    """(p, c) pairs for the constructor's flat-index route: negative and
    unreduced entries, non-alternating, zero, n = 1, wide sparse, dense, and
    the run split at p = 1239850223."""
    rng = np.random.default_rng(1901)
    out = {name: (A.p, A.c) for name, A in cases(heis).items()}
    out["negative and unreduced"] = (7, rng.integers(-40, 40, (6, 6, 6)))
    c = rng.integers(0, 5, (5, 5, 5))
    out["non-alternating, dense"] = (5, c)
    c = np.zeros((6, 6, 6), dtype=np.int64)
    c[1, 1, 3], c[2, 4, 0], c[4, 2, 0] = 1, 2, 2  # [e_1, e_1] != 0 and c[4, 2] = c[2, 4]
    out["non-alternating, sparse"] = (3, c)
    out["zero"] = (3, np.zeros((4, 4, 4), dtype=np.int64))
    out["n = 1, zero"] = (2, np.zeros((1, 1, 1), dtype=np.int64))
    out["n = 1, nonzero"] = (3, np.full((1, 1, 1), 5))
    p, n = 1239850223, 6
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:, :, [0, 3]] = rng.integers(-p, 3 * p, (n, n, 2))
    out["run split, unreduced"] = (p, c)
    c = (c - c.transpose(1, 0, 2)) % p
    out["run split, alternating"] = (p, c)
    return out


def test_constructor_caches_match_the_dense_index_route(heis):
    """nnz, the ad rows, columns and matrix, the triples grouped by k with
    their starts and runs, alternating and inert equal those that dense masks
    of the n^3 tensor give, dtypes included."""
    seen = set()
    for name, (p, c) in _index_cases(heis).items():
        n = np.shape(c)[0]
        A = HomLieAlgebra(p, c, gfp.eye(n))
        want = oracles.algebra_index_dense(c, p)
        assert np.array_equal(A.c, np.asarray(c) % p), name
        assert A.nnz == want["nnz"] and type(A.nnz) is int, name
        for key in ("_ad_rows", "_ad_cols", "_ad_mat", "_ks", "_starts", "inert"):
            got = getattr(A, key)
            assert got.dtype == want[key].dtype and np.array_equal(got, want[key]), (name, key)
        for got, ref in zip(A._triples, want["_triples"]):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert (A._runs is None) == (want["_runs"] is None), name
        assert A._runs is None or np.array_equal(A._runs, want["_runs"]), name
        assert A.alternating == want["alternating"], name
        seen.add((A.alternating, A._runs is not None, A.nnz == 0))
    assert seen >= {(True, False, False), (False, False, False), (True, False, True), (True, True, False),
                    (False, True, False)}


def test_constructor_copies_its_tensor():
    """A reduced tensor is copied, not frozen in place; an unreduced one is reduced."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2], c[1, 0, 2] = 1, 2
    A = HomLieAlgebra(3, c, gfp.eye(3))
    assert c.flags.writeable and not A.c.flags.writeable
    c[0, 1, 2] = 0
    assert A.c[0, 1, 2] == 1
    B = HomLieAlgebra(3, c - 3, gfp.eye(3))
    assert np.array_equal(B.c, c % 3)
