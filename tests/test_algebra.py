import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homext import algebra, gfp
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    bracket_sides,
    center,
    d_invariant,
    is_ideal,
    is_nondegenerate_ideal,
    orth,
    verify_derivation,
    verify_hom_lie,
    verify_quadratic,
)
from homext.errors import DimMismatch
from homext.restricted import PStructure, verify_pstructure
from homext.rng import SplitMix64


def abelian(n, p, alpha=None):
    return HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), alpha if alpha is not None else gfp.eye(n))


def test_bracket_heisenberg_dual(heis):
    x, y, z = gfp.unit(6, 0), gfp.unit(6, 1), gfp.unit(6, 2)
    assert np.array_equal(heis.V.bracket(x, y), z)
    assert np.array_equal(heis.V.bracket(y, x), z)  # char 2


def test_bracket_alternating_random(heis, psl3):
    rng = SplitMix64(11)
    for A in (heis.V, psl3.g):
        for _ in range(50):
            v = rng.vec(A.n, A.p)
            assert not A.bracket(v, v).any()


def test_bracket_dim_mismatch(heis):
    with pytest.raises(DimMismatch):
        heis.V.bracket([1, 0], [0, 1])


def test_psl3_bracket_against_matrix_model(psl3):
    # e2 = x1 and e5 = y1 as traceless matrices; their commutator is h1 = e1
    assert np.array_equal(psl3.g.bracket(gfp.unit(7, 1), gfp.unit(7, 4)), gfp.unit(7, 0))
    x1, y1 = oracles.psl3_matrix_model().reps[1], oracles.psl3_matrix_model().reps[4]
    comm = (x1 @ y1 - y1 @ x1) % 3
    assert np.array_equal(comm, oracles.psl3_matrix_model().reps[0])


def test_verify_hom_lie_valid_fixtures(heis, psl3):
    assert verify_hom_lie(heis.V).ok
    assert verify_hom_lie(psl3.g).ok
    assert verify_hom_lie(abelian(4, 3)).ok


def test_verify_hom_lie_runs_once_per_algebra(psl3, monkeypatch):
    """The report is made once per (immutable) algebra, also when
    verify_pstructure asks for the verdict after it; every call gets its
    own copy, so merging into one leaves the next unchanged."""
    calls = []
    sides = algebra.bracket_sides
    monkeypatch.setattr(algebra, "bracket_sides", lambda *a: calls.append(1) or sides(*a))
    A = HomLieAlgebra(psl3.g.p, psl3.g.c, psl3.g.alpha)
    bad = HomLieAlgebra(3, np.where(psl3.g.c == 1, 2, psl3.g.c), psl3.g.alpha)
    for B in (A, bad):
        first = verify_hom_lie(B)
        want = first.to_dict()
        first.merge(verify_quadratic(B, psl3.B))
        first.check("hom_jacobi").failed += 1
        assert verify_hom_lie(B).to_dict() == want
        verify_pstructure(PStructure(B, psl3.P.images), samples=5)
    assert len(calls) == 2 and want["summary"]["ok"] is False
    assert verify_pstructure(PStructure(A, psl3.P.images)).meta["regimes"]["r1"] == "basis"


def test_verify_derivation_runs_once_per_algebra_and_derivation(psl3, monkeypatch):
    """The report is kept on the algebra under the derivation's content: a
    repeat call, also with an equal matrix in a new Derivation, returns an
    equal copy without recomputing it; mutating a returned report leaves
    the kept one alone; a derivation whose matrix was changed in place, or
    whose degree differs, gets a fresh report."""
    made = []
    real = algebra._derivation_report
    monkeypatch.setattr(algebra, "_derivation_report", lambda A, D: made.append(D.k) or real(A, D))
    A = HomLieAlgebra(psl3.g.p, psl3.g.c, psl3.g.alpha)
    D = Derivation(psl3.derivations["D3"].mat.copy(), 3)
    first = verify_derivation(A, D)
    want = first.to_dict()
    first.check("leibniz").failed += 1
    first.record("extra", False, (0,))
    first.meta["degree"] = 9
    assert verify_derivation(A, D).to_dict() == want and want["summary"]["ok"]
    assert verify_derivation(A, Derivation(D.mat, 3)).to_dict() == want
    assert verify_derivation(A, D).ok and made == [1]
    D.mat[0, 0] = (D.mat[0, 0] + 1) % 3
    bad = verify_derivation(A, D)
    assert not bad.ok and made == [1, 1]
    assert bad.to_dict() == verify_derivation(A, D).to_dict() and made == [1, 1]
    D.mat[0, 0] = (D.mat[0, 0] - 1) % 3
    assert verify_derivation(A, D).to_dict() == want and made == [1, 1]
    assert verify_derivation(A, Derivation(D.mat, 3, k=2)).meta["degree"] == 2 and made == [1, 1, 2]
    # another algebra with the same tensor keeps its own reports
    assert verify_derivation(HomLieAlgebra(3, A.c, A.alpha), D).to_dict() == want and made == [1, 1, 2, 1]


def test_verify_hom_lie_2dim_passes_and_perturbed_fails():
    A = HomLieAlgebra.from_upper(3, 2, {(0, 1): gfp.unit(2, 0)})
    assert verify_hom_lie(A).ok
    # brute-force oracle: perturb a random 3-dim tensor until Jacobi fails, and
    # check the report cites a triple on which the identity really breaks
    rng = SplitMix64(123)
    found = False
    for _ in range(40):
        upper = {}
        for i in range(3):
            for j in range(i + 1, 3):
                v = rng.vec(3, 3)
                if v.any():
                    upper[(i, j)] = v
        B = HomLieAlgebra.from_upper(3, 3, upper)
        rep = verify_hom_lie(B)
        if not rep.check("hom_jacobi").ok:
            i, j, k = rep.check("hom_jacobi").failures[0].witness
            lhs = (
                B.bracket(B.apply_alpha(gfp.unit(3, i)), B.bracket(gfp.unit(3, j), gfp.unit(3, k)))
                + B.bracket(B.apply_alpha(gfp.unit(3, j)), B.bracket(gfp.unit(3, k), gfp.unit(3, i)))
                + B.bracket(B.apply_alpha(gfp.unit(3, k)), B.bracket(gfp.unit(3, i), gfp.unit(3, j)))
            ) % 3
            assert lhs.any()
            found = True
            break
    assert found


def test_hom_jacobi_trilinear_random_triples(heis, psl3_twisted):
    ga = psl3_twisted[0]
    rng = SplitMix64(314)
    for A in (heis.V, ga):
        for _ in range(200):
            f, g, h = (rng.vec(A.n, A.p) for _ in range(3))
            total = (
                A.bracket(A.apply_alpha(h), A.bracket(f, g))
                + A.bracket(A.apply_alpha(f), A.bracket(g, h))
                + A.bracket(A.apply_alpha(g), A.bracket(h, f))
            ) % A.p
            assert not total.any()


def test_verify_quadratic_fixtures(heis, psl3):
    assert verify_quadratic(heis.V, heis.B).ok
    assert verify_quadratic(psl3.g, psl3.B).ok


def test_verify_quadratic_zero_form_fails_nondegeneracy_only():
    A = abelian(3, 3)
    rep = verify_quadratic(A, BilinearForm(np.zeros((3, 3), dtype=np.int64), 3))
    assert not rep.check("nondegenerate").ok
    assert rep.check("symmetric").ok
    assert rep.check("invariance").ok
    assert rep.check("twist_self_adjoint").ok


def test_center_abelian_full():
    assert center(abelian(4, 5)).dim == 4


def test_center_heisenberg_dual_with_kernel_oracle(heis):
    c = center(heis.V)
    want = Subspace.from_vectors([gfp.unit(6, 2), gfp.unit(6, 3), gfp.unit(6, 4)], 6, 2)
    assert np.array_equal(c.basis, want.basis)
    # oracle: exhaustively collect the vectors killed by every ad(e_j)
    brute = [
        v for v in gfp.all_vectors(6, 2)
        if all(not heis.V.bracket(v, gfp.unit(6, j)).any() for j in range(6))
    ]
    assert len(brute) == 2 ** c.dim
    assert all(c.contains(v) for v in brute)


def test_center_of_double_extension_contains_e(heis_ext, psl3_pipelines):
    L = heis_ext[0]
    assert center(L).contains(gfp.unit(L.n, L.n - 1))
    for data in psl3_pipelines.values():
        L = data["L"]
        assert center(L).contains(gfp.unit(L.n, L.n - 1))


def test_center_is_ideal(heis, psl3):
    for A in (heis.V, psl3.g):
        assert is_ideal(A, center(A))


def test_orth_trivial_cases(heis):
    empty = Subspace.from_vectors([], 6, 2)
    assert orth(heis.B, empty).dim == 6
    full = Subspace.from_vectors(list(gfp.eye(6)), 6, 2)
    assert orth(heis.B, full).dim == 0


def test_orth_central_line_in_extension(heis_ext):
    L, B_L, _ = heis_ext
    e = gfp.unit(8, 7)
    perp = orth(B_L, Subspace.from_vectors([e], 8, 2))
    # e-perp is e plus the V block (everything except e*)
    assert perp.dim == 7
    assert perp.contains(e)
    for j in range(1, 8):
        assert perp.contains(gfp.unit(8, j))
    assert not perp.contains(gfp.unit(8, 0))


def test_orth_involution_random_subspaces(heis, psl3):
    rng = SplitMix64(271)
    for A, B in ((heis.V, heis.B), (psl3.g, psl3.B)):
        for _ in range(25):
            vecs = [rng.vec(A.n, A.p) for _ in range(rng.below(A.n) + 1)]
            S = Subspace.from_vectors(vecs, A.n, A.p)
            SS = orth(B, orth(B, S))
            assert np.array_equal(SS.basis, S.basis)


def test_is_ideal_trivial_and_line(heis_ext, heis):
    L, B_L, _ = heis_ext
    zero = Subspace.from_vectors([], 8, 2)
    full = Subspace.from_vectors(list(gfp.eye(8)), 8, 2)
    assert is_ideal(L, zero) and is_ideal(L, full)
    assert is_nondegenerate_ideal(L, B_L, zero)
    line = Subspace.from_vectors([gfp.unit(8, 7)], 8, 2)
    assert is_ideal(L, line)
    assert not is_nondegenerate_ideal(L, B_L, line)  # B(e, e) = 0
    assert is_ideal(heis.V, center(heis.V))


def test_nondegenerate_means_invertible_gram():
    rng = np.random.default_rng(12)
    seen = set()
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = rng.integers(0, p, size=(n, n))
                if n > 1 and rng.random() < 0.5:
                    m[0] = (m[1] * rng.integers(0, p)) % p  # a dependent first row
                want = gfp.mat_inv(m, p) is not None
                assert BilinearForm(m, p).is_nondegenerate() == want, (p, m)
                seen.add((want, gfp.rank(m, p) == n - 1))
    assert (False, True) in seen and (True, False) in seen  # corank one and full rank both occur


def test_is_nondegenerate_ideal_does_not_wrap_at_the_largest_p():
    """6 (p-1)^2 is just below 2^63, so S B S^T must be reduced after each
    factor.  On an abelian V every subspace is an ideal; the restricted form
    is nondegenerate exactly when it has full rank on Python integers.  Half
    the forms kill the first vector of S, so they are degenerate on S."""
    p, n = 1239850223, 6
    assert n * (p - 1) ** 2 < 2**63
    V = abelian(n, p)
    rng = np.random.default_rng(11)
    verdicts = []
    for k in (1, 2, 3, 4, 5):
        for degenerate in (False, True):
            vecs = rng.integers(0, p, size=(k, n))
            m = rng.integers(0, p, size=(n, n))
            gram = (m + m.T) % p
            if degenerate:  # T^T gram T with T s0 = 0 for s0 = vecs[0]
                s0 = vecs[0]
                u = gfp.unit(n, int(np.argmax(s0 != 0))) * gfp.inv(int(s0[s0 != 0][0]), p)
                t = (gfp.eye(n) - oracles.product_exact(p, s0[:, None], u[None, :])) % p
                gram = oracles.product_exact(p, t.T, gram, t)
            S = Subspace.from_vectors(list(vecs), n, p)
            exact = gfp.rank(oracles.product_exact(p, S.basis, gram, S.basis.T), p) == S.dim
            assert exact != degenerate, k
            assert is_nondegenerate_ideal(V, BilinearForm(gram, p), S) == exact, (k, degenerate)
            verdicts.append(exact)
    assert any(verdicts) and not all(verdicts)


def test_d_invariant_examples(heis, psl3):
    assert d_invariant(heis.B, heis.D, 2)
    assert d_invariant(heis.B, Derivation(np.zeros((6, 6), dtype=np.int64), 2), 2)
    for D in psl3.derivations.values():
        assert d_invariant(psl3.B, D, 3)


def test_d_invariant_char2_exhaustive_crosscheck(heis):
    # the bilinear criterion is equivalent to B(v, D(v)) = 0 on all 2^6 vectors
    assert d_invariant(heis.B, heis.D, 2)
    for v in gfp.all_vectors(6, 2):
        assert heis.B.eval(v, heis.D(v)) == 0
    bad = Derivation(np.diag([1, 0, 0, 0, 0, 0]).astype(np.int64), 2)
    assert not d_invariant(heis.B, bad, 2)
    witness = [v for v in gfp.all_vectors(6, 2) if heis.B.eval(v, bad(v)) != 0]
    assert witness


def test_is_derivation(heis, psl3):
    assert verify_derivation(heis.V, heis.D).ok
    for D in psl3.derivations.values():
        assert verify_derivation(psl3.g, D).ok
    assert not verify_derivation(psl3.g, Derivation(psl3.B.gram, 3)).ok


@pytest.fixture(scope="module")
def algebras(heis, heis_ext, psl3, psl3_twisted, psl3_pipelines, sl2, sl2_ext):
    """Every fixture algebra and its p-extension."""
    out = {"heis.V": heis.V, "heis.L": heis_ext[0], "psl3": psl3.g, "psl3_a": psl3_twisted[0],
           "sl2": sl2.g, "sl2.L": sl2_ext[0]}
    out.update({f"psl3.{name}.L": data["L"] for name, data in psl3_pipelines.items()})
    return out


def random_alternating(p, n, seed):
    rng = np.random.default_rng(seed)
    return HomLieAlgebra.from_upper(p, n, {(i, j): rng.integers(0, p, n)
                                           for i in range(n) for j in range(i + 1, n)})


def test_bracket_batch_matches_dense_oracle_on_fixtures(algebras):
    rng = np.random.default_rng(5)
    for name, A in algebras.items():
        xs, ys = rng.integers(0, A.p, (60, A.n)), rng.integers(0, A.p, (60, A.n))
        got = A.bracket_batch(xs, ys)
        assert got.shape == (60, A.n), name
        assert np.array_equal(got, oracles.bracket_dense(A, xs, ys)), name
        assert np.array_equal(A.bracket(xs[0], ys[0]), got[0]), name
        # unreduced and negative input is reduced first
        assert np.array_equal(A.bracket_batch(xs - 3 * A.p, ys + A.p), got), name


def test_bracket_batch_broadcast_shapes(algebras):
    rng = np.random.default_rng(6)
    for name, A in algebras.items():
        n, p = A.n, A.p
        xs, ys = rng.integers(0, p, (9, 1, n)), rng.integers(0, p, (9, 4, n))
        got = A.bracket_batch(xs, ys)
        assert got.shape == (9, 4, n), name
        assert np.array_equal(got, oracles.bracket_dense(A, xs, ys)), name
        # [n,1,1,n] x [1,n,n,n]: every [e_i, [e_j, e_k]]-shaped product at once
        eye = gfp.eye(n)
        inner = oracles.bracket_dense(A, eye[:, None, :], eye[None, :, :])
        got = A.bracket_batch(eye[:, None, None, :], inner[None, :, :, :])
        assert got.shape == (n, n, n, n), name
        assert np.array_equal(got, oracles.bracket_dense(A, eye[:, None, None, :], inner[None])), name
        # a single vector against a batch, in either order
        assert np.array_equal(A.bracket_batch(xs[0, 0], ys), oracles.bracket_dense(A, xs[0, 0], ys)), name
        assert np.array_equal(A.bracket_batch(ys, xs[0, 0]), oracles.bracket_dense(A, ys, xs[0, 0])), name


def test_bracket_batch_abelian_has_no_structure_constants():
    for p, n in ((2, 1), (3, 4), (5, 6)):
        A = abelian(n, p)
        xs = np.arange(3 * n).reshape(3, 1, n) % p
        ys = np.ones((3, 2, n), dtype=np.int64)
        assert np.array_equal(A.bracket_batch(xs, ys), np.zeros((3, 2, n), dtype=np.int64))
        assert np.array_equal(A.bracket(xs[0, 0], ys[0, 0]), gfp.zeros(n))
        assert A.bracket_batch(np.zeros((0, n)), np.zeros((0, n))).shape == (0, n)
    # one bracket only: components with no structure constant stay zero
    A = HomLieAlgebra.from_upper(3, 4, {(0, 1): [0, 0, 2, 0]})
    assert np.array_equal(A.bracket(gfp.unit(4, 0), gfp.unit(4, 1)), [0, 0, 2, 0])
    assert np.array_equal(A.bracket(gfp.unit(4, 1), gfp.unit(4, 0)), [0, 0, 1, 0])


def test_bracket_batch_chunks(psl3, monkeypatch):
    A = psl3.g
    terms = A._triples[0].size  # products per output row
    rng = np.random.default_rng(7)
    # larger than one real chunk and not a multiple of it
    rows = 2 * (algebra._CHUNK_ELEMENTS // terms) + 7
    xs, ys = rng.integers(0, 3, (rows, A.n)), rng.integers(0, 3, (rows, A.n))
    assert np.array_equal(A.bracket_batch(xs, ys), oracles.bracket_dense(A, xs, ys))
    # a tiny chunk: 3 rows of [1, 4, n] products per chunk, 10 rows
    monkeypatch.setattr(algebra, "_CHUNK_ELEMENTS", 3 * 4 * terms)
    xs, ys = rng.integers(0, 3, (10, 1, A.n)), rng.integers(0, 3, (10, 4, A.n))
    assert np.array_equal(A.bracket_batch(xs, ys), oracles.bracket_dense(A, xs, ys))
    assert np.array_equal(A.bracket_batch(ys, xs), oracles.bracket_dense(A, ys, xs))
    # a chunk smaller than one row still makes progress
    monkeypatch.setattr(algebra, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(A.bracket_batch(xs, ys), oracles.bracket_dense(A, xs, ys))


def test_bracket_batch_large_prime():
    p = 65521
    A = random_alternating(p, 6, 8)
    rng = np.random.default_rng(9)
    xs, ys = rng.integers(0, p, (200, 6)), rng.integers(0, p, (200, 6))
    got = A.bracket_batch(xs, ys)
    assert np.array_equal(got, oracles.bracket_dense(A, xs, ys))
    # exact check of one row with Python integers
    want = [sum(int(xs[0, a]) * int(ys[0, b]) * int(A.c[a, b, k]) for a in range(6) for b in range(6)) % p
            for k in range(6)]
    assert got[0].tolist() == want


@pytest.mark.parametrize("n", [3, 6])
def test_bracket_batch_sums_stay_inside_int64_at_the_envelope(n):
    """The largest prime with 6 (p-1)^2 < 2^63 is accepted by bundle.parse at
    dim 6, where a k group of up to 30 products below p^2 would pass 2^63:
    bracket_batch sums it in runs and stays exact."""
    p = 1239850223
    assert gfp.is_prime(p) and 6 * (p - 1) ** 2 < 2**63
    rng = np.random.default_rng(12)
    c = rng.integers(0, p, (n, n, n))
    c = (c - c.transpose(1, 0, 2)) % p
    A = HomLieAlgebra(p, c, gfp.eye(n))
    assert (A._runs is not None) == (n == 6)  # n(n-1) products per k; 6 fit one sum
    xs, ys = rng.integers(0, p, (40, n)), rng.integers(0, p, (40, n))
    xs[0], ys[0] = p - 1, p - 1
    ys[0, 0] = 1
    want = [[sum(int(x[a]) * int(y[b]) * int(c[a, b, k]) for a in range(n) for b in range(n)) % p
             for k in range(n)] for x, y in zip(xs, ys)]
    assert A.bracket_batch(xs, ys).tolist() == want


def test_ad_batch_matches_dense_oracle(algebras):
    rng = np.random.default_rng(10)
    for name, A in algebras.items():
        xs = rng.integers(0, A.p, (25, A.n))
        assert np.array_equal(A.ad_batch(xs), oracles.ad_dense(A, xs)), name
        assert np.array_equal(A.ad(xs[0]), oracles.ad_dense(A, xs[:1])[0].T), name


def test_bracket_sides_matches_one_einsum(psl3, heis_ext):
    rng = np.random.default_rng(11)
    for A in (psl3.g, heis_ext[0], random_alternating(65521, 5, 12)):
        p, n = A.p, A.n
        pi = rng.integers(0, p, (n, n))
        lhs, rhs = bracket_sides(pi, A, A)
        assert np.array_equal(lhs, np.einsum("mk,ijk->ijm", pi, A.c) % p)
        assert np.array_equal(rhs, np.einsum("ai,bj,abm->ijm", pi, pi, A.c) % p)


def test_is_ideal_rank_test_matches_vector_loop(algebras):
    rng = SplitMix64(13)
    for name, A in algebras.items():
        spaces = [center(A), Subspace.from_vectors([], A.n, A.p),
                  Subspace.from_vectors(list(gfp.eye(A.n)), A.n, A.p)]
        spaces += [Subspace.from_vectors([rng.vec(A.n, A.p) for _ in range(1 + rng.below(A.n))], A.n, A.p)
                   for _ in range(6)]
        spaces += [Subspace.from_vectors([gfp.unit(A.n, j) for j in range(k, A.n)], A.n, A.p)
                   for k in range(A.n)]
        verdicts = [is_ideal(A, S) for S in spaces]
        assert verdicts == [oracles.is_ideal_loop(A, S) for S in spaces], name
        assert True in verdicts and False in verdicts, name


def test_structure_tensor_and_twist_are_read_only(psl3):
    A = HomLieAlgebra(psl3.g.p, psl3.g.c, psl3.g.alpha)
    before = A.bracket_batch(gfp.eye(A.n)[:, None, :], gfp.eye(A.n)[None, :, :])
    with pytest.raises(ValueError):
        A.c[0, 1, 0] = 1
    with pytest.raises(ValueError):
        A.alpha[0, 0] = 2
    assert np.array_equal(A.bracket_batch(gfp.eye(A.n)[:, None, :], gfp.eye(A.n)[None, :, :]), before)
    # the constructor copies: the caller's arrays stay writable and unlinked
    c = psl3.g.c.copy()
    B = HomLieAlgebra(3, c, gfp.eye(A.n))
    c[0, 1, 0] = 1
    assert B.c[0, 1, 0] == psl3.g.c[0, 1, 0]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 65521]),
    n=st.integers(1, 7),
    k=st.sampled_from([1, 2]),
    entries=st.lists(st.tuples(*[st.integers(0, 6)] * 3, st.integers(1, 65520)), max_size=14),
    alpha_id=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, n=4, k=1, entries=[], alpha_id=False, seed=1)  # abelian: no nonzero pair
def test_hom_jacobi_and_leibniz_match_dense_oracles(p, n, k, entries, alpha_id, seed):
    """Sparse tensors that need not be alternating or antisymmetric, with
    random alpha and D: the reports equal the dense einsum oracles'."""
    c = np.zeros((n, n, n), dtype=np.int64)
    for i, j, m, v in entries:
        c[i % n, j % n, m % n] = v % p or 1
    rng = np.random.default_rng(seed)
    A = HomLieAlgebra(p, c, gfp.eye(n) if alpha_id else rng.integers(0, p, (n, n)))
    D = Derivation(rng.integers(0, p, (n, n)), p, k=k)
    assert verify_hom_lie(A).to_dict() == oracles.hom_jacobi_dense(A).to_dict()
    assert verify_derivation(A, D).to_dict() == oracles.leibniz_dense(A, D).to_dict()


def test_hom_jacobi_and_leibniz_match_dense_oracles_on_fixtures(algebras, heis, psl3, psl3_twisted, sl2):
    rng = np.random.default_rng(14)
    derivs = {"heis.V": [heis.D], "psl3": list(psl3.derivations.values()),
              "psl3_a": list(psl3_twisted[3].values()), "sl2": [sl2.D]}
    for name, A in algebras.items():
        assert verify_hom_lie(A).to_dict() == oracles.hom_jacobi_dense(A).to_dict(), name
        for D in derivs.get(name, []) + [Derivation(rng.integers(0, A.p, (A.n, A.n)), A.p, k=2)]:
            assert verify_derivation(A, D).to_dict() == oracles.leibniz_dense(A, D).to_dict(), name


@pytest.mark.parametrize("p", [2, 3, 5])
def test_alternating_is_the_dense_definition(p):
    """HomLieAlgebra.alternating, from the nonzero constants only, equals
    c[i, i] = 0 and c[j, i] = -c[i, j] on the whole tensor: antisymmetric
    tensors with or without a diagonal entry or a sign or value slip, and
    sparse random ones."""
    rng = np.random.default_rng(p)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        c = rng.integers(0, p, size=(n, n, n)) * (rng.random((n, n, n)) < 0.3)
        c = (c - c.transpose(1, 0, 2)) % p if rng.random() < 0.7 else c
        i, j, k = rng.integers(0, n, 3)
        slip = rng.integers(0, 4)
        if slip == 1:
            c[i, i, k] = rng.integers(1, p)
        elif slip == 2:
            c[i, j, k] = (c[i, j, k] + rng.integers(1, p)) % p
        want = not np.einsum("iik->ik", c).any() and np.array_equal(c, (-c.transpose(1, 0, 2)) % p)
        assert HomLieAlgebra(p, c, gfp.eye(n)).alternating == want


def test_derivation_rejects_a_negative_degree():
    assert Derivation(gfp.eye(2), 3, k=0).k == 0
    with pytest.raises(ValueError, match="nonnegative"):
        Derivation(gfp.eye(2), 3, k=-1)


def test_hom_jacobi_scales_to_dim_128():
    """GF(2)^128 with one Heisenberg bracket: the dense [n,n,n,n] route would
    need 2.1 GB for T alone."""
    n = 128
    c = np.zeros((n, n, n), dtype=np.int64)
    c[0, 1, 2] = c[1, 0, 2] = 1
    A = HomLieAlgebra(2, c, gfp.eye(n))
    tracemalloc.start()
    try:
        rep = verify_hom_lie(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert rep.check("hom_jacobi").passed == n**3
    assert peak < 128 * 2**20


def test_verify_hom_lie_memory_at_dim_128():
    """Multiplicativity compares its two reduced sides and antisymmetry only
    the pairs with a nonzero side, so no n^3 difference tensors are built:
    the peak is about two n^3 int64 tensors (32 MB at n = 128)."""
    n = 128
    A = HomLieAlgebra.from_upper(2, n, {(0, 1): gfp.unit(n, 2)})
    tracemalloc.start()
    try:
        rep = verify_hom_lie(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert rep.check("antisymmetry").passed == n * (n - 1) // 2
    assert rep.check("multiplicativity").passed == n * n
    assert peak < 48 * 2**20


def test_verify_derivation_memory_at_dim_128():
    """Leibniz compares D([e_i, e_j]) with the reduced sum of its two
    brackets, made from one bracket tensor that is freed before the sum is
    reduced: about three n^3 int64 tensors (48.4 MB measured at n = 128,
    where the difference tensors of the earlier route peaked at 80.4 MB)."""
    n = 128
    A = HomLieAlgebra.from_upper(2, n, {(0, 1): gfp.unit(n, 2)})
    D = Derivation(np.zeros((n, n), dtype=np.int64), 2)
    tracemalloc.start()
    try:
        rep = verify_derivation(A, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert rep.check("leibniz").passed == n * n
    assert peak < 56 * 2**20


def test_verify_quadratic_memory_at_dim_128():
    """Invariance compares its two reduced sides, one [n, n, 2n] product,
    with !=: about two n^3 int64 tensors (34.1 MB measured at n = 128, where
    the difference tensors of the earlier route peaked at 64.0 MB).  The
    identity form is not invariant for [e0, e1] = e2, so four triples fail."""
    n = 128
    A = HomLieAlgebra.from_upper(2, n, {(0, 1): gfp.unit(n, 2)})
    tracemalloc.start()
    try:
        rep = verify_quadratic(A, BilinearForm(gfp.eye(n), 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    inv = rep.check("invariance")
    assert (inv.passed, inv.failed) == (n**3 - 4, 4)
    assert [f.witness for f in inv.failures] == [(0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0)]
    assert rep.check("twist_self_adjoint").ok
    assert peak < 40 * 2**20
