"""Membership through annihilators and ad maps, and axiom sides compared
reduced, against the subspace and dense routes they replace.

u0's centrality is read off ad(u0), is_ideal and Subspace.spans are one
product with the annihilator, and Leibniz, invariance and the isomorphism
checks compare their two reduced sides with !=.  Each is compared, verdicts,
counts, witnesses and lhs/rhs included, with the centralizer subspaces, the
vector loop and the dense einsum oracles, on the fixtures, on copies carried
across random bases, and under single-entry mutations.
"""

import numpy as np
import oracles
import pytest
from test_doubleext import transported
from test_isom import heis_instances, psl3_instances

import homext
from homext import gfp
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    center,
    centralizer_of_image,
    is_ideal,
    orth,
    verify_derivation,
    verify_quadratic,
)
from homext.doubleext import (
    DoubleExtensionData,
    PExtensionData,
    check_p_extension_data,
    double_extend,
    extend_pstructure,
    reduce,
)
from homext.isom import AdaptedIso, build_adapted_iso, check_adapted_iso_data, verify_adapted_iso
from homext.report import Report
from homext.rng import SplitMix64


@pytest.fixture(scope="module")
def fixtures(heis, psl3_pipelines, sl2, sampled_p5, wide_char2):
    """name -> (V, B, P, D, ext, pe): every fixture's p-extension data, at p = 2, 3 and 5."""
    fields = ("V", "B", "P", "D", "ext", "pe")
    out = {"heis": (heis.V, heis.B, heis.P, heis.D, heis.ext, heis.pext),
           "sl2": (sl2.g, sl2.B, sl2.P, sl2.D, sl2.ext, sl2.pext),
           "sampled-p5": tuple(sampled_p5[f] for f in fields), "wide-char2": tuple(wide_char2[f] for f in fields)}
    out.update({f"psl3.{k}": tuple(d[f] for f in fields) for k, d in psl3_pipelines.items()})
    return out


def carried(V, B, P, D, ext, pe, pi):
    """The extension data carried across the invertible pi: V, B and P as
    test_doubleext.transported carries L, D conjugated, the vectors mapped."""
    p = V.p
    Vt, Bt, Pt = transported(V, B, P, pi)
    Dt = Derivation(gfp.matmul(gfp.matmul(pi, D.mat, p), gfp.mat_inv(pi, p), p), p, k=D.k)
    ext_t = DoubleExtensionData(Dt, gfp.matmul(pi, ext.x0, p), ext.lam, ext.lam0, ext.beta)
    pe_t = PExtensionData(pe.xi, gfp.matmul(pi, pe.a0, p), pe.m, pe.l, gfp.matmul(pi, pe.u0, p), pe.P_basis, p)
    return Vt, Bt, Pt, Dt, ext_t, pe_t


def invertible(rng, n, p):
    while True:
        pi = rng.mat(n, n, p)
        if gfp.mat_inv(pi, p) is not None:
            return pi


def test_u0_checks_match_the_centralizer_subspaces(fixtures):
    """u0_central (odd p) is center(V).contains(u0), and at p = 2
    u0_centralizes_alpha_image is centralizer_of_image(V, alpha).contains(u0),
    for zero, random and central u0 on the fixtures at p = 2, 3 and 5 and on
    copies of them in random bases."""
    rng = SplitMix64(3401)
    verdicts = {}
    for name, data in fixtures.items():
        V, p = data[0], data[0].p
        frames = [data] + [carried(*data, invertible(rng, V.n, p)) for _ in range(2)]
        for Vt, Bt, Pt, Dt, ext_t, pe_t in frames:
            zone = centralizer_of_image(Vt, Vt.alpha) if p == 2 else center(Vt)
            check = "u0_centralizes_alpha_image" if p == 2 else "u0_central"
            us = [gfp.zeros(Vt.n)] + [rng.vec(Vt.n, p) for _ in range(3)]
            us += [gfp.matmul(rng.vec(zone.dim, p), zone.basis, p) for _ in range(3 if zone.dim else 0)]
            for u0 in us:
                pe = PExtensionData(pe_t.xi, pe_t.a0, pe_t.m, pe_t.l, u0, pe_t.P_basis, p)
                rep = check_p_extension_data(Vt, Bt, Pt, ext_t, pe, samples=8)
                got = rep.check(check)
                assert (got.passed, got.failed) == ((1, 0) if zone.contains(u0) else (0, 1)), (name, u0)
                assert [f.to_dict() for f in got.failures] == (
                    [] if zone.contains(u0) else [{"witness": [], "lhs": u0.tolist(), "rhs": None}])
                verdicts.setdefault(p, set()).add(zone.contains(u0))
    assert verdicts == {2: {True, False}, 3: {True, False}, 5: {True, False}}


def alpha_orbit(A, v):
    """span(v, alpha(v), alpha^2(v), ...): alpha-stable, rarely bracket-closed."""
    rows = [gfp.asvec(v, A.p)]
    for _ in range(A.n):
        rows.append(A.apply_alpha(rows[-1]))
    return Subspace.from_vectors(rows, A.n, A.p)


def derived(A):
    """span of every [e_i, e_j]: [S, g] <= S, whatever alpha does to it."""
    return Subspace.from_vectors(A.c.reshape(-1, A.n), A.n, A.p)


def kinds(A, S):
    """(alpha-stable, bracket-closed) by one membership test per vector."""
    images = [A.bracket(s, gfp.unit(A.n, j)) for s in S.basis for j in range(A.n)]
    return all(S.contains(A.apply_alpha(s)) for s in S.basis), all(S.contains(x) for x in images)


def test_is_ideal_matches_the_vector_loop_on_unstable_and_unclosed_spans(
        fixtures, heis_ext, sl2_ext, psl3_pipelines, wide_char2):
    """alpha-unstable spans that are closed under the bracket, alpha-stable
    spans that are not, random spans, and e-perp of the extensions for
    central and random e, in their own and in random bases."""
    rng = SplitMix64(3402)
    algebras = [data[0] for data in fixtures.values()]
    algebras += [HomLieAlgebra(A.p, A.c, rng.mat(A.n, A.n, A.p)) for A in algebras]  # alpha moves the spans
    seen = set()
    for A in algebras:
        spaces = [derived(A), center(A)] + [alpha_orbit(A, rng.vec(A.n, A.p)) for _ in range(3)]
        spaces += [Subspace.from_vectors([rng.vec(A.n, A.p) for _ in range(1 + rng.below(A.n))], A.n, A.p)
                   for _ in range(3)]
        for S in spaces:
            assert is_ideal(A, S) == oracles.is_ideal_loop(A, S)
            seen.add(kinds(A, S))
    exts = [heis_ext, sl2_ext, (wide_char2["L"], wide_char2["B_L"], wide_char2["P_L"])]
    exts += [(d["L"], d["B_L"], d["P_L"]) for d in psl3_pipelines.values()]
    for L, B_L, P_L in exts:
        frames = [(L, B_L)] + [transported(L, B_L, P_L, invertible(rng, L.n, L.p))[:2]]
        for Lt, Bt in frames:
            es = [gfp.matmul(rng.vec(center(Lt).dim, Lt.p), center(Lt).basis, Lt.p) for _ in range(2)]
            for e in es + [rng.vec(Lt.n, Lt.p) for _ in range(2)]:
                S = orth(Bt, Subspace.from_vectors([e], Lt.n, Lt.p))
                assert is_ideal(Lt, S) == oracles.is_ideal_loop(Lt, S)
                seen.add(kinds(Lt, S))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_spans_matches_one_membership_test_per_row(fixtures):
    rng = SplitMix64(3403)
    for data in fixtures.values():
        n, p = data[0].n, data[0].p
        spaces = [Subspace.from_vectors([], n, p), Subspace.from_vectors(list(gfp.eye(n)), n, p)]
        spaces += [Subspace.from_vectors([rng.vec(n, p) for _ in range(1 + rng.below(n))], n, p) for _ in range(4)]
        for S in spaces:
            inside = gfp.matmul(rng.mat(3, S.dim, p), S.basis, p) if S.dim else np.zeros((3, n), dtype=np.int64)
            for vs in (inside, np.vstack([inside, rng.mat(1, n, p)]), np.zeros((0, n), dtype=np.int64)):
                assert S.spans(vs) == all(S.contains(v) for v in vs)


def mutations(m, p, rng, count):
    """count copies of m, each with one entry moved by a nonzero step mod p."""
    out = []
    for _ in range(count):
        mm = m.copy()
        idx = tuple(rng.below(s) for s in m.shape)
        mm[idx] = (mm[idx] + 1 + rng.below(p - 1)) % p
        out.append(mm)
    return out


def quadratic_dense(A, B):
    """verify_quadratic's invariance and twist_self_adjoint, with the sides'
    difference reduced mod p as the failure mask."""
    p, g = A.p, B.gram
    rep = Report(p=p, dim=A.n)
    lhs, rhs = oracles.invariance_sides_dense(A.c, g, p)
    rep.tally("invariance", (lhs - rhs) % p != 0, lhs, rhs)
    lhs, rhs = (A.alpha.T @ g) % p, (g @ A.alpha) % p
    rep.tally("twist_self_adjoint", (lhs - rhs) % p != 0, lhs, rhs)
    return rep


def test_leibniz_and_invariance_match_the_dense_oracles_under_mutations(fixtures):
    """One entry of D, of c or of the form moved: counts, witnesses and
    lhs/rhs as the dense oracles report them."""
    rng = SplitMix64(3404)
    failed = set()
    for name, (V, B, P, D, ext, pe) in fixtures.items():
        p = V.p
        cases = [(V, D, B)] + [(V, Derivation(m, p, k=D.k), B) for m in mutations(D.mat, p, rng, 3)]
        cases += [(HomLieAlgebra(p, c, V.alpha), D, B) for c in mutations(V.c, p, rng, 2)]
        cases += [(V, D, BilinearForm(g, p)) for g in mutations(B.gram, p, rng, 2)]
        for A, Dm, Bm in cases:
            got, want = verify_derivation(A, Dm).to_dict(), oracles.leibniz_dense(A, Dm).to_dict()
            assert got == want, name
            failed.add(("leibniz", not got["summary"]["ok"]))
            got = verify_quadratic(A, Bm)
            want = quadratic_dense(A, Bm)
            for check in ("invariance", "twist_self_adjoint"):
                assert got.check(check).to_dict() == want.check(check).to_dict(), (name, check)
            failed.add(("invariance", not got.check("invariance").ok))
    assert failed == {("leibniz", True), ("leibniz", False), ("invariance", True), ("invariance", False)}


def test_iso_bracket_checks_match_the_dense_oracles_under_mutations(heis, psl3_pipelines):
    """bracket_preserved and pi0_bracket for adapted isomorphisms, with one
    entry of pi, of pi0 or of L~'s tensor moved."""
    rng = SplitMix64(3405)
    seen = set()
    instances = [(heis.V, heis.B, heis.ext, a, Lt, Bt) for a, Lt, Bt in heis_instances(heis, 2, 3406)]
    pipe = psl3_pipelines["D3"]
    instances += [(pipe["V"], pipe["B"], pipe["ext"], a, Lt, Bt) for a, Lt, Bt in psl3_instances(pipe, 2, 3407)]
    for V, B, ext, a, Lt, Bt in instances:
        p = V.p
        L, B_L = double_extend(V, B, ext)
        pi = build_adapted_iso(L, B_L, Lt, Bt, a)
        targets = [Lt] + [HomLieAlgebra(p, c, Lt.alpha) for c in mutations(Lt.c, p, rng, 2)]
        for T in targets:
            for m in [pi] + mutations(pi, p, rng, 3):
                got = verify_adapted_iso(L, B_L, T, Bt, m).check("bracket_preserved")
                lhs, rhs = oracles.bracket_sides_dense(m, L, T)
                want = Report().tally("bracket_preserved", ((lhs - rhs) % p).any(axis=2), lhs, rhs)
                assert got.to_dict() == want.to_dict()
                seen.add(("bracket_preserved", got.ok))
        for pi0 in [a.pi0] + mutations(a.pi0, p, rng, 3):
            a_m = AdaptedIso(pi0, a.gamma, a.t_pi, p, a.nu)
            rep = check_adapted_iso_data(L, B_L, Lt, Bt, a_m)
            if "pi0_bracket" not in rep.checks:  # pi0 singular: the report stops before it
                continue
            lhs, rhs = oracles.bracket_sides_dense(pi0, V, V)
            assert rep.check("pi0_bracket").ok == (not ((lhs - rhs) % p).any())
            seen.add(("pi0_bracket", rep.check("pi0_bracket").ok))
    assert seen == {(c, ok) for c in ("bracket_preserved", "pi0_bracket") for ok in (True, False)}


def test_p_extend_and_reduce_of_a_wide_input_eliminate_at_most_n_rows(wide_char2, monkeypatch):
    """p-extend decides u0 by ad(u0), and reduce tests e-perp through its
    annihilator: no rref sees more rows than the algebra has dimensions,
    and no centralizer subspace is built."""
    rows, centralizers = [], []
    rref, centralizer = gfp.rref, homext.algebra.centralizer_of_image

    def spy_rref(m, p):
        rows.append(np.asarray(m).shape[0])
        return rref(m, p)

    def spy_centralizer(*args):
        centralizers.append(args)
        return centralizer(*args)

    monkeypatch.setattr(gfp, "rref", spy_rref)
    for module in (homext.algebra, homext.doubleext, homext):
        if hasattr(module, "centralizer_of_image"):
            monkeypatch.setattr(module, "centralizer_of_image", spy_centralizer)
    g = wide_char2
    V, L = g["V"], g["L"]
    fresh = HomLieAlgebra(V.p, V.c, V.alpha)  # no reports kept from other tests
    L2, B_L = double_extend(fresh, g["B"], g["ext"])
    P_L = extend_pstructure(L2, fresh, g["B"], g["P"], g["ext"], g["pe"])
    assert rows and max(rows) <= V.n
    rows.clear()
    f = reduce(L2, B_L, P_L, gfp.unit(L.n, L.n - 1))
    assert rows and max(rows) <= L.n
    assert not centralizers
    assert np.array_equal(f.V.c, V.c)
