import numpy as np
import oracles
import pytest
from oracles import compute_eta_batch, is_involutive_twist

from homext import doubleext, gfp, restricted
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    center,
    d_invariant,
    verify_hom_lie,
    verify_quadratic,
)
from homext.doubleext import (
    DoubleExtensionData,
    PExtensionData,
    check_extension_data,
    check_p_extension_data,
    check_P_conditions,
    double_extend,
    extend_pstructure,
    eval_P,
    eval_P_batch,
    reduce,
    split_frame,
)
from homext.errors import (
    DegenerateFrame,
    FrameMismatch,
    HomextError,
    NotCentral,
    NotPIdeal,
    PreconditionFailed,
)
from homext.isom import verify_restricted_iso
from homext.restricted import (
    PStructure,
    compute_s_batch,
    eval_p,
    eval_p_batch,
    is_restricted_derivation,
    verify_pstructure,
)
from homext.report import MAX_FAILURES_KEPT, Report, rows
from homext.rng import SplitMix64


def tiny_abelian(p):
    V = HomLieAlgebra(p, np.zeros((1, 1, 1), dtype=np.int64), gfp.eye(1))
    B = BilinearForm(gfp.eye(1), p)
    D = Derivation(np.zeros((1, 1), dtype=np.int64), p)
    return V, B, D


def test_check_extension_data_passes_on_fixtures(heis, psl3_pipelines):
    assert check_extension_data(heis.V, heis.B, heis.ext).ok
    for data in psl3_pipelines.values():
        assert check_extension_data(data["V"], data["B"], data["ext"]).ok


def test_check_extension_data_lambda_zero_unsatisfiable(heis):
    # 0*D + ad(x0) = D is unsolvable because D is outer
    d = DoubleExtensionData(heis.D, gfp.zeros(6), 0, 0)
    rep = check_extension_data(heis.V, heis.B, d)
    assert not rep.check("lambda_D_plus_ad_x0").ok


def test_double_extend_heisenberg_brackets(heis_ext):
    L, B_L, _ = heis_ext
    # frame: e*(0), x(1), y(2), z(3), x*(4), y*(5), z*(6), e(7)
    e = gfp.unit(8, 7)
    assert np.array_equal(L.bracket(gfp.unit(8, 1), gfp.unit(8, 4)), e)  # [x, x*] = e
    assert np.array_equal(L.bracket(gfp.unit(8, 1), gfp.unit(8, 6)), gfp.unit(8, 5))  # [x, z*] = y*
    assert np.array_equal(L.bracket(gfp.unit(8, 0), gfp.unit(8, 1)), gfp.unit(8, 1))  # [e*, x] = x
    assert verify_hom_lie(L).ok and L.n == 8


def test_double_extend_trivial_abelian():
    V, B, D = tiny_abelian(3)
    L, B_L = double_extend(V, B, DoubleExtensionData(D, gfp.zeros(1), 1, 0))
    assert L.n == 3 and not L.c.any()
    assert np.array_equal(L.alpha, gfp.eye(3))
    assert verify_hom_lie(L).ok and verify_quadratic(L, B_L).ok


def test_double_extend_postconditions(heis, heis_ext, psl3_pipelines):
    L, B_L, _ = heis_ext
    assert verify_quadratic(L, B_L).ok
    n = 6
    assert np.array_equal(B_L.gram[1:1 + n, 1:1 + n], heis.B.gram)
    assert np.array_equal(L.alpha[1:1 + n, 1:1 + n], heis.V.alpha)
    assert center(L).contains(gfp.unit(8, 7))
    for data in psl3_pipelines.values():
        assert verify_hom_lie(data["L"]).ok
        assert verify_quadratic(data["L"], data["B_L"]).ok


def test_double_extend_rejects_bad_data(heis):
    bad = Derivation((heis.D.mat + np.diag([0, 0, 1, 0, 0, 0])) % 2, 2)
    with pytest.raises(PreconditionFailed):
        double_extend(heis.V, heis.B, DoubleExtensionData(bad, gfp.zeros(6), 1, 0))


def test_double_extend_rejects_nonzero_beta_odd_char(psl3_pipelines):
    data, d = psl3_pipelines["D3"], psl3_pipelines["D3"]["ext"]
    with pytest.raises(PreconditionFailed):
        double_extend(data["V"], data["B"], DoubleExtensionData(d.D, d.x0, d.lam, d.lam0, beta=1))


def _extension_cases(p, request, rng):
    """(name, V, B, data) inputs of double_extend at p: the fixtures
    (heisenberg-dual, psl3 D1, twisted psl3 D2/D3, sl2-gf5, sl2 over GF(7))
    and random alpha-derivations of each fixture's V from
    oracles.alpha_derivations, with lambda = 1 and x0 = 0 or with a random
    lambda (0 included), x0 and lambda0.  At p = 2 the derivations are the
    B-alternating ones and x0 lies in the center of V, the only inputs that
    d_invariant and lambda D + ad(x0) = D can accept there."""
    if p == 2:
        heis = request.getfixturevalue("heis")
        cases = [("fixture", heis.V, heis.B, heis.ext)]
    elif p == 3:
        cases = [(f"fixture {name}", d["V"], d["B"], d["ext"])
                 for name, d in request.getfixturevalue("psl3_pipelines").items()]
    elif p == 5:
        sl2 = request.getfixturevalue("sl2")
        cases = [("fixture", sl2.g, sl2.B, sl2.ext)]
    else:
        V, B, D = _sl2(p)
        cases = [("fixture", V, B, DoubleExtensionData(D, gfp.zeros(3), 1, 0))]
    spaces = {id(V): (V, B) for _, V, B, _ in cases}  # psl3 and twisted psl3 at p = 3
    for i, (V, B) in enumerate(spaces.values()):
        n = V.n
        ders = oracles.alpha_derivations(V).reshape(-1, n * n)
        x0s = gfp.eye(n)
        if p == 2:
            m = (ders.reshape(-1, n, n).transpose(0, 2, 1) @ B.gram) % p  # B(D e_a, e_b) at [a, b]
            alt = m + m.transpose(0, 2, 1)
            alt[:, range(n), range(n)] = m[:, range(n), range(n)]  # alternating: B(Dx, x) = 0
            upper = np.triu_indices(n)
            ders = (gfp.null_basis(alt[:, upper[0], upper[1]].T % p, p) @ ders) % p
            x0s = center(V).basis
        for j in range(10):
            D = Derivation((rng.integers(0, p, len(ders)) @ ders).reshape(n, n), p)
            if j % 2 == 0:
                d = DoubleExtensionData(D, gfp.zeros(n), 1, 0)
            else:
                x0 = rng.integers(0, p, len(x0s)) @ x0s
                d = DoubleExtensionData(D, x0, int(rng.integers(0, p)), int(rng.integers(0, p)))
            cases.append((f"{i} derivation {j}", V, B, d))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_accepted_extension_is_quadratic_hom_lie(p, request):
    """double_extend is the package's one construction: whatever data
    check_extension_data accepts builds an L that passes verify_hom_lie and
    verify_quadratic (B(e*, e*) drawn at p = 2), and it refuses the rest."""
    rng = np.random.default_rng(310 + p)
    verdicts = []
    for name, V, B, d in _extension_cases(p, request, rng):
        ok = check_extension_data(V, B, d).ok
        verdicts.append(ok)
        if ok:
            beta = int(rng.integers(0, p)) if p == 2 else 0
            L, B_L = double_extend(V, B, DoubleExtensionData(d.D, d.x0, d.lam, d.lam0, beta=beta))
            assert verify_hom_lie(L).ok and verify_quadratic(L, B_L).ok, name
        else:
            with pytest.raises(PreconditionFailed):
                double_extend(V, B, d)
    assert any(verdicts) and not all(verdicts), verdicts


def test_double_extend_builds_only_L(heis, psl3_pipelines, sl2, monkeypatch):
    """double_extend writes V + Ke's bracket (doubleext._central_tensor) into
    L's tensor: the one HomLieAlgebra it constructs is L, whose block after e*
    is _central_extension's W, as it was when L copied a built W."""
    cases = [(heis.V, heis.B, heis.ext), (sl2.g, sl2.B, sl2.ext)]
    cases += [(x["V"], x["B"], x["ext"]) for x in psl3_pipelines.values()]
    for V, B, d in cases:
        built, init = [], HomLieAlgebra.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HomLieAlgebra, "__init__", spy)
        L, _ = double_extend(V, B, d)
        monkeypatch.undo()
        assert built == [L]
        W = doubleext._central_extension(V, B, d.D)
        assert np.array_equal(L.c[1:, 1:, 1:], W.c) and L.c.dtype == np.int64


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_split_frame_returns_the_record_it_was_built_from(p, request, monkeypatch):
    """split_frame inverts double_extend and extend_pstructure: on every
    input that test_every_accepted_extension_is_quadratic_hom_lie accepts,
    at p = 2 with B(e*, e*) = 0 and 1, it returns the d, pe and P_V that L
    was built from, double_extend(f.V, f.B_V, f.d) rebuilds L and B_L bit for
    bit, and rows is the identity.  pe and P_V are drawn at random, with
    extend_pstructure's hypothesis check stubbed: the layout of the images
    does not depend on them."""
    rng = np.random.default_rng(320 + p)
    monkeypatch.setattr(doubleext, "check_p_extension_data", lambda *args, **kwargs: Report())
    cases = [(name, V, B, DoubleExtensionData(d.D, d.x0, d.lam, d.lam0, beta))
             for name, V, B, d in _extension_cases(p, request, np.random.default_rng(310 + p))
             if check_extension_data(V, B, d).ok for beta in range(1 + (p == 2))]
    assert len(cases) > 5
    for name, V, B, d in cases:
        n = V.n
        L, B_L = double_extend(V, B, d)
        P_V = PStructure(V, rng.integers(0, p, (n, n)))
        (xi, m, l), (a0, u0, P_basis) = rng.integers(0, p, 3), rng.integers(0, p, (3, n))
        pe = PExtensionData(xi, a0, m, l, u0, P_basis, p)
        f = split_frame(L, B_L, extend_pstructure(L, V, B, P_V, d, pe))
        assert np.array_equal(f.d.D.mat, d.D.mat) and f.d.D.k == d.D.k and np.array_equal(f.d.x0, d.x0), name
        assert (f.d.lam, f.d.lam0, f.d.beta) == (d.lam, d.lam0, d.beta), name
        for field in ("xi", "a0", "m", "l", "u0", "P_basis"):
            assert np.array_equal(getattr(f.pe, field), getattr(pe, field)), (name, field)
        assert np.array_equal(f.P_V.images, P_V.images) and np.array_equal(f.rows, gfp.eye(n + 2)), name
        L2, B2 = double_extend(f.V, f.B_V, f.d)
        assert np.array_equal(L2.c, L.c) and np.array_equal(L2.alpha, L.alpha), name
        assert L2.basis_names == L.basis_names and np.array_equal(B2.gram, B_L.gram), name
        assert B_L.gram[0, 0] == d.beta, name


def test_is_involutive_twist(heis, psl3_pipelines):
    assert is_involutive_twist(heis.V, heis.B, heis.ext)
    d3 = psl3_pipelines["D3"]["ext"]
    assert is_involutive_twist(psl3_pipelines["D3"]["V"], psl3_pipelines["D3"]["B"], d3)
    # p=2: an anisotropic x0 fails the isotropy condition (the hyperbolic
    # fixture has none, so use a one-dimensional algebra with B = (1))
    V1, B1, D1 = tiny_abelian(2)
    d = DoubleExtensionData(D1, gfp.unit(1, 0), 1, 0)
    assert B1.eval(d.x0, d.x0) == 1
    assert check_extension_data(V1, B1, d).ok
    assert not is_involutive_twist(V1, B1, d)
    L1, _ = double_extend(V1, B1, d)
    assert not np.array_equal((L1.alpha @ L1.alpha) % 2, gfp.eye(3))
    # p=3: lambda0 = 2 violates the completed-square normalization; the built
    # twist genuinely fails to square to the identity on e*
    V, B, D = psl3_pipelines["D3"]["V"], psl3_pipelines["D3"]["B"], psl3_pipelines["D3"]["D"]
    d_bad = DoubleExtensionData(D, gfp.zeros(7), 1, 2)
    assert not is_involutive_twist(V, B, d_bad)
    L_bad, _ = double_extend(V, B, d_bad)
    asq = (L_bad.alpha @ L_bad.alpha) % 3
    assert not np.array_equal(asq[:, 0], gfp.unit(9, 0))


def test_is_involutive_twist_matches_alpha_square(heis, psl3_pipelines, sl2):
    """The criterion equals alpha_L^2 = id on every accepted draw: random x0
    and lambda0 at p = 2; random lambda and lambda0 at p = 3 (twisted psl3, D3)
    and p = 5 (sl2-gf5), with x0 the solution of ad(x0) = (1 - lambda) D,
    unique since both centers are zero."""
    rng = SplitMix64(21)
    agree = 0
    for _ in range(40):
        x0 = rng.vec(6, 2)
        lam0 = rng.below(2)
        d = DoubleExtensionData(heis.D, x0, 1, lam0)
        if not check_extension_data(heis.V, heis.B, d).ok:
            continue
        L, _ = double_extend(heis.V, heis.B, d)
        flag = is_involutive_twist(heis.V, heis.B, d)
        assert flag == np.array_equal((L.alpha @ L.alpha) % 2, gfp.eye(8))
        agree += 1
    assert agree > 0
    d3 = psl3_pipelines["D3"]
    for V, B, D in ((d3["V"], d3["B"], d3["D"]), (sl2.g, sl2.B, sl2.D)):
        p, n = V.p, V.n
        assert center(V).dim == 0
        ads = np.stack([V.ad(gfp.unit(n, i)).reshape(-1) for i in range(n)], axis=1)
        flags = []
        for _ in range(40):
            lam, lam0 = 1 + rng.below(p - 1), rng.below(p)
            x0 = gfp.solve(ads, ((1 - lam) * D.mat).reshape(-1) % p, p)
            if x0 is None:
                continue
            d = DoubleExtensionData(D, x0, lam, lam0)
            if not check_extension_data(V, B, d).ok:
                continue
            L, _ = double_extend(V, B, d)
            flags.append(is_involutive_twist(V, B, d))
            assert flags[-1] == np.array_equal((L.alpha @ L.alpha) % p, gfp.eye(n + 2)), (p, lam, lam0)
        assert set(flags) == {True, False}, p


def test_extend_pstructure_heisenberg_images(heis, heis_ext):
    L, _, P_L = heis_ext
    z9 = gfp.unit(8, 3)
    e = gfp.unit(8, 7)
    estar = gfp.unit(8, 0)
    # (e*)^[2] = a0 + l e + xi e* = z + e*
    assert np.array_equal(eval_p(P_L, estar), (z9 + estar) % 2)
    # e^[2] = m e + u0 = z
    assert np.array_equal(eval_p(P_L, e), z9)
    # v^[2]_L = v^[2]_V + P(v) e, checked across all embedded vectors
    for v in gfp.all_vectors(6, 2):
        emb = np.concatenate([[0], v, [0]])
        want = np.concatenate([[0], oracles.heis_table_p2(v), [oracles.heis_table_P(v)]])
        assert np.array_equal(eval_p(P_L, emb), want)


def test_extend_pstructure_trivial():
    V, B, D = tiny_abelian(2)
    ext = DoubleExtensionData(D, gfp.zeros(1), 1, 0)
    L, B_L = double_extend(V, B, ext)
    P_V = PStructure(V, np.zeros((1, 1), dtype=np.int64))
    pe = PExtensionData(0, gfp.zeros(1), 0, 0, gfp.zeros(1), gfp.zeros(1), 2)
    P_L = extend_pstructure(L, V, B, P_V, ext, pe)
    assert np.array_equal(P_L.images[1], gfp.zeros(3))
    assert verify_pstructure(P_L).ok


def test_extend_pstructure_requires_lambda_one(heis):
    d = DoubleExtensionData(heis.D, gfp.zeros(6), 0, 0)
    with pytest.raises(PreconditionFailed):
        L, B_L = double_extend(heis.V, heis.B, heis.ext)
        extend_pstructure(L, heis.V, heis.B, heis.P, d, heis.pext)


def test_extend_pstructure_psl3_passes(psl3_pipelines):
    for name, data in psl3_pipelines.items():
        rep = verify_pstructure(data["P_L"], samples=300)
        assert rep.ok, name


def test_eval_P_examples(heis, psl3, psl3_pipelines):
    # P(x + x*) = 1
    v = (gfp.unit(6, 0) + gfp.unit(6, 3)) % 2
    assert eval_P(heis.V, heis.B, heis.D, heis.pext, v) == 1
    assert eval_P(heis.V, heis.B, heis.D, heis.pext, gfp.zeros(6)) == 0
    # homogeneity over every scalar of GF(3), on the D2 pipeline
    data = psl3_pipelines["D2"]
    rng = SplitMix64(23)
    for _ in range(40):
        u = rng.vec(7, 3)
        base = eval_P(data["V"], data["B"], data["D"], data["pe"], u)
        for k in range(3):
            got = eval_P(data["V"], data["B"], data["D"], data["pe"], (k * u) % 3)
            assert got == (pow(k, 3, 3) * base) % 3


def test_eval_P_matches_table_cubics(psl3, psl3_pipelines):
    for name, data in psl3_pipelines.items():
        vs = gfp.all_vectors(7, 3)
        got = eval_P_batch(data["V"], data["B"], data["D"], data["pe"], vs)
        want = np.array([oracles.psl3_table_P(name, v) for v in vs])
        assert np.array_equal(got, want), name


def test_eval_P_fold_matches_oracle(sl2, psl3_pipelines):
    cases = [(sl2.g, sl2.B, sl2.D, sl2.pext)]
    cases += [(d["V"], d["B"], d["D"], d["pe"]) for name, d in psl3_pipelines.items() if name != "D1"]
    rng = SplitMix64(43)
    for V, B, D, pe in cases:
        p, n = V.p, V.n
        lead_zero = rng.mat(10, n, p)
        lead_zero[:, 0] = 0
        vs = np.vstack([gfp.zeros(n)[None, :], gfp.eye(n), lead_zero, rng.mat(50, n, p)])
        other = PExtensionData(pe.xi, pe.a0, pe.m, pe.l, pe.u0, np.arange(1, n + 1) % p, p)
        for data in (pe, other):
            assert np.array_equal(eval_P_batch(V, B, D, data, vs), oracles.eval_P_fold(V, B, D, data, vs))


def test_table_P_satisfies_eta_additivity(psl3, psl3_pipelines):
    rng = SplitMix64(29)
    for name, data in psl3_pipelines.items():
        us = np.stack([rng.vec(7, 3) for _ in range(300)])
        ws = np.stack([rng.vec(7, 3) for _ in range(300)])
        etas = compute_eta_batch(data["V"], data["B"], data["D"], us, ws).sum(axis=1) % 3
        for m in range(300):
            lhs = oracles.psl3_table_P(name, (us[m] + ws[m]) % 3)
            rhs = (oracles.psl3_table_P(name, us[m]) + oracles.psl3_table_P(name, ws[m]) + etas[m]) % 3
            assert lhs == rhs, name


def test_lemma_4_3_bracket_coefficients(psl3_pipelines):
    # s_i on the extension equals s_i on V plus the eta coefficient times e
    rng = SplitMix64(31)
    for data in psl3_pipelines.values():
        us = np.stack([rng.vec(7, 3) for _ in range(300)])
        ws = np.stack([rng.vec(7, 3) for _ in range(300)])
        eu = np.zeros((300, 9), dtype=np.int64)
        ew = np.zeros((300, 9), dtype=np.int64)
        eu[:, 1:8], ew[:, 1:8] = us, ws
        sL = compute_s_batch(data["L"], eu, ew)
        sV = compute_s_batch(data["V"], us, ws)
        etas = compute_eta_batch(data["V"], data["B"], data["D"], us, ws)
        want = np.zeros_like(sL)
        want[:, :, 1:8] = sV
        want[:, :, 8] = etas
        assert not ((sL - want) % 3).any()


def test_reduce_roundtrip_heisenberg(heis, heis_ext):
    L, B_L, P_L = heis_ext
    rr = reduce(L, B_L, P_L, gfp.unit(8, 7))
    assert np.array_equal(rr.V.c, heis.V.c)
    assert np.array_equal(rr.V.alpha, heis.V.alpha)
    assert np.array_equal(rr.B_V.gram, heis.B.gram)
    assert np.array_equal(rr.P_V.images, heis.P.images)
    assert np.array_equal(rr.d.D.mat, heis.D.mat)
    assert (rr.d.lam, rr.d.lam0) == (1, 0)
    assert not rr.d.x0.any()
    assert rr.pe.xi == 1 and np.array_equal(rr.pe.a0, gfp.unit(6, 2))
    assert (rr.pe.m, rr.pe.l) == (0, 0)
    assert np.array_equal(rr.pe.u0, gfp.unit(6, 2))
    assert not rr.pe.P_basis.any()
    L2, B2 = double_extend(rr.V, rr.B_V, rr.d)
    P2 = extend_pstructure(L2, rr.V, rr.B_V, rr.P_V, rr.d, rr.pe)
    assert np.array_equal(L2.c, L.c) and np.array_equal(L2.alpha, L.alpha)
    assert np.array_equal(B2.gram, B_L.gram) and np.array_equal(P2.images, P_L.images)


def test_reduce_roundtrip_psl3(psl3_pipelines):
    for name, data in psl3_pipelines.items():
        L, B_L, P_L = data["L"], data["B_L"], data["P_L"]
        rr = reduce(L, B_L, P_L, gfp.unit(9, 8))
        assert np.array_equal(rr.V.c, data["V"].c)
        assert np.array_equal(rr.d.D.mat, data["D"].mat)
        assert rr.pe.xi == data["pe"].xi
        assert np.array_equal(rr.pe.a0, data["pe"].a0)
        assert (rr.pe.m, rr.pe.l) == (0, 0)
        assert not rr.pe.u0.any() and not rr.pe.P_basis.any()
        L2, B2 = double_extend(rr.V, rr.B_V, rr.d)
        P2 = extend_pstructure(L2, rr.V, rr.B_V, rr.P_V, rr.d, rr.pe)
        assert np.array_equal(L2.c, L.c) and np.array_equal(L2.alpha, L.alpha)
        assert np.array_equal(B2.gram, B_L.gram) and np.array_equal(P2.images, P_L.images)


def test_reduce_roundtrip_trivial_abelian():
    V, B, D = tiny_abelian(2)
    ext = DoubleExtensionData(D, gfp.zeros(1), 1, 0)
    L, B_L = double_extend(V, B, ext)
    P_L = extend_pstructure(
        L, V, B, PStructure(V, np.zeros((1, 1), dtype=np.int64)), ext,
        PExtensionData(0, gfp.zeros(1), 0, 0, gfp.zeros(1), gfp.zeros(1), 2),
    )
    rr = reduce(L, B_L, P_L, gfp.unit(3, 2))
    assert rr.V.n == 1 and not rr.V.c.any() and not rr.d.D.mat.any()


def test_reduce_error_cases(heis_ext):
    L, B_L, P_L = heis_ext
    with pytest.raises(NotCentral):
        reduce(L, B_L, P_L, gfp.zeros(8))
    with pytest.raises(NotCentral):
        reduce(L, B_L, P_L, gfp.unit(8, 1))  # x is not central
    # z is central but pairs to zero with everything except z*, so it is
    # isotropic; it IS a legitimate alternative reduction seed, while a
    # center vector with B(e, e) != 0 cannot exist here (all are isotropic).
    rr = reduce(L, B_L, P_L, gfp.unit(8, 3))
    assert rr.V.n == 6


def test_reduce_rejects_anisotropic_center():
    # a central vector with B(e, e) != 0 cannot seed a hyperbolic frame
    A = HomLieAlgebra(3, np.zeros((2, 2, 2), dtype=np.int64), gfp.eye(2))
    B = BilinearForm(gfp.eye(2), 3)
    P = PStructure(A, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(DegenerateFrame):
        reduce(A, B, P, gfp.unit(2, 0))


def test_reduce_rejects_non_p_ideal():
    # an invalid p-map on the extension makes e-perp fail closure under [p]
    V, B, D = tiny_abelian(2)
    ext = DoubleExtensionData(D, gfp.zeros(1), 1, 0)
    L, B_L = double_extend(V, B, ext)
    imgs = np.zeros((3, 3), dtype=np.int64)
    imgs[1] = gfp.unit(3, 0)  # v^[2] = e*, escaping e-perp
    with pytest.raises(NotPIdeal):
        reduce(L, B_L, PStructure(L, imgs), gfp.unit(3, 2))


def test_reduce_folds_the_frame_once(heis_ext, sl2_ext, psl3_pipelines, monkeypatch):
    """reduce folds its N frame vectors in one eval_p_batch call, and that one
    fold also decides whether e-perp is closed under [p]."""
    calls = []

    def counted(P, xs):
        calls.append(len(xs))
        return eval_p_batch(P, xs)

    monkeypatch.setattr(doubleext, "eval_p_batch", counted)
    for L, B_L, P_L in [heis_ext, sl2_ext] + [(d["L"], d["B_L"], d["P_L"]) for d in psl3_pipelines.values()]:
        calls.clear()
        reduce(L, B_L, P_L, gfp.unit(L.n, L.n - 1))
        assert calls == [L.n]
    V, B, D = tiny_abelian(2)
    L, B_L = double_extend(V, B, DoubleExtensionData(D, gfp.zeros(1), 1, 0))
    imgs = np.zeros((3, 3), dtype=np.int64)
    imgs[1] = gfp.unit(3, 0)  # v^[2] = e*, escaping e-perp
    calls.clear()
    with pytest.raises(NotPIdeal, match="^the orthogonal complement of e is not closed under \\[p\\]$"):
        reduce(L, B_L, PStructure(L, imgs), gfp.unit(3, 2))
    assert calls == [3]


def test_p2_P_additivity_is_the_alternating_form_check(heis):
    """At p = 2, P(u + w) - P(u) - P(w) - B(Du, w) = u^T N w with m = D^T G and
    N = triu(m, 1) + triu(m, 1)^T - m: check_P_conditions fails on exactly the
    samples with u^T N w != 0, and passes iff d_invariant(B, D, 2).  Random D
    on heisenberg-dual, every third one D-invariant (D^T G alternating)."""
    V, B, pe, p, n = heis.V, heis.B, heis.pext, 2, 6
    ginv = gfp.mat_inv(B.gram, p)
    rng = SplitMix64(0x2D)
    invariant = 0
    for k in range(60):
        if k % 3 == 0:
            a = np.triu(rng.mat(n, n, p), 1)
            D = Derivation(((a + a.T) @ ginv).T % p, p)
        else:
            D = Derivation(rng.mat(n, n, p), p)
        P_basis = rng.vec(n, p)
        rep = check_P_conditions(V, B, D, PExtensionData(pe.xi, pe.a0, pe.m, pe.l, pe.u0, P_basis, p),
                                 samples=100, seed=k)
        m = (D.mat.T @ B.gram) % p
        N = (np.triu(m, 1) + np.triu(m, 1).T - m) % p
        draws = SplitMix64(k)
        us, ws = draws.mat(100, n, p), draws.mat(100, n, p)
        bad = np.einsum("mi,ij,mj->m", us, N, ws) % p != 0
        c = rep.check("P_additivity")
        assert (c.passed, c.failed) == (int((~bad).sum()), int(bad.sum()))
        want = [(tuple(int(x) for x in u), tuple(int(x) for x in w)) for u, w in zip(us[bad], ws[bad])]
        assert [f.witness for f in c.failures] == want[:MAX_FAILURES_KEPT]
        assert c.ok == d_invariant(B, D, p)
        invariant += c.ok
    assert 20 <= invariant < 60


def test_sampled_entry_points_reject_samples_below_one(heis, heis_ext, sl2, monkeypatch):
    L, B_L, P_L = heis_ext
    calls = {
        "verify_pstructure": lambda k: verify_pstructure(heis.P, samples=k),
        "is_restricted_derivation": lambda k: is_restricted_derivation(heis.V, heis.P, heis.D, samples=k),
        "verify_restricted_iso": lambda k: verify_restricted_iso(L, B_L, L, B_L, P_L, P_L, gfp.eye(8), samples=k),
        "check_p_extension_data": lambda k: check_p_extension_data(
            heis.V, heis.B, heis.P, heis.ext, heis.pext, samples=k),
        "check_P_conditions": lambda k: check_P_conditions(sl2.g, sl2.B, sl2.D, sl2.pext, samples=k),
    }
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)  # every entry point samples
    for name, call in calls.items():
        for k in (0, -4):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                call(k)
        assert call(1) is not None, name


def test_split_frame_matches_reduce(heis, heis_ext):
    L, B_L, P_L = heis_ext
    f = split_frame(L, B_L, P_L)
    assert np.array_equal(f.V.c, heis.V.c)
    assert np.array_equal(f.d.D.mat, heis.D.mat)
    assert f.d.lam == 1 and f.d.beta == 0
    assert f.pe is not None and f.pe.xi == 1


def transported(L, B_L, P_L, pi):
    """(L, B_L, P_L) carried across the invertible pi: brackets, twist, form
    and p-images (as test_isom.transported_pstructure carries images)."""
    p = L.p
    u = gfp.mat_inv(pi, p).T  # row a is pi^-1(e_a)
    Lt = HomLieAlgebra(p, (L.bracket_batch(u[:, None], u[None]) @ pi.T) % p, (pi @ L.alpha @ u.T) % p)
    return Lt, BilinearForm(u @ B_L.gram @ u.T, p), PStructure(Lt, (eval_p_batch(P_L, u) @ pi.T) % p)


def reduce_outcome(fn, L, B_L, P_L, e):
    """Every field of the reduced record (its rows as e*, the V rows and e),
    or the exception class and message."""
    try:
        r = fn(L, B_L, P_L, e)
    except HomextError as exc:
        return type(exc), str(exc)
    return (
        r.V.c, r.V.alpha, r.V.basis_names, r.B_V.gram, r.d.D.mat, r.d.D.k, r.d.x0,
        r.d.lam, r.d.lam0, r.P_V.images, r.pe.xi, r.pe.a0, r.pe.m, r.pe.l, r.pe.u0,
        r.pe.P_basis, r.d.beta, r.rows[0], r.rows[1:-1], r.rows[-1],
    )


def test_reduce_matches_loop_oracle(heis_ext, psl3, psl3_pipelines, sl2_ext):
    exts = {"heis": heis_ext, "sl2": sl2_ext}
    exts.update({f"psl3-{k}": (d["L"], d["B_L"], d["P_L"]) for k, d in psl3_pipelines.items()})
    for name in ("D2", "D3"):  # psl3_pipelines has D2, D3 over the twisted algebra only
        ext = DoubleExtensionData(psl3.derivations[name], gfp.zeros(7), 1, 0)
        pe = PExtensionData(psl3.table[name]["xi"], psl3.table[name]["a0"], 0, 0,
                            gfp.zeros(7), gfp.zeros(7), 3)
        L, B_L = double_extend(psl3.g, psl3.B, ext)
        exts[f"psl3-untwisted-{name}"] = (L, B_L, extend_pstructure(L, psl3.g, psl3.B, psl3.P, ext, pe))
    rng = SplitMix64(8101)
    outcomes = set()
    for name, (L, B_L, P_L) in exts.items():
        p, N = L.p, L.n
        frames = [(L, B_L, P_L)]
        while len(frames) < 4:
            pi = rng.mat(N, N, p)
            if gfp.mat_inv(pi, p) is not None:
                frames.append(transported(L, B_L, P_L, pi))
        for Lt, Bt, Pt in frames:
            seeds = [(k * b) % p for b in center(Lt).basis for k in range(1, p)]
            for e in seeds + [rng.vec(N, p) for _ in range(2)]:
                got = reduce_outcome(reduce, Lt, Bt, Pt, e)
                want = reduce_outcome(oracles.reduce_loop, Lt, Bt, Pt, e)
                assert len(got) == len(want), (name, e, got, want)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (name, e, g, w)
                outcomes.add(got[0] if len(got) == 2 else "ok")
    assert {"ok", NotCentral, NotPIdeal} <= outcomes


def test_reduce_reports_twist_mismatch_with_split_frame_message(heis_ext):
    # alpha(e*) loses its e*-part while alpha(e) = e; oracles.reduce_loop
    # words this "twist action on e* is inconsistent with its action on e"
    L, B_L, P_L = heis_ext
    alpha = L.alpha.copy()
    alpha[0, 0] = 0
    L0 = HomLieAlgebra(L.p, L.c, alpha, L.basis_names)
    with pytest.raises(FrameMismatch, match="^twist eigenvalues on e and e\\* disagree$"):
        reduce(L0, B_L, PStructure(L0, P_L.images), gfp.unit(8, 7))


def test_reduce_rejects_form_not_symmetric_on_the_frame(heis_ext):
    # B(e*, v) != B(v, e*) = 0: the frame's form block is not orthogonal, so
    # split_frame rejects what oracles.reduce_loop reduces anyway
    L, B_L, P_L = heis_ext
    gram = B_L.gram.copy()
    gram[0, 1] = 1
    assert oracles.reduce_loop(L, BilinearForm(gram, 2), P_L, gfp.unit(8, 7)).V.n == 6
    with pytest.raises(FrameMismatch, match="V block is not orthogonal to the frame lines"):
        reduce(L, BilinearForm(gram, 2), P_L, gfp.unit(8, 7))


def _commuting_involution_pair(p: int, seed: int):
    """alpha = S diag(1,1,1,-1,-1,-1) S^-1 and D = S blockdiag(M1, M2) S^-1 on
    GF(p)^6, computed exactly, so D commutes with the involution alpha."""
    rng = np.random.default_rng(seed)
    S_inv = None
    while S_inv is None:
        S = rng.integers(0, p, size=(6, 6))
        S_inv = gfp.mat_inv(S, p)
    block = np.zeros((6, 6), dtype=np.int64)
    block[:3, :3] = rng.integers(0, p, size=(3, 3))
    block[3:, 3:] = rng.integers(0, p, size=(3, 3))
    diag = np.diag([1, 1, 1, p - 1, p - 1, p - 1])
    return oracles.product_exact(p, S, diag, S_inv), oracles.product_exact(p, S, block, S_inv)


def test_chained_products_do_not_wrap_at_the_largest_p():
    """dim * (p-1)^2 is just below 2^63 here, so a product of two reduced
    matrices fits int64 but a chain of three does not: alpha_D_squared
    reduces after every factor and agrees with Python integers."""
    p, n = 1239850223, 6
    alpha, dm = _commuting_involution_pair(p, 4)
    assert n * (p - 1) ** 2 < 2**63
    exact = (oracles.product_exact(p, alpha, dm, dm) - oracles.product_exact(p, dm, dm, alpha)) % p
    assert not exact.any()
    V = HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), alpha)
    B = BilinearForm(gfp.eye(n), p)
    rep = check_extension_data(V, B, DoubleExtensionData(Derivation(dm, p), gfp.zeros(n), 1, 0))
    assert rep.check("alpha_D_squared").ok


def test_check_P_conditions_folds_every_row_in_one_call(heis, sl2, monkeypatch):
    """The rows u, w and u + w go through one fold call (`_P_rows`, the
    body of eval_P_batch), and the report equals the one-call-per-row-set
    reference, failures included
    (a random B and D at p = 3 make P_additivity fail).  Every case takes
    the sampled route: heisenberg-dual's D plus one off-diagonal unit
    leaves B not D-invariant, and sl2-gf5 with D = E11 and the random input
    make V + Ke no Hom-Lie algebra."""
    rng = np.random.default_rng(31)
    c = rng.integers(0, 3, size=(4, 4, 4))
    V = HomLieAlgebra(3, (c - c.transpose(1, 0, 2)) % 3, gfp.eye(4))
    bad = (V, BilinearForm(rng.integers(0, 3, (4, 4)), 3), Derivation(rng.integers(0, 3, (4, 4)), 3),
           PExtensionData(0, gfp.zeros(4), 0, 0, gfp.zeros(4), [1, 2, 0, 1], 3))
    skew = Derivation((heis.D.mat + np.eye(6, k=1, dtype=np.int64)) % 2, 2)
    assert not d_invariant(heis.B, skew, 2)
    e11 = Derivation(np.diag([1, 0, 0]), 5)
    cases = {"heis": (heis.V, heis.B, skew, heis.pext), "sl2 E11": (sl2.g, sl2.B, e11, sl2.pext),
             "random": bad}
    calls, fold_P = [], doubleext._P_rows

    def counted(*args):
        calls.append(args)
        return fold_P(*args)

    for name, args in cases.items():
        calls.clear()
        monkeypatch.setattr(doubleext, "_P_rows", counted)
        got = check_P_conditions(*args, samples=40, seed=5)
        monkeypatch.undo()
        assert len(calls) == 1, name
        assert got.to_dict() == oracles.P_conditions_sampled(*args, 40, 5).to_dict(), name
        assert got.meta["regimes"]["P_additivity"] == "sampled", name
    assert not got.check("P_additivity").ok


def test_check_P_conditions_builds_V_plus_Ke_once(sl2, monkeypatch):
    """On the sampled odd-p route the W = V + Ke that decides P_additivity
    (sl2-gf5 with D = E11, not a Yau twist) is the one the fold and the
    cross term use: one _central_extension build, and the report is the
    one-call-per-row-set reference's."""
    builds, build = [], doubleext._central_extension
    monkeypatch.setattr(doubleext, "_central_extension", lambda *args: builds.append(args) or build(*args))
    args = (sl2.g, sl2.B, Derivation(np.diag([1, 0, 0]), 5), sl2.pext)
    rep = check_P_conditions(*args, samples=40, seed=5)
    assert rep.meta["regimes"]["P_additivity"] == "sampled" and len(builds) == 1
    monkeypatch.undo()
    assert rep.to_dict() == oracles.P_conditions_sampled(*args, 40, 5).to_dict()


def _sl2(p):
    """sl(2) over GF(p): [E, H] = -2E, [E, F] = H, [H, F] = -2F, with the
    invariant form B(E, F) = 1, B(H, H) = 2 and D = ad(H)."""
    brackets = {(0, 1): (-2 * gfp.unit(3, 0)) % p, (0, 2): gfp.unit(3, 1), (1, 2): (-2 * gfp.unit(3, 2)) % p}
    V = HomLieAlgebra.from_upper(p, 3, brackets)
    return V, BilinearForm([[0, 0, 1], [0, 2, 0], [1, 0, 0]], p), Derivation(np.diag([2, 0, p - 2]), p)


def _P_inputs(p, request, rng):
    """(name, V, B, D, L) inputs of check_P_conditions at p, with L a double
    extension of V by D for the former hypothesis (oracles.frames).  The
    fixtures carry their double extension; random alpha-derivations (B-skew
    or not), B-skew non-derivations and random matrices carry double_extend's
    bracket and twist for them, with random x0, lambda and lambda0, built
    without check_extension_data (oracles.double_extend_unchecked).  At
    p = 3 the V of the psl3 D3 extension is corrupted two ways, in a bracket
    and in the twist, so that V + Ke is no Yau twist."""
    heis, sl2 = request.getfixturevalue("heis"), request.getfixturevalue("sl2")
    if p == 2:
        bases = [(heis.V, heis.B, heis.D, request.getfixturevalue("heis_ext")[0])]
    elif p == 3:
        bases = [(d["V"], d["B"], d["D"], d["L"]) for d in request.getfixturevalue("psl3_pipelines").values()]
    elif p == 5:
        sp5 = request.getfixturevalue("sampled_p5")
        bases = [(sl2.g, sl2.B, sl2.D, request.getfixturevalue("sl2_ext")[0]),
                 (sp5["V"], sp5["B"], sp5["D"], sp5["L"])]
    else:
        V, B, D = _sl2(p)
        bases = [(V, B, D, double_extend(V, B, DoubleExtensionData(D, gfp.zeros(3), 1, 0))[0])]
    out = [(f"fixture {i}", V, B, D, L) for i, (V, B, D, L) in enumerate(bases)]
    spaces = {(id(V), id(B)): (V, B) for _, V, B, _, _ in out}  # psl3 and twisted psl3 at p = 3
    for i, (V, B) in enumerate(spaces.values()):
        n, ginv = V.n, gfp.mat_inv(B.gram, p)
        ders = oracles.alpha_derivations(V)
        skew = np.triu(rng.integers(0, p, (4, n, n)), 1)
        if p == 2:
            skew = skew + skew.transpose(0, 2, 1)  # alternating: symmetric with zero diagonal
        else:
            skew = skew - skew.transpose(0, 2, 1)
        maps = {"derivation": [rng.integers(0, p, len(ders)) @ ders.reshape(len(ders), -1) for _ in range(6)],
                "B-skew": [(ginv @ s).T for s in skew], "random": [rng.integers(0, p, (n, n)) for _ in range(3)]}
        for kind, mats in maps.items():
            for j, m in enumerate(mats):
                D = Derivation(np.reshape(m, (n, n)), p)
                lam, x0 = (1, gfp.zeros(n)) if j % 2 == 0 else (int(rng.integers(1, p)), rng.integers(0, p, n))
                L = oracles.double_extend_unchecked(V, B, D, x0, lam, int(rng.integers(0, p)))
                out.append((f"{i} {kind} {j}", V, B, D, L))
    if p == 3:
        d = request.getfixturevalue("psl3_pipelines")["D3"]
        c, alpha = d["V"].c.copy(), d["V"].alpha.copy()
        c[0, 1, 2], c[1, 0, 2] = (c[0, 1, 2] + 1) % p, (c[1, 0, 2] - 1) % p
        alpha[0, 1] = (alpha[0, 1] + 1) % p
        for name, V in (("corrupt V bracket", HomLieAlgebra(p, c, d["V"].alpha)),
                        ("corrupt V twist", HomLieAlgebra(p, d["V"].c, alpha))):
            out.append((name, V, d["B"], d["D"], oracles.double_extend_unchecked(V, d["B"], d["D"], gfp.zeros(7), 1, 0)))
    return out


def _former_hypothesis(L, V, B, D):
    return oracles.frames(L, V, B, D) and restricted._yau_twist(L)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_P_additivity_decision_equals_the_sampled_route(p, request):
    """Every input with random P_basis: an input the decision tallies
    "implied" passes the sampled route with the same counts; every other
    input gets the sampled route's report, counts, witnesses and values.
    The decision fires at p = 2 exactly when B is D-invariant, and at odd p
    exactly when W = V + Ke is a Yau twist; every input the former
    hypothesis decided, through a given double extension L, is decided."""
    rng = np.random.default_rng(90 + p)
    regimes = {"implied": 0, "sampled": 0}
    failing = former = 0
    for name, V, B, D, L in _P_inputs(p, request, rng):
        n = V.n
        pe = PExtensionData(0, gfp.zeros(n), 0, 0, gfp.zeros(n), rng.integers(0, p, n), p)
        got = check_P_conditions(V, B, D, pe, samples=40, seed=len(name))
        want = oracles.P_conditions_sampled(V, B, D, pe, 40, len(name))
        regime = got.meta["regimes"]["P_additivity"]
        hypothesis = d_invariant(B, D, p) if p == 2 else restricted._yau_twist(doubleext._central_extension(V, B, D))
        assert (regime == "implied") == hypothesis, name
        if p > 2 and _former_hypothesis(L, V, B, D):
            assert regime == "implied", name
            former += 1
        if regime == "implied":
            assert want.ok, name
            want.meta["regimes"]["P_additivity"] = "implied"
        assert got.to_dict() == want.to_dict(), name
        if p > 2 and (" B-skew " in name or " random " in name):  # no derivations: W is no Yau twist
            assert regime == "sampled" and not want.ok, name
        regimes[regime] += 1
        failing += not want.ok
    assert min(regimes.values()) >= 2 and failing >= 2, regimes
    assert p == 2 or regimes["implied"] > former >= 1  # W ignores x0 and lambda, which can break L
    if p == 3:  # the corrupted V's are decided by neither hypothesis
        for name, V, B, D, L in _P_inputs(p, request, rng):
            if name.startswith("corrupt"):
                assert not restricted._yau_twist(doubleext._central_extension(V, B, D)), name
                assert oracles.frames(L, V, B, D) and not restricted._yau_twist(L), name


@pytest.mark.parametrize("p", [3, 5, 7])
def test_former_hypothesis_can_decide_where_W_does_not(p):
    """The former decisions are kept when D commutes with alpha and B is
    alpha-invariant (README, "P_additivity is implied"), not otherwise: on
    abelian V = GF(p)^2 with alpha = diag(1, -1), B = I and D = [[0, -1],
    [1, 0]], which anticommutes with alpha, the L with lambda = -1 is a Yau
    twist, but W is not multiplicative, since B(D alpha a, alpha b) =
    -B(Da, b).  P_additivity is sampled there, and passes."""
    V = HomLieAlgebra(p, np.zeros((2, 2, 2), dtype=np.int64), np.diag([1, p - 1]))
    B, D = BilinearForm(gfp.eye(2), p), Derivation(np.array([[0, p - 1], [1, 0]]), p)
    L = oracles.double_extend_unchecked(V, B, D, gfp.zeros(2), p - 1, 0)
    assert _former_hypothesis(L, V, B, D)
    W = doubleext._central_extension(V, B, D)
    assert [c.name for c in verify_hom_lie(W).failing()] == ["multiplicativity"]
    rep = check_P_conditions(V, B, D, PExtensionData(0, gfp.zeros(2), 0, 0, gfp.zeros(2), [1, 2], p))
    assert rep.ok and rep.meta["regimes"]["P_additivity"] == "sampled"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_P_is_the_e_part_of_the_extension_fold(p, request):
    """For u, v in V, compute_s_batch(W, u, v)[i], W = V + Ke, has V-part
    compute_s_batch(V, u, v)[i] and e-coordinate compute_eta_batch(V, B, D,
    u, v)[i] (the oracle pairing), for every i, on every input of _P_inputs:
    the identity needs nothing of D.  restricted.compute_eta_batch(W, u, v),
    which eval_P_batch folds with, reads that coordinate.  The same holds in
    every double extension L that frames V (oracles.frames), whatever x0,
    lambda and lambda0 are, with a zero e*-coordinate."""
    rng = np.random.default_rng(70 + p)
    for name, V, B, D, L in _P_inputs(p, request, rng):
        n = V.n
        us, vs = rng.integers(0, p, (60, n)), rng.integers(0, p, (60, n))
        eta, sv = compute_eta_batch(V, B, D, us, vs), compute_s_batch(V, us, vs)
        W = doubleext._central_extension(V, B, D)
        s = compute_s_batch(W, np.pad(us, ((0, 0), (0, 1))), np.pad(vs, ((0, 0), (0, 1))))
        assert np.array_equal(s[:, :, :n], sv) and np.array_equal(s[:, :, n], eta), name
        assert np.array_equal(restricted.compute_eta_batch(W, us, vs), eta), name
        if not oracles.frames(L, V, B, D):
            continue
        s = compute_s_batch(L, np.pad(us, ((0, 0), (1, 1))), np.pad(vs, ((0, 0), (1, 1))))
        assert not s[:, :, 0].any(), name
        assert np.array_equal(s[:, :, 1:n + 1], sv), name
        assert np.array_equal(s[:, :, n + 1], eta), name


def test_double_extend_unchecked_is_double_extend(heis, sl2, psl3_pipelines):
    """The oracle's L is double_extend's, it frames V, and its block after
    e* is _central_extension's bracket."""
    cases = [(heis.V, heis.B, heis.ext), (sl2.g, sl2.B, sl2.ext)]
    cases += [(d["V"], d["B"], d["ext"]) for d in psl3_pipelines.values()]
    cases.append((heis.V, heis.B, DoubleExtensionData(heis.D, gfp.unit(6, 2), 1, 1)))
    for V, B, d in cases:
        L = double_extend(V, B, d)[0]
        raw = oracles.double_extend_unchecked(V, B, d.D, d.x0, d.lam, d.lam0)
        assert np.array_equal(raw.c, L.c) and np.array_equal(raw.alpha, L.alpha)
        assert oracles.frames(L, V, B, d.D)
        W = doubleext._central_extension(V, B, d.D)
        assert np.array_equal(L.c[1:, 1:, 1:], W.c) and W.basis_names == L.basis_names[1:]
        assert np.array_equal(W.alpha, np.pad(V.alpha, (0, 1)) + np.diag([0] * V.n + [1]))


def test_decided_P_additivity_evaluates_no_P(request, monkeypatch):
    """Inputs that meet the hypothesis call no P fold (`_P_rows`, which
    eval_P_batch runs) and no compute_eta_batch, through check_P_conditions, check_p_extension_data,
    extend_pstructure and the verify and p-extend commands; that includes sl2
    over GF(1009), where the sampled route folds 100 rows of p - 1 = 1008
    factors.  The hypothesis reads V, B and D only, so verify builds no
    double extension.  Inputs that fail it fold: sl2-gf5 with D = E11 (V + Ke
    is no Hom-Lie algebra) and heisenberg-dual with B not D-invariant."""
    from homext import cli

    calls = []
    for name in ("_P_rows", "compute_eta_batch"):
        real = getattr(doubleext, name)
        monkeypatch.setattr(doubleext, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    heis, sl2 = request.getfixturevalue("heis"), request.getfixturevalue("sl2")
    V, B, D = _sl2(1009)
    d1009 = DoubleExtensionData(D, gfp.zeros(3), 1, 0)
    pe1009 = PExtensionData(0, gfp.unit(3, 1), 0, 0, gfp.zeros(3), gfp.zeros(3), 1009)
    P1009 = PStructure(V, np.diag([0, 1, 0]))
    cases = [(heis.V, heis.B, heis.P, heis.ext, heis.pext), (sl2.g, sl2.B, sl2.P, sl2.ext, sl2.pext),
             (V, B, P1009, d1009, pe1009)]
    cases += [(d["V"], d["B"], d["P"], d["ext"], d["pe"]) for d in request.getfixturevalue("psl3_pipelines").values()]
    sp5 = request.getfixturevalue("sampled_p5")
    cases.append((sp5["V"], sp5["B"], sp5["P"], sp5["ext"], sp5["pe"]))
    for V_, B_, P_, d, pe in cases:
        rep = check_P_conditions(V_, B_, d.D, pe, samples=30)
        assert rep.ok and rep.meta["regimes"]["P_additivity"] == "implied"
        assert check_p_extension_data(V_, B_, P_, d, pe).ok
        L = double_extend(V_, B_, d)[0]
        assert extend_pstructure(L, V_, B_, P_, d, pe).images.shape == (V_.n + 2, V_.n + 2)
    assert calls == []
    skew = Derivation((heis.D.mat + np.eye(6, k=1, dtype=np.int64)) % 2, 2)
    for V_, B_, D_, pe in ((heis.V, heis.B, skew, heis.pext), (sl2.g, sl2.B, Derivation(np.diag([1, 0, 0]), 5), sl2.pext)):
        rep = check_P_conditions(V_, B_, D_, pe, samples=30)
        assert rep.meta["regimes"]["P_additivity"] == "sampled"
        assert calls and calls[0] == "_P_rows"
        calls.clear()

    built = []
    real_extend = cli.double_extend
    monkeypatch.setattr(cli, "double_extend", lambda *args: built.append(args[0].p) or real_extend(*args))
    path = request.getfixturevalue("tmp_path")
    for name in ("heisenberg-dual", "sl2-gf5", "psl3"):
        src = path / f"{name}.json"
        assert cli.main(["fixture", name, "--out", str(src)]) == 0
        assert cli.main(["verify", str(src)]) == 0
        assert cli.main(["p-extend", str(src), "--out", str(path / f"{name}-L.json")]) == 0
    assert calls == []
    assert built == [2, 5, 3]  # p-extend builds L; verify builds none
