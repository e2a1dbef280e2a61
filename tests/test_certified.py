"""Exhaustive checks decided on the points of weight <= p.

A polynomial map of degree <= d on GF(p)^N that vanishes on every point
with at most d nonzero coordinates vanishes everywhere.
restricted.tally_domain relies on it with d = p.  These tests pin the
lemma, and check that every report the helper produces equals the report
of the full domain, on passing and on failing input.  verify_pstructure's
basis decision for invertible alpha is compared with the same full-domain
reports, and in the sampled regime with the domain route at equal seed.
"""

import itertools

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homext import gfp, isom, restricted
from homext.report import rows
from homext.algebra import Derivation, HomLieAlgebra
from homext.isom import build_adapted_iso, verify_restricted_iso
from homext.restricted import (
    PStructure,
    compute_s_batch,
    eval_p_all,
    is_restricted_derivation,
    restricted_defect_batch,
    verify_pstructure,
)

# The lemma ------------------------------------------------------------------


def _evaluate(p, monomials, coeffs, xs):
    """sum_t coeffs[t] * prod_i x_i^monomials[t][i] per row, mod p: [rows, m]."""
    out = np.zeros((xs.shape[0], coeffs.shape[1]), dtype=np.int64)
    for expo, coef in zip(monomials, coeffs):
        term = np.ones(xs.shape[0], dtype=np.int64)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = (term * xs[:, i]) % p
        out = (out + term[:, None] * coef) % p
    return out


@st.composite
def polynomial_maps(draw):
    """A random map GF(p)^N -> GF(p)^m of total degree <= d: p in {2, 3, 5},
    N <= 6, d <= N + 1, exponents up to d (so x_i^p - x_i, which is zero
    as a function, can occur)."""
    p = draw(st.sampled_from([2, 3, 5]))
    N = draw(st.integers(1, 6 if p < 5 else 5))
    d = draw(st.integers(0, N + 1))
    m = draw(st.integers(1, 3))
    # a monomial of degree t <= d: t variable indices, with repetition
    expo = st.integers(0, d).flatmap(lambda t: st.lists(st.integers(0, N - 1), min_size=t, max_size=t)).map(
        lambda idx: [idx.count(i) for i in range(N)])
    monomials = draw(st.lists(expo, min_size=1, max_size=6))
    coeffs = np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                                    min_size=len(monomials), max_size=len(monomials))), dtype=np.int64)
    return p, N, d, monomials, coeffs


@settings(max_examples=150, deadline=None)
@given(polynomial_maps())
def test_a_degree_d_map_that_vanishes_on_weight_d_vanishes_everywhere(case):
    p, N, d, monomials, coeffs = case
    everywhere = _evaluate(p, monomials, coeffs, gfp.all_vectors(N, p)).any()
    on_low = _evaluate(p, monomials, coeffs, gfp.low_weight(N, p, d)).any()
    assert on_low == everywhere


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_lemma_is_sharp_at_degree_p_plus_one(p):
    """x_1 ... x_{p+1} has degree p+1, is 0 on every point of weight <= p and
    1 at (1, ..., 1): the helper's d = p is the most the lemma allows."""
    N = p + 1
    monomials = [[1] * N]
    coeffs = np.ones((1, 1), dtype=np.int64)
    assert not _evaluate(p, monomials, coeffs, gfp.low_weight(N, p, p)).any()
    assert _evaluate(p, monomials, coeffs, np.ones((1, N), dtype=np.int64)).all()
    assert _evaluate(p, monomials, coeffs, gfp.low_weight(N, p, p + 1)).any()


@pytest.mark.parametrize("n,p,d,count", [(6, 2, 2, 22), (12, 2, 2, 79), (8, 2, 2, 37), (16, 2, 2, 137),
                                         (7, 3, 3, 379), (9, 3, 3, 835), (4, 5, 5, 625), (5, 3, 0, 1)])
def test_low_weight_rows(n, p, d, count):
    rows = gfp.low_weight(n, p, d)
    assert rows.shape == (count, n) and not rows.flags.writeable
    assert gfp.low_weight(n, p, d) is rows
    if p**n <= 20000:
        every = gfp.all_vectors(n, p)
        assert np.array_equal(rows, every[np.count_nonzero(every, axis=1) <= d])
    else:
        assert (np.count_nonzero(rows, axis=1) <= d).all()
        assert np.all(np.diff(gfp.vec_index(rows, p)) > 0)


# Reports: certified against the full domain -----------------------------------


def _corrupt_image(P, j, k):
    images = P.images.copy()
    images[j] = (images[j] + gfp.unit(P.parent.n, k)) % P.parent.p
    return PStructure(P.parent, images)


def _corrupt_bracket(P, i, j, k):
    """c[i, j, k] += 1 without the antisymmetric partner: R3 fails."""
    A = P.parent
    c = A.c.copy()
    c[i, j, k] = (c[i, j, k] + 1) % A.p
    return PStructure(HomLieAlgebra(A.p, c, A.alpha), P.images)


def _random_pstructure(p, n, seed, antisymmetric):
    rng = np.random.default_rng(seed)
    c = rng.integers(0, p, size=(n, n, n))
    if antisymmetric:
        c = (c - c.transpose(1, 0, 2)) % p
    return PStructure(HomLieAlgebra(p, c, rng.integers(0, p, size=(n, n))), rng.integers(0, p, size=(n, n)))


def _abelian_pstructure(p, n, seed):
    """c = 0 with random alpha and images: every axiom holds."""
    rng = np.random.default_rng(seed)
    A = HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), rng.integers(0, p, size=(n, n)))
    return PStructure(A, rng.integers(0, p, size=(n, n)))


@pytest.fixture(scope="module")
def exhaustive_pstructures(request):
    """Every fixture p-structure and extension (twisted psl3 included),
    heisenberg-dual V + two null lines (valid, non-abelian, alpha singular),
    the R1- and R3-failing corruptions of all but the D1 and D2 extensions
    (the D3 one stands for them), and random algebras with n <= 5."""
    heis, psl3, sl2 = (request.getfixturevalue(f) for f in ("heis", "psl3", "sl2"))
    out = {
        "heis V": heis.P,
        "heis V null": request.getfixturevalue("heis_null")[2],
        "heis L": request.getfixturevalue("heis_ext")[2],
        "psl3": psl3.P,
        "psl3_a": request.getfixturevalue("psl3_twisted")[2],
        "sl2 V": sl2.P,
        "sl2 L": request.getfixturevalue("sl2_ext")[2],
    }
    for name, pipe in request.getfixturevalue("psl3_pipelines").items():
        out[f"psl3 {name} L"] = pipe["P_L"]
    for name in [name for name in out if name not in ("psl3 D1 L", "psl3 D2 L")]:
        P = out[name]
        n = P.parent.n
        out[f"{name} image"] = _corrupt_image(P, 1, n - 2)
        out[f"{name} bracket"] = _corrupt_bracket(P, 0, n - 1, 1)
    for p, n, seeds in ((2, 5, 2), (3, 3, 2), (3, 4, 2), (3, 5, 1), (5, 2, 2), (5, 3, 1)):
        for seed in range(seeds):
            out[f"random p={p} n={n} #{seed}"] = _random_pstructure(p, n, seed, antisymmetric=True)
            out[f"random p={p} n={n} #{seed} skew"] = _random_pstructure(p, n, seed, antisymmetric=False)
            out[f"abelian p={p} n={n} #{seed}"] = _abelian_pstructure(p, n, seed)
    return out


def _fresh(P):
    """The same p-map without its cached table."""
    return PStructure(P.parent, P.images)


BASIS = {"r1": "basis", "r2": "implied", "r3": "implied"}


def _regimes(want, basis):
    """The regimes verify_pstructure reports for the oracle's report want:
    the basis ones, or the domain route's with R2 implied (never evaluated)."""
    return BASIS if basis else {**want.meta["regimes"], "r2": "implied"}


def _meets_hypothesis(P, rep):
    """The basis decision's hypothesis, by the oracles: alpha invertible, A a
    multiplicative Hom-Lie algebra, and R1 passing on the basis (rep's)."""
    A = P.parent
    return (oracles.mat_inv_loop(A.alpha, A.p) is not None and oracles.hom_jacobi_dense(A).ok
            and rep.check("r1_basis").ok)


def test_verify_pstructure_equals_the_full_domain(exhaustive_pstructures):
    """Every count, witness and value equals the domain route on every row;
    exactly the inputs that meet the hypothesis report the basis regimes,
    and the others the domain route's.  The oracle's R2 has no failure on
    any input (corruptions, singular alpha and non-alternating tensors
    included), so both routes report it implied."""
    verdicts = {"pass": 0, "r1": 0, "r3": 0}
    routes = {"basis": 0, "domain pass": 0, "domain fail": 0}
    for name, P in exhaustive_pstructures.items():
        got = verify_pstructure(_fresh(P), samples=30, seed=11).to_dict()
        want = oracles.pstructure_rows(P, samples=30, seed=11)
        # the fold is p-homogeneous: R2, evaluated on every vector and k, never fails
        assert want.check("r2").failed == 0, name
        basis = _meets_hypothesis(P, want)
        want.meta["regimes"] = _regimes(want, basis)
        assert got == want.to_dict(), name
        failing = {c["name"] for c in got["checks"] if c["status"] == "fail"}
        verdicts["pass"] += not failing
        verdicts["r1"] += "r1" in failing
        verdicts["r3"] += "r3" in failing
        routes["basis" if basis else "domain fail" if failing else "domain pass"] += 1
    assert min(verdicts.values()) >= 5, verdicts  # both routes are exercised
    assert min(routes.values()) >= 5, routes
    assert verify_pstructure(exhaustive_pstructures["heis V null"]).meta["regimes"] == {
        "r1": "exhaustive", "r2": "implied", "r3": "exhaustive"}


@pytest.mark.parametrize("name", ["sampled_p5", "wide_char2"])
def test_basis_decision_equals_the_sampled_domain_route(request, name):
    """Past the exhaustive limit: the counts of the sampled domain route at
    equal seed and samples, on V and L and on an image corruption of each;
    an input that fails basis R1 keeps the domain route's whole report."""
    data = request.getfixturevalue(name)
    routes = []
    for P in (data["P"], data["P_L"]):
        k = int(np.flatnonzero(P.parent.c.any(axis=(1, 2)))[0])  # e_k is not central: ad(e_k) != 0
        for Q in (P, _corrupt_image(P, 1, k)):
            got = verify_pstructure(_fresh(Q), samples=25, seed=7).to_dict()
            want = oracles.pstructure_rows(Q, samples=25, seed=7)
            assert set(want.meta["regimes"].values()) == {"sampled"}
            basis = _meets_hypothesis(Q, want)
            want.meta["regimes"] = _regimes(want, basis)
            assert got == want.to_dict()
            routes.append(basis)
    assert routes[::2] == [True, True] and routes[1::2] == [False, False], routes


def _full_only(rep, name, regime, P, xs, pmaps, sides, pairs=False):
    """tally_domain without the weight-<=p decision: every row of the domain
    (every x-major pair of an exhaustive pair check) is evaluated."""
    p, n = P.parent.p, P.parent.n
    if pairs and regime == "exhaustive":
        i, j = np.array(list(itertools.product(range(len(xs)), repeat=2))).T
        xs = np.hstack([xs[i], xs[j]])
    lhs, rhs = sides(xs, *pmaps)
    failed = ((lhs - rhs) % p).reshape(len(xs), -1).any(axis=1)
    return rep.tally(name, failed, lhs, rhs, witness=rows(*((xs[:, :n], xs[:, n:]) if pairs else (xs,))))


def test_is_restricted_derivation_equals_the_full_domain(exhaustive_pstructures, psl3, psl3_twisted):
    cases = [(psl3.g, psl3.P, D) for D in psl3.derivations.values()]
    cases += [(psl3_twisted[0], psl3_twisted[2], D) for D in psl3_twisted[3].values()]
    rng = np.random.default_rng(5)
    for name, P in exhaustive_pstructures.items():
        A = P.parent
        if A.p**A.n < 3**9 or name == "psl3 D3 L":
            cases += [(A, P, Derivation(m, A.p)) for m in (gfp.eye(A.n), rng.integers(0, A.p, size=(A.n, A.n)))]
    verdicts = [is_restricted_derivation(A, _fresh(P), D) for A, P, D in cases]
    assert verdicts == [oracles.restricted_derivation_rows(A, P, D) for A, P, D in cases]
    assert True in verdicts and False in verdicts


def _random_derivations(A, k, count, rng, P=None, basis=None):
    """count random elements of the alpha^k-derivation space of A, or of the
    span of basis; with P, of its subspace on whose basis the
    restricted-derivation defect of P vanishes (the defect is linear in D)."""
    basis = oracles.alpha_derivations(A, k) if basis is None else basis
    if P is not None:
        defects = [restricted_defect_batch(A, Derivation(m, A.p, k), gfp.eye(A.n), P.images).ravel()
                   for m in basis]
        basis = np.tensordot(gfp.null_basis(np.array(defects).T, A.p), basis, axes=1) % A.p
    return [Derivation(np.tensordot(rng.integers(0, A.p, len(basis)), basis, axes=1), A.p, k)
            for _ in range(count)]


def test_restricted_derivation_basis_decision_equals_the_full_domain(request):
    """Random degree-1 alpha-derivations of inputs with invertible alpha,
    which the basis decides, then random alpha-derivations of the null-line
    inputs (singular alpha) and of degrees 0 and 2, which walk the domain.
    Each runs with the true images and with random ones, drawn from the
    whole derivation space and from its subspace with no basis defect; linear
    maps with no basis defect, most of them no derivations, walk the domain
    too.  Every verdict equals the full-domain oracle."""
    rng = np.random.default_rng(23)
    heis, psl3, sl2 = (request.getfixturevalue(f) for f in ("heis", "psl3", "sl2"))
    inputs = {"heis V": heis.P, "heis L": request.getfixturevalue("heis_ext")[2], "sl2 V": sl2.P,
              "sl2 L": request.getfixturevalue("sl2_ext")[2], "psl3 V": psl3.P,
              "psl3_a V": request.getfixturevalue("psl3_twisted")[2]}
    runs = [(name, 1) for name in inputs]
    inputs.update({"heis V null": request.getfixturevalue("heis_null")[2],
                   "sl2 L null": request.getfixturevalue("sl2_null")[2]})
    runs += [("heis V null", 1), ("sl2 L null", 1), ("psl3_a V", 0), ("psl3_a V", 2), ("heis L", 2)]
    verdicts = {True: 0, False: 0}
    for name, k in runs:
        A = inputs[name].parent
        maps = np.eye(A.n * A.n, dtype=np.int64).reshape(-1, A.n, A.n)
        for Q in (inputs[name], PStructure(A, rng.integers(0, A.p, size=(A.n, A.n)))):
            draws = [_random_derivations(A, k, 2, rng, *args) for args in ((), (Q,), (Q, maps))]
            for D in sum(draws, []):
                got = is_restricted_derivation(A, _fresh(Q), D)
                assert got == oracles.restricted_derivation_rows(A, Q, D), (name, k)
                verdicts[got] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_restricted_derivation_on_the_basis_draws_tables_and_folds_nothing(request, monkeypatch):
    """An input that meets the hypothesis is decided on the basis: no domain
    is drawn, no eval_p_all table built and no row folded, passing or
    failing, in the exhaustive and the sampled regime.  Singular alpha (the
    null lines) and a degree-2 derivation walk the domain."""
    calls = []
    for name in ("domain", "eval_p_all", "fold"):
        real = getattr(restricted, name)
        monkeypatch.setattr(restricted, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    heis, sl2, sampled_p5 = (request.getfixturevalue(f) for f in ("heis", "sl2", "sampled_p5"))
    ga, _, pa, derivs = request.getfixturevalue("psl3_twisted")
    decided = [(heis.V, heis.P, heis.D, True), (sl2.g, sl2.P, sl2.D, True),
               (sampled_p5["V"], sampled_p5["P"], sampled_p5["D"], True),
               (heis.V, heis.P, Derivation((heis.D.mat + gfp.eye(6)) % 2, 2), False)]
    decided += [(ga, pa, D, True) for D in derivs.values()]
    for A, P, D, want in decided:
        assert is_restricted_derivation(A, _fresh(P), D, samples=40) == want
    assert calls == []
    W, _, P_W = request.getfixturevalue("heis_null")
    for A, P, D in ((W, P_W, Derivation(np.pad(heis.D.mat, (0, 2)), 2)),
                    (heis.V, heis.P, Derivation(heis.D.mat, 2, k=2))):
        calls.clear()
        assert is_restricted_derivation(A, _fresh(P), D)
        assert calls[:2] == ["domain", "eval_p_all"], calls


def _iso_cases(heis, heis_ext, psl3_pipelines):
    from test_isom import heis_instances, psl3_instances, transported_pstructure

    L, B_L, P_L = heis_ext
    out = [("heis identity", L, B_L, L, B_L, P_L, P_L, gfp.eye(8))]
    for i, (iso, Lt, B_Lt) in enumerate(heis_instances(heis, 3, seed=0xE7)):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        out.append((f"heis #{i}", L, B_L, Lt, B_Lt, P_L, P_Lt, pi))
        out.append((f"heis #{i} corrupted", L, B_L, Lt, B_Lt, P_L, _corrupt_image(P_Lt, 2, 7), pi))
    data = psl3_pipelines["D3"]
    L3, B3, P3 = data["L"], data["B_L"], data["P_L"]
    out.append(("psl3 identity", L3, B3, L3, B3, P3, P3, gfp.eye(9)))
    out.append(("psl3 corrupted", L3, B3, L3, B3, P3, _corrupt_image(P3, 0, 4), gfp.eye(9)))
    for i, (iso, Lt, B_Lt) in enumerate(psl3_instances(data, 2, seed=0xF2)):
        pi = build_adapted_iso(L3, B3, Lt, B_Lt, iso)
        out.append((f"psl3 #{i}", L3, B3, Lt, B_Lt, P3, transported_pstructure(L3, P3, Lt, pi), pi))
    return out


def test_verify_restricted_iso_equals_the_full_domain(heis, heis_ext, psl3_pipelines, monkeypatch):
    """The whole report equals the one of the full-domain route, and the
    direct check equals the per-row oracle."""
    cases = _iso_cases(heis, heis_ext, psl3_pipelines)
    got = [verify_restricted_iso(L, B, Lt, Bt, _fresh(P), _fresh(Pt), pi, samples=20).to_dict()
           for _, L, B, Lt, Bt, P, Pt, pi in cases]
    monkeypatch.setattr(isom, "tally_domain", _full_only)
    full = [verify_restricted_iso(L, B, Lt, Bt, _fresh(P), _fresh(Pt), pi, samples=20).to_dict()
            for _, L, B, Lt, Bt, P, Pt, pi in cases]
    direct = {"pass": 0, "fail": 0}
    for (name, _, _, _, _, P, Pt, pi), g, f in zip(cases, got, full):
        assert g == f, name
        want = oracles.iso_direct_rows(P, Pt, pi).check("direct").to_dict()
        assert next(c for c in g["checks"] if c["name"] == "direct") == want, name
        direct[want["status"]] += 1
    assert min(direct.values()) >= 2, direct


def test_verify_pstructure_equals_its_full_domain_route(exhaustive_pstructures, monkeypatch):
    """verify_pstructure against its own full-domain route (the same sides
    on every row, p-images read from the eval_p_all table), too."""
    names = [n for n in exhaustive_pstructures if n.startswith(("heis L", "psl3 D3", "random p=3 n=4"))]
    got = [verify_pstructure(_fresh(exhaustive_pstructures[n])).to_dict() for n in names]
    monkeypatch.setattr(restricted, "tally_domain", _full_only)
    full = [verify_pstructure(_fresh(exhaustive_pstructures[n])).to_dict() for n in names]
    for name, g, f in zip(names, got, full):
        assert g == f, name


# Work: the weight-<=p rows only, unless a check fails ---------------------------


def test_passing_r3_evaluates_the_weight_two_pairs_only(heis_ext, heis_null, monkeypatch):
    """R3 on heisenberg-dual V + two null lines (dim 8, alpha singular) is
    exhaustive over 2^16 pairs: a passing check runs compute_s on the 137
    pairs of weight <= 2 only; a failing one (a bracket corruption of heis L,
    no Hom-Lie algebra) falls back to every pair.  heis L itself is decided
    on the basis and runs no compute_s."""
    P = _fresh(heis_null[2])
    bad = _corrupt_bracket(_fresh(heis_ext[2]), 0, 7, 1)
    calls = []

    def counted(A, xs, ys):
        calls.append(len(xs))
        return compute_s_batch(A, xs, ys)

    for Q in (P, bad):
        eval_p_all(Q)  # the table's own compute_s calls are not R3's
    monkeypatch.setattr(restricted, "compute_s_batch", counted)
    rep = verify_pstructure(P)
    assert rep.ok and rep.check("r3").passed == 2**16
    assert calls == [137]
    calls.clear()
    rep = verify_pstructure(bad)
    assert not rep.check("r3").ok and rep.check("r3").passed + rep.check("r3").failed == 2**16
    assert calls == [137, 2**16]
    calls.clear()
    rep = verify_pstructure(_fresh(heis_ext[2]))
    assert rep.ok and rep.check("r3").passed == 2**16 and rep.meta["regimes"] == BASIS
    assert calls == []


def test_passing_r1_evaluates_the_weight_p_vectors_only(psl3_pipelines, psl3_null, monkeypatch):
    """R1 on psl(3) + two null lines (dim 9, alpha singular) runs its tower
    on the 835 vectors of weight <= 3, not on all 3^9 vectors; a failing R1
    (an image corruption of the dim-9 psl3 extension) walks all of them.
    The extension itself is decided on the basis: one tower, of the basis."""
    P = _fresh(psl3_null[2])
    bad = _corrupt_image(_fresh(psl3_pipelines["D3"]["P_L"]), 4, 2)
    calls = []
    tower = restricted.r1_defect_batch

    def counted(A, xs, images):
        calls.append(len(xs))
        return tower(A, xs, images)

    monkeypatch.setattr(restricted, "r1_defect_batch", counted)
    assert verify_pstructure(P).check("r1").passed == 3**9
    assert calls == [9, 835]  # the basis, then the certified rows
    calls.clear()
    assert not verify_pstructure(bad).check("r1").ok
    assert calls == [9, 835, 3**9]
    calls.clear()
    rep = verify_pstructure(_fresh(psl3_pipelines["D3"]["P_L"]))
    assert rep.check("r1").passed == 3**9 and rep.meta["regimes"] == BASIS
    assert calls == [9]


def test_low_weight_pairs_are_pairs_of_low_weight_vectors():
    """A pair (x, y) of weight <= p in GF(p)^(2n) has x, y and x + y of
    weight <= p, so the certified R3 reads only the weight-<=p table rows."""
    for n, p in ((4, 2), (3, 3), (6, 2)):
        zs = gfp.low_weight(2 * n, p, p)
        for part in (zs[:, :n], zs[:, n:], (zs[:, :n] + zs[:, n:]) % p):
            assert (np.count_nonzero(part, axis=1) <= p).all()
        assert len(zs) == sum(len(list(itertools.combinations(range(2 * n), k))) * (p - 1) ** k
                              for k in range(p + 1))
