import tracemalloc

import numpy as np
import oracles
import pytest
from oracles import compute_eta, compute_eta_batch

from homext import doubleext, gfp, isom, restricted
from homext.algebra import BilinearForm, Derivation, HomLieAlgebra
from homext.doubleext import PExtensionData, eval_P_batch
from homext.restricted import (
    PStructure,
    PPropertyWitness,
    check_p_property,
    compute_s,
    compute_s_batch,
    domain,
    eval_p,
    eval_p_all,
    eval_p_batch,
    fold,
    is_restricted_derivation,
    r1_defect_batch,
    restricted_defect_batch,
    solve_p_property,
    verify_pstructure,
)
from homext.isom import verify_restricted_iso
from homext.report import Report, rows
from homext.rng import SplitMix64
from test_certified import _corrupt_bracket
from test_doubleext import _sl2


def test_compute_s_char2_is_bracket(heis):
    rng = SplitMix64(1)
    for _ in range(60):
        x, y = rng.vec(6, 2), rng.vec(6, 2)
        (s1,) = compute_s(heis.V, x, y)
        assert np.array_equal(s1, heis.V.bracket(y, x))


def test_compute_s_char3_closed_form(psl3_twisted):
    ga, _, _, _ = psl3_twisted
    rng = SplitMix64(2)
    for _ in range(60):
        x, y = rng.vec(7, 3), rng.vec(7, 3)
        s1, s2 = compute_s(ga, x, y)
        base = ga.bracket(y, x)
        assert np.array_equal(s1, ga.bracket(ga.apply_alpha(y), base))
        assert np.array_equal(s2, (gfp.inv(2, 3) * ga.bracket(ga.apply_alpha(x), base)) % 3)


def test_compute_s_of_equal_arguments_vanishes(heis, psl3, sl2):
    rng = SplitMix64(3)
    for A in (heis.V, psl3.g, sl2.g):
        for _ in range(20):
            x = rng.vec(A.n, A.p)
            for s in compute_s(A, x, x):
                assert not s.any()


def test_compute_s_batch_matches_scalar(heis, psl3_twisted, sl2):
    # the formal-tower kernel against the independent PolyVec route
    ga, _, _, _ = psl3_twisted
    rng = SplitMix64(4)
    for A in (ga, sl2.g, heis.V):
        xs = np.stack([rng.vec(A.n, A.p) for _ in range(40)])
        ys = np.stack([rng.vec(A.n, A.p) for _ in range(40)])
        batch = compute_s_batch(A, xs, ys)
        assert batch.shape == (40, A.p - 1, A.n)
        for m in range(40):
            for i, s in enumerate(oracles.compute_s_polyvec(A, xs[m], ys[m])):
                assert np.array_equal(batch[m, i], s)


def test_eval_p_heisenberg_closed_formula(heis):
    # all 64 vectors against the stated closed formula
    for v in gfp.all_vectors(6, 2):
        assert np.array_equal(eval_p(heis.P, v), oracles.heis_table_p2(v))


def test_eval_p_examples(heis, psl3):
    assert np.array_equal(eval_p(heis.P, [1, 1, 0, 0, 0, 0]), gfp.unit(6, 2))
    assert not eval_p(heis.P, gfp.zeros(6)).any()
    assert np.array_equal(eval_p(psl3.P, gfp.unit(7, 0)), gfp.unit(7, 0))


def test_eval_p_basis_consistency(heis, psl3, sl2):
    for P in (heis.P, psl3.P, sl2.P):
        n = P.parent.n
        for j in range(n):
            assert np.array_equal(eval_p(P, gfp.unit(n, j)), P.images[j])


def test_eval_p_r2_homogeneity(psl3_twisted):
    _, _, pa, _ = psl3_twisted
    rng = SplitMix64(5)
    for _ in range(50):
        x = rng.vec(7, 3)
        base = eval_p(pa, x)
        for k in range(3):
            assert np.array_equal(eval_p(pa, (k * x) % 3), (pow(k, 3, 3) * base) % 3)


def _eval_p_descending(P, x):
    # reversed-order fold: same combination rule, basis index descending
    A = P.parent
    p, n = A.p, A.n
    acc_vec = gfp.zeros(n)
    acc_img = gfp.zeros(n)
    started = False
    for j in reversed(range(n)):
        lam = int(x[j])
        if lam == 0:
            continue
        part = (lam * gfp.unit(n, j)) % p
        part_img = (pow(lam, p, p) * P.images[j]) % p
        if started:
            acc_img = (acc_img + part_img + sum(compute_s(A, acc_vec, part))) % p
        else:
            acc_img = part_img
            started = True
        acc_vec = (acc_vec + part) % p
    return acc_img


def test_eval_p_fold_order_independence(heis, psl3_twisted, sl2):
    _, _, pa, _ = psl3_twisted
    rng = SplitMix64(6)
    for P in (heis.P, pa, sl2.P):
        n, p = P.parent.n, P.parent.p
        for _ in range(500):
            x = rng.vec(n, p)
            assert np.array_equal(eval_p(P, x), _eval_p_descending(P, x))


def test_eval_p_batch_matches_scalar(psl3_twisted):
    # the row-skipping batch fold against the one-vector PolyVec fold, on a
    # batch that mixes unit vectors, the zero vector and random rows
    _, _, pa, _ = psl3_twisted
    rng = SplitMix64(7)
    xs = np.vstack([gfp.eye(7), gfp.zeros(7)[None, :], (2 * gfp.eye(7)) % 3,
                    np.stack([rng.vec(7, 3) for _ in range(50)])])
    batch = eval_p_batch(pa, xs)
    for m in range(xs.shape[0]):
        assert np.array_equal(batch[m], oracles.eval_p_fold(pa, xs[m]))
        assert np.array_equal(batch[m], eval_p(pa, xs[m]))


def test_verify_pstructure_fixtures(heis, psl3):
    rep = verify_pstructure(heis.P)
    assert rep.ok
    assert rep.check("r1").passed == 64
    assert rep.check("r3").passed == 4096
    assert verify_pstructure(psl3.P).ok


def test_verify_pstructure_detects_corruption(heis):
    images = heis.P.images.copy()
    images[1] = gfp.unit(6, 1)  # y^[2] = y: ad(y) != ad(y)^2, so R1 breaks on y
    rep = verify_pstructure(PStructure(heis.V, images))
    assert not rep.check("r1_basis").ok
    assert any(f.witness == (1,) for f in rep.check("r1_basis").failures)


def test_central_image_shift_is_another_valid_pstructure(heis):
    # p-structures are a torsor over semilinear maps into the center: moving
    # y^[2] from 0 to the central z still satisfies R1-R3 everywhere
    images = heis.P.images.copy()
    images[1] = gfp.unit(6, 2)
    assert verify_pstructure(PStructure(heis.V, images)).ok


def test_is_restricted_derivation(heis, psl3):
    zero = Derivation(np.zeros((6, 6), dtype=np.int64), 2)
    assert is_restricted_derivation(heis.V, heis.P, zero)
    assert is_restricted_derivation(heis.V, heis.P, heis.D)
    for D in psl3.derivations.values():
        assert is_restricted_derivation(psl3.g, psl3.P, D)
    not_restricted = Derivation(psl3.g.ad(gfp.unit(7, 1)), 3)
    # inner derivations of a restricted Lie algebra are restricted; perturb one
    bad = Derivation((not_restricted.mat + np.diag([1, 0, 0, 0, 0, 0, 0])) % 3, 3)
    assert not is_restricted_derivation(psl3.g, psl3.P, bad)


def test_p_property_witnesses(heis, psl3):
    z = gfp.unit(6, 2)
    assert check_p_property(heis.V, heis.D, PPropertyWitness(1, z, 2))
    w = solve_p_property(heis.V, heis.D)
    assert w is not None and w.xi == 1
    assert check_p_property(heis.V, heis.D, w)
    zero = Derivation(np.zeros((6, 6), dtype=np.int64), 2)
    w0 = solve_p_property(heis.V, zero)
    assert w0.xi == 0 and not w0.a0.any()
    want = {"D1": 0, "D2": 0, "D3": 1}
    for name, D in psl3.derivations.items():
        w = solve_p_property(psl3.g, D)
        assert w is not None
        assert w.xi == want[name] and not w.a0.any()
        assert check_p_property(psl3.g, D, w)


def test_p_property_solver_roundtrip_on_twisted(psl3_twisted):
    ga, _, _, derivs = psl3_twisted
    want = {"D2": 0, "D3": 1}
    for name, D in derivs.items():
        w = solve_p_property(ga, D)
        assert w is not None and w.xi == want[name] and not w.a0.any()
        assert check_p_property(ga, D, w)


def test_compute_eta_trivial_cases(psl3_twisted):
    ga, ba, _, derivs = psl3_twisted
    D = derivs["D2"]
    rng = SplitMix64(8)
    v = rng.vec(7, 3)
    assert compute_eta(ga, ba, D, gfp.zeros(7), v) == [0, 0]
    zero = Derivation(np.zeros((7, 7), dtype=np.int64), 3)
    assert compute_eta(ga, ba, zero, rng.vec(7, 3), v) == [0, 0]


def test_compute_eta_interpolation_oracle(psl3_twisted):
    # evaluate the defining scalar polynomial at every lambda and interpolate
    ga, ba, _, derivs = psl3_twisted
    D = derivs["D2"]
    rng = SplitMix64(9)
    vand = np.array([[1, k, k * k] for k in range(3)], dtype=np.int64) % 3
    vinv = gfp.mat_inv(vand, 3)
    for _ in range(200):
        u, v = rng.vec(7, 3), rng.vec(7, 3)
        vals = []
        for lam in range(3):
            w = (lam * u + v) % 3
            vals.append(ba.eval(D(ga.apply_alpha(w)), ga.bracket(w, u)))
        q = (vinv @ np.array(vals)) % 3
        want = [int(q[0]) % 3, int(gfp.inv(2, 3) * q[1]) % 3]
        assert compute_eta(ga, ba, D, u, v) == want


def test_eta_batch_matches_scalar(psl3_twisted):
    ga, ba, _, derivs = psl3_twisted
    D = derivs["D3"]
    rng = SplitMix64(10)
    us = np.stack([rng.vec(7, 3) for _ in range(30)])
    vs = np.stack([rng.vec(7, 3) for _ in range(30)])
    batch = compute_eta_batch(ga, ba, D, us, vs)
    for m in range(30):
        assert list(batch[m]) == compute_eta(ga, ba, D, us[m], vs[m])


def test_solver_witness_always_checks(psl3):
    # inner derivations all carry the p-property; whatever the solver returns
    # must be accepted by the direct checker
    rng = SplitMix64(60)
    found = 0
    for _ in range(20):
        w = rng.vec(7, 3)
        D = Derivation(psl3.g.ad(w), 3)
        witness = solve_p_property(psl3.g, D)
        assert witness is not None
        assert check_p_property(psl3.g, D, witness)
        found += 1
    assert found == 20


def test_verify_pstructure_sampled_mode_deterministic(psl3_twisted, monkeypatch):
    _, _, pa, _ = psl3_twisted
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
    a = verify_pstructure(pa, samples=50, seed=7)
    b = verify_pstructure(pa, samples=50, seed=7)
    assert a.to_dict() == b.to_dict()
    c = verify_pstructure(pa, samples=50, seed=8)
    assert c.ok and a.ok


def test_eval_p_all_cache(heis):
    a = eval_p_all(heis.P)
    b = eval_p_all(heis.P)
    assert a is b
    assert np.array_equal(a[gfp.vec_index(np.array([1, 1, 0, 0, 0, 0]), 2)], gfp.unit(6, 2))


def _corrupted_psl3(psl3):
    images = psl3.P.images.copy()
    images[0] = (images[0] + gfp.unit(7, 3)) % 3
    return PStructure(psl3.g, images)


def _fixture_pstructures(request):
    heis, psl3, sl2 = (request.getfixturevalue(f) for f in ("heis", "psl3", "sl2"))
    out = {
        "heis V": heis.P,
        "heis L": request.getfixturevalue("heis_ext")[2],
        "psl3": psl3.P,
        "psl3_a": request.getfixturevalue("psl3_twisted")[2],
        "sl2 V": sl2.P,
        "sl2 L": request.getfixturevalue("sl2_ext")[2],
        "psl3 corrupted": _corrupted_psl3(psl3),
    }
    for name, pipe in request.getfixturevalue("psl3_pipelines").items():
        out[f"psl3 {name} L"] = pipe["P_L"]
    return out


def _random_pstructure(p, n, seed):
    """A non-abelian algebra with alpha != id and random images: at p > 3 the
    table's lam^(p-i) weights take more than two exponents."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, p, size=(n, n, n))
    c = (c - c.transpose(1, 0, 2)) % p
    alpha = rng.integers(0, p, size=(n, n))
    assert c.any() and not np.array_equal(alpha, gfp.eye(n))
    return PStructure(HomLieAlgebra(p, c, alpha), rng.integers(0, p, size=(n, n)))


def test_eval_p_all_prefix_table_matches_fold(request):
    cases = _fixture_pstructures(request)
    cases.update({f"random p={p} #{s}": _random_pstructure(p, 3, s) for p in (5, 7) for s in range(2)})
    for name, P in cases.items():
        fresh = PStructure(P.parent, P.images)  # build the table, not a cached one
        want = eval_p_batch(fresh, gfp.all_vectors(fresh.parent.n, fresh.parent.p))
        assert np.array_equal(eval_p_all(fresh), want), name


def test_table_regime_detects_corrupted_image(psl3):
    rep = verify_pstructure(_corrupted_psl3(psl3))
    assert rep.meta["regimes"]["r1"] == "exhaustive" and rep.meta["regimes"]["r2"] == "implied"
    assert not rep.check("r1").ok or not rep.check("r2").ok
    assert rep.check("r1").passed + rep.check("r1").failed == 3**7
    assert rep.check("r2").passed + rep.check("r2").failed == 3 * 3**7


BASIS = {"r1": "basis", "r2": "implied", "r3": "implied"}


def test_verify_pstructure_reports_regimes(heis, psl3, heis_null, psl3_null, monkeypatch):
    """The domain route on singular alpha (the null lines), the basis
    decision on the same algebras without them; each over the same sizes."""
    for P, basis in ((heis_null[2], False), (heis.P, True)):
        rep = verify_pstructure(P)
        assert rep.meta["regimes"] == (BASIS if basis else {"r1": "exhaustive", "r2": "implied", "r3": "exhaustive"})
        assert rep.meta["mode"] == "exhaustive"
        n = P.parent.n
        assert rep.ok and [rep.check(c).passed for c in ("r1", "r2", "r3")] == [2**n, 2**(n + 1), 2**(2 * n)]
    # psl(3) + two lines: 3^9 vectors fit the exhaustive limit, 3^18 pairs do not
    for P, basis in ((psl3_null[2], False), (psl3.P, True)):
        rep = verify_pstructure(P, samples=20)
        assert rep.meta["regimes"] == (BASIS if basis else {"r1": "exhaustive", "r2": "implied", "r3": "sampled"})
        assert rep.meta["mode"] == "sampled"
        assert rep.check("r3").passed == 20 and rep.check("r1").passed == 3**P.parent.n
    with monkeypatch.context() as m:
        m.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
        for P, basis in ((heis_null[2], False), (heis.P, True)):
            rep = verify_pstructure(P, samples=20)
            assert rep.meta["regimes"] == (BASIS if basis else {"r1": "sampled", "r2": "implied", "r3": "sampled"})
            assert rep.meta["mode"] == "sampled"
            assert rep.ok and [rep.check(c).passed for c in ("r1", "r2", "r3")] == [20, 40, 20]
    # 2^17 vectors exceed the limit, so R1 is sampled
    n = 17
    for alpha, basis in ((np.zeros((n, n)), False), (gfp.eye(n), True)):
        abelian = HomLieAlgebra(2, np.zeros((n, n, n), dtype=np.int64), alpha)
        rep = verify_pstructure(PStructure(abelian, np.zeros((n, n))), samples=20)
        assert rep.meta["regimes"] == (BASIS if basis else {"r1": "sampled", "r2": "implied", "r3": "sampled"})
        assert rep.meta["mode"] == "sampled"
        assert rep.ok and rep.check("r1").passed == 20


def test_domain_regimes(heis, monkeypatch):
    P = heis.P
    rng = SplitMix64(41)
    xs, pmap, regime = domain(P, 25, rng)
    assert regime == "exhaustive" and rng.state == SplitMix64(41).state
    assert np.array_equal(xs, gfp.all_vectors(6, 2))
    assert np.array_equal(pmap(xs), eval_p_batch(P, xs))
    with monkeypatch.context() as m:
        m.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
        xs, pmap, regime = domain(P, 25, rng)
    assert regime == "sampled"
    ref = SplitMix64(41)
    assert np.array_equal(xs, ref.mat(25, 6, 2)) and rng.state == ref.state
    assert np.array_equal(pmap(xs), eval_p_batch(P, xs))
    # 2^17 vectors exceed the limit, so the domain is sampled
    n = 17
    abelian = HomLieAlgebra(2, np.zeros((n, n, n), dtype=np.int64), gfp.eye(n))
    xs, _, regime = domain(PStructure(abelian, np.zeros((n, n))), 25, SplitMix64(41))
    assert regime == "sampled" and np.array_equal(xs, SplitMix64(41).mat(25, n, 2))


def test_sampled_regime_folds_its_domain_once(sl2_ext, sl2_null, monkeypatch):
    """In the sampled regime every p-map read of one call goes through
    eval_p_batch on one PStructure, and its kernel folds each distinct
    normalized row once: a second read of the drawn rows and the second
    route of an identity isomorphism add no kernel rows.  verify_pstructure
    and is_restricted_derivation walk their domain on the extension + a null
    line (singular alpha), where R2 reads no k*x row, and
    verify_restricted_iso on the extension with a corrupted bracket; on the
    extension itself verify_pstructure decides on the basis and draws and
    folds nothing."""
    L, B_L, P0 = sl2_ext
    p = L.p
    bad = _corrupt_bracket(P0, 1, 2, 1)
    draw, real_fold = restricted.domain, restricted.fold
    drawn, folded, kernel = [], [], []

    def counted_domain(*args):
        out = draw(*args)
        drawn.append(out[0])
        return out

    def counted_fold(p_, xs, images, cross, *rest):
        folded.append(np.asarray(xs))

        def counted(us, vs):
            kernel.append(len(us))
            return cross(us, vs)
        return real_fold(p_, xs, images, counted, *rest)

    for module in (restricted, isom):
        monkeypatch.setattr(module, "domain", counted_domain)
    monkeypatch.setattr(restricted, "fold", counted_fold)
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)  # 5^5 vectors are sampled too
    W = sl2_null[0]
    zero = Derivation(np.zeros((W.n, W.n)), p)
    runs = {  # name -> (run, its p-map, reads of the drawn rows)
        "verify_pstructure": (lambda P: verify_pstructure(P).ok, sl2_null[2], 1),
        "is_restricted_derivation": (lambda P: is_restricted_derivation(W, P, zero), sl2_null[2], 1),
        "verify_restricted_iso": (lambda P: verify_restricted_iso(P.parent, B_L, P.parent, B_L, P, P,
                                                                  gfp.eye(L.n)).ok, bad, 2),
    }
    for name, (run, Q, reads) in runs.items():
        drawn.clear()
        folded.clear()
        kernel.clear()
        assert run(PStructure(Q.parent, Q.images)), name
        (xs,) = drawn
        assert sum(np.array_equal(f, xs) for f in folded) == reads, name
        rows_in = _normalized(np.vstack(folded), p)
        assert sum(kernel) == len(_live_pairs(rows_in, Q.parent.inert)) > 0, name
        if name == "verify_pstructure":  # R2 is implied: no k*x row is read
            assert not any(np.array_equal(f, (k * xs) % p) for f in folded for k in range(p) if k != 1)
    drawn.clear()
    folded.clear()
    rep = verify_pstructure(PStructure(L, P0.images))
    assert rep.ok and rep.meta["regimes"] == BASIS and drawn == folded == []


def test_r2_and_p_homogeneity_are_never_evaluated(heis, heis_null, monkeypatch):
    """heisenberg-dual V + two null lines (alpha singular): the domain route
    of verify_pstructure reads its p-map on R1's vectors of weight <= 2 and
    on R3's three row sets of the pairs of weight <= 2, and on no k*x batch;
    check_P_conditions folds u, w and u + w in one `_P_rows` call of
    3*samples rows (its D sends one null line into the other, so B is not
    D-invariant and P_additivity is sampled).  R2 and P_homogeneity are
    still tallied over every k."""
    W, B, P = heis_null
    p, n = W.p, W.n
    draw, fold_P, reads, sizes = restricted.domain, doubleext._P_rows, [], []

    def spied_domain(*args):
        xs, pmap, regime = draw(*args)

        def spied(vs):
            reads.append(np.array(vs))
            return pmap(vs)
        return xs, spied, regime

    def counted(*args):
        sizes.append(len(args[-1]))
        return fold_P(*args)

    monkeypatch.setattr(restricted, "domain", spied_domain)
    rep = verify_pstructure(PStructure(W, P.images))
    assert rep.ok and rep.meta["regimes"] == {"r1": "exhaustive", "r2": "implied", "r3": "exhaustive"}
    assert rep.check("r2").passed == p * p**n
    low = gfp.low_weight(n, p, p)
    assert [len(vs) for vs in reads] == [len(low)] + [len(gfp.low_weight(2 * n, p, p))] * 3
    assert np.array_equal(reads[0], low)
    assert not any(np.array_equal(vs, (k * low) % p) for vs in reads for k in range(p) if k != 1)

    monkeypatch.setattr(doubleext, "_P_rows", counted)
    dm = np.zeros((n, n), dtype=np.int64)
    dm[:6, :6] = heis.D.mat
    dm[6, 7] = 1
    pe = PExtensionData(0, gfp.zeros(n), 0, 0, gfp.zeros(n), np.r_[heis.pext.P_basis, 0, 0], p)
    rep = doubleext.check_P_conditions(W, B, Derivation(dm, p), pe, samples=40, seed=5)
    assert sizes == [3 * 40]
    assert rep.meta["regimes"] == {"P_additivity": "sampled", "P_homogeneity": "implied"}
    assert (rep.check("P_homogeneity").passed, rep.check("P_homogeneity").failed) == (p * 40, 0)


def test_is_restricted_derivation_table_matches_fold(psl3, psl3_twisted):
    ga, _, pa, derivs = psl3_twisted
    inner = Derivation(psl3.g.ad(gfp.unit(7, 1)), 3)
    bad = Derivation((inner.mat + np.diag([1, 0, 0, 0, 0, 0, 0])) % 3, 3)
    cases = [(psl3.g, psl3.P, name, D) for name, D in psl3.derivations.items()]
    cases += [(ga, pa, name, D) for name, D in derivs.items()]
    cases.append((psl3.g, psl3.P, "bad", bad))
    xs = gfp.all_vectors(7, 3)
    for A, P, name, D in cases:
        folded = not restricted_defect_batch(A, D, xs, eval_p_batch(P, xs)).any()
        assert is_restricted_derivation(A, P, D) == folded == (name != "bad"), name


def test_pstructure_images_and_table_are_read_only(heis):
    P = PStructure(heis.V, heis.P.images)
    with pytest.raises(ValueError):
        P.images[0, 0] = 1
    with pytest.raises(ValueError):
        eval_p_all(P)[0, 0] = 1


def test_eval_p_frobenius_does_not_wrap():
    # (p-1)^p overflows int64 for p >= 17; x^[p] of an abelian algebra with
    # alpha = id is sum_j x_j^p e_j^[p] = sum_j x_j e_j^[p]
    p, n = 17, 2
    A = HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), gfp.eye(n))
    P = PStructure(A, [[1, 2], [3, 5]])
    xs = gfp.all_vectors(n, p)
    want = (xs @ P.images) % p
    assert np.array_equal(eval_p_batch(P, xs), want)
    assert np.array_equal(eval_p_all(P), want)
    assert np.array_equal(eval_p(P, [16, 16]), want[16 + 16 * p])


def test_pstructure_images_cannot_be_rebound(heis):
    # rebinding images after the table is built would leave the table stale:
    # on heisenberg with y^[2] = y, R1 would then pass from the old table
    P = PStructure(heis.V, heis.P.images)
    eval_p_all(P)
    other = heis.P.images.copy()
    other[1] = gfp.unit(6, 1)
    with pytest.raises(AttributeError):
        P.images = other
    with pytest.raises(AttributeError):
        P.parent = heis.V
    assert np.array_equal(P.images, heis.P.images)
    assert verify_pstructure(P).ok
    rep = verify_pstructure(PStructure(heis.V, other))
    assert rep.check("r1").failed == 32 and rep.check("r1").passed == 32


def _corrupt(P, j, k):
    images = P.images.copy()
    images[j] = (images[j] + gfp.unit(P.parent.n, k)) % P.parent.p
    return PStructure(P.parent, images)


def _exhaustive_cases(request):
    """Every exhaustive fixture p-structure, and corruptions of them where R1 fails."""
    out = _fixture_pstructures(request)
    pipes = request.getfixturevalue("psl3_pipelines")
    out["psl3 D3 L corrupted"] = _corrupt(pipes["D3"]["P_L"], 4, 2)
    out["sl2 L corrupted"] = _corrupt(request.getfixturevalue("sl2_ext")[2], 1, 0)
    out["heis L corrupted"] = _corrupt(request.getfixturevalue("heis_ext")[2], 0, 1)
    return out


def test_r1_report_matches_the_full_domain_tally(request):
    """R1's counts and witnesses equal a tally of the defect of every vector."""
    for name, P in _exhaustive_cases(request).items():
        A = P.parent
        xs, pmap, regime = domain(P, 10, SplitMix64(1))
        assert regime == "exhaustive", name
        imgs = pmap(xs)
        assert np.array_equal(imgs, eval_p_batch(P, xs)), name
        full = r1_defect_batch(A, xs, imgs)
        want = Report().tally("r1", full.any(axis=(1, 2)), full, 0, witness=rows(xs))
        got = verify_pstructure(P).check("r1")
        assert (got.passed, got.failed) == (want.passed, want.failed), name
        assert [f.witness for f in got.failures] == [f.witness for f in want.failures], name
        assert all(np.array_equal(f.lhs, g.lhs) for f, g in zip(got.failures, want.failures)), name
        if "corrupted" in name:
            assert got.failed > 0, name


def test_r1_slices_keep_every_count_and_witness(request, monkeypatch):
    """r1_defect_batch in slices of one row and of seven rows equals the
    whole batch, and verify_pstructure's report, witnesses and values
    included, does not change (exhaustive and sampled regimes)."""
    cases = {name: P for name, P in _inert_cases(request).items() if "corrupted" in name}
    assert {"psl3 corrupted", "sampled_p5 L corrupted", "wide_char2 L corrupted"} <= set(cases)
    for name, P in cases.items():
        A = P.parent
        xs = np.random.default_rng(4).integers(0, A.p, size=(30, A.n))
        imgs = eval_p_batch(P, xs)
        whole, want = r1_defect_batch(A, xs, imgs), verify_pstructure(P, samples=40).to_dict()
        assert not want["summary"]["ok"], name
        for rows_per_slice in (1, 7):
            with monkeypatch.context() as m:
                m.setattr(restricted, "_R1_ELEMENTS", rows_per_slice * A.n**2)
                assert np.array_equal(r1_defect_batch(A, xs, imgs), whole), (name, rows_per_slice)
                assert verify_pstructure(P, samples=40).to_dict() == want, (name, rows_per_slice)


def test_r1_defect_batch_memory_is_bounded_by_its_slices(wide_char2):
    """3,000 sampled rows of the wide-char2 L (n = 40): besides the 38.4 MB
    result, the [rows, n, n] temporaries stay within a few slices of
    _R1_ELEMENTS entries.  The whole batch at once held four arrays of the
    result's size."""
    A, P = wide_char2["L"], wide_char2["P_L"]
    xs = np.random.default_rng(5).integers(0, 2, size=(3000, A.n))
    imgs = eval_p_batch(P, xs)
    tracemalloc.start()
    try:
        out = r1_defect_batch(A, xs, imgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (3000, A.n, A.n) and not out.any()
    assert peak < out.nbytes + 6 * 8 * restricted._R1_ELEMENTS


# Inert coordinates.  e_j is inert when c is alternating and row j of c is
# zero.  Then s_i(x, lam e_j) and eta_i(x, lam e_j) vanish, whatever alpha is,
# so `fold` and `eval_p_all` skip them; every result must equal the fold with
# an all-false mask bit for bit.


def _inert_oracle(A):
    """inert from the definition: c alternating and row j of c zero."""
    c, p = A.c, A.p
    alternating = not np.einsum("iik->ik", c).any() and np.array_equal(c, (-c.transpose(1, 0, 2)) % p)
    return np.array([alternating and not c[j].any() for j in range(A.n)], dtype=bool)


def _central_block_algebra(p, m, r, twisted, rng):
    """Random alternating brackets among e_0..e_{m-1}, with values anywhere,
    and r central e_m..e_{m+r-1}.  A random twist keeps a random subset of
    the central columns inside the central block."""
    n = m + r
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:m, :m] = rng.integers(0, p, size=(m, m, n))
    c = (c - c.transpose(1, 0, 2)) % p
    alpha = gfp.eye(n)
    if twisted:
        alpha = rng.integers(0, p, size=(n, n))
        alpha[:m, m:][:, rng.random(r) < 0.5] = 0
    return HomLieAlgebra(p, c, alpha)


def _s_cross(A):
    return lambda us, vs: compute_s_batch(A, us, vs).sum(axis=1)


def _eta_cross(V, B, D):
    return lambda us, vs: compute_eta_batch(V, B, D, us, vs).sum(axis=1)


def _no_skips(A):
    return np.zeros(A.n, dtype=bool)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_s_and_eta_vanish_on_inert_coordinates(p):
    rng = np.random.default_rng(p)
    hits = live = 0
    for twisted in (False, True):
        for m, r in ((2, 3), (3, 3)):
            for _ in range(4):
                A = _central_block_algebra(p, m, r, twisted, rng)
                assert np.array_equal(A.inert, _inert_oracle(A))
                B = BilinearForm(rng.integers(0, p, size=(A.n, A.n)), p)
                D = Derivation(rng.integers(0, p, size=(A.n, A.n)), p)
                xs = rng.integers(0, p, size=(40, A.n))
                lam = rng.integers(1, p, size=40)
                for j in range(A.n):
                    ys = np.multiply.outer(lam, gfp.unit(A.n, j))
                    s = compute_s_batch(A, xs, ys)
                    eta = compute_eta_batch(A, B, D, xs, ys) if p > 2 else np.zeros(1)
                    if A.inert[j]:
                        hits += 1
                        assert not s.any() and not eta.any()
                    else:
                        live += bool(s.any() or eta.any())
    assert hits > 0 and live > 0


def test_inert_mask_matches_its_definition(request):
    algebras = {name: P.parent for name, P in _inert_cases(request).items()}
    for name, A in algebras.items():
        assert np.array_equal(A.inert, _inert_oracle(A)), name
        assert not A.inert.flags.writeable, name
    counts = {name: int(A.inert.sum()) for name, A in algebras.items()}
    assert counts["sampled_p5 V"] == 8 and counts["sampled_p5 L"] == 5
    assert counts["wide_char2 V"] == 35 and counts["wide_char2 L"] == 2
    assert counts["psl3"] == 0 and counts["psl3 D3 L"] == 1
    assert np.nonzero(algebras["heis V"].inert)[0].tolist() == [2, 3, 4]


def test_central_e_j_with_noncentral_twist_image_is_inert():
    """[e0, e1] = e2 with e2 and e3 central; alpha(e3) = e0 + e3 is not
    central, yet e3 is inert: the innermost factor of both towers at
    y = lam e3 is k[x, x] + [y, x] = 0."""
    for p in (2, 3, 5):
        alpha = gfp.eye(4)
        alpha[0, 3] = 1
        A = HomLieAlgebra.from_upper(p, 4, {(0, 1): gfp.unit(4, 2)}, alpha)
        assert A.inert.tolist() == [False, False, True, True], p
        rng = np.random.default_rng(p)
        xs = rng.integers(0, p, size=(50, 4))
        ys = np.multiply.outer(rng.integers(1, p, size=50), gfp.unit(4, 3))
        assert not compute_s_batch(A, xs, ys).any(), p
        vs = gfp.all_vectors(4, p)
        P = PStructure(A, rng.integers(0, p, size=(4, 4)))
        assert np.array_equal(eval_p_batch(P, vs), fold(p, vs, P.images, _s_cross(A), _no_skips(A))), p
        if p > 2:  # the eta_i and P exist in odd characteristic only
            B, D = BilinearForm(rng.integers(0, p, (4, 4)), p), Derivation(rng.integers(0, p, (4, 4)), p)
            assert not compute_eta_batch(A, B, D, xs, ys).any(), p
            pe = PExtensionData(0, gfp.zeros(4), 0, 0, gfp.zeros(4), rng.integers(0, p, 4), p)
            want = fold(p, vs, pe.P_basis, _eta_cross(A, B, D), _no_skips(A))
            assert np.array_equal(eval_P_batch(A, B, D, pe, vs), want), p


def _sl2_plus_central(p, k, alpha_block, gram_block):
    """sl2 over GF(p) (test_doubleext._sl2) + GF(p)^k central, with the given
    twist and form blocks on GF(p)^k."""
    V3, B3, _ = _sl2(p)
    n = 3 + k
    c = np.zeros((n, n, n), dtype=np.int64)
    c[:3, :3, :3] = V3.c
    alpha, gram = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    alpha[:3, :3], alpha[3:, 3:] = V3.alpha, alpha_block
    gram[:3, :3], gram[3:, 3:] = B3.gram, gram_block
    return HomLieAlgebra(p, c, alpha), BilinearForm(gram, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_P_fold_keeps_the_inert_mask_when_D_moves_a_central_coordinate(p, sampled_p5):
    """eval_P_batch folds with V.inert, its cross terms the e-coordinates of
    the s_i of W = V + Ke.  For a V-central e_j the innermost factor of W's
    tower at y = lam e_j is [y, x]_W = B(D y, x) e (plus k B(D x, x) e), in
    Ke, and e is central in W, so the next factor, which exists since
    p - 1 >= 2, kills it.  Random D that move a central coordinate, on sl2
    over GF(p) + GF(p)^8 with the hyperbolic form (the sampled-p5 V at
    p = 5) and on sl2 + one null line: the fold equals the all-false-mask
    fold, by W's cross term and by the oracle pairing."""
    k = 4
    hyper = np.block([[np.zeros((k, k), dtype=np.int64), gfp.eye(k)], [gfp.eye(k), np.zeros((k, k), dtype=np.int64)]])
    cases = {"sl2 + GF(p)^8": _sl2_plus_central(p, 2 * k, gfp.eye(2 * k), hyper),
             "sl2 + null line": _sl2_plus_central(p, 1, np.zeros((1, 1), dtype=np.int64), gfp.eye(1))}
    if p == 5:
        assert np.array_equal(cases["sl2 + GF(p)^8"][0].c, sampled_p5["V"].c)
        assert np.array_equal(cases["sl2 + GF(p)^8"][1].gram, sampled_p5["B"].gram)
    rng = np.random.default_rng(40 + p)
    for name, (V, B) in cases.items():
        assert V.inert[3:].all() and not V.inert[:3].any(), name
        for _ in range(3):
            D = Derivation(rng.integers(0, p, (V.n, V.n)), p)
            assert D.mat[:, V.inert].any(), name  # D(e_j) != 0 for some central e_j
            pe = PExtensionData(0, gfp.zeros(V.n), 0, 0, gfp.zeros(V.n), rng.integers(0, p, V.n), p)
            vs = np.vstack([rng.integers(0, p, (150, V.n)), gfp.eye(V.n)])
            W = doubleext._central_extension(V, B, D)
            got = eval_P_batch(V, B, D, pe, vs)
            for cross in (lambda us, ws: restricted.compute_eta_batch(W, us, ws).sum(axis=1), _eta_cross(V, B, D)):
                assert np.array_equal(got, fold(p, vs, pe.P_basis, cross, _no_skips(V))), name


def test_non_alternating_tensor_has_no_inert_coordinate():
    """[e0, e0] = e1: rows 1 and 2 of c are zero, but eta(e0, e2) != 0 because
    [u, u] != 0, so skipping e2 would change P."""
    p = 3
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 0, 1] = 1
    V = HomLieAlgebra(p, c, gfp.eye(3))
    assert not V.inert.any()
    B = BilinearForm(gfp.eye(3), p)
    D = Derivation(np.outer(gfp.unit(3, 1), gfp.unit(3, 2)), p)  # D(e2) = e1
    assert compute_eta_batch(V, B, D, gfp.unit(3, 0)[None], gfp.unit(3, 2)[None]).any()
    pe = PExtensionData(0, gfp.zeros(3), 0, 0, gfp.zeros(3), [1, 2, 0], p)
    vs = gfp.all_vectors(3, p)
    want = fold(p, vs, pe.P_basis, _eta_cross(V, B, D), _no_skips(V))
    assert np.array_equal(eval_P_batch(V, B, D, pe, vs), want)
    skipped = fold(p, vs, pe.P_basis, _eta_cross(V, B, D), np.array([False, True, True]))
    assert not np.array_equal(skipped, want)  # what a mask without the alternation test would give


def _inert_cases(request):
    """_exhaustive_cases plus the generated sampled-p5 and wide-char2 p-structures."""
    out = _exhaustive_cases(request)
    for name in ("sampled_p5", "wide_char2"):
        gen = request.getfixturevalue(name)
        out[f"{name} V"], out[f"{name} L"] = gen["P"], gen["P_L"]
        out[f"{name} L corrupted"] = _corrupt(gen["P_L"], gen["L"].n - 1, 0)
    return out


def test_p_maps_equal_the_fold_without_skips(request):
    rng = np.random.default_rng(9)
    for name, P in _inert_cases(request).items():
        A = P.parent
        p, n = A.p, A.n
        exhaustive = p**n <= 20000
        xs = gfp.all_vectors(n, p) if exhaustive else rng.integers(0, p, size=(400, n))
        want = fold(p, xs, P.images, _s_cross(A), _no_skips(A))
        assert np.array_equal(eval_p_batch(P, xs), want), name
        if exhaustive:
            assert np.array_equal(eval_p_all(PStructure(A, P.images)), want), name


def _P_cases(request):
    sl2, pipes, gen = (request.getfixturevalue(f) for f in ("sl2", "psl3_pipelines", "sampled_p5"))
    out = {"sl2": (sl2.g, sl2.B, sl2.D, sl2.pext), "sampled_p5": (gen["V"], gen["B"], gen["D"], gen["pe"])}
    for name, pipe in pipes.items():
        out[f"psl3 {name}"] = (pipe["V"], pipe["B"], pipe["D"], pipe["pe"])
    for name, (V, B, D, pe) in list(out.items()):
        bad = PExtensionData(pe.xi, pe.a0, pe.m, pe.l, pe.u0, gfp.unit(V.n, V.n - 1), V.p)
        out[f"{name} corrupted"] = (V, B, D, bad)
    return out


def test_P_equals_the_fold_without_skips(request):
    rng = np.random.default_rng(10)
    for name, (V, B, D, pe) in _P_cases(request).items():
        p, n = V.p, V.n
        vs = gfp.all_vectors(n, p) if p**n <= 20000 else rng.integers(0, p, size=(400, n))
        want = fold(p, vs, pe.P_basis, _eta_cross(V, B, D), _no_skips(V))
        assert np.array_equal(eval_P_batch(V, B, D, pe, vs), want), name


def test_folds_skip_exactly_the_inert_coordinates(heis, sampled_p5, monkeypatch):
    """cross runs at every non-inert coordinate with live rows and at no inert
    one; eval_p_all makes one compute_s call per non-inert block."""
    for P in (heis.P, sampled_p5["P_L"]):
        A = P.parent
        seen = set()

        def cross(us, vs):
            seen.update(np.nonzero(vs.any(axis=0))[0].tolist())
            return _s_cross(A)(us, vs)

        xs = np.random.default_rng(3).integers(0, A.p, size=(200, A.n))
        fold(A.p, xs, P.images, cross, A.inert)
        assert seen == set(np.nonzero(~A.inert)[0].tolist()) - {0}

    P = heis.P
    blocks = []

    def counted(A, xs, ys):
        blocks.append(int(np.argmax(np.atleast_2d(ys)[0])))  # ys is e_j, shared by the block
        return compute_s_batch(A, xs, ys)

    monkeypatch.setattr(restricted, "compute_s_batch", counted)
    eval_p_all(PStructure(P.parent, P.images))
    assert blocks == np.nonzero(~P.parent.inert)[0].tolist()


def _slice(A):
    """Pairs per cross call of the fold on A."""
    return max(1, restricted._FOLD_PRODUCTS // max(1, 2 * (A.p - 1) * A.nnz))


def _live_pairs(xs, inert):
    """The fold's live pairs (row, j), one coordinate at a time: x_j != 0,
    some coordinate below j nonzero, and j not inert."""
    return [(m, j) for m, x in enumerate(xs) for j in range(len(x))
            if x[j] and x[:j].any() and not inert[j]]


def _fold_batches(A, rng, step=None):
    """Batches around one fold slice of A (or of `step` pairs): no rows, one
    row, exactly one slice and one slice + 1 of live pairs (one per row),
    rows that are zero or have a single nonzero coordinate, and random rows."""
    p, n, step = A.p, A.n, step or _slice(A)
    live = [j for j in np.nonzero(~A.inert)[0] if j > 0]
    pairs = np.zeros((step + 1, n), dtype=np.int64)
    pairs[:, 0] = rng.integers(1, p, step + 1)
    pairs[np.arange(step + 1), rng.choice(live, step + 1)] = rng.integers(1, p, step + 1)
    singles = np.vstack([gfp.zeros(n), (gfp.eye(n) * rng.integers(1, p, (n, 1))) % p])
    out = {"no rows": pairs[:0], "one row": rng.integers(0, p, (1, n)), "one slice": pairs[:step],
           "one slice + 1": pairs, "zero and single": singles, "random": rng.integers(0, p, (30, n))}
    assert len(_live_pairs(pairs[:step], A.inert)) == step
    assert not _live_pairs(singles, A.inert)
    return out


def _random_with_inert(p, seed):
    """A random alternating algebra on e0..e2 with e3..e5 central and alpha
    block-diagonal except alpha(e5), which has an e0 part: e3, e4 and e5 are
    inert, since inert needs only centrality."""
    rng = np.random.default_rng(seed)
    c = np.zeros((6, 6, 6), dtype=np.int64)
    c[:3, :3] = rng.integers(0, p, size=(3, 3, 6))
    c = (c - c.transpose(1, 0, 2)) % p
    alpha = np.zeros((6, 6), dtype=np.int64)
    alpha[:3, :3] = rng.integers(0, p, size=(3, 3))
    alpha[3:, 3:] = np.diag(rng.integers(1, p, 3))
    alpha[0, 5] = 1
    A = HomLieAlgebra(p, c, alpha)
    assert A.inert.tolist() == [False] * 3 + [True] * 3
    return A


def test_eval_p_batch_equals_the_per_coordinate_oracle(sampled_p5, wide_char2):
    """The sliced fold against the one-vector PolyVec fold, row by row."""
    cases = {"sampled_p5 L": sampled_p5["P_L"], "wide_char2 L": wide_char2["P_L"]}
    for p in (2, 3, 5):
        A = _random_with_inert(p, p)
        cases[f"random p={p}"] = PStructure(A, np.random.default_rng(p).integers(0, p, size=(6, 6)))
    for name, P in list(cases.items()):
        cases[f"{name} corrupted"] = _corrupt(P, P.parent.n - 1, 0)
    rng = np.random.default_rng(12)
    for name, P in cases.items():
        want = {}  # the one-slice batch repeats the rows of one slice + 1
        for batch, xs in _fold_batches(P.parent, rng).items():
            got = eval_p_batch(P, xs)
            assert got.shape == xs.shape, (name, batch)
            for m, x in enumerate(xs):
                if x.tobytes() not in want:
                    want[x.tobytes()] = oracles.eval_p_fold(P, x)
                assert np.array_equal(got[m], want[x.tobytes()]), (name, batch, m)


def test_eval_P_batch_equals_the_per_coordinate_oracle(sampled_p5):
    cases = {"sampled_p5": (sampled_p5["V"], sampled_p5["B"], sampled_p5["D"], sampled_p5["pe"])}
    for p in (3, 5, 7):
        V, rng = _random_with_inert(p, p), np.random.default_rng(p)
        pe = PExtensionData(0, gfp.zeros(6), 0, 0, gfp.zeros(6), rng.integers(0, p, 6), p)
        cases[f"random p={p}"] = (V, BilinearForm(rng.integers(0, p, (6, 6)), p), Derivation(rng.integers(0, p, (6, 6)), p), pe)
    for name, (V, B, D, pe) in list(cases.items()):
        bad = PExtensionData(pe.xi, pe.a0, pe.m, pe.l, pe.u0, (pe.P_basis + 1) % V.p, V.p)
        cases[f"{name} corrupted"] = (V, B, D, bad)
    rng = np.random.default_rng(13)
    for name, (V, B, D, pe) in cases.items():
        for batch, vs in _fold_batches(V, rng, _slice(doubleext._central_extension(V, B, D))).items():
            got = eval_P_batch(V, B, D, pe, vs)
            assert got.shape == vs.shape[:1], (name, batch)
            assert np.array_equal(got, oracles.eval_P_fold(V, B, D, pe, vs)), (name, batch)


def _normalized(xs, p):
    """The distinct rows x/c of xs, c the leading nonzero coordinate of x
    (a zero row stays zero), sorted."""
    out = set()
    for x in np.asarray(xs, dtype=np.int64) % p:
        nz = np.flatnonzero(x)
        c = pow(int(x[nz[0]]), -1, p) if nz.size else 0
        out.add(tuple(int(v) * c % p for v in x))
    return np.array(sorted(out), dtype=np.int64).reshape(-1, np.asarray(xs).shape[1])


def test_fold_kernel_sees_each_normalized_row_once_per_pstructure(sampled_p5, wide_char2, monkeypatch):
    """eval_p_batch hands the kernel the live pairs of each distinct
    normalized row once per PStructure, in slices of at most the slice size;
    a repeated batch and every k*x add no kernel rows.  The odd-p
    eval_P_batch keeps nothing between calls, so each call folds the live
    pairs of its own distinct normalized rows, in slices sized by the nnz of
    W = V + Ke, whose compute_s_batch gives its cross terms
    (restricted.compute_eta_batch)."""
    sizes = []

    def counting(kernel):
        def counted(*args):
            sizes.append(len(args[-1]))
            return kernel(*args)
        return counted

    # one spy for both folds: eval_P_batch's eta_i are compute_s_batch on W
    monkeypatch.setattr(restricted, "compute_s_batch", counting(compute_s_batch))
    rng = np.random.default_rng(14)
    for name, gen in (("sampled_p5 L", sampled_p5), ("wide_char2 L", wide_char2)):
        A = gen["L"]
        p, step = A.p, _slice(A)
        P = PStructure(A, gen["P_L"].images)  # a cold cache
        seen = np.zeros((0, A.n), dtype=np.int64)
        batches = _fold_batches(A, rng)
        batches["many"] = rng.integers(0, p, size=(300, A.n))
        for batch, xs in batches.items():
            sizes.clear()
            eval_p_batch(P, xs)
            new = _normalized(np.vstack([seen, _normalized(xs, p)]), p)
            live = len(_live_pairs(new, A.inert)) - len(_live_pairs(seen, A.inert))
            seen = new
            assert sum(sizes) == live and len(sizes) == -(-live // step), (name, batch)
            assert all(s <= step for s in sizes), (name, batch)
        assert live > 0, name  # the last batch still found new rows
        sizes.clear()
        for xs in batches.values():
            for k in range(p):
                eval_p_batch(P, (k * xs) % p)
        assert not sizes, name
    V, B, D, pe = sampled_p5["V"], sampled_p5["B"], sampled_p5["D"], sampled_p5["pe"]
    step = _slice(doubleext._central_extension(V, B, D))
    for batch, vs in _fold_batches(V, rng, step).items():
        vs = np.vstack([(k * vs) % V.p for k in range(V.p)] + [vs])
        for _ in range(2):
            sizes.clear()
            eval_P_batch(V, B, D, pe, vs)
            live = len(_live_pairs(_normalized(vs, V.p), V.inert))
            assert sum(sizes) == live and len(sizes) == -(-live // step), batch


def _scaled_batch(p, n, rng):
    """Zero rows, random rows, their duplicates and all p multiples of them."""
    xs = rng.integers(0, p, size=(6, n))
    xs[0] = 0
    return np.vstack([xs, xs[::-1]] + [(k * xs[1:3]) % p for k in range(p)])


def _scaled_cases(p):
    """Random images on an algebra with inert coordinates, and on a
    non-alternating tensor (nothing inert, [x, x] != 0)."""
    rng = np.random.default_rng(100 + p)
    A = _random_with_inert(p, p)
    c = rng.integers(0, p, size=(4, 4, 4))
    c[rng.random(c.shape) < 0.6] = 0
    c[0, 0, 1] = 1
    N = HomLieAlgebra(p, c, rng.integers(0, p, size=(4, 4)))
    assert not N.inert.any()
    cases = {"inert": A, "non-alternating": N}
    return {name: (X, rng.integers(0, p, size=(X.n, X.n))) for name, X in cases.items()}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eval_p_batch_on_scaled_rows_equals_the_fold_oracle(p):
    """Zero, duplicate and scaled rows, corrupted images and a
    non-alternating tensor; cold and warm caches in both call orders; a
    mutated result does not change a later fold."""
    rng = np.random.default_rng(p)
    for name, (A, images) in _scaled_cases(p).items():
        batches = [_scaled_batch(p, A.n, rng) for _ in range(2)]
        want = [np.array([oracles.eval_p_fold(PStructure(A, images), x) for x in xs]) for xs in batches]
        for order in ([0, 1], [1, 0]):
            P = PStructure(A, images)
            for b in order + order:  # cold, then warm
                got = eval_p_batch(P, batches[b])
                assert np.array_equal(got, want[b]), (name, order, b)
                got[:] = (got + 1) % p
        assert np.array_equal(eval_p(PStructure(A, images), batches[0][3]), want[0][3]), name


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eval_P_batch_on_scaled_rows_equals_the_fold_oracle(p):
    """The odd-p P on zero, duplicate and scaled rows, with random (not
    valid) P_basis, B and D, on an inert and a non-alternating tensor."""
    rng = np.random.default_rng(20 + p)
    for name, (V, _) in _scaled_cases(p).items():
        n = V.n
        pe = PExtensionData(0, gfp.zeros(n), 0, 0, gfp.zeros(n), rng.integers(0, p, n), p)
        B, D = BilinearForm(rng.integers(0, p, (n, n)), p), Derivation(rng.integers(0, p, (n, n)), p)
        vs = _scaled_batch(p, n, rng)
        assert np.array_equal(eval_P_batch(V, B, D, pe, vs), oracles.eval_P_fold(V, B, D, pe, vs)), name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eval_P_batch_is_p_homogeneous(p):
    """P(k u) = k^p P(u) for every k, on the odd-p fold with random (not
    valid) P_basis, B and D on an inert and a non-alternating tensor, and on
    the p = 2 formula: check_P_conditions reports P_homogeneity implied."""
    rng = np.random.default_rng(60 + p)
    for name, (V, _) in _scaled_cases(p).items():
        n = V.n
        pe = PExtensionData(0, gfp.zeros(n), 0, 0, gfp.zeros(n), rng.integers(0, p, n), p)
        B, D = BilinearForm(rng.integers(0, p, (n, n)), p), Derivation(rng.integers(0, p, (n, n)), p)
        us = rng.integers(0, p, size=(30, n))
        pu = eval_P_batch(V, B, D, pe, us)
        for k in range(p):
            assert np.array_equal(eval_P_batch(V, B, D, pe, (k * us) % p), (pow(k, p, p) * pu) % p), (name, k)


def test_fold_cache_stays_within_its_budget(sampled_p5, monkeypatch):
    """Past the element budget rows are folded but not stored: values stay
    exact, the cache stops growing, and stored rows are still read."""
    P0 = sampled_p5["P_L"]
    A = P0.parent
    monkeypatch.setattr(restricted, "_FOLD_CACHE", 5 * A.n)
    P = PStructure(A, P0.images)
    xs = _normalized(np.random.default_rng(15).integers(0, A.p, size=(12, A.n)), A.p)
    want = np.array([oracles.eval_p_fold(P, x) for x in xs])
    for _ in range(2):
        assert np.array_equal(eval_p_batch(P, xs), want)
        assert len(P._folds) == 5
    assert np.array_equal(eval_p_batch(P, (2 * xs[::-1]) % A.p), (2 * want[::-1]) % A.p)
    assert len(P._folds) == 5


def test_fold_keys_distinguish_rows_that_agree_mod_256():
    """At p = 257 a coordinate can be 256, so keys need two bytes."""
    p = 257
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1], c[1, 0, 1] = 1, p - 1  # [e0, e1] = e1
    P = PStructure(HomLieAlgebra(p, c, gfp.eye(2)), [[3, 5], [7, 11]])
    xs = np.array([[1, 0], [1, 256]])
    want = np.array([oracles.eval_p_fold(P, x) for x in xs])
    assert not np.array_equal(want[0], want[1])
    for x, w in zip(xs, want):
        assert np.array_equal(eval_p_batch(P, x[None]), w[None])
    assert np.array_equal(eval_p_batch(P, xs), want) and len(P._folds) == 2


def test_inverses_are_cached_read_only():
    for p in (2, 3, 5, 7, 101):
        inv = restricted._inverses(p)
        assert inv is restricted._inverses(p) and not inv.flags.writeable
        assert inv.tolist() == [gfp.inv(i, p) for i in range(1, p)]


def _transported(p, c, alpha, dm, S):
    """c, alpha and D carried through x -> S x, exactly:
    [S x, S y] = S [x, y], alpha' = S alpha S^-1, D' = S D S^-1."""
    S_inv = gfp.mat_inv(S, p)
    so, sio = S.astype(object), S_inv.astype(object)
    c2 = np.einsum("ai,bj,abl,kl->ijk", sio, sio, c.astype(object), so) % p
    return (HomLieAlgebra(p, np.asarray(c2, dtype=np.int64), oracles.product_exact(p, S, alpha, S_inv)),
            Derivation(oracles.product_exact(p, S, dm, S_inv), p))


def test_p_property_chains_do_not_wrap_at_the_largest_p():
    """3 (p-1)^2 is just below 2^63 here, so a product of two reduced 3x3
    matrices fits int64 but xi times one, or a product of three, does not.

    Before transport: alpha = 1 + E01, so alpha^(p-1) = 1 - E01, D = E00 and
    [e2, e0] = (1 - X) e0, [e2, e1] = e0.  Then D^p = X D alpha^(p-1) +
    ad(e2) alpha^(p-1) with D(e2) = 0, and no other xi has a solution.  A
    random change of basis makes every entry large."""
    p, X = 1753413037, 7
    assert 3 * (p - 1) ** 2 < 2**63 < X * (p - 1) ** 2
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[2, 0, 0], c[2, 1, 0] = (1 - X) % p, 1
    c = (c - c.transpose(1, 0, 2)) % p
    alpha, dm = gfp.eye(3), np.zeros((3, 3), dtype=np.int64)
    alpha[0, 1], dm[0, 0] = 1, 1
    rng = np.random.default_rng(8)
    S = rng.integers(0, p, size=(3, 3))
    while gfp.mat_inv(S, p) is None:
        S = rng.integers(0, p, size=(3, 3))
    V, D = _transported(p, c, alpha, dm, S)
    a0 = S[:, 2]  # S e2
    apow = gfp.mat_pow(V.alpha, p - 1, p)
    assert np.array_equal(oracles.product_exact(p, apow, V.alpha), gfp.eye(3)) and apow.max() > 2**30
    # the witness holds on Python integers: D^2 = D, so D^p = D
    assert np.array_equal(oracles.product_exact(p, D.mat, D.mat), D.mat)
    exact = (X * oracles.product_exact(p, D.mat, apow) + oracles.product_exact(p, V.ad(a0), apow)) % p
    assert np.array_equal(exact, D.mat) and not D(a0).any()
    assert check_p_property(V, D, PPropertyWitness(X, a0, p))
    assert not check_p_property(V, D, PPropertyWitness(X - 1, a0, p))
    w = solve_p_property(V, D)
    assert w.xi == X and np.array_equal(w.a0, a0)


def _p_property_random_cases(p, rng):
    """Small random algebras (abelian or not, random or identity twist) with
    random, zero, inner, scalar and strictly triangular derivations."""
    for n in (1, 2, 3):
        for _ in range(6):
            c = rng.integers(0, p, size=(n, n, n)) * (rng.random() < 0.6)
            alpha = rng.integers(0, p, (n, n)) if rng.random() < 0.5 else gfp.eye(n)
            A = HomLieAlgebra(p, (c - c.transpose(1, 0, 2)) % p, alpha)
            for dm in (rng.integers(0, p, (n, n)), np.zeros((n, n)), A.ad(rng.integers(0, p, n)),
                       int(rng.integers(1, p)) * gfp.eye(n), np.triu(rng.integers(0, p, (n, n)), 1)):
                yield A, Derivation(dm, p)


def test_solve_p_property_matches_the_xi_loop(heis, psl3, psl3_twisted, sl2, sampled_p5, wide_char2):
    """One joint solve gives the (xi, a0) of the ascending xi search."""
    cases = [(heis.V, heis.D), (sl2.g, sl2.D), (sampled_p5["V"], sampled_p5["D"]),
             (wide_char2["V"], wide_char2["D"])]
    cases += [(psl3.g, D) for D in psl3.derivations.values()]
    cases += [(psl3_twisted[0], D) for D in psl3_twisted[3].values()]
    for p in (2, 3, 5):
        cases += list(_p_property_random_cases(p, np.random.default_rng(p)))
    for p in (2, 3, 5):  # a0 = -e0 + t(e0 - e1): the solve gives t = 0, the echelon-minimal t = 1
        A = HomLieAlgebra.from_upper(p, 4, {(0, 2): gfp.unit(4, 3), (1, 2): gfp.unit(4, 3)})
        D = Derivation(np.diag([0, 0, 1, 1]) + A.ad(gfp.unit(4, 0)), p)  # D^p = D - ad(e0)
        assert solve_p_property(A, D).a0.tolist() == [0, p - 1, 0, 0]
        cases.append((A, D))
    kinds = {"none": 0, "xi = 0": 0, "xi > 0": 0, "a0 != 0": 0}
    for A, D in cases:
        got, want = solve_p_property(A, D), oracles.solve_p_property_loop(A, D)
        if want is None:
            assert got is None
            kinds["none"] += 1
            continue
        assert (got.xi, got.a0.tolist()) == (want.xi, want.a0.tolist())
        assert check_p_property(A, D, got)
        kinds["xi > 0" if got.xi else "xi = 0"] += 1
        kinds["a0 != 0"] += bool(got.a0.any())
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("p", [10007, 1239850223])
def test_solve_p_property_without_witness_makes_one_solve(p, monkeypatch):
    """dim 1, D = [1], alpha = 0: D^p = 1 but xi D alpha^(p-1) + ad(a0) alpha^(p-1)
    = 0, so no xi works; one solve says so instead of one per xi."""
    solves, solve = [], gfp.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(gfp, "solve", counted)
    A = HomLieAlgebra(p, np.zeros((1, 1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64))
    assert solve_p_property(A, Derivation([[1]], p)) is None
    assert len(solves) == 1


# tally_domain compares the two sides of a check with !=, which is the
# test (lhs - rhs) % p != 0 only when every caller's sides lie in [0, p).


def _sampled(call):
    """call with EXHAUSTIVE_LIMIT 0, so every domain is sampled."""
    def run():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
            return call()
    return run


def _tally_calls(request):
    """name -> a call of each tally_domain caller, passing and failing, in
    both regimes: R1 and R3, the restricted-derivation condition (on inputs
    with singular alpha, which it decides on its domain) and the direct
    route of verify_restricted_iso (on heisenberg-dual L with a corrupted
    bracket, which it decides on its domain)."""
    heis, psl3 = (request.getfixturevalue(f) for f in ("heis", "psl3"))
    _, B_L, P_L = request.getfixturevalue("heis_ext")
    calls = {}
    for name, P in _inert_cases(request).items():
        calls[f"{name} exhaustive"] = lambda P=P: verify_pstructure(P, samples=40)
        calls[f"{name} sampled"] = _sampled(lambda P=P: verify_pstructure(P, samples=40, seed=3))
    # two null lines add two zero rows and columns to D
    W, _, P_W = request.getfixturevalue("heis_null")
    S, _, P_S = request.getfixturevalue("sl2_null")
    Q, _, P_Q = request.getfixturevalue("psl3_null")
    heis_D, bad_D, d3 = (np.pad(m, (0, 2)) for m in (heis.D.mat, (heis.D.mat + gfp.unit(6, 0)[:, None]) % 2,
                                                     psl3.derivations["D3"].mat))
    for name, (A, P, D) in {"heis null D": (W, P_W, Derivation(heis_D, 2)),
                            "heis null bad D": (W, P_W, Derivation(bad_D, 2)),
                            "sl2 L null zero": (S, P_S, Derivation(np.zeros((S.n, S.n)), S.p)),
                            "psl3 null D3": (Q, P_Q, Derivation(d3, 3))}.items():
        calls[name] = lambda A=A, P=P, D=D: Report(ok=is_restricted_derivation(A, P, D, samples=30, seed=5))
    P_L = _corrupt_bracket(P_L, 1, 2, 1)  # antisymmetry fails, so the direct route walks its domain
    L = P_L.parent
    imgs = P_L.images.copy()
    imgs[3, 7] ^= 1
    for name, P_t in (("iso", P_L), ("iso other", PStructure(L, imgs))):
        calls[name] = lambda P_t=P_t: verify_restricted_iso(L, B_L, L, B_L, P_L, P_t, gfp.eye(8))
        calls[f"{name} sampled"] = _sampled(lambda P_t=P_t: verify_restricted_iso(L, B_L, L, B_L, P_L, P_t,
                                                                                 gfp.eye(8), samples=30))
    return calls


def test_tally_domain_sides_are_reduced_for_every_caller(request, monkeypatch):
    """Every sides function gives both sides in [0, p), and the reports equal
    those of the (lhs - rhs) % p comparison, counts and witnesses included."""
    seen = set()

    def checked(rep, name, regime, P, xs, pmaps, sides, **kw):
        def reduced_sides(zs, *fs):
            lhs, rhs = sides(zs, *fs)
            for side in (np.asarray(lhs), np.asarray(rhs)):
                assert side.min(initial=0) >= 0 and side.max(initial=0) < P.parent.p, name
            seen.add((name, regime))
            return lhs, rhs
        return real(rep, name, regime, P, xs, pmaps, reduced_sides, **kw)

    real = restricted.tally_domain
    calls = _tally_calls(request)
    with monkeypatch.context() as m:
        m.setattr(restricted, "tally_domain", checked)
        m.setattr(isom, "tally_domain", checked)
        got = {name: call().to_dict() for name, call in calls.items()}
    assert {name for name, _ in seen} == {"r1", "r3", "domain", "direct"}
    assert {regime for _, regime in seen} == {"exhaustive", "sampled"}
    with monkeypatch.context() as m:
        m.setattr(restricted, "tally_domain", oracles.tally_domain_diff)
        m.setattr(isom, "tally_domain", oracles.tally_domain_diff)
        want = {name: call().to_dict() for name, call in calls.items()}
    assert got == want
    assert sum(not r["summary"]["ok"] for r in got.values()) >= 8


def test_sampled_r1_tally_holds_no_difference_arrays(wide_char2):
    """The R1 tally of verify --samples 3000 on the wide-char2 L (n = 40):
    the two [3000, n, n] int64 copies of (lhs - rhs) % p, 38.4 MB each, are
    gone, and the counts are those of the difference route."""
    A, P = wide_char2["L"], wide_char2["P_L"]
    xs = SplitMix64(3).mat(3000, A.n, A.p)
    imgs = eval_p_batch(P, xs)

    def sides(vs, f):
        return r1_defect_batch(A, vs, f(vs)), 0

    peaks, reports = [], []
    for tally in (restricted.tally_domain, oracles.tally_domain_diff):
        rep = Report()
        tracemalloc.start()
        try:
            tally(rep, "r1", "sampled", P, xs, [lambda vs: imgs], sides)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        reports.append(rep.to_dict())
    assert reports[0] == reports[1] and reports[0]["checks"][0]["passed"] == 3000
    assert peaks[1] - peaks[0] >= 60e6, peaks
