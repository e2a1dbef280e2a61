import numpy as np
import pytest

from homext import gfp
from homext.algebra import Derivation, HomLieAlgebra
from homext.errors import OddCharRequired
from homext.restricted import (
    PStructure,
    PPropertyWitness,
    check_p_property,
    compute_eta,
    compute_eta_batch,
    compute_s,
    compute_s_batch,
    eval_p,
    eval_p_all,
    eval_p_batch,
    is_restricted_derivation,
    restricted_defect_batch,
    solve_p_property,
    verify_pstructure,
)
from homext.rng import SplitMix64


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


def test_compute_s_batch_matches_scalar(psl3_twisted, sl2):
    ga, _, _, _ = psl3_twisted
    rng = SplitMix64(4)
    for A in (ga, sl2.g):
        xs = np.stack([rng.vec(A.n, A.p) for _ in range(40)])
        ys = np.stack([rng.vec(A.n, A.p) for _ in range(40)])
        batch = compute_s_batch(A, xs, ys)
        for m in range(40):
            for i, s in enumerate(compute_s(A, xs[m], ys[m])):
                assert np.array_equal(batch[m, i], s)


def test_eval_p_heisenberg_closed_formula(heis):
    # all 64 vectors against the stated closed formula
    for v in gfp.all_vectors(6, 2):
        assert np.array_equal(eval_p(heis.P, v), heis.table_p2(v))


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
    _, _, pa, _ = psl3_twisted
    rng = SplitMix64(7)
    xs = np.stack([rng.vec(7, 3) for _ in range(50)])
    batch = eval_p_batch(pa, xs)
    for m in range(50):
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


def test_compute_eta_requires_odd_characteristic(heis):
    with pytest.raises(OddCharRequired):
        compute_eta(heis.V, heis.B, heis.D, gfp.zeros(6), gfp.zeros(6))


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


def test_verify_pstructure_sampled_mode_deterministic(psl3_twisted):
    _, _, pa, _ = psl3_twisted
    a = verify_pstructure(pa, exhaustive=False, samples=50, seed=7)
    b = verify_pstructure(pa, exhaustive=False, samples=50, seed=7)
    assert a.to_dict() == b.to_dict()
    c = verify_pstructure(pa, exhaustive=False, samples=50, seed=8)
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


def test_eval_p_all_prefix_table_matches_fold(request):
    for name, P in _fixture_pstructures(request).items():
        fresh = PStructure(P.parent, P.images)  # build the table, not a cached one
        want = eval_p_batch(fresh, gfp.all_vectors(fresh.parent.n, fresh.parent.p))
        assert np.array_equal(eval_p_all(fresh), want), name


def test_table_regime_detects_corrupted_image(psl3):
    rep = verify_pstructure(_corrupted_psl3(psl3))
    assert rep.meta["regimes"]["r1"] == rep.meta["regimes"]["r2"] == "exhaustive"
    assert not rep.check("r1").ok or not rep.check("r2").ok
    assert rep.check("r1").passed + rep.check("r1").failed == 3**7
    assert rep.check("r2").passed + rep.check("r2").failed == 3 * 3**7


def test_verify_pstructure_reports_regimes(heis, psl3):
    rep = verify_pstructure(heis.P)
    assert rep.meta["regimes"] == {"r1": "exhaustive", "r2": "exhaustive", "r3": "exhaustive"}
    assert rep.meta["mode"] == "exhaustive"
    # psl(3): 3^7 vectors fit the exhaustive limit, 3^14 pairs do not
    rep = verify_pstructure(psl3.P, exhaustive=True, samples=20)
    assert rep.meta["regimes"] == {"r1": "exhaustive", "r2": "exhaustive", "r3": "sampled"}
    assert rep.meta["mode"] == "sampled"
    assert rep.check("r3").passed == 20
    rep = verify_pstructure(heis.P, exhaustive=False, samples=20)
    assert set(rep.meta["regimes"].values()) == {"sampled"} and rep.meta["mode"] == "sampled"
    # 2^17 vectors exceed the limit: an explicit request cannot make R1 exhaustive
    n = 17
    abelian = HomLieAlgebra(2, np.zeros((n, n, n), dtype=np.int64), gfp.eye(n))
    rep = verify_pstructure(PStructure(abelian, np.zeros((n, n))), exhaustive=True, samples=20)
    assert set(rep.meta["regimes"].values()) == {"sampled"} and rep.meta["mode"] == "sampled"
    assert rep.ok and rep.check("r1").passed == 20


def test_is_restricted_derivation_table_matches_fold(psl3, psl3_twisted):
    ga, _, pa, derivs = psl3_twisted
    inner = Derivation(psl3.g.ad(gfp.unit(7, 1)), 3)
    bad = Derivation((inner.mat + np.diag([1, 0, 0, 0, 0, 0, 0])) % 3, 3)
    cases = [(psl3.g, psl3.P, name, D) for name, D in psl3.derivations.items()]
    cases += [(ga, pa, name, D) for name, D in derivs.items()]
    cases.append((psl3.g, psl3.P, "bad", bad))
    xs = gfp.all_vectors(7, 3)
    for A, P, name, D in cases:
        folded = not restricted_defect_batch(A, P, D, xs, eval_p_batch(P, xs)).any()
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
