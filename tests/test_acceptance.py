"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exact equality over GF(p); the only numeric
budgets are the wall-clock targets of the two fixture pipelines.
"""

import time

import numpy as np
import oracles
from oracles import compute_eta_batch, phi_recursion, phi_split, s_tilde, s_tilde_direct

from homext import gfp, restricted
from homext.algebra import d_invariant, verify_hom_lie, verify_quadratic
from homext.doubleext import (
    double_extend,
    extend_pstructure,
    reduce,
    split_frame,
)
from homext.isom import (
    AdaptedIso,
    build_adapted_iso,
    check_adapted_iso_data,
    verify_adapted_iso,
    verify_restricted_iso,
)
from homext.restricted import (
    PPropertyWitness,
    PStructure,
    check_p_property,
    compute_s_batch,
    eval_p,
    is_restricted_derivation,
    r1_defect_batch,
    eval_p_all,
    solve_p_property,
    verify_pstructure,
)
from homext.rng import SplitMix64
from homext.twist import build_heisenberg_dual


class Criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok

    def finish(self, budget=None):
        dt = time.perf_counter() - self.t0
        if budget is not None:
            self.check(dt < budget, f"runtime {dt:.1f}s exceeds {budget}s target")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.num}] {verdict} ({dt:.1f}s) {self.desc}")
        assert not self.failures, self.failures


def test_criterion_1_heisenberg_pipeline():
    c = Criterion(1, "char-2 fixture pipeline, exhaustive")
    fx = build_heisenberg_dual()
    c.check(fx.V.n == 6, "dimension")
    c.check(verify_hom_lie(fx.V).ok, "V hom-lie axioms")
    c.check(verify_quadratic(fx.V, fx.B).ok, "V quadratic axioms")
    rep = verify_pstructure(fx.P)
    c.check(rep.ok, "V p-structure")
    c.check(rep.check("r1").passed == 64, "R1 covers all 64 vectors")
    c.check(rep.check("r3").passed == 4096, "R3 covers all 4096 pairs")
    c.check(is_restricted_derivation(fx.V, fx.P, fx.D), "D restricted")
    c.check(d_invariant(fx.B, fx.D, 2), "form D-invariant")
    w = solve_p_property(fx.V, fx.D)
    c.check(w is not None and w.xi == 1, "solver returns xi = 1")
    c.check(
        check_p_property(fx.V, fx.D, PPropertyWitness(1, gfp.unit(6, 2), 2)),
        "stated witness (1, z) accepted",
    )
    L, B_L = double_extend(fx.V, fx.B, fx.ext)
    c.check(L.n == 8, "extension dimension")
    c.check(verify_hom_lie(L).ok, "L hom-lie axioms")
    c.check(verify_quadratic(L, B_L).ok, "L quadratic axioms")
    P_L = extend_pstructure(L, fx.V, fx.B, fx.P, fx.ext, fx.pext)
    rep = verify_pstructure(P_L)
    c.check(rep.ok, "L p-structure")
    c.check(rep.check("r1").passed == 256, "L R1 covers all 256 vectors")
    c.check(rep.check("r3").passed == 65536, "L R3 covers all 65536 pairs")
    c.finish(budget=5.0)


def test_criterion_2_psl3_pipeline(psl3, psl3_twisted, psl3_pipelines):
    c = Criterion(2, "char-3 fixture pipeline, table-exact")
    expected = np.zeros((7, 7), dtype=np.int64)
    expected[0, 0] = 2
    for k, val in enumerate((1, 1, 2)):
        expected[1 + k, 4 + k] = expected[4 + k, 1 + k] = val
    c.check(np.array_equal(psl3.B.gram, expected), "block Gram matrix")
    ga, ba, pa, tw_derivs = psl3_twisted
    c.check(verify_hom_lie(ga).ok, "twisted algebra hom-lie axioms")
    c.check(verify_quadratic(ga, ba).ok, "twisted algebra quadratic axioms")
    rep = verify_pstructure(pa, samples=1000)
    c.check(rep.ok, "twisted p-structure")
    c.check(rep.check("r1").passed == 2187, "twisted R1 covers all 2187 vectors")
    c.check(rep.check("r3").passed >= 1000, "twisted R3 on >= 1000 seeded pairs")
    want_witness = {"D1": 0, "D2": 0, "D3": 1}
    for name, data in psl3_pipelines.items():
        V, B, P, D = data["V"], data["B"], data["P"], data["D"]
        c.check(d_invariant(B, D, 3), f"{name} invariance")
        c.check(is_restricted_derivation(V, P, D), f"{name} restricted")
        w = solve_p_property(V, D)
        ok = w is not None and w.xi == want_witness[name] and not w.a0.any()
        c.check(ok, f"{name} p-property matches the table")
        rng = SplitMix64(0x54 + ord(name[-1]))
        us = np.stack([rng.vec(7, 3) for _ in range(1000)])
        ws = np.stack([rng.vec(7, 3) for _ in range(1000)])
        etas = compute_eta_batch(V, B, D, us, ws).sum(axis=1) % 3
        exact = all(
            oracles.psl3_table_P(name, (us[m] + ws[m]) % 3)
            == (oracles.psl3_table_P(name, us[m]) + oracles.psl3_table_P(name, ws[m]) + etas[m]) % 3
            for m in range(1000)
        )
        c.check(exact, f"{name} table P additivity on 1000 pairs")
        L, B_L, P_L = data["L"], data["B_L"], data["P_L"]
        c.check(verify_hom_lie(L).ok, f"{name} extension hom-lie axioms")
        c.check(verify_quadratic(L, B_L).ok, f"{name} extension quadratic axioms")
        rep = verify_pstructure(P_L, samples=1000)
        c.check(rep.ok, f"{name} extended p-structure")
        c.check(rep.check("r1").passed == 19683, f"{name} R1 covers all 19683 vectors")
        c.check(rep.check("r3").passed >= 1000, f"{name} R3 on >= 1000 seeded pairs")
    c.finish(budget=60.0)


def test_criterion_3_roundtrips(heis, heis_ext, psl3_pipelines):
    c = Criterion(3, "reduce/extend round-trips, bit-exact")
    cases = [("heisenberg-dual", heis.V, heis.B, heis.P, heis.D, heis.ext, heis.pext, *heis_ext)]
    for name, data in psl3_pipelines.items():
        cases.append(
            (name, data["V"], data["B"], data["P"], data["D"], data["ext"], data["pe"],
             data["L"], data["B_L"], data["P_L"])
        )
    for name, V, B, P, D, ext, pe, L, B_L, P_L in cases:
        rr = reduce(L, B_L, P_L, gfp.unit(L.n, L.n - 1))
        c.check(np.array_equal(rr.V.c, V.c), f"{name}: structure tensor")
        c.check(np.array_equal(rr.V.alpha, V.alpha), f"{name}: twist")
        c.check(np.array_equal(rr.B_V.gram, B.gram), f"{name}: Gram matrix")
        c.check(np.array_equal(rr.P_V.images, P.images), f"{name}: p-images")
        c.check(np.array_equal(rr.d.D.mat, D.mat), f"{name}: derivation")
        c.check(
            (rr.d.lam, rr.d.lam0) == (ext.lam, ext.lam0) and np.array_equal(rr.d.x0, ext.x0),
            f"{name}: (x0, lambda, lambda0)",
        )
        same_pe = (
            rr.pe.xi == pe.xi
            and np.array_equal(rr.pe.a0, pe.a0)
            and (rr.pe.m, rr.pe.l) == (pe.m, pe.l)
            and np.array_equal(rr.pe.u0, pe.u0)
            and np.array_equal(rr.pe.P_basis, pe.P_basis)
        )
        c.check(same_pe, f"{name}: (xi, a0, m, l, u0, P_basis)")
        L2, B2 = double_extend(rr.V, rr.B_V, rr.d)
        P2 = extend_pstructure(L2, rr.V, rr.B_V, rr.P_V, rr.d, rr.pe)
        exact = (
            np.array_equal(L2.c, L.c)
            and np.array_equal(L2.alpha, L.alpha)
            and np.array_equal(B2.gram, B_L.gram)
            and np.array_equal(P2.images, P_L.images)
        )
        c.check(exact, f"{name}: re-extension reproduces L bit-exact")
    c.finish()


def test_criterion_4_bracket_coefficient_identity(psl3_pipelines):
    c = Criterion(4, "s_i on L equals s_i on V plus eta_i e, 500 seeded pairs each")
    for name, data in psl3_pipelines.items():
        rng = SplitMix64(0x43 + ord(name[-1]))
        us = np.stack([rng.vec(7, 3) for _ in range(500)])
        ws = np.stack([rng.vec(7, 3) for _ in range(500)])
        eu = np.zeros((500, 9), dtype=np.int64)
        ew = np.zeros((500, 9), dtype=np.int64)
        eu[:, 1:8], ew[:, 1:8] = us, ws
        sL = compute_s_batch(data["L"], eu, ew)
        sV = compute_s_batch(data["V"], us, ws)
        etas = compute_eta_batch(data["V"], data["B"], data["D"], us, ws)
        want = np.zeros_like(sL)
        want[:, :, 1:8] = sV
        want[:, :, 8] = etas
        c.check(not ((sL - want) % 3).any(), f"{name}: exact for i in {{1,2}}")
    c.finish()


def test_criterion_5_phi_machinery(psl3_pipelines, sl2_ext):
    c = Criterion(5, "coefficient recursion vs formal towers")
    data = psl3_pipelines["D3"]
    L3, B3 = data["L"], data["B_L"]
    rng = SplitMix64(0x55)
    ok = True
    for _ in range(200):
        x, y = rng.vec(9, 3), rng.vec(9, 3)
        tab = phi_recursion(L3, x, y, 3)
        ops = [(L3.ad(L3.apply_alpha(y, t)), L3.ad(L3.apply_alpha(x, t))) for t in (1, 0)]
        pv = oracles.polyvec_apply(ops, oracles.PolyVec.constant(x, 3), max_degree=2)
        for i in (1, 2):
            ok &= np.array_equal(tab[(3, i)], pv.coeff(i - 1))
    c.check(ok, "level 3 at p = 3, 200 seeded pairs")
    L5, B5, _ = sl2_ext
    ok = True
    for _ in range(200):
        x, y = rng.vec(5, 5), rng.vec(5, 5)
        tab = phi_recursion(L5, x, y, 5)
        for level in (3, 4, 5):
            ops = [
                (L5.ad(L5.apply_alpha(y, t)), L5.ad(L5.apply_alpha(x, t)))
                for t in range(level - 2, -1, -1)
            ]
            pv = oracles.polyvec_apply(ops, oracles.PolyVec.constant(x, 5), max_degree=4)
            for i in range(1, level):
                ok &= np.array_equal(tab[(level, i)], pv.coeff(i - 1))
    c.check(ok, "levels 3..5 at p = 5, 200 seeded pairs")
    frame3 = split_frame(L3, B3, data["P_L"])
    frame5 = split_frame(L5, B5)
    ok_split = ok_stilde = True
    for _ in range(100):
        t = rng.vec(7, 3)
        split = phi_split(frame3, gfp.eye(7), t, 3)
        y9 = gfp.zeros(9)
        y9[1:8] = (-t) % 3
        tab = phi_recursion(L3, gfp.unit(9, 0), y9, 3)
        for (lvl, i), (vec, sc) in split.items():
            full = gfp.zeros(9)
            full[1:8] = vec
            full[8] = sc
            ok_split &= np.array_equal(full, tab[(lvl, i)])
        ok_stilde &= np.array_equal(s_tilde(L3, B3, gfp.eye(7), t), s_tilde_direct(L3, gfp.eye(7), t))
        t5 = rng.vec(3, 5)
        split = phi_split(frame5, gfp.eye(3), t5, 5)
        y5 = gfp.zeros(5)
        y5[1:4] = (-t5) % 5
        tab = phi_recursion(L5, gfp.unit(5, 0), y5, 5)
        for (lvl, i), (vec, sc) in split.items():
            full = gfp.zeros(5)
            full[1:4] = vec
            full[4] = sc
            ok_split &= np.array_equal(full, tab[(lvl, i)])
        ok_stilde &= np.array_equal(s_tilde(L5, B5, gfp.eye(3), t5), s_tilde_direct(L5, gfp.eye(3), t5))
    c.check(ok_split, "central split agrees with the recursion, 100 seeded t")
    c.check(ok_stilde, "s~ equals the direct coefficient sum")
    c.finish()


def _transport(L, P_L, Lt, pi):
    p = L.p
    piinv = gfp.mat_inv(pi, p)
    imgs = np.stack([(pi @ eval_p(P_L, piinv[:, j])) % p for j in range(L.n)])
    return PStructure(Lt, imgs)


def test_criterion_6_isomorphism_suite(heis, heis_ext, psl3_pipelines, monkeypatch):
    c = Criterion(6, "adapted/restricted isomorphism suite")
    from test_isom import heis_instances, psl3_instances

    L2, B2, P2 = heis_ext
    iso = AdaptedIso(gfp.eye(6), 1, gfp.zeros(6), 2, 0)
    pi = build_adapted_iso(L2, B2, L2, B2, iso)
    c.check(np.array_equal(pi, gfp.eye(8)), "identity data builds the identity")
    c.check(verify_adapted_iso(L2, B2, L2, B2, pi).ok, "identity passes")

    total = 0
    agree = True
    data3 = psl3_pipelines["D3"]
    L3, B3, P3 = data3["L"], data3["B_L"], data3["P_L"]
    for iso, Lt, B_Lt in heis_instances(heis, 30, seed=0x61):
        ok_data = check_adapted_iso_data(L2, B2, Lt, B_Lt, iso).ok
        pi = build_adapted_iso(L2, B2, Lt, B_Lt, iso)
        ok_ver = verify_adapted_iso(L2, B2, Lt, B_Lt, pi).ok
        c.check(ok_data and ok_ver, f"char-2 instance {total}")
        P_Lt = _transport(L2, P2, Lt, pi)
        rep = verify_restricted_iso(L2, B2, Lt, B_Lt, P2, P_Lt, pi)
        agree &= rep.check("verdicts_agree").ok and rep.ok
        total += 1
    for iso, Lt, B_Lt in psl3_instances(data3, 22, seed=0x62):
        ok_data = check_adapted_iso_data(L3, B3, Lt, B_Lt, iso).ok
        pi = build_adapted_iso(L3, B3, Lt, B_Lt, iso)
        ok_ver = verify_adapted_iso(L3, B3, Lt, B_Lt, pi).ok
        c.check(ok_data and ok_ver, f"char-3 instance {total}")
        total += 1
    c.check(total >= 50, f"instance count {total} >= 50")
    c.check(agree, "restricted verdicts agree on valid instances")

    corrupted = 0
    for k, (iso, Lt, B_Lt) in enumerate(heis_instances(heis, 6, seed=0x63)):
        pi = build_adapted_iso(L2, B2, Lt, B_Lt, iso)
        P_Lt = _transport(L2, P2, Lt, pi)
        imgs = P_Lt.images.copy()
        imgs[1 + (k % 6), 7] = (imgs[1 + (k % 6), 7] + 1) % 2
        rep = verify_restricted_iso(L2, B2, Lt, B_Lt, P2, PStructure(Lt, imgs), pi)
        both_fail = rep.meta["direct_verdict"] == "fail" and rep.meta["theorem_verdict"] == "fail"
        c.check(both_fail and rep.check("verdicts_agree").ok, f"char-2 corruption {k}")
        corrupted += 1
    for k, (iso, Lt, B_Lt) in enumerate(psl3_instances(data3, 5, seed=0x64)):
        pi = build_adapted_iso(L3, B3, Lt, B_Lt, iso)
        P_Lt = _transport(L3, P3, Lt, pi)
        imgs = P_Lt.images.copy()
        imgs[1 + (k % 7), 8] = (imgs[1 + (k % 7), 8] + 1) % 3
        with monkeypatch.context() as m:
            m.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)  # the direct route samples
            rep = verify_restricted_iso(L3, B3, Lt, B_Lt, P3, PStructure(Lt, imgs), pi, samples=60)
        both_fail = rep.meta["direct_verdict"] == "fail" and rep.meta["theorem_verdict"] == "fail"
        c.check(both_fail and rep.check("verdicts_agree").ok, f"char-3 corruption {k}")
        corrupted += 1
    c.check(corrupted >= 10, f"corrupted count {corrupted} >= 10")
    c.finish()


def test_criterion_7_mutation_sensitivity(heis, heis_ext):
    c = Criterion(7, "single structure-constant mutations all detected")
    from homext.algebra import HomLieAlgebra

    L, B_L, P_L = heis_ext
    undetected = []
    total = 0
    for i in range(8):
        for j in range(i + 1, 8):
            for k in range(8):
                ct = L.c.copy()
                ct[i, j, k] = (ct[i, j, k] + 1) % 2
                ct[j, i, k] = (ct[j, i, k] + 1) % 2
                M = HomLieAlgebra(2, ct, L.alpha, L.basis_names)
                total += 1
                rep = verify_hom_lie(M)
                if not (rep.check("hom_jacobi").ok and rep.check("multiplicativity").ok):
                    continue
                if not verify_quadratic(M, B_L).check("invariance").ok:
                    continue
                PM = PStructure(M, P_L.images)
                defect = r1_defect_batch(M, gfp.all_vectors(8, 2), eval_p_all(PM))
                if defect.any():
                    continue
                undetected.append((i, j, k))
    c.check(total == 28 * 8, f"mutation count {total}")
    c.check(not undetected, f"undetected mutations: {undetected}")
    c.finish()
