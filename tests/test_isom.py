import inspect
import re

import numpy as np
import pytest
import oracles
from oracles import BadLevel, phi_recursion, phi_split, s_tilde, s_tilde_direct

from homext import gfp, isom, restricted
from homext.algebra import BilinearForm, Derivation, HomLieAlgebra, verify_hom_lie
from homext.doubleext import DoubleExtensionData, PExtensionData, double_extend, extend_pstructure, split_frame
from homext.errors import DimMismatch, FrameMismatch, NonInvertiblePi0, ZeroGamma
from homext.isom import (
    AdaptedIso,
    build_adapted_iso,
    check_adapted_iso_data,
    extract_iso_data,
    verify_adapted_iso,
    verify_restricted_iso,
)
from homext.restricted import PStructure, compute_s, eval_p, eval_p_batch, verify_pstructure
from homext.rng import SplitMix64
from test_certified import _corrupt_bracket


def transported_pstructure(L, P_L, Lt, pi):
    """Push the p-structure of L across pi; always a valid p-structure on Lt."""
    p = L.p
    piinv = gfp.mat_inv(pi, p)
    imgs = np.stack([(pi @ eval_p(P_L, piinv[:, j])) % p for j in range(L.n)])
    return PStructure(Lt, imgs)


def heis_instances(heis, count, seed):
    """Seeded adapted-iso data on the char-2 fixture; every instance satisfies
    the full condition list by construction (gamma = 1 is forced in GF(2))."""
    V, B, D = heis.V, heis.B, heis.D
    rng = SplitMix64(seed)
    swap = gfp.eye(6)
    swap[[0, 1]] = swap[[1, 0]]
    swap[[3, 4]] = swap[[4, 3]]
    out = []
    for _ in range(count):
        pi0 = swap if rng.below(2) else gfp.eye(6)
        t = rng.vec(6, 2)
        nu = rng.below(2)
        dt = Derivation((pi0 @ ((D.mat + V.ad(t)) % 2) @ gfp.mat_inv(pi0, 2)) % 2, 2)
        beta_t = B.eval(t, t)
        d2 = DoubleExtensionData(dt, gfp.zeros(6), 1, 0, beta=beta_t)
        Lt, B_Lt = double_extend(V, B, d2)
        out.append((AdaptedIso(pi0, 1, t, 2, nu), Lt, B_Lt))
    return out


def psl3_instances(pipeline, count, seed):
    """Seeded adapted-iso data on the twisted p=3 fixture: t fixed by the
    twist (the center is zero), gamma in {1,2}, pi0 in {id, alpha}."""
    V, B, D = pipeline["V"], pipeline["B"], pipeline["D"]
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        pi0 = V.alpha.copy() if rng.below(2) else gfp.eye(7)
        t = gfp.zeros(7)
        for idx in (0, 3, 6):
            t[idx] = rng.below(3)
        gamma = 1 + rng.below(2)
        dt = Derivation((pi0 @ ((gamma * D.mat + V.ad(t)) % 3) @ gfp.mat_inv(pi0, 3)) % 3, 3)
        d2 = DoubleExtensionData(dt, gfp.zeros(7), 1, 0)
        Lt, B_Lt = double_extend(V, B, d2)
        out.append((AdaptedIso(pi0, gamma, t, 3), Lt, B_Lt))
    return out


def sl2_instances(sl2, count, seed):
    """Seeded restricted-iso data at p = 5 on sl2-gf5 (alpha = id, x0 = 0):
    pi0 = id, gamma in 1..4 and a random t, with D~ = gamma D + ad(t)."""
    V, B, D = sl2.g, sl2.B, sl2.D
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        gamma = 1 + rng.below(4)
        t = rng.vec(3, 5)
        dt = Derivation((gamma * D.mat + V.ad(t)) % 5, 5)
        Lt, B_Lt = double_extend(V, B, DoubleExtensionData(dt, gfp.zeros(3), 1, 0))
        out.append((AdaptedIso(gfp.eye(3), gamma, t, 5), Lt, B_Lt))
    return out


def test_identity_data_builds_identity(heis_ext):
    L, B_L, _ = heis_ext
    iso = AdaptedIso(gfp.eye(6), 1, gfp.zeros(6), 2, 0)
    pi = build_adapted_iso(L, B_L, L, B_L, iso)
    assert np.array_equal(pi, gfp.eye(8))
    assert verify_adapted_iso(L, B_L, L, B_L, pi).ok
    assert check_adapted_iso_data(L, B_L, L, B_L, iso).ok


def test_scalar_case_p3(psl3_pipelines):
    data = psl3_pipelines["D3"]
    L, B_L = data["L"], data["B_L"]
    iso = AdaptedIso(gfp.eye(7), 2, gfp.zeros(7), 3)
    pi = build_adapted_iso(L, B_L, L, B_L, iso)
    assert pi[8, 8] == 2  # pi(e) = 2 e~
    assert pi[0, 0] == 2  # pi(e*) = inv(2) e~* = 2 e~*
    assert np.array_equal(pi[1:8, 1:8], gfp.eye(7))


def test_build_rejects_degenerate_inputs(heis_ext):
    L, B_L, _ = heis_ext
    with pytest.raises(ZeroGamma):
        build_adapted_iso(L, B_L, L, B_L, AdaptedIso(gfp.eye(6), 0, gfp.zeros(6), 2))
    sing = gfp.eye(6)
    sing[0, 0] = 0
    with pytest.raises(NonInvertiblePi0):
        build_adapted_iso(L, B_L, L, B_L, AdaptedIso(sing, 1, gfp.zeros(6), 2))


def test_translation_by_central_vector(heis, heis_ext):
    # t = z is central, so the target data is unchanged: an automorphism of L
    L, B_L, P_L = heis_ext
    iso = AdaptedIso(gfp.eye(6), 1, gfp.unit(6, 2), 2, 0)
    pi = build_adapted_iso(L, B_L, L, B_L, iso)
    assert not np.array_equal(pi, gfp.eye(8))
    assert check_adapted_iso_data(L, B_L, L, B_L, iso).ok
    assert verify_adapted_iso(L, B_L, L, B_L, pi).ok


def test_swapping_the_frame_lines_fails_flag(heis_ext):
    L, B_L, _ = heis_ext
    pi = gfp.eye(8)
    pi[[0, 7]] = pi[[7, 0]]
    rep = verify_adapted_iso(L, B_L, L, B_L, pi)
    assert not rep.check("flag_preserved").ok


def test_seeded_adapted_instances(heis, heis_ext, psl3_pipelines):
    L2, B2, _ = heis_ext
    total = 0
    for iso, Lt, B_Lt in heis_instances(heis, 26, seed=0xBEE):
        assert check_adapted_iso_data(L2, B2, Lt, B_Lt, iso).ok
        pi = build_adapted_iso(L2, B2, Lt, B_Lt, iso)
        assert verify_adapted_iso(L2, B2, Lt, B_Lt, pi).ok
        total += 1
    data = psl3_pipelines["D3"]
    for iso, Lt, B_Lt in psl3_instances(data, 26, seed=0xACE):
        assert check_adapted_iso_data(data["L"], data["B_L"], Lt, B_Lt, iso).ok
        pi = build_adapted_iso(data["L"], data["B_L"], Lt, B_Lt, iso)
        assert verify_adapted_iso(data["L"], data["B_L"], Lt, B_Lt, pi).ok
        total += 1
    assert total >= 50


def test_adapted_iso_composition(heis, heis_ext):
    # chained frames compose: the second instance is generated relative to
    # the first target's data, and pi2 o pi1 is again adapted
    L, B_L, _ = heis_ext
    V, B = heis.V, heis.B
    (iso1, L1, B1) = heis_instances(heis, 1, seed=0xC0)[0]
    pi1 = build_adapted_iso(L, B_L, L1, B1, iso1)
    f1 = split_frame(L1, B1)
    rng = SplitMix64(0xC1)
    t2 = rng.vec(6, 2)
    d1 = f1.d.D
    dt2 = Derivation((d1.mat + V.ad(t2)) % 2, 2)
    beta2 = (f1.d.beta - B.eval(t2, t2)) % 2
    L2, B2 = double_extend(V, B, DoubleExtensionData(dt2, gfp.zeros(6), 1, 0, beta=beta2))
    iso2 = AdaptedIso(gfp.eye(6), 1, t2, 2, rng.below(2))
    pi2 = build_adapted_iso(L1, B1, L2, B2, iso2)
    assert verify_adapted_iso(L1, B1, L2, B2, pi2).ok
    comp = (pi2 @ pi1) % 2
    assert verify_adapted_iso(L, B_L, L2, B2, comp).ok


def test_extract_iso_data_roundtrip(heis, heis_ext):
    L, B_L, _ = heis_ext
    for iso, Lt, B_Lt in heis_instances(heis, 8, seed=0xD1):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        got, rep = extract_iso_data(L, B_L, pi)
        assert rep.ok
        assert np.array_equal(got.pi0, iso.pi0)
        assert got.gamma == iso.gamma and got.nu == iso.nu
        assert np.array_equal(got.t_pi, iso.t_pi)


def test_restricted_iso_identity(heis_ext):
    L, B_L, P_L = heis_ext
    rep = verify_restricted_iso(L, B_L, L, B_L, P_L, P_L, gfp.eye(8))
    assert rep.ok
    assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "pass"


def _malformed_frames(L, B_L, P_L):
    """One (L, B_L, P_L) per FrameMismatch message of split_frame: a dim-1
    algebra, then L with one entry of its bracket, twist, form or p-images
    moved by 1."""
    p, N = L.p, L.n
    one = HomLieAlgebra(p, np.zeros((1, 1, 1), dtype=np.int64), gfp.eye(1))
    out = {"dimension too small for a double extension frame":
           (one, BilinearForm(gfp.eye(1), p), PStructure(one, np.zeros((1, 1))))}
    for msg, part, idx in (
        ("form does not pair e* with e hyperbolically", "gram", (0, N - 1)),
        ("V block is not orthogonal to the frame lines", "gram", (0, 1)),
        ("e is not central", "c", (N - 1, 1, 2)),
        ("[e*, V] does not lie in V", "c", (0, 1, 0)),
        ("twist does not preserve the frame filtration", "alpha", (0, 1)),
        ("twist eigenvalues on e and e* disagree", "alpha", (0, 0)),
        ("p-images of V leave the coisotropic flag", "images", (1, 0)),
        ("p-image of e leaves the coisotropic flag", "images", (N - 1, 0)),
    ):
        arrays = dict(c=L.c.copy(), alpha=L.alpha.copy(), gram=B_L.gram.copy(), images=P_L.images.copy())
        arrays[part][idx] = (arrays[part][idx] + 1) % p
        Lm = HomLieAlgebra(p, arrays["c"], arrays["alpha"], L.basis_names)
        out[msg] = (Lm, BilinearForm(arrays["gram"], p), PStructure(Lm, arrays["images"]))
    return out


@pytest.mark.parametrize("ext", ["heis_ext", "sl2_ext"])
def test_restricted_iso_raises_every_split_frame_message(ext, request):
    """verify_restricted_iso of the identity on a malformed frame raises
    split_frame's FrameMismatch, message for message."""
    frames = _malformed_frames(*request.getfixturevalue(ext))
    assert set(frames) == set(re.findall(r'raise FrameMismatch\("([^"]+)"\)', inspect.getsource(split_frame)))
    for msg, (L, B_L, P_L) in frames.items():
        with pytest.raises(FrameMismatch) as want:
            split_frame(L, B_L, P_L)
        with pytest.raises(FrameMismatch) as got:
            verify_restricted_iso(L, B_L, L, B_L, P_L, P_L, gfp.eye(L.n))
        assert str(got.value) == str(want.value) == msg


def test_restricted_iso_transported_instances_p2(heis, heis_ext):
    L, B_L, P_L = heis_ext
    for iso, Lt, B_Lt in heis_instances(heis, 10, seed=0xE7):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        assert verify_pstructure(P_Lt).ok
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, pi)
        assert rep.ok, [c.name for c in rep.failing()]


def test_restricted_iso_reports_direct_regime(heis_ext, monkeypatch):
    """The domain route names its direct regime, and the theorem route
    "sampled"; a decided input names "basis" for both, over the same counts."""
    _, B_L, P_L = heis_ext
    P = _corrupt_bracket(P_L, 1, 2, 1)
    L = P.parent
    pi = gfp.eye(L.n)
    rep = verify_restricted_iso(L, B_L, L, B_L, P, P, pi)
    assert rep.meta["regimes"] == {"direct": "exhaustive", "theorem": "sampled"}
    assert rep.check("direct").passed == 2**L.n and rep.ok
    decided = verify_restricted_iso(heis_ext[0], B_L, heis_ext[0], B_L, P_L, P_L, pi)
    assert decided.meta["regimes"] == {"direct": "basis", "theorem": "basis"}
    assert decided.to_dict()["checks"] == rep.to_dict()["checks"]
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
    rep = verify_restricted_iso(L, B_L, L, B_L, P, P, pi, samples=30)
    assert rep.meta["regimes"] == {"direct": "sampled", "theorem": "sampled"}
    assert rep.check("direct").passed == 30 and rep.ok


def test_restricted_iso_transported_instances_p3(psl3_pipelines, monkeypatch):
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
    data = psl3_pipelines["D3"]
    L, B_L, P_L = data["L"], data["B_L"], data["P_L"]
    for iso, Lt, B_Lt in psl3_instances(data, 6, seed=0xF2):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, pi, samples=80)
        assert rep.ok, [c.name for c in rep.failing()]


def test_restricted_iso_gamma_scaling_of_xi(psl3_pipelines, monkeypatch):
    # xi~ = gamma^{p-1} xi: with p = 3 and gamma = 2, 4 = 1 so xi survives
    data = psl3_pipelines["D3"]
    L, B_L, P_L = data["L"], data["B_L"], data["P_L"]
    rng_insts = [x for x in psl3_instances(data, 12, seed=0xF3) if x[0].gamma == 2]
    assert rng_insts
    iso, Lt, B_Lt = rng_insts[0]
    pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
    P_Lt = transported_pstructure(L, P_L, Lt, pi)
    ft = split_frame(Lt, B_Lt, P_Lt)
    assert ft.pe.xi == pow(2, 2, 3) * 1 % 3 == 1
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
    rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, pi, samples=60)
    assert rep.check("thm_xi").ok and rep.ok


def test_restricted_iso_mismatched_pstructures_agree_on_failure(heis, heis_ext):
    # two extensions differing in one P_basis entry: identity map, both the
    # direct check and the equation list must fail together
    L, B_L, P_L = heis_ext
    imgs = P_L.images.copy()
    imgs[3, 7] = (imgs[3, 7] + 1) % 2  # flip P(z)
    P_other = PStructure(L, imgs)
    assert verify_pstructure(P_other).ok  # still a valid 2-structure
    rep = verify_restricted_iso(L, B_L, L, B_L, P_L, P_other, gfp.eye(8))
    assert rep.meta["direct_verdict"] == "fail"
    assert rep.meta["theorem_verdict"] == "fail"
    assert not rep.check("thm_P_pi0").ok
    assert rep.check("verdicts_agree").ok


def test_restricted_iso_corrupted_pstructures_both_fail(heis, heis_ext, psl3_pipelines, monkeypatch):
    L, B_L, P_L = heis_ext
    corrupted = 0
    for k, (iso, Lt, B_Lt) in enumerate(heis_instances(heis, 6, seed=0xAB)):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        imgs = P_Lt.images.copy()
        imgs[1 + (k % 6), 7] = (imgs[1 + (k % 6), 7] + 1) % 2
        bad = PStructure(Lt, imgs)
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, bad, pi)
        assert rep.meta["direct_verdict"] == "fail"
        assert rep.meta["theorem_verdict"] == "fail"
        assert rep.check("verdicts_agree").ok
        corrupted += 1
    data = psl3_pipelines["D3"]
    L3, B3, P3 = data["L"], data["B_L"], data["P_L"]
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)  # the psl3 instances are sampled
    for k, (iso, Lt, B_Lt) in enumerate(psl3_instances(data, 5, seed=0xAC)):
        pi = build_adapted_iso(L3, B3, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L3, P3, Lt, pi)
        imgs = P_Lt.images.copy()
        imgs[1 + (k % 7), 8] = (imgs[1 + (k % 7), 8] + 1) % 3
        bad = PStructure(Lt, imgs)
        rep = verify_restricted_iso(L3, B3, Lt, B_Lt, P3, bad, pi, samples=80)
        assert rep.meta["direct_verdict"] == "fail"
        assert rep.meta["theorem_verdict"] == "fail"
        assert rep.check("verdicts_agree").ok
        corrupted += 1
    assert corrupted >= 10


def test_restricted_iso_p5_with_scaling_and_translation(sl2, sl2_ext):
    """gamma != 1 and t != 0 at p = 5: the theorem route reads s~ from
    compute_s_batch, whose formal tower has p - 1 = 4 factors.  Both verdicts pass on the transported p-structure and both fail
    once one image (xi~, m~, u0~ or a P~ basis value) is off by one."""
    L, B_L, P_L = sl2_ext
    insts = sl2_instances(sl2, 8, seed=0x55)
    assert any(iso.gamma != 1 and iso.t_pi.any() for iso, _, _ in insts)
    for k, (iso, Lt, B_Lt) in enumerate(insts):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, pi)
        assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "pass"
        assert rep.ok, [c.name for c in rep.failing()]
        imgs = P_Lt.images.copy()
        r, c = ((0, 0), (4, 4), (4, 1), (1, 4))[k % 4]
        imgs[r, c] = (imgs[r, c] + 1) % 5
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, PStructure(Lt, imgs), pi)
        assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "fail"
        assert rep.check("verdicts_agree").ok


def test_restricted_iso_reads_nu_off_the_map_at_odd_p(psl3_pipelines, monkeypatch):
    """The theorem route takes the e~-part nu of pi(e*) from the map at every p:
    u0~ and m~ enter with -gamma nu, which is B(t, t)/2 in the adapted normal
    form.  Off that form (only pi(e*)'s e~-entry moved, so e_star_e_part fails)
    the psl3 D3 extension (xi = 1) makes pi((e*)^[3]) and pi(e*)^[3] differ by
    xi nu e~, and both routes must see it."""
    monkeypatch.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
    data = psl3_pipelines["D3"]
    L, B_L, P_L = data["L"], data["B_L"], data["P_L"]
    for iso, Lt, B_Lt in psl3_instances(data, 4, seed=0xF4):
        pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
        P_Lt = transported_pstructure(L, P_L, Lt, pi)
        for shift in (1, 2):
            off = pi.copy()
            off[8, 0] = (off[8, 0] + shift) % 3
            rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, off, samples=40)
            assert not rep.check("e_star_e_part").ok
            assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "fail"
            assert rep.check("verdicts_agree").ok and not rep.check("thm_l").ok


# ---------- Phi machinery ----------


def test_phi_recursion_level_bounds(heis_ext):
    L, _, _ = heis_ext
    with pytest.raises(BadLevel):
        phi_recursion(L, gfp.zeros(8), gfp.zeros(8), 3)  # p = 2 has level 2 only


def test_phi_recursion_equal_arguments_vanish(psl3_pipelines):
    L = psl3_pipelines["D3"]["L"]
    rng = SplitMix64(51)
    for _ in range(20):
        x = rng.vec(9, 3)
        tab = phi_recursion(L, x, x, 3)
        assert all(not v.any() for v in tab.values())


def test_phi_recursion_matches_s_coefficients_p3(psl3_pipelines):
    L = psl3_pipelines["D3"]["L"]
    rng = SplitMix64(52)
    for _ in range(200):
        x, y = rng.vec(9, 3), rng.vec(9, 3)
        tab = phi_recursion(L, x, y, 3)
        s = compute_s(L, x, y)
        for i in (1, 2):
            assert np.array_equal(tab[(3, i)], (i * s[i - 1]) % 3)


def test_phi_recursion_matches_polyvec_tower_p5(sl2_ext):
    # levels 3..5 against the brute-force formal expansion
    L, _, _ = sl2_ext
    rng = SplitMix64(53)
    p = 5
    for _ in range(200):
        x, y = rng.vec(5, p), rng.vec(5, p)
        tab = phi_recursion(L, x, y, 5)
        for level in (3, 4, 5):
            ops = [
                (L.ad(L.apply_alpha(y, t)), L.ad(L.apply_alpha(x, t)))
                for t in range(level - 2, -1, -1)
            ]
            pv = oracles.polyvec_apply(ops, oracles.PolyVec.constant(x, p), max_degree=p - 1)
            for i in range(1, level):
                assert np.array_equal(tab[(level, i)], pv.coeff(i - 1))


def test_phi_split_zero_translation(psl3_pipelines):
    data = psl3_pipelines["D3"]
    frame = split_frame(data["L"], data["B_L"], data["P_L"])
    split = phi_split(frame, gfp.eye(7), gfp.zeros(7), 3)
    for vec, sc in split.values():
        assert not vec.any() and sc == 0


def test_phi_split_consistency_with_recursion(psl3_pipelines, sl2_ext):
    data = psl3_pipelines["D3"]
    frame = split_frame(data["L"], data["B_L"], data["P_L"])
    rng = SplitMix64(54)
    for _ in range(60):
        t = rng.vec(7, 3)
        split = phi_split(frame, gfp.eye(7), t, 3)
        y9 = gfp.zeros(9)
        y9[1:8] = (-t) % 3
        tab = phi_recursion(data["L"], gfp.unit(9, 0), y9, 3)
        for (lvl, i), (vec, sc) in split.items():
            full = gfp.zeros(9)
            full[1:8] = vec
            full[8] = sc
            assert np.array_equal(full, tab[(lvl, i)])
    L5, B5, _ = sl2_ext
    frame5 = split_frame(L5, B5)
    for _ in range(40):
        t = rng.vec(3, 5)
        split = phi_split(frame5, gfp.eye(3), t, 5)
        y5 = gfp.zeros(5)
        y5[1:4] = (-t) % 5
        tab = phi_recursion(L5, gfp.unit(5, 0), y5, 5)
        for (lvl, i), (vec, sc) in split.items():
            full = gfp.zeros(5)
            full[1:4] = vec
            full[4] = sc
            assert np.array_equal(full, tab[(lvl, i)])


def test_phi_split_matches_recursion_at_p7_up_to_level_7():
    """sl2 over GF(7) extended by ad(H): every entry of levels 2..7, so the
    batched level step runs five times."""
    p = 7
    V = HomLieAlgebra.from_upper(p, 3, {(0, 1): [p - 2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, p - 2]})
    B = BilinearForm(np.array([[0, 0, 1], [0, 2, 0], [1, 0, 0]]), p)
    L, B_L = double_extend(V, B, DoubleExtensionData(Derivation(np.diag([2, 0, p - 2]), p), gfp.zeros(3), 1, 0))
    frame = split_frame(L, B_L)
    rng = SplitMix64(58)
    for _ in range(10):
        t = rng.vec(3, p)
        y = gfp.zeros(5)
        y[1:4] = (-t) % p
        for level in range(2, p + 1):
            split = phi_split(frame, gfp.eye(3), t, level)
            tab = phi_recursion(L, gfp.unit(5, 0), y, level)
            assert set(split) == set(tab) == {(lvl, i) for lvl in range(2, level + 1) for i in range(1, lvl)}
            for key, (vec, sc) in split.items():
                assert np.array_equal(np.concatenate([[0], vec, [sc]]), tab[key]), key
    assert any(vec.any() for vec, _ in split.values())


def test_theorem_route_counts_x0_in_every_twist_power():
    """alpha(e*) = e* + x0 + lambda0 e, so alpha^(l-2)(e*) carries
    x0 + alpha(x0) + ... + alpha^(l-3)(x0).  An abelian hyperbolic V = GF(7)^2
    with alpha = -id, zero p-map and D = diag(1, -1) (D^7 = D, so xi = 1)
    admits adapted maps with pi0 = id, gamma = 1 and any t, whose target has
    x0~ = x0 - 2t != 0 and brackets [x0~, V] = B(D x0~, V) e != 0: phi_split
    agrees with the recursion and s~ with compute_s, and both verdicts pass."""
    p = 7
    V = HomLieAlgebra(p, np.zeros((2, 2, 2), dtype=np.int64), (p - 1) * gfp.eye(2))
    B = BilinearForm([[0, 1], [1, 0]], p)
    D = Derivation(np.diag([1, p - 1]), p)
    P = PStructure(V, np.zeros((2, 2), dtype=np.int64))
    rng = SplitMix64(59)
    for x0 in (gfp.unit(2, 0), gfp.zeros(2)):
        d = DoubleExtensionData(D, x0, 1, 0)
        L, B_L = double_extend(V, B, d)
        P_L = extend_pstructure(L, V, B, P, d, PExtensionData(1, gfp.zeros(2), 0, 0, gfp.zeros(2), gfp.zeros(2), p))
        for _ in range(4):
            t = rng.vec(2, p)
            x0t = (x0 - 2 * t) % p
            Lt, B_Lt = double_extend(V, B, DoubleExtensionData(D, x0t, 1, (B.eval(x0t, t) + B.eval(x0, t)) % p))
            y = np.concatenate([[0], (-t) % p, [0]])
            tab = phi_recursion(Lt, gfp.unit(4, 0), y, p)
            for key, (vec, sc) in phi_split(split_frame(Lt, B_Lt), gfp.eye(2), t, p).items():
                assert np.array_equal(np.concatenate([[0], vec, [sc]]), tab[key]), key
            assert np.array_equal(s_tilde(Lt, B_Lt, gfp.eye(2), t), s_tilde_direct(Lt, gfp.eye(2), t))
            pi = build_adapted_iso(L, B_L, Lt, B_Lt, AdaptedIso(gfp.eye(2), 1, t, p))
            rep = verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, transported_pstructure(L, P_L, Lt, pi), pi)
            assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "pass", t


def test_phi_split_closed_forms_p3(psl3_pipelines):
    # level-3 closed forms of the central coefficients
    data = psl3_pipelines["D3"]
    frame = split_frame(data["L"], data["B_L"], data["P_L"])
    dt, bv, av = frame.d.D, frame.B_V, frame.V.alpha
    rng = SplitMix64(55)
    for _ in range(60):
        t = rng.vec(7, 3)
        split = phi_split(frame, gfp.eye(7), t, 3)
        want = (-bv.eval(dt((av @ t) % 3), dt(t))) % 3
        assert split[(3, 1)][1] == want
        assert split[(3, 2)][1] == 0


def test_s_tilde_matches_direct(psl3_pipelines, sl2_ext, heis_ext):
    data = psl3_pipelines["D3"]
    L, B_L = data["L"], data["B_L"]
    rng = SplitMix64(56)
    assert not s_tilde(L, B_L, gfp.eye(7), gfp.zeros(7)).any()
    for _ in range(60):
        t = rng.vec(7, 3)
        assert np.array_equal(s_tilde(L, B_L, gfp.eye(7), t), s_tilde_direct(L, gfp.eye(7), t))
    L5, B5, _ = sl2_ext
    for _ in range(40):
        t = rng.vec(3, 5)
        assert np.array_equal(s_tilde(L5, B5, gfp.eye(3), t), s_tilde_direct(L5, gfp.eye(3), t))
    L2, B2, _ = heis_ext  # p = 2: s~ is Phi(2, 1) = D~(pi0 t), with central part 0
    for _ in range(40):
        t = rng.vec(6, 2)
        assert np.array_equal(s_tilde(L2, B2, gfp.eye(6), t), s_tilde_direct(L2, gfp.eye(6), t))


def test_s_tilde_zero_derivation_lands_in_v(psl3_twisted):
    # D~ = 0 kills every central coefficient; s~ degenerates into V
    ga, ba, _, _ = psl3_twisted
    zero = Derivation(np.zeros((7, 7), dtype=np.int64), 3)
    d = DoubleExtensionData(zero, gfp.zeros(7), 1, 0)
    Lt, B_Lt = double_extend(ga, ba, d)
    rng = SplitMix64(57)
    for _ in range(20):
        t = rng.vec(7, 3)
        st = s_tilde(Lt, B_Lt, gfp.eye(7), t)
        assert st[0] == 0 and st[8] == 0
        assert np.array_equal(st, s_tilde_direct(Lt, gfp.eye(7), t))


def test_restricted_iso_equal_pstructures_share_one_table(heis_ext, psl3_pipelines):
    # L_tilde == L as separate objects (isom-check L L2): only P_L's table is
    # built, and the direct counts equal an independent fold of both sides.
    # A corrupted bracket keeps these inputs on the domain route.
    _, B_L, P_L = heis_ext
    P_L = _corrupt_bracket(P_L, 1, 2, 1)
    L = P_L.parent
    L2 = HomLieAlgebra(L.p, L.c.copy(), L.alpha.copy(), L.basis_names)
    xs = gfp.all_vectors(8, 2)
    for t, nu in ((gfp.zeros(6), 0), (gfp.unit(6, 2), 0), (gfp.unit(6, 2), 1)):
        pi = build_adapted_iso(L, B_L, L, B_L, AdaptedIso(gfp.eye(6), 1, t, 2, nu))
        P_L2 = PStructure(L2, P_L.images.copy())
        rep = verify_restricted_iso(L, B_L, L2, B_L, P_L, P_L2, pi)
        assert P_L2._all_images is None
        lhs = (eval_p_batch(P_L, xs) @ pi.T) % 2
        rhs = eval_p_batch(P_L2, (xs @ pi.T) % 2)
        bad = int(((lhs - rhs) % 2).any(axis=1).sum())
        assert (rep.check("direct").passed, rep.check("direct").failed) == (256 - bad, bad)
        assert rep.check("verdicts_agree").ok
    # a different p-map on the same algebra still gets its own table
    imgs = P_L.images.copy()
    imgs[3, 7] = (imgs[3, 7] + 1) % 2
    P_other = PStructure(L2, imgs)
    rep = verify_restricted_iso(L, B_L, L2, B_L, P_L, P_other, gfp.eye(8))
    assert P_other._all_images is not None
    assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "fail"
    data = psl3_pipelines["D3"]
    P3 = _corrupt_bracket(data["P_L"], 1, 2, 1)
    L3 = P3.parent
    L3b = HomLieAlgebra(3, L3.c.copy(), L3.alpha.copy())
    P3b = PStructure(L3b, data["P_L"].images)
    rep = verify_restricted_iso(L3, data["B_L"], L3b, data["B_L"], P3, P3b, gfp.eye(9))
    assert P3b._all_images is None
    assert rep.ok and rep.check("direct").passed == 3**9


def test_restricted_iso_theorem_route_reads_the_direct_table(psl3_pipelines, monkeypatch):
    # exhaustive: both routes read P_L's eval_p_all table and never fold; the
    # theorem checks come out as in the sampled regime, which folds.  A
    # corrupted bracket keeps the input on the domain route.
    data = psl3_pipelines["D3"]
    P_L = _corrupt_bracket(data["P_L"], 1, 2, 1)
    L, B_L = P_L.parent, data["B_L"]
    with monkeypatch.context() as m:
        m.setattr(restricted, "EXHAUSTIVE_LIMIT", 0)
        sampled = verify_restricted_iso(L, B_L, L, B_L, P_L, P_L, gfp.eye(9))
    calls = []
    fold = restricted.eval_p_batch

    def counted(P, xs):
        calls.append(len(xs))
        return fold(P, xs)

    monkeypatch.setattr(restricted, "eval_p_batch", counted)
    monkeypatch.setattr(isom, "eval_p_batch", counted, raising=False)  # in case isom imports it
    rep = verify_restricted_iso(L, B_L, L, B_L, P_L, P_L, gfp.eye(9))
    assert calls == []
    assert rep.meta["regimes"] == {"direct": "exhaustive", "theorem": "sampled"} and rep.ok

    def theorem(r):
        return [c.to_dict() for name, c in r.checks.items() if name.startswith("thm_")]

    assert theorem(rep) == theorem(sampled) != []


# ---------- int64 envelope ----------

BIG_P = 1239850223  # 6 (p-1)^2 is just below 2^63: two reduced factors fit int64, three do not


def _reflection(p, G, v):
    """x -> x - 2 B(x, v)/B(v, v) v, an isometry of the form G, on Python integers."""
    gv = oracles.product_exact(p, G, v)
    c = 2 * gfp.inv(int(oracles.product_exact(p, v, gv)), p) % p
    cv = np.array([c * int(x) % p for x in v], dtype=np.int64)
    return (gfp.eye(len(v)) - oracles.product_exact(p, cv[:, None], gv[None, :])) % p


def test_verify_adapted_iso_form_does_not_wrap_at_the_largest_p():
    """Abelian algebras of dim 6, a dense symmetric G and an invertible S:
    S is an isometry from S^T G S (on Python integers) to G."""
    p, n = BIG_P, 6
    assert n * (p - 1) ** 2 < 2**63
    rng = np.random.default_rng(21)
    m = rng.integers(0, p, size=(n, n))
    G = (m + m.T) % p
    S = rng.integers(0, p, size=(n, n))
    A = HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), gfp.eye(n))
    rep = verify_adapted_iso(A, BilinearForm(oracles.product_exact(p, S.T, G, S), p), A, BilinearForm(G, p), S)
    assert rep.check("form_preserved").ok and rep.check("form_preserved").passed == n * n


def test_adapted_iso_chains_do_not_wrap_at_the_largest_p():
    """Double extensions of an abelian V of dim 4 (L of dim 6) with alpha = -id
    by D = G^-1 K, K skew, and the target data built on Python integers: pi0
    a product of two reflections of the dense form G, D~ = gamma pi0 D pi0^-1,
    x0~ = gamma pi0 x0 - 2 pi0 t and lambda0~ from lambda0_compat.  Every
    chained product of the adapted-iso checks must reduce after each factor
    to find this adapted isomorphism."""
    p, n = BIG_P, 4
    rng = np.random.default_rng(22)
    m, k = rng.integers(0, p, size=(2, n, n))
    G, K = (m + m.T) % p, (k - k.T) % p
    D = oracles.product_exact(p, gfp.mat_inv(G, p), K)  # G D = K is skew
    pi0 = oracles.product_exact(p, *(_reflection(p, G, v) for v in rng.integers(0, p, size=(2, n))))
    gamma, lam0 = int(rng.integers(2, p)), int(rng.integers(0, p))
    x0, t = rng.integers(0, p, size=(2, n))
    g = gamma * gfp.eye(n)
    Dt = oracles.product_exact(p, g, pi0, D, gfp.mat_inv(pi0, p))
    x0t = (oracles.product_exact(p, g, pi0, x0) - 2 * oracles.product_exact(p, pi0, t)) % p
    lam0t = int(oracles.product_exact(p, x0t, G, pi0, t) + gamma * oracles.product_exact(p, x0, G, t)
                + gamma * gamma % p * lam0) % p
    V = HomLieAlgebra(p, np.zeros((n, n, n), dtype=np.int64), (p - 1) * gfp.eye(n))
    B = BilinearForm(G, p)
    L, B_L = double_extend(V, B, DoubleExtensionData(Derivation(D, p), x0, 1, lam0))
    Lt, B_Lt = double_extend(V, B, DoubleExtensionData(Derivation(Dt, p), x0t, 1, lam0t))
    iso = AdaptedIso(pi0, gamma, t, p)

    rep = check_adapted_iso_data(L, B_L, Lt, B_Lt, iso)
    assert rep.ok, [c.name for c in rep.failing()]
    pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
    ginv = gfp.inv(gamma, p)
    assert [int(v) for v in pi[1:1 + n, 0]] == [-ginv * int(v) % p for v in oracles.product_exact(p, pi0, t)]
    rep = verify_adapted_iso(L, B_L, Lt, B_Lt, pi)
    assert rep.ok, [c.name for c in rep.failing()]
    back, rep = extract_iso_data(L, B_L, pi)
    assert rep.ok, [c.name for c in rep.failing()]
    assert np.array_equal(back.pi0, pi0) and back.gamma == gamma and np.array_equal(back.t_pi, t)


def lambda_frame(sl2, lam):
    """sl2-gf5 extended with lambda = lam, x0 = (1 - lam) H and
    lambda0 = 2 (1 - lam), and a p-map solving basis R1 whose images have
    their e*-part cleared with the central e* - H."""
    p, H = 5, gfp.unit(3, 1)
    L, B_L = double_extend(sl2.g, sl2.B, DoubleExtensionData(sl2.D, (1 - lam) * H, lam, 2 * (1 - lam)))
    N = L.n
    apow = gfp.mat_pow(L.alpha, p - 1, p).T
    m = ((apow @ L.ad_batch(gfp.eye(N))) % p).reshape(N, N * N).T  # column k: ad(e_k) o alpha^{p-1}
    tower = restricted._tower_batch(L, gfp.eye(N)).reshape(N, N * N)
    z = (gfp.unit(N, 0) - gfp.unit(N, 2)) % p  # e* - H
    imgs = np.stack([gfp.solve(m, tower[j], p) for j in range(N)])
    return L, B_L, PStructure(L, (imgs - imgs[:, :1] * z) % p)


def test_restricted_iso_on_frames_with_lambda_not_one(sl2):
    """lambda in {2, 3, 4}: automorphisms with pi0 = I, gamma in {2, 3, 4} and
    t = (1 - gamma) H carry the p-map to one for which both verdicts pass.
    The theorem route reads s~ from compute_s_batch; oracles.s_tilde assumes
    lambda = 1 and is not the R3 sum on these frames."""
    p, H = 5, gfp.unit(3, 1)
    rng = SplitMix64(0x1A)
    for lam in (2, 3, 4):
        L, B_L, P_L = lambda_frame(sl2, lam)
        assert split_frame(L, B_L, P_L).d.lam == lam and verify_pstructure(P_L).ok
        for gamma in (2, 3, 4):
            a = AdaptedIso(gfp.eye(3), gamma, (1 - gamma) * H, p)
            assert check_adapted_iso_data(L, B_L, L, B_L, a).ok
            pi = build_adapted_iso(L, B_L, L, B_L, a)
            rep = verify_restricted_iso(L, B_L, L, B_L, P_L, transported_pstructure(L, P_L, L, pi), pi)
            assert rep.meta["direct_verdict"] == rep.meta["theorem_verdict"] == "pass", (lam, gamma)
            assert rep.ok, [c.name for c in rep.failing()]
        ts = [rng.vec(3, p) for _ in range(20)]
        assert any(not np.array_equal(s_tilde(L, B_L, gfp.eye(3), t), s_tilde_direct(L, gfp.eye(3), t)) for t in ts)


# ---------- basis decision ----------


def sl2_extension(p):
    """sl2 over GF(p) (H^[p] = H, E^[p] = F^[p] = 0) extended by D = ad(H),
    with x0 = 0, lambda = 1, lambda0 = 0, xi = 0 and a0 = H."""
    V = HomLieAlgebra.from_upper(p, 3, {(0, 1): (-2 * gfp.unit(3, 0)) % p, (0, 2): gfp.unit(3, 1),
                                        (1, 2): (-2 * gfp.unit(3, 2)) % p})
    B = BilinearForm([[0, 0, 1], [0, 2, 0], [1, 0, 0]], p)
    P = PStructure(V, np.diag([0, 1, 0]))
    d = DoubleExtensionData(Derivation(np.diag([2, 0, p - 2]), p), gfp.zeros(3), 1, 0)
    L, B_L = double_extend(V, B, d)
    zero = gfp.zeros(3)
    return L, B_L, extend_pstructure(L, V, B, P, d, PExtensionData(0, gfp.unit(3, 1), 0, 0, zero, zero, p))


def corrupted_image(P, r, c):
    imgs = P.images.copy()
    imgs[r, c] = (imgs[r, c] + 1) % P.parent.p
    return PStructure(P.parent, imgs)


def iso_cases(heis, heis_ext, psl3_pipelines, sl2, sl2_ext, sampled_p5):
    """(name, kind, L, B_L, L~, B~, P_L, P~, pi) at p = 2, 3, 5 and 7.  kind is
    "decided" for identity and transported adapted maps, lambda != 1 frames
    and the identity of an alternating p = 2 tensor that is no Hom-Lie
    algebra, and names what keeps the others on the domain route."""
    cases = []

    def add(name, kind, L, B_L, Lt, B_Lt, P_L, P_Lt, pi):
        cases.append((name, kind, L, B_L, Lt, B_Lt, P_L, P_Lt, pi))

    def extension(name, L, B_L, P_L, instances, ci_maps):
        N = L.n
        add(f"{name} identity", "decided", L, B_L, L, B_L, P_L, P_L, gfp.eye(N))
        for k, (iso, Lt, B_Lt) in enumerate(instances):
            pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
            P_Lt = transported_pstructure(L, P_L, Lt, pi)
            add(f"{name} #{k}", "decided", L, B_L, Lt, B_Lt, P_L, P_Lt, pi)
            bad = corrupted_image(P_Lt, 1 + k % (N - 2), N - 1)
            add(f"{name} #{k} corrupted", "image", L, B_L, Lt, B_Lt, P_L, bad, pi)
        add(f"{name} corrupted e", "image", L, B_L, L, B_L, P_L, corrupted_image(P_L, N - 1, N - 1), gfp.eye(N))
        for gamma, t, nu in ci_maps:
            pi = build_adapted_iso(L, B_L, L, B_L, AdaptedIso(gfp.eye(N - 2), gamma, t, L.p, nu))
            add(f"{name} gamma={gamma} t={list(t)} nu={nu}", "not restricted", L, B_L, L, B_L, P_L, P_L, pi)
        bad = _corrupt_bracket(P_L, 1, 2, 1)
        add(f"{name} corrupted bracket", "bracket", bad.parent, B_L, bad.parent, B_L, bad, bad, gfp.eye(N))
        ecol = gfp.eye(N)
        ecol[1, N - 1] = 1
        add(f"{name} e column", "shape", L, B_L, L, B_L, P_L, P_L, ecol)
        # a form degenerate on V, and an e~-row over V outside the range of its Gram matrix
        gram = B_L.gram.copy()
        gram[1, 1:N - 1] = gram[1:N - 1, 1] = 0
        B_deg = BilinearForm(gram, L.p)
        trow = gfp.eye(N)
        trow[N - 1, 1] = 1
        add(f"{name} t unrecoverable", "shape", L, B_deg, L, B_deg, P_L, P_L, trow)

    ci_heis = [(1, [0, 0, 1, 0, 0, 0], 0), (1, [0, 0, 1, 0, 0, 0], 1)]
    extension("heis", *heis_ext, heis_instances(heis, 2, seed=0xE7), ci_heis)
    # at p = 2, c[1, 2] = c[2, 1] += e1 keeps c alternating but breaks Hom-Jacobi:
    # decided all the same, since R3 needs only an alternating c there
    L, B_L, P_L = heis_ext
    sym = _corrupt_bracket(_corrupt_bracket(P_L, 1, 2, 1), 2, 1, 1)
    assert sym.parent.alternating and not verify_hom_lie(sym.parent).ok
    add("heis alternating, no Hom-Lie", "decided", sym.parent, B_L, sym.parent, B_L, sym, sym, gfp.eye(8))
    for gamma, t, nu in ci_heis:
        pi = build_adapted_iso(L, B_L, L, B_L, AdaptedIso(gfp.eye(6), gamma, t, 2, nu))
        add(f"heis alternating, no Hom-Lie, nu={nu}", "not restricted", sym.parent, B_L, sym.parent, B_L,
            sym, sym, pi)
    D3 = psl3_pipelines["D3"]
    extension("psl3 D3", D3["L"], D3["B_L"], D3["P_L"], psl3_instances(D3, 2, seed=0xF2),
              [(2, [0] * 7, 0), (2, [1, 0, 0, 1, 0, 0, 2], 0)])
    D1 = psl3_pipelines["D1"]
    add("psl3 D1 identity", "decided", D1["L"], D1["B_L"], D1["L"], D1["B_L"], D1["P_L"], D1["P_L"], gfp.eye(9))
    extension("sl2-gf5", *sl2_ext, sl2_instances(sl2, 2, seed=0x55), [(2, [0, 4, 0], 0)])
    for lam in (2, 3):
        L, B_L, P_L = lambda_frame(sl2, lam)
        a = AdaptedIso(gfp.eye(3), 2, (1 - 2) * gfp.unit(3, 1), 5)  # t = (1 - gamma) H
        pi = build_adapted_iso(L, B_L, L, B_L, a)
        add(f"sl2 lambda={lam} identity", "decided", L, B_L, L, B_L, P_L, P_L, gfp.eye(5))
        add(f"sl2 lambda={lam} gamma=2", "decided", L, B_L, L, B_L, P_L, transported_pstructure(L, P_L, L, pi), pi)
    L7, B7, P7 = sl2_extension(7)
    f7, insts = split_frame(L7, B7), []
    for gamma, t in ((3, [1, 2, 0]), (1, [0, 0, 5])):  # D~ = gamma D + ad(t), as in sl2_instances
        dt = Derivation((gamma * f7.d.D.mat + f7.V.ad(t)) % 7, 7)
        Lt, B_Lt = double_extend(f7.V, f7.B_V, DoubleExtensionData(dt, gfp.zeros(3), 1, 0))
        insts.append((AdaptedIso(gfp.eye(3), gamma, t, 7), Lt, B_Lt))
    extension("sl2-gf7", L7, B7, P7, insts, [(2, [0, 6, 0], 0)])
    W = sampled_p5
    add("sampled-p5 identity", "decided", W["L"], W["B_L"], W["L"], W["B_L"], W["P_L"], W["P_L"], gfp.eye(13))
    add("sampled-p5 corrupted", "image", W["L"], W["B_L"], W["L"], W["B_L"], W["P_L"],
        corrupted_image(W["P_L"], 4, 12), gfp.eye(13))
    return cases


def test_basis_decision_equals_the_domain_route(heis, heis_ext, psl3_pipelines, sl2, sl2_ext, sampled_p5):
    """Every input's whole report equals oracles.restricted_iso_rows, the
    domain route with every row evaluated, the regimes apart; exactly the
    inputs of kind "decided" are decided, and those reports name "basis"
    for both routes."""
    seen = set()
    for name, kind, L, B_L, Lt, B_Lt, P_L, P_Lt, pi in iso_cases(heis, heis_ext, psl3_pipelines, sl2, sl2_ext,
                                                                 sampled_p5):
        got = verify_restricted_iso(L, B_L, Lt, B_Lt, PStructure(L, P_L.images), PStructure(Lt, P_Lt.images), pi,
                                    samples=20, seed=3).to_dict()
        want = oracles.restricted_iso_rows(L, B_L, Lt, B_Lt, P_L, P_Lt, pi, samples=20, seed=3).to_dict()
        if kind == "decided":
            want["meta"]["regimes"] = {"direct": "basis", "theorem": "basis"}
            assert want["summary"]["ok"], name
        assert got == want, name
        seen.add((L.p, kind, got["summary"]["ok"]))
    assert {p for p, kind, _ in seen if kind == "decided"} == {2, 3, 5, 7}
    assert {(kind, ok) for _, kind, ok in seen if kind != "decided"} == {
        ("image", False), ("not restricted", False), ("bracket", True), ("shape", False)}


def test_s_tilde_pair_runs_only_for_nonzero_pi0_t(heis, heis_ext, psl3_pipelines, sl2, sl2_ext, sampled_p5,
                                                monkeypatch):
    """thm_a0 and thm_l read s~ from one compute_s_batch pair (e~*, -pi0(t)).
    At pi0(t) = 0 the tower is k^{p-1} times a vector, so every s_i is 0 and
    no pair is computed; any other map computes exactly one.  Every report
    still equals the oracle's, which always computes the pair
    (test_basis_decision_equals_the_domain_route)."""
    calls = []
    real = isom.compute_s_batch
    monkeypatch.setattr(isom, "compute_s_batch", lambda *a: calls.append(1) or real(*a))
    seen = set()
    for name, _, L, B_L, Lt, B_Lt, P_L, P_Lt, pi in iso_cases(heis, heis_ext, psl3_pipelines, sl2, sl2_ext,
                                                              sampled_p5):
        calls.clear()
        verify_restricted_iso(L, B_L, Lt, B_Lt, P_L, P_Lt, pi, samples=20, seed=3)
        a, _ = extract_iso_data(L, B_L, pi)
        zero = not ((a.pi0 @ a.t_pi) % L.p).any()
        assert len(calls) == (0 if zero else 1), name
        seen.add(zero)
    assert seen == {True, False}


def test_decided_iso_draws_and_tables_nothing(heis_ext, sl2, sl2_ext, sampled_p5, monkeypatch):
    """A decided input calls no domain, eval_p_all or tally_domain, and folds
    only L's unit vectors, whose fold is their image, the N rows pi(e_j) and
    the n rows pi0(e_j) of L~, and the row pi0(t) of the theorem's a0~ and l~
    checks: N + N + n + n + 1 rows."""
    calls, folded = [], []
    for module, name in ((isom, "domain"), (isom, "tally_domain"), (restricted, "eval_p_all")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    real_fold = restricted.fold
    monkeypatch.setattr(restricted, "fold",
                        lambda p, xs, *rest: folded.append(np.asarray(xs)) or real_fold(p, xs, *rest))
    L, B_L, P_L = sl2_ext
    iso, Lt, B_Lt = sl2_instances(sl2, 4, seed=0x55)[1]
    pi = build_adapted_iso(L, B_L, Lt, B_Lt, iso)
    for L, B_L, Lt, B_Lt, P_L, P_Lt, pi in (
        (*heis_ext[:2], *heis_ext[:2], heis_ext[2], heis_ext[2], gfp.eye(8)),
        (L, B_L, Lt, B_Lt, P_L, transported_pstructure(L, P_L, Lt, pi), pi),
        (sampled_p5["L"], sampled_p5["B_L"], sampled_p5["L"], sampled_p5["B_L"], sampled_p5["P_L"],
         sampled_p5["P_L"], gfp.eye(13)),
    ):
        folded.clear()
        N, n, p = L.n, L.n - 2, L.p
        rep = verify_restricted_iso(L, B_L, Lt, B_Lt, PStructure(L, P_L.images), PStructure(Lt, P_Lt.images), pi)
        assert rep.ok and rep.meta["regimes"] == {"direct": "basis", "theorem": "basis"}
        assert calls == []
        a, _ = extract_iso_data(L, B_L, pi)
        emb = np.zeros((n + 1, N), dtype=np.int64)
        emb[:, 1:1 + n] = np.vstack([a.pi0.T, (a.pi0 @ a.t_pi) % p])
        allowed = {tuple(r) for r in np.vstack([gfp.eye(N), pi.T, emb])}
        rows_in = np.vstack(folded)
        assert len(rows_in) == 2 * N + 2 * n + 1
        assert {tuple(r) for r in rows_in} <= allowed


def test_build_adapted_iso_refuses_cores_of_different_dimension(heis_ext, sl2_ext):
    L, B_L, _ = heis_ext
    Lt, B_Lt, _ = sl2_ext
    with pytest.raises(DimMismatch, match="^double extensions have different core dimensions$"):
        build_adapted_iso(L, B_L, Lt, B_Lt, AdaptedIso(gfp.eye(6), 1, gfp.zeros(6), 2))
