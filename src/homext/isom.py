"""Adapted and restricted isomorphisms between double extensions.

An adapted isomorphism preserves bracket, form and twist and maps the
coisotropic flag (central line plus V) onto its counterpart.  It is
determined by an automorphism of V, a nonzero scaling of the central
line and a translation vector; restrictedness of the induced map of
p-structures is characterized by an explicit equation list, one for
every characteristic.  Its a0~ and l~ equations read the sum of the R3
coefficients of the target at (e~*, -pi0(t)) from restricted.compute_s_batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import BilinearForm, HomLieAlgebra, _kept, bracket_sides
from .doubleext import split_frame
from .errors import DimMismatch, NonInvertiblePi0, ZeroGamma
from .report import Report, rows
from .restricted import PStructure, _yau_twist, compute_s_batch, domain, domain_size, p_map, tally_domain
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64, check_samples


@dataclass
class AdaptedIso:
    pi0: np.ndarray
    gamma: int
    t_pi: np.ndarray
    nu: int = 0  # e-part of pi(e*); build_adapted_iso reads it in characteristic 2 only

    def __init__(self, pi0, gamma: int, t_pi, p: int, nu: int = 0):
        self.pi0 = gfp.asmat(pi0, p)
        self.gamma = int(gamma) % p
        self.t_pi = gfp.asvec(t_pi, p)
        self.nu = int(nu) % p


def build_adapted_iso(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    a: AdaptedIso,
) -> np.ndarray:
    """Matrix of pi on the canonical frames of L and L_tilde.

    pi(u) = pi0(u) + B(t, u) e~ on V, pi(e) = gamma e~, and pi(e*) is
    gamma^{-1}(e~* + pi0(t)) + nu e~ in char 2, respectively
    gamma^{-1}(e~* - pi0(t) - B(t,t)/2 e~) in odd characteristic.
    """
    p = L.p
    f = split_frame(L, B_L)
    ft = split_frame(L_tilde, B_Lt)
    n = f.n
    if ft.n != n:
        raise DimMismatch("double extensions have different core dimensions")
    if a.gamma % p == 0:
        raise ZeroGamma("gamma must be nonzero")
    if gfp.mat_inv(a.pi0, p) is None:
        raise NonInvertiblePi0("pi0 must be invertible")
    pi = np.zeros((n + 2, n + 2), dtype=np.int64)
    pi[1:1 + n, 1:1 + n] = a.pi0
    pi[n + 1, 1:1 + n] = gfp.matmul(f.B_V.gram, a.t_pi, p)
    pi[n + 1, n + 1] = a.gamma
    pi[:, 0] = _e_star_column(a, f.B_V)
    return pi


def _e_star_column(a: AdaptedIso, B_V: BilinearForm) -> np.ndarray:
    """pi(e*) of the adapted normal form (build_adapted_iso), gamma nonzero."""
    p, n = B_V.p, len(a.t_pi)
    ginv = gfp.inv(a.gamma, p)
    col = gfp.zeros(n + 2)
    col[0] = ginv
    col[1:1 + n] = (-ginv * gfp.matmul(a.pi0, a.t_pi, p)) % p  # -1 = 1 in char 2
    col[n + 1] = a.nu if p == 2 else (-ginv * gfp.inv(2, p) * B_V.eval(a.t_pi, a.t_pi)) % p
    return col


def check_adapted_iso_data(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    a: AdaptedIso,
) -> Report:
    """The scalar/vector condition list that makes the built map adapted.

    Includes the automorphism requirements on pi0 (bracket and form
    preservation, twist-commutation) and the characteristic-specific
    compatibility equations tying (gamma, t_pi) to both extension data.
    """
    p = L.p
    f = split_frame(L, B_L)
    ft = split_frame(L_tilde, B_Lt)
    rep = Report(p=p, dim=f.n)
    V, B_V = f.V, f.B_V
    pi0, t, gamma = a.pi0, a.t_pi, a.gamma
    rep.record("gamma_nonzero", gamma % p != 0, (), lhs=gamma)
    pi0_inv = gfp.mat_inv(pi0, p)
    rep.record("pi0_invertible", pi0_inv is not None, ())
    if pi0_inv is None:
        return rep
    lhs, rhs = bracket_sides(pi0, V, V)
    rep.record("pi0_bracket", np.array_equal(lhs, rhs), ())  # both sides reduced
    rep.record("pi0_isometry", np.array_equal(gfp.matmul(gfp.matmul(pi0.T, B_V.gram, p), pi0, p), B_V.gram), ())
    rep.record("pi0_twist_commute", np.array_equal(gfp.matmul(pi0, V.alpha, p), gfp.matmul(V.alpha, pi0, p)), ())
    conj = gfp.matmul(gfp.matmul(pi0_inv, ft.d.D.mat, p), pi0, p)
    want = (gamma * f.d.D.mat + V.ad(t)) % p
    rep.record("conjugated_derivation", np.array_equal(conj, want), (), lhs=conj, rhs=want)
    rep.record("lambda_match", f.d.lam == ft.d.lam, (), lhs=f.d.lam, rhs=ft.d.lam)
    # The signs are those of odd characteristic; -1 = 1 makes them the char-2 list.
    lhsv = gfp.matmul(pi0, (gfp.matmul(V.alpha, t, p) - f.d.lam * t) % p, p)
    rhsv = (ft.d.x0 - gamma * gfp.matmul(pi0, f.d.x0, p)) % p
    rep.record("x0_compat", np.array_equal(lhsv, rhsv), (), lhs=lhsv, rhs=rhsv)
    lam0_lhs = (B_V.eval(ft.d.x0, gfp.matmul(pi0, t, p)) + gamma * B_V.eval(f.d.x0, t)) % p
    lam0_rhs = (ft.d.lam0 - gamma * gamma * f.d.lam0) % p
    rep.record("lambda0_compat", lam0_lhs == lam0_rhs, (), lhs=lam0_lhs, rhs=lam0_rhs)
    lhsr = (gfp.matmul(gfp.matmul(ft.d.x0, B_V.gram, p), pi0, p) - gamma * gfp.matmul(f.d.x0, B_V.gram, p)) % p
    rhsr = gfp.matmul(gfp.matmul(t, B_V.gram, p), (V.alpha - f.d.lam * gfp.eye(f.n)) % p, p)
    rep.record("x0_pairing", np.array_equal(lhsr, rhsr), (), lhs=lhsr, rhs=rhsr)
    if p == 2:
        beta_rhs = (B_V.eval(t, t) + gfp.inv(gamma, p) ** 2 * ft.d.beta) % p
        rep.record("beta_compat", f.d.beta == beta_rhs, (), lhs=f.d.beta, rhs=beta_rhs)
    return rep


def verify_adapted_iso(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    pi,
) -> Report:
    """Defining conditions of an adapted isomorphism, on basis tuples.

    The report is made once per L, L_tilde and content of (B_L, B_Lt, pi),
    and kept on L (`_kept`): verify_restricted_iso reads its hypotheses
    from it, so `homext isom-check` checks the bracket once.  L_tilde is
    immutable, so the key holds it rather than a copy of its tensor, which
    would raise the peak memory of `isom-check` by the tensor's size.
    """
    pi = gfp.asmat(pi, L.p)
    key = ("adapted_iso", L_tilde) + tuple((m.shape, m.tobytes()) for m in (B_L.gram, B_Lt.gram, pi))
    return _kept(L, key, lambda: _adapted_iso_report(L, B_L, L_tilde, B_Lt, pi))


def _adapted_iso_report(L: HomLieAlgebra, B_L: BilinearForm, L_tilde: HomLieAlgebra, B_Lt: BilinearForm,
                        pi: np.ndarray) -> Report:
    p, N = L.p, L.n
    rep = Report(p=p, dim=N)
    rep.record("invertible", gfp.mat_inv(pi, p) is not None, ())
    lhs, rhs = bracket_sides(pi, L, L_tilde)
    rep.tally("bracket_preserved", (lhs != rhs).any(axis=2), lhs, rhs)  # both sides reduced
    fl = gfp.matmul(gfp.matmul(pi.T, B_Lt.gram, p), pi, p)
    rep.tally("form_preserved", fl != B_L.gram, fl, B_L.gram)
    lhs, rhs = gfp.matmul(pi, L.alpha, p), gfp.matmul(L_tilde.alpha, pi, p)
    rep.record("twist_intertwined", np.array_equal(lhs, rhs), (), lhs=lhs, rhs=rhs)
    # pi maps span(e_1, ..., e_{N-1}) onto itself: row 0 is zero there and the block is invertible
    rep.record("flag_preserved", not pi[0, 1:].any() and gfp.rank(pi[1:, 1:], p) == N - 1, ())
    return rep


def extract_iso_data(L: HomLieAlgebra, B_L: BilinearForm, pi) -> tuple[AdaptedIso, Report]:
    """Read (pi0, gamma, t_pi, nu) off an adapted-form matrix pi: L -> L~.

    It reads pi and the V block of B_L only, not L's bracket or L~, and
    leaves the frame checks to split_frame.  t_pi is recovered from the
    e~-row over the V columns by solving against the Gram matrix; the
    report flags any column whose shape contradicts the adapted normal form
    instead of silently fixing it.
    """
    p, N = L.p, L.n
    n = N - 2
    pi = gfp.asmat(pi, p)
    B_V = BilinearForm(B_L.gram[1:1 + n, 1:1 + n], p)
    rep = Report(p=p, dim=N)
    rep.record("flag_row_zero", not pi[0, 1:].any(), (), lhs=pi[0, 1:])
    gamma = int(pi[N - 1, N - 1])
    rep.record("gamma_nonzero", gamma % p != 0, (), lhs=gamma)
    rep.record("e_column_shape", not pi[:N - 1, N - 1].any(), (), lhs=pi[:, N - 1])
    pi0 = pi[1:1 + n, 1:1 + n].copy()
    trow = pi[N - 1, 1:1 + n]
    t = gfp.solve(B_V.gram.T, trow, p)
    if t is None:
        t = gfp.zeros(n)
        rep.record("t_recoverable", False, (), lhs=trow)
    nu = int(pi[N - 1, 0])
    a = AdaptedIso(pi0, gamma if gamma % p else 1, t, p, nu)
    if gamma % p:
        col = _e_star_column(a, B_V)
        rep.record("e_star_scale", pi[0, 0] == col[0], (), lhs=int(pi[0, 0]), rhs=int(col[0]))
        rep.record("e_star_v_part", np.array_equal(pi[1:1 + n, 0], col[1:1 + n]), ())
        if p != 2:  # nu is free at p = 2, where the column copies it
            rep.record("e_star_e_part", nu == col[n + 1], (), lhs=nu, rhs=int(col[n + 1]))
    return a, rep


def _p_parts(L: HomLieAlgebra, pmap, vs) -> tuple[np.ndarray, np.ndarray]:
    """V- and e-parts of pmap (a batch p-map of L) on embedded V vectors."""
    n = L.n - 2
    m = np.asarray(vs, dtype=np.int64).shape[0]
    emb = np.zeros((m, L.n), dtype=np.int64)
    emb[:, 1:1 + n] = np.asarray(vs, dtype=np.int64) % L.p
    imgs = pmap(emb)
    return imgs[:, 1:1 + n], imgs[:, L.n - 1]


def _same_pmap(P: PStructure, Q: PStructure) -> bool:
    """Whether P and Q are one p-map: equal algebras and basis images, so the
    direct route reads one eval_p_all table, not two."""
    A, B = P.parent, Q.parent
    return P is Q or (
        A.p == B.p
        and np.array_equal(A.c, B.c)
        and np.array_equal(A.alpha, B.alpha)
        and np.array_equal(P.images, Q.images)
    )


def _agree(*sides) -> bool:
    """Whether every (lhs, rhs) pair in sides = (lhs, rhs, lhs, rhs, ...) is equal."""
    return all(np.array_equal(lhs, rhs) for lhs, rhs in zip(sides[::2], sides[1::2]))


def verify_restricted_iso(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    P_L: PStructure,
    P_Lt: PStructure,
    pi,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Two independent restrictedness verdicts that must agree.

    direct: pi(x^[p]) = pi(x)^[p].  theorem: the equation list tying both
    p-structure extensions through (pi0, gamma, t, nu); its thm_pmap_pi0 and
    thm_P_pi0 run on the unit vectors of V and `samples` seeded ones.

    Both are decided on the basis, and meta["regimes"] is {"direct":
    "basis", "theorem": "basis"}, when pi is a Hom-Lie isomorphism
    (verify_adapted_iso's invertible, bracket_preserved and
    twist_intertwined), L is a Yau twist (`_yau_twist`; at p = 2 an
    alternating tensor, `HomLieAlgebra.alternating`, is enough), [V, V] has no
    e*-part, pi passes extract_iso_data's shape checks, and both sides of
    each route agree on the basis: the direct defect on the N basis vectors,
    thm_pmap_pi0 and thm_P_pi0 on the n of V.  The defect is then
    GF(p)-linear, and those two checks are its V- and e~-parts on V (README,
    "Basis decision for isomorphisms").  They are tallied over the counts
    of the route below (direct over the `domain` size, thm_pmap_pi0 and
    thm_P_pi0 over n + samples), and nothing is drawn or tabled.

    Otherwise both run as follows, with meta["regimes"] naming the direct
    regime and "theorem": "sampled".  direct runs over the `domain` of P_L
    (every vector when the space is small enough, decided by `tally_domain`
    on the points of weight <= p, sampled otherwise).  When the two
    p-structures are one p-map (as for an automorphism), the exhaustive
    regime builds a single eval_p_all table, and both routes read it.  The
    report's meta carries one verdict per route; a mismatch between them
    means a bug or a spec-level inconsistency, never silent repair.
    """
    check_samples(samples)
    p, N = L.p, L.n
    n = N - 2
    pi = gfp.asmat(pi, p)
    a, shape_rep = extract_iso_data(L, B_L, pi)
    # The hypothesis under which the direct defect is GF(p)-linear and the two
    # theorem checks are its V- and e~-parts on V (README, "Basis decision for
    # isomorphisms"), cheapest first and before the frames are built: at odd p
    # and large n its verify_hom_lie sets the peak memory of `isom-check`.
    linear = (
        not any(c.failed for name, c in shape_rep.checks.items()
                if name in ("flag_row_zero", "gamma_nonzero", "e_column_shape", "t_recoverable"))
        and not L.c[1:1 + n, 1:1 + n, 0].any()  # [V, V] has no e*-part
        and all(c.ok for name, c in verify_adapted_iso(L, B_L, L_tilde, B_Lt, pi).checks.items()
                if name in ("invertible", "bracket_preserved", "twist_intertwined"))
        # R3 then holds for the folds of L and L~ = pi(L), whatever the images: at
        # p = 2 its one coefficient s_1(x, y) = [y, x] is bilinear, so an
        # alternating c is enough; at odd p, L must be a Yau twist
        and (L.alternating if p == 2 else _yau_twist(L))
    )
    f = split_frame(L, B_L, P_L)
    ft = split_frame(L_tilde, B_Lt, P_Lt)
    pe, pet = f.pe, ft.pe
    B_V = f.B_V
    pi0, gamma, t, nu = a.pi0, a.gamma, a.t_pi, a.nu
    ginv = gfp.inv(gamma, p)

    def direct_sides(vs, f_L, f_Lt):
        return gfp.matmul(f_L(vs), pi.T, p), f_Lt(gfp.matmul(vs, pi.T, p))

    def theorem_sides(us, f_L, f_Lt):
        """thm_pmap_pi0's, then thm_P_pi0's, sides on rows us of V."""
        sV, pV = _p_parts(L, f_L, us)
        sVt, pVt = _p_parts(L_tilde, f_Lt, gfp.matmul(us, pi0.T, p))
        btu = B_V.eval_batch(np.broadcast_to(t, us.shape), us)  # B(t, u)^p = B(t, u) in GF(p)
        bts = B_V.eval_batch(np.broadcast_to(t, sV.shape), sV)
        return (gfp.matmul(sV, pi0.T, p), (sVt + btu[:, None] * pet.u0[None, :]) % p,
                pVt, (gamma * pV + bts - btu * pet.m) % p)  # -1 = 1 in char 2

    fold_L, fold_Lt = p_map(P_L, False), p_map(P_Lt, False)
    if (linear and _agree(*direct_sides(gfp.eye(N), fold_L, fold_Lt))
            and _agree(*theorem_sides(gfp.eye(n), fold_L, fold_Lt))):
        rep = Report(p=p, dim=N, seed=seed, samples=samples, regimes={"direct": "basis", "theorem": "basis"})
        rep.check("direct").passed += domain_size(P_L.parent, samples)
        rep.merge(shape_rep)
        for name in ("thm_pmap_pi0", "thm_P_pi0"):
            rep.check(name).passed += n + samples
        t_pmap = fold_Lt
    else:
        rng = SplitMix64(seed)
        xs, pmap, regime = domain(P_L, samples, rng)
        t_pmap = pmap if _same_pmap(P_L, P_Lt) else p_map(P_Lt, regime == "exhaustive")
        rep = Report(p=p, dim=N, seed=seed, samples=samples, regimes={"direct": regime, "theorem": "sampled"})
        tally_domain(rep, "direct", regime, P_L, xs, [pmap, t_pmap], direct_sides)
        rep.merge(shape_rep)
        us = np.vstack([gfp.eye(n), rng.mat(samples, n, p)])
        lhs, rhs, pVt, want = theorem_sides(us, pmap, t_pmap)
        rep.tally("thm_pmap_pi0", ((lhs - rhs) % p).any(axis=1), lhs, rhs, witness=rows(us))
        rep.tally("thm_P_pi0", (pVt - want) % p != 0, pVt, want, witness=rows(us))

    pt = gfp.matmul(pi0, t, p)
    spt_t, ppt_t = _p_parts(L_tilde, t_pmap, pt[None, :])
    spt_t, ppt_t = spt_t[0], int(ppt_t[0])
    bta0 = B_V.eval(t, pe.a0)
    btu0 = B_V.eval(t, pe.u0)
    # x^p = x in GF(p), and gamma = 1/gamma = 1 and nu^2 = nu in GF(2), so no power is
    # needed: xi~ = gamma^(p-1) xi = xi, and m~ and u0~ take one formula for every p.
    xi_rhs = pe.xi
    m_rhs = (ginv * ((gamma * pe.m + btu0) % p)) % p
    u0_rhs = (ginv * gfp.matmul(pi0, pe.u0, p)) % p
    # a0~ and l~ too.  They read s~ = sum_i s_i(e~*, -pi0(t)), R3 coefficients of L~ from
    # one compute_s_batch pair: a0~ takes its V-part, l~ its e~-coefficient, and its
    # e~*-part is zero.  pi(e*) carries nu e~, whose p-th power is nu (m~ e~ + u0~), so u0~
    # and m~ enter with -gamma nu, which is B(t, t)/2 when pi preserves the form at odd p.
    # At pi0(t) = 0 the pair is (e~*, 0): the tower is k^{p-1} times a vector, so every s_i is 0
    y = gfp.zeros(N)
    y[1:1 + n] = (-pt) % p
    st = compute_s_batch(L_tilde, gfp.unit(N, 0)[None, :], y)[0].sum(axis=0) % p if pt.any() else gfp.zeros(N)
    c = (-gamma * nu) % p
    gxi = (ginv * pe.xi) % p
    a0_rhs = ((gamma * ((gfp.matmul(pi0, pe.a0, p) - gxi * pt) % p)) % p + (c * pet.u0) % p + spt_t - st[1:1 + n]) % p
    l_rhs = (gamma * ((bta0 + gamma * pe.l - gxi * c) % p) + ppt_t + c * pet.m - int(st[N - 1])) % p
    rep.record("thm_a0", np.array_equal(pet.a0, a0_rhs), (), lhs=pet.a0, rhs=a0_rhs)
    rep.record("thm_l", pet.l % p == l_rhs, (), lhs=pet.l, rhs=l_rhs)
    rep.record("thm_xi", pet.xi % p == xi_rhs, (), lhs=pet.xi, rhs=xi_rhs)
    rep.record("thm_m", pet.m % p == m_rhs, (), lhs=pet.m, rhs=m_rhs)
    rep.record("thm_u0", np.array_equal(pet.u0, u0_rhs), (), lhs=pet.u0, rhs=u0_rhs)

    theorem_ok = all(
        rep.check(name).ok
        for name in ("thm_pmap_pi0", "thm_P_pi0", "thm_a0", "thm_l", "thm_xi", "thm_m", "thm_u0")
    )
    direct_ok = rep.check("direct").ok
    rep.meta["direct_verdict"] = "pass" if direct_ok else "fail"
    rep.meta["theorem_verdict"] = "pass" if theorem_ok else "fail"
    rep.record("verdicts_agree", direct_ok == theorem_ok, (),
               lhs=rep.meta["direct_verdict"], rhs=rep.meta["theorem_verdict"])
    return rep
