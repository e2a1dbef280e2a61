"""Adapted and restricted isomorphisms between double extensions.

An adapted isomorphism preserves bracket, form and twist and maps the
coisotropic flag (central line plus V) onto its counterpart.  It is
determined by an automorphism of V, a nonzero scaling of the central
line and a translation vector; restrictedness of the induced map of
p-structures is characterized by an explicit equation list whose odd-
characteristic version needs the coefficient recursion implemented at
the bottom of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import BilinearForm, HomLieAlgebra
from .doubleext import ExtFrame, split_frame
from .errors import BadLevel, DimMismatch, NonInvertiblePi0, OddCharRequired, ZeroGamma
from .report import Report
from .restricted import EXHAUSTIVE_LIMIT, PStructure, compute_s, eval_p_all, eval_p_batch
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64


@dataclass
class AdaptedIso:
    pi0: np.ndarray
    gamma: int
    t_pi: np.ndarray
    nu: int = 0  # only meaningful in characteristic 2

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
    ginv = gfp.inv(a.gamma, p)
    pi = np.zeros((n + 2, n + 2), dtype=np.int64)
    pi[1:1 + n, 1:1 + n] = a.pi0
    pi[n + 1, 1:1 + n] = (f.B_V.gram @ a.t_pi) % p
    pi[n + 1, n + 1] = a.gamma
    pi[0, 0] = ginv
    pt = (a.pi0 @ a.t_pi) % p
    if p == 2:
        pi[1:1 + n, 0] = (ginv * pt) % p
        pi[n + 1, 0] = a.nu
    else:
        pi[1:1 + n, 0] = (-ginv * pt) % p
        pi[n + 1, 0] = (-ginv * gfp.inv(2, p) * f.B_V.eval(a.t_pi, a.t_pi)) % p
    return pi


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
    lhs = np.einsum("mk,ijk->ijm", pi0, V.c) % p
    rhs = np.einsum("ai,bj,abm->ijm", pi0, pi0, V.c) % p
    rep.record("pi0_bracket", not ((lhs - rhs) % p).any(), ())
    rep.record("pi0_isometry", np.array_equal((pi0.T @ B_V.gram @ pi0) % p, B_V.gram), ())
    rep.record("pi0_twist_commute", not ((pi0 @ V.alpha - V.alpha @ pi0) % p).any(), ())
    conj = (pi0_inv @ ft.D.mat @ pi0) % p
    want = (gamma * f.D.mat + V.ad(t)) % p
    rep.record("conjugated_derivation", np.array_equal(conj, want), (), lhs=conj, rhs=want)
    rep.record("lambda_match", f.lam == ft.lam, (), lhs=f.lam, rhs=ft.lam)
    btt = B_V.eval(t, t)
    if p == 2:
        lhsv = (pi0 @ ((V.alpha @ t + f.lam * t) % p)) % p
        rhsv = (gamma * (pi0 @ f.x0) + ft.x0) % p
        rep.record("x0_compat", np.array_equal(lhsv, rhsv), (), lhs=lhsv, rhs=rhsv)
        lam0_lhs = (B_V.eval(ft.x0, (pi0 @ t) % p) + gamma * B_V.eval(f.x0, t)) % p
        lam0_rhs = (ft.lam0 + gamma * gamma * f.lam0) % p
        rep.record("lambda0_compat", lam0_lhs == lam0_rhs, (), lhs=lam0_lhs, rhs=lam0_rhs)
        lhsr = ((ft.x0 @ B_V.gram @ pi0) + gamma * (f.x0 @ B_V.gram)) % p
        rhsr = (t @ B_V.gram @ ((V.alpha + f.lam * gfp.eye(f.n)) % p)) % p
        rep.record("x0_pairing", np.array_equal(lhsr, rhsr), (), lhs=lhsr, rhs=rhsr)
        beta_rhs = (btt + gfp.inv(gamma, p) ** 2 * ft.beta) % p
        rep.record("beta_compat", f.beta % p == beta_rhs % p, (), lhs=f.beta, rhs=beta_rhs)
    else:
        lhsv = (pi0 @ ((V.alpha @ t - f.lam * t) % p)) % p
        rhsv = (ft.x0 - gamma * (pi0 @ f.x0)) % p
        rep.record("x0_compat", np.array_equal(lhsv, rhsv), (), lhs=lhsv, rhs=rhsv)
        lam0_lhs = (B_V.eval(ft.x0, (pi0 @ t) % p) + gamma * B_V.eval(f.x0, t)) % p
        lam0_rhs = (ft.lam0 - gamma * gamma * f.lam0) % p
        rep.record("lambda0_compat", lam0_lhs == lam0_rhs, (), lhs=lam0_lhs, rhs=lam0_rhs)
        lhsr = ((ft.x0 @ B_V.gram @ pi0) - gamma * (f.x0 @ B_V.gram)) % p
        rhsr = (t @ B_V.gram @ ((V.alpha - f.lam * gfp.eye(f.n)) % p)) % p
        rep.record("x0_pairing", np.array_equal(lhsr, rhsr), (), lhs=lhsr, rhs=rhsr)
    return rep


def verify_adapted_iso(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    pi,
) -> Report:
    """Defining conditions of an adapted isomorphism, on basis tuples."""
    p, N = L.p, L.n
    pi = gfp.asmat(pi, p)
    rep = Report(p=p, dim=N)
    rep.record("invertible", gfp.mat_inv(pi, p) is not None, ())
    lhs = np.einsum("mk,ijk->ijm", pi, L.c) % p
    rhs = np.einsum("ai,bj,abm->ijm", pi, pi, L_tilde.c) % p
    bad = np.nonzero(((lhs - rhs) % p).any(axis=2))
    rep.check("bracket_preserved").passed = N * N - len(bad[0])
    for i, j in zip(*bad):
        rep.record("bracket_preserved", False, (int(i), int(j)), lhs=lhs[i, j], rhs=rhs[i, j])
    fl = (pi.T @ B_Lt.gram @ pi) % p
    bad = np.nonzero((fl - B_L.gram) % p)
    rep.check("form_preserved").passed = N * N - len(bad[0])
    for i, j in zip(*bad):
        rep.record("form_preserved", False, (int(i), int(j)), lhs=int(fl[i, j]), rhs=int(B_L.gram[i, j]))
    rep.record(
        "twist_intertwined",
        not ((pi @ L.alpha - L_tilde.alpha @ pi) % p).any(),
        (), lhs=(pi @ L.alpha) % p, rhs=(L_tilde.alpha @ pi) % p,
    )
    flag = gfp.eye(N)[1:]
    image, _ = gfp.rref((pi @ flag.T).T % p, p)
    target, _ = gfp.rref(flag, p)
    image = image[image.any(axis=1)]
    target = target[target.any(axis=1)]
    rep.record("flag_preserved", image.shape == target.shape and np.array_equal(image, target), ())
    return rep


def extract_iso_data(
    L: HomLieAlgebra,
    B_L: BilinearForm,
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    pi,
) -> tuple[AdaptedIso, Report]:
    """Read (pi0, gamma, t_pi, nu) off an adapted-form matrix.

    t_pi is recovered from the e~-row over the V columns by solving
    against the Gram matrix; the report flags any column whose shape
    contradicts the adapted normal form instead of silently fixing it.
    """
    p, N = L.p, L.n
    n = N - 2
    pi = gfp.asmat(pi, p)
    f = split_frame(L, B_L)
    rep = Report(p=p, dim=N)
    rep.record("flag_row_zero", not pi[0, 1:].any(), (), lhs=pi[0, 1:])
    gamma = int(pi[N - 1, N - 1])
    rep.record("gamma_nonzero", gamma % p != 0, (), lhs=gamma)
    rep.record("e_column_shape", not pi[:N - 1, N - 1].any(), (), lhs=pi[:, N - 1])
    pi0 = pi[1:1 + n, 1:1 + n].copy()
    trow = pi[N - 1, 1:1 + n]
    t = gfp.solve(f.B_V.gram.T % p, trow, p)
    if t is None:
        t = gfp.zeros(n)
        rep.record("t_recoverable", False, (), lhs=trow)
    nu = int(pi[N - 1, 0])
    a = AdaptedIso(pi0, gamma if gamma % p else 1, t, p, nu)
    if gamma % p:
        ginv = gfp.inv(gamma, p)
        rep.record("e_star_scale", pi[0, 0] % p == ginv, (), lhs=int(pi[0, 0]), rhs=ginv)
        pt = (pi0 @ t) % p
        if p == 2:
            rep.record("e_star_v_part", np.array_equal(pi[1:1 + n, 0], (ginv * pt) % p), ())
        else:
            rep.record("e_star_v_part", np.array_equal(pi[1:1 + n, 0], (-ginv * pt) % p), ())
            want_nu = (-ginv * gfp.inv(2, p) * f.B_V.eval(t, t)) % p
            rep.record("e_star_e_part", nu == want_nu, (), lhs=nu, rhs=want_nu)
    return a, rep


def _p_parts(L: HomLieAlgebra, P_L: PStructure, vs) -> tuple[np.ndarray, np.ndarray]:
    """V-part and e-part of the p-images of embedded V vectors."""
    n = L.n - 2
    m = np.asarray(vs, dtype=np.int64).shape[0]
    emb = np.zeros((m, L.n), dtype=np.int64)
    emb[:, 1:1 + n] = np.asarray(vs, dtype=np.int64) % L.p
    imgs = eval_p_batch(P_L, emb)
    return imgs[:, 1:1 + n], imgs[:, L.n - 1]


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
    exhaustive: bool | None = None,
) -> Report:
    """Two independent restrictedness verdicts that must agree.

    direct: pi(x^[p]) = pi(x)^[p] over all vectors (exhaustive when the
    space is small enough, sampled otherwise).  theorem: the equation
    list tying both p-structure extensions through (pi0, gamma, t, nu).
    The report's meta carries one verdict per route; a mismatch between
    them means a bug or a spec-level inconsistency, never silent repair.
    """
    p, N = L.p, L.n
    n = N - 2
    pi = gfp.asmat(pi, p)
    rep = Report(p=p, dim=N, seed=seed, samples=samples)

    count = p**N
    if exhaustive is None:
        exhaustive = count <= EXHAUSTIVE_LIMIT
    rng = SplitMix64(seed)
    if exhaustive and count <= EXHAUSTIVE_LIMIT:
        xs = gfp.all_vectors(N, p)
        imgs = eval_p_all(P_L)
        t_imgs = eval_p_all(P_Lt)
        lhs = (imgs @ pi.T) % p
        rhs = t_imgs[gfp.vec_index((xs @ pi.T) % p, p)]
    else:
        xs = np.stack([rng.vec(N, p) for _ in range(samples)])
        lhs = (eval_p_batch(P_L, xs) @ pi.T) % p
        rhs = eval_p_batch(P_Lt, (xs @ pi.T) % p)
    bad = np.nonzero(((lhs - rhs) % p).any(axis=1))[0]
    rep.check("direct").passed = xs.shape[0] - len(bad)
    for m in bad:
        rep.record("direct", False, (tuple(int(v) for v in xs[m]),), lhs=lhs[m], rhs=rhs[m])
    direct_ok = rep.check("direct").ok

    f = split_frame(L, B_L, P_L)
    ft = split_frame(L_tilde, B_Lt, P_Lt)
    a, shape_rep = extract_iso_data(L, B_L, L_tilde, B_Lt, pi)
    rep.merge(shape_rep)
    pe, pet = f.pe, ft.pe
    B_V = f.B_V
    pi0, gamma, t, nu = a.pi0, a.gamma, a.t_pi, a.nu
    ginv = gfp.inv(gamma, p)

    us = np.vstack([gfp.eye(n), np.stack([rng.vec(n, p) for _ in range(samples)])])
    sV, pV = _p_parts(L, P_L, us)
    pius = (us @ pi0.T) % p
    sVt, pVt = _p_parts(L_tilde, P_Lt, pius)
    btu = B_V.eval_batch(np.broadcast_to(t, us.shape), us)
    btu_p = np.power(btu, p) % p
    lhs = (sV @ pi0.T) % p
    rhs = (sVt + btu_p[:, None] * pet.u0[None, :]) % p
    bad = np.nonzero(((lhs - rhs) % p).any(axis=1))[0]
    rep.check("thm_pmap_pi0").passed = us.shape[0] - len(bad)
    for m in bad:
        rep.record("thm_pmap_pi0", False, (tuple(int(v) for v in us[m]),), lhs=lhs[m], rhs=rhs[m])

    bts = B_V.eval_batch(np.broadcast_to(t, sV.shape), sV)
    if p == 2:
        want = (gamma * pV + bts + btu_p * pet.m) % p
    else:
        want = (gamma * pV + bts - btu_p * pet.m) % p
    bad = np.nonzero((pVt - want) % p)[0]
    rep.check("thm_P_pi0").passed = us.shape[0] - len(bad)
    for m in bad:
        rep.record("thm_P_pi0", False, (tuple(int(v) for v in us[m]),), lhs=int(pVt[m]), rhs=int(want[m]))

    pt = (pi0 @ t) % p
    spt_t, ppt_t = _p_parts(L_tilde, P_Lt, pt[None, :])
    spt_t, ppt_t = spt_t[0], int(ppt_t[0])
    btt = B_V.eval(t, t)
    bta0 = B_V.eval(t, pe.a0)
    btu0 = B_V.eval(t, pe.u0)
    if p == 2:
        a0_rhs = (
            gamma**2 * ((pi0 @ pe.a0) + ginv * pe.xi * pt)
            + gamma**2 * nu**2 * pet.u0
            + ft.D(pt)
            + spt_t
        ) % p
        l_rhs = (gamma**2 * (bta0 + gamma * pe.l + nu * pe.xi) + ppt_t + nu**2 * pet.m) % p
        xi_rhs = (gamma * pe.xi) % p
        m_rhs = (ginv**2 * (gamma * pe.m + btu0)) % p
        u0_rhs = (ginv**2 * (pi0 @ pe.u0)) % p
    else:
        split = phi_split(ft, pi0, t, p)
        phi_i_sum = gfp.zeros(n)
        phi_ii_sum = 0
        for i in range(1, p):
            vec_i, sc_ii = split[(p, i)]
            phi_i_sum = (phi_i_sum + gfp.inv(i, p) * vec_i) % p
            phi_ii_sum = (phi_ii_sum + gfp.inv(i, p) * sc_ii) % p
        inv2p = pow(gfp.inv(2, p), p, p)
        a0_rhs = (
            pow(gamma, p, p) * ((pi0 @ pe.a0) - ginv * pe.xi * pt)
            + inv2p * pow(btt, p, p) * pet.u0
            + spt_t
            - phi_i_sum
        ) % p
        l_rhs = (
            pow(gamma, p, p) * (bta0 + gamma * pe.l - pe.xi * gfp.inv(2, p) * ginv * btt)
            + ppt_t
            + inv2p * pow(btt, p, p) * pet.m
            - phi_ii_sum
        ) % p
        xi_rhs = (pow(gamma, p - 1, p) * pe.xi) % p
        m_rhs = (pow(ginv, p, p) * (gamma * pe.m + btu0)) % p
        u0_rhs = (pow(ginv, p, p) * (pi0 @ pe.u0)) % p
    rep.record("thm_a0", np.array_equal(pet.a0, a0_rhs), (), lhs=pet.a0, rhs=a0_rhs)
    rep.record("thm_l", pet.l % p == l_rhs, (), lhs=pet.l, rhs=l_rhs)
    rep.record("thm_xi", pet.xi % p == xi_rhs, (), lhs=pet.xi, rhs=xi_rhs)
    rep.record("thm_m", pet.m % p == m_rhs, (), lhs=pet.m, rhs=m_rhs)
    rep.record("thm_u0", np.array_equal(pet.u0, u0_rhs), (), lhs=pet.u0, rhs=u0_rhs)

    theorem_ok = all(
        rep.check(name).ok
        for name in ("thm_pmap_pi0", "thm_P_pi0", "thm_a0", "thm_l", "thm_xi", "thm_m", "thm_u0")
    )
    rep.meta["direct_verdict"] = "pass" if direct_ok else "fail"
    rep.meta["theorem_verdict"] = "pass" if theorem_ok else "fail"
    rep.record("verdicts_agree", direct_ok == theorem_ok, (),
               lhs=rep.meta["direct_verdict"], rhs=rep.meta["theorem_verdict"])
    return rep


def phi_recursion(L_tilde: HomLieAlgebra, x, y, level: int) -> dict:
    """Coefficient family of the formal ad-tower, all levels 3..level.

    Level 3 is the closed pair ([alpha(y),[y,x]], [alpha(x),[y,x]]); each
    higher level mixes the previous one through ad of the alpha-powers
    of x and y.  Entries are keyed (level, i) with 1 <= i <= level-1.
    """
    p = L_tilde.p
    if not 3 <= level <= p:
        raise BadLevel(f"level must lie in 3..{p}, got {level}")
    x = gfp.asvec(x, p)
    y = gfp.asvec(y, p)
    base = L_tilde.bracket(y, x)
    table = {
        (3, 1): L_tilde.bracket(L_tilde.apply_alpha(y), base),
        (3, 2): L_tilde.bracket(L_tilde.apply_alpha(x), base),
    }
    for lvl in range(4, level + 1):
        adx = L_tilde.ad(L_tilde.apply_alpha(x, lvl - 2))
        ady = L_tilde.ad(L_tilde.apply_alpha(y, lvl - 2))
        table[(lvl, 1)] = (ady @ table[(lvl - 1, 1)]) % p
        for i in range(2, lvl - 1):
            table[(lvl, i)] = (ady @ table[(lvl - 1, i)] + adx @ table[(lvl - 1, i - 1)]) % p
        table[(lvl, lvl - 1)] = (adx @ table[(lvl - 1, lvl - 2)]) % p
    return table


def phi_split(frame: ExtFrame, pi0, t_pi, level: int) -> dict:
    """V-part and central coefficient of each Phi entry, by recursion.

    Works in the target frame with x the dual line generator and
    y = -pi0(t_pi) in V; entries are keyed (level, i) mapping to
    (vector over V, scalar).  Assumes the restricted setting where the
    twist fixes the dual line up to the stored x0 corrections.
    """
    p = frame.V.p
    if not 3 <= level <= p:
        raise BadLevel(f"level must lie in 3..{p}, got {level}")
    V, B_V, D = frame.V, frame.B_V, frame.D
    pi0 = gfp.asmat(pi0, p)
    t = gfp.asvec(t_pi, p)
    if pi0.shape != (V.n, V.n) or t.shape[0] != V.n:
        raise DimMismatch("pi0 and t_pi must live on V")
    y = (-(pi0 @ t)) % p
    dy = D(y)
    phi1_i = V.bracket(V.apply_alpha(y), (-dy) % p)
    phi1_ii = B_V.eval(D(V.apply_alpha(y)), (-dy) % p)
    phi2_i = (-D(dy)) % p
    table = {(3, 1): (phi1_i, phi1_ii % p), (3, 2): (phi2_i, 0)}
    for lvl in range(4, level + 1):
        ay = V.apply_alpha(y, lvl - 2)
        day = D(ay)
        w0 = gfp.zeros(V.n)
        for j in range(1, lvl - 2):
            w0 = (w0 + V.apply_alpha(frame.x0, j)) % p
        dw0 = D(w0)
        prev = table
        cur_i = V.bracket(ay, prev[(lvl - 1, 1)][0])
        cur_ii = B_V.eval(day, prev[(lvl - 1, 1)][0])
        table[(lvl, 1)] = (cur_i, cur_ii)
        for i in range(2, lvl - 1):
            pv_i = prev[(lvl - 1, i)][0]
            pv_im1 = prev[(lvl - 1, i - 1)][0]
            cur_i = (V.bracket(ay, pv_i) + D(pv_im1) + V.bracket(w0, pv_im1)) % p
            cur_ii = (B_V.eval(day, pv_i) + B_V.eval(dw0, pv_im1)) % p
            table[(lvl, i)] = (cur_i, cur_ii)
        pv = prev[(lvl - 1, lvl - 2)][0]
        cur_i = (D(pv) + V.bracket(w0, pv)) % p
        cur_ii = B_V.eval(dw0, pv)
        table[(lvl, lvl - 1)] = (cur_i, cur_ii)
    return table


def s_tilde(
    L_tilde: HomLieAlgebra,
    B_Lt: BilinearForm,
    pi0,
    t_pi,
) -> np.ndarray:
    """Sum of the R3 coefficients at (e~*, -pi0(t_pi)), via the split recursion."""
    p = L_tilde.p
    if p < 3:
        raise OddCharRequired("s_tilde needs p >= 3")
    frame = split_frame(L_tilde, B_Lt)
    split = phi_split(frame, pi0, t_pi, p)
    n = frame.n
    out = gfp.zeros(n + 2)
    for i in range(1, p):
        vec_i, sc_ii = split[(p, i)]
        out[1:1 + n] = (out[1:1 + n] + gfp.inv(i, p) * vec_i) % p
        out[n + 1] = (out[n + 1] + gfp.inv(i, p) * sc_ii) % p
    return out


def s_tilde_direct(L_tilde: HomLieAlgebra, pi0, t_pi) -> np.ndarray:
    """Oracle route: sum compute_s(e~*, -pi0(t_pi)) inside L_tilde."""
    p, N = L_tilde.p, L_tilde.n
    n = N - 2
    pi0 = gfp.asmat(pi0, p)
    t = gfp.asvec(t_pi, p)
    y = gfp.zeros(N)
    y[1:1 + n] = (-(pi0 @ t)) % p
    total = gfp.zeros(N)
    for s in compute_s(L_tilde, gfp.unit(N, 0), y):
        total = (total + s) % p
    return total
