"""Independent routes that exist only to cross-check the homext kernels.

PolyVec towers, the R3 coefficients and the p-map fold built on them, and
the coefficient recursion share no code with the batched kernels they are
compared against; formal_tower_full is the formal tower that brackets every
coefficient row, zero or not, in one bracket_batch call per step;
s_tilde_direct deliberately runs the library's compute_s, eval_P_fold its
compute_eta_batch, and phi_bracket_compat_loop its bracket.
phi_of_loop, psi_eval_loop, algebra_extension_loop and extend_by_algebra_loop
keep the per-index loops of the algebra extension, and solve_p_property_loop
the one-system-per-xi search.
reduce_loop reads the frame off L one coordinate vector at a time, with its
own flag checks, instead of rewriting L in the frame for split_frame.
bracket_dense, ad_dense, hom_jacobi_dense, leibniz_dense, contract_dense,
bracket_sides_dense, invariance_sides_dense, centralizer_dense and
twisted_tensor_dense contract the whole dense structure tensor, where the
kernels pay per nonzero structure constant or nonzero pair.
pstructure_rows, restricted_derivation_rows and iso_direct_rows evaluate
the exhaustive checks on every row of their domain, with p-images folded by
eval_p_batch, no line reduction and no decision on the points of weight <= p.
emit_stdlib writes a bundle through json.dumps(indent=2) from Python-int
lists, where bundle.emit joins the strings itself; algebra_index_dense
derives HomLieAlgebra's constant caches from dense masks of the n^3 tensor,
where the constructor reads the flat indices of the nonzero constants;
tally_domain_diff compares a check's sides through (lhs - rhs) % p arrays,
where tally_domain compares them with !=.
"""

from __future__ import annotations

import json

import numpy as np

from homext import bundle, gfp
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    center,
    d_invariant,
    invariance_sides,
    is_ideal,
    orth,
    verify_hom_lie,
)
from homext.doubleext import DoubleExtensionData, PExtensionData, ReduceResult
from homext.errors import (
    BadLevel,
    DegenerateFrame,
    DimMismatch,
    FrameMismatch,
    HomextError,
    NotCentral,
    NotPIdeal,
    ParseError,
)
from homext.report import Report, rows
from homext.restricted import (
    EXHAUSTIVE_LIMIT,
    PPropertyWitness,
    PStructure,
    compute_eta_batch,
    compute_s,
    compute_s_batch,
    eval_p,
    eval_p_batch,
    r1_defect_batch,
    restricted_defect_batch,
)
from homext.rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64


class DegreeOverflow(HomextError):
    """A polynomial-vector operation exceeded its degree cap (internal misuse)."""


class PolyVec:
    """Vector-valued polynomial over GF(p): the rows of a [deg+1, n] array,
    trailing zero coefficients trimmed."""

    def __init__(self, coeffs, p: int):
        a = np.asarray(coeffs, dtype=np.int64) % p
        if a.ndim != 2:
            raise DimMismatch("PolyVec wants a [deg+1, n] coefficient array")
        if a.shape[0] == 0:
            a = np.zeros((1, a.shape[1]), dtype=np.int64)
        nonzero = np.nonzero(a.any(axis=1))[0]
        self.coeffs = a[: (nonzero[-1] if nonzero.size else 0) + 1].copy()
        self.p = p

    @classmethod
    def constant(cls, v, p: int) -> "PolyVec":
        return cls(gfp.asvec(v, p)[None, :], p)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def coeff(self, d: int) -> np.ndarray:
        if d > self.degree:
            return gfp.zeros(self.coeffs.shape[1])
        return self.coeffs[d].copy()

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def eval_at(self, k: int) -> np.ndarray:
        powers = np.array([pow(k, d, self.p) for d in range(self.degree + 1)], dtype=np.int64)
        return (powers @ self.coeffs) % self.p


def polyvec_apply(ops, v: PolyVec, max_degree: int) -> PolyVec:
    """Apply the composition of operators (m0, m1) = m0 + k*m1, ops[-1] first.

    A nonzero coefficient beyond max_degree raises DegreeOverflow.
    """
    p = v.p
    cur = v.coeffs
    for m0, m1 in reversed(list(ops)):
        out = np.zeros((cur.shape[0] + 1, cur.shape[1]), dtype=np.int64)
        for d in range(cur.shape[0]):
            out[d] += gfp.asmat(m0, p) @ cur[d]
            out[d + 1] += gfp.asmat(m1, p) @ cur[d]
        cur = PolyVec(out, p).coeffs
        if cur.shape[0] - 1 > max_degree:
            raise DegreeOverflow(f"degree {cur.shape[0] - 1} exceeds cap {max_degree}")
    return PolyVec(cur, p)


def compute_s_polyvec(A: HomLieAlgebra, x, y) -> list[np.ndarray]:
    """s_1..s_{p-1} of one pair through a PolyVec tower: 1/i times the
    coefficient of k^{i-1} in ad(alpha^{p-2}(kx+y)) o ... o ad(kx+y) (x)."""
    p = A.p
    x, y = gfp.asvec(x, p), gfp.asvec(y, p)
    ops = [(A.ad(A.apply_alpha(y, t)), A.ad(A.apply_alpha(x, t))) for t in range(p - 2, -1, -1)]
    res = polyvec_apply(ops, PolyVec.constant(x, p), max_degree=p - 1)
    return [(gfp.inv(i, p) * res.coeff(i - 1)) % p for i in range(1, p)]


def formal_tower_full(A: HomLieAlgebra, xs, ys, depth: int) -> np.ndarray:
    """restricted._formal_tower with no skipped row and no shared factor:
    each step brackets alpha^t(y) and alpha^t(x) against every coefficient
    row, p(p-1) row-brackets a pair at depth p-1.  A [n] ys is broadcast to
    one row per x."""
    xs = np.asarray(xs, dtype=np.int64) % A.p
    ys = np.broadcast_to(np.asarray(ys, dtype=np.int64) % A.p, xs.shape)
    coeffs = np.zeros((xs.shape[0], depth + 1, A.n), dtype=np.int64)
    coeffs[:, 0, :] = xs
    zs = np.stack([ys, xs], axis=1)[:, :, None, :]  # [batch, 2, 1, n]
    for t in range(depth):
        if t:
            zs = gfp.mod(zs @ A.alpha.T, A.p)
        part = A.bracket_batch(zs, coeffs[:, None, :t + 1, :])
        coeffs[:, :t + 1, :] = part[:, 0]
        coeffs[:, 1:t + 2, :] += part[:, 1]
    return gfp.mod(coeffs, A.p)


def eval_p_fold(P: PStructure, x) -> np.ndarray:
    """x^[p] by the ascending R2/R3 fold, one coordinate at a time, with
    the R3 coefficients from compute_s_polyvec."""
    A = P.parent
    p, n = A.p, A.n
    x = gfp.asvec(x, p)
    acc_vec = gfp.zeros(n)
    acc_img = gfp.zeros(n)
    for j in range(n):
        lam = int(x[j])
        if lam == 0:
            continue
        part = (lam * gfp.unit(n, j)) % p
        acc_img = (acc_img + pow(lam, p, p) * P.images[j]) % p
        if acc_vec.any():
            acc_img = (acc_img + sum(compute_s_polyvec(A, acc_vec, part))) % p
        acc_vec = (acc_vec + part) % p
    return acc_img


def eval_P_fold(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, pe, vs) -> np.ndarray:
    """The odd-characteristic P map by the ascending fold of
    P(u+v) = P(u) + P(v) + sum_i eta_i(u, v), one coordinate at a time over
    the whole batch, with the eta_i computed on every row (no row skip)."""
    p, n = V.p, V.n
    vs = np.asarray(vs, dtype=np.int64) % p
    mcount = vs.shape[0]
    acc_vec = np.zeros((mcount, n), dtype=np.int64)
    acc_val = np.zeros(mcount, dtype=np.int64)
    for j in range(n):
        lam = vs[:, j]
        if not lam.any():
            continue
        parts = np.zeros((mcount, n), dtype=np.int64)
        parts[:, j] = lam
        part_val = lam * pe.P_basis[j] % p  # lam^p = lam in GF(p)
        etas = compute_eta_batch(V, B_V, D, acc_vec, parts).sum(axis=1) % p
        acc_val = (acc_val + part_val + etas) % p
        acc_vec[:, j] = lam
    return acc_val


def phi_bracket_compat_loop(V: HomLieAlgebra, x) -> Report:
    """The phi_bracket_compat check of check_algebra_extension_data, one
    V.bracket pair at a time: alpha phi_b [e_i, e_j] against
    [phi_b alpha e_i, e_j] + [e_i, phi_b alpha e_j], witness (b, i, j)."""
    p = V.p
    rep = Report()
    for b in range(x.A.n):
        ph = x.phi[b]
        pha = (ph @ V.alpha) % p
        for i in range(V.n):
            for j in range(V.n):
                lhs = (V.alpha @ ph @ V.c[i, j]) % p
                rhs = (V.bracket(pha[:, i], gfp.unit(V.n, j)) + V.bracket(gfp.unit(V.n, i), pha[:, j])) % p
                rep.record("phi_bracket_compat", np.array_equal(lhs, rhs), (b, i, j), lhs=lhs, rhs=rhs)
    return rep


def phi_of_loop(x, avec) -> np.ndarray:
    """phi(a) = sum_b a_b phi[b] for one vector a, one term at a time."""
    p = x.A.p
    out = np.zeros_like(x.phi[0])
    for b in range(x.A.n):
        out = (out + int(avec[b]) * x.phi[b]) % p
    return out


def psi_eval_loop(B_V: BilinearForm, x, u, v) -> np.ndarray:
    """psi(u, v) of one pair, one component B(phi(e_b) u, v) at a time."""
    p = B_V.p
    u, v = gfp.asvec(u, p), gfp.asvec(v, p)
    w = (B_V.gram @ v) % p
    return np.array([int((((m @ u) % p) @ w) % p) for m in x.phi], dtype=np.int64)


def algebra_extension_loop(V: HomLieAlgebra, B_V: BilinearForm, x) -> Report:
    """check_algebra_extension_data with the representation axioms recorded
    one index b, or pair (b, c), at a time through phi_of_loop, the bracket
    compatibility from phi_bracket_compat_loop and nondegeneracy of sigma
    from its inverse."""
    p, A = V.p, x.A
    rep = Report(p=p, dimV=V.n, dimA=A.n)
    rep.record("involutive_V", V.is_involutive(), ())
    rep.record("involutive_A", A.is_involutive(), ())
    arep = verify_hom_lie(A)
    rep.record("A_hom_lie", arep.ok, (), lhs=len(arep.failing()))
    for b in range(A.n):
        rep.record("phi_alternating", d_invariant(B_V, Derivation(x.phi[b], p), p), (b,))
        lhs = (phi_of_loop(x, A.alpha[:, b]) @ V.alpha) % p
        rhs = (V.alpha @ x.phi[b]) % p
        rep.record("rep_axiom_1", np.array_equal(lhs, rhs), (b,), lhs=lhs, rhs=rhs)
        lhs = phi_of_loop(x, A.alpha[:, b])
        rhs = (((V.alpha @ x.phi[b]) % p) @ V.alpha) % p
        rep.record("phi_twist_conjugation", np.array_equal(lhs, rhs), (b,), lhs=lhs, rhs=rhs)
    for b in range(A.n):
        for c in range(A.n):
            lhs = (phi_of_loop(x, A.c[b, c]) @ V.alpha) % p
            rhs = ((phi_of_loop(x, A.alpha[:, b]) @ x.phi[c]) % p
                   + (phi_of_loop(x, A.alpha[:, c]) @ x.phi[b]) % p) % p
            rep.record("rep_axiom_2", np.array_equal(lhs, rhs), (b, c), lhs=lhs, rhs=rhs)
    rep.merge(phi_bracket_compat_loop(V, x))
    g = x.sigma.gram
    rep.record("sigma_symmetric", np.array_equal(g, g.T % p), ())
    rep.record("sigma_nondegenerate", gfp.mat_inv(g, p) is not None, ())
    inv_lhs, inv_rhs = invariance_sides(A.c, g, p)
    rep.record("sigma_invariant", not ((inv_lhs - inv_rhs) % p).any(), ())
    rep.record("sigma_twist_self_adjoint", np.array_equal((A.alpha.T @ g) % p, (g @ A.alpha) % p), ())
    return rep


def extend_by_algebra_loop(V: HomLieAlgebra, B_V: BilinearForm, x) -> tuple[HomLieAlgebra, BilinearForm]:
    """extend_by_algebra without its check, filling c, alpha and the Gram
    matrix one index (or pair) at a time, with psi from psi_eval_loop."""
    p, n, mdim = V.p, V.n, x.A.n
    N = mdim + n + mdim
    fofs, vofs, aofs = 0, mdim, mdim + n
    sign = 1 if p == 2 else -1
    c = np.zeros((N, N, N), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            c[vofs + i, vofs + j, vofs:vofs + n] = V.c[i, j]
            c[vofs + i, vofs + j, fofs:fofs + mdim] = psi_eval_loop(B_V, x, gfp.unit(n, i), gfp.unit(n, j))
    for b in range(mdim):
        for d in range(mdim):
            c[fofs + b, aofs + d, fofs:fofs + mdim] = (sign * x.A.c[d, :, b]) % p
            c[aofs + d, fofs + b] = (-c[fofs + b, aofs + d]) % p
    for i in range(n):
        for d in range(mdim):
            c[vofs + i, aofs + d, vofs:vofs + n] = (sign * x.phi[d][:, i]) % p
            c[aofs + d, vofs + i] = (-c[vofs + i, aofs + d]) % p
    c[aofs:, aofs:, aofs:] = x.A.c
    alpha = np.zeros((N, N), dtype=np.int64)
    alpha[fofs:fofs + mdim, fofs:fofs + mdim] = x.A.alpha.T
    alpha[vofs:vofs + n, vofs:vofs + n] = V.alpha
    alpha[aofs:aofs + mdim, aofs:aofs + mdim] = x.A.alpha
    gram = np.zeros((N, N), dtype=np.int64)
    gram[vofs:vofs + n, vofs:vofs + n] = B_V.gram
    for b in range(mdim):
        gram[fofs + b, aofs + b] = gram[aofs + b, fofs + b] = 1
    gram[aofs:aofs + mdim, aofs:aofs + mdim] = x.sigma.gram
    names = [f"{nm}*" for nm in x.A.basis_names] + list(V.basis_names) + list(x.A.basis_names)
    return HomLieAlgebra(p, c, alpha, names), BilinearForm(gram, p)


def solve_p_property_loop(A: HomLieAlgebra, D: Derivation) -> PPropertyWitness | None:
    """The p-property witness by trying xi = 0, 1, ..., p-1 in turn, one
    linear system in a0 each; a0 is the particular solution reduced modulo
    the kernel, one kernel row at a time."""
    p, n = A.p, A.n
    apow = gfp.mat_pow(A.alpha, p - 1, p)
    cols = (A.ad_batch(gfp.eye(n)).transpose(0, 2, 1) @ apow) % p  # ad(e_j) o alpha^{p-1}
    m = np.vstack([cols.reshape(n, n * n).T % p, D.mat])
    dp = gfp.mat_pow(D.mat, p, p)
    dapow = (D.mat @ apow) % p
    for xi in range(p):
        a0 = gfp.solve(m, np.concatenate([((dp - xi * dapow) % p).reshape(n * n), gfp.zeros(n)]), p)
        if a0 is None:
            continue
        for row in gfp.kernel(m, p):
            c = int(np.argmax(row != 0))
            if a0[c] != 0:
                a0 = (a0 - a0[c] * row) % p
        return PPropertyWitness(xi, a0, p)
    return None


def phi_recursion(L_tilde: HomLieAlgebra, x, y, level: int) -> dict:
    """Coefficients of the formal ad-tower by recursion, levels 3..level,
    keyed (level, i) with 1 <= i <= level-1.  Level 3 is the closed pair
    ([alpha(y),[y,x]], [alpha(x),[y,x]]); each higher level mixes the
    previous one through ad of the alpha-powers of x and y."""
    p = L_tilde.p
    if not 3 <= level <= p:
        raise BadLevel(f"level must lie in 3..{p}, got {level}")
    x, y = gfp.asvec(x, p), gfp.asvec(y, p)
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


def s_tilde_direct(L_tilde: HomLieAlgebra, pi0, t_pi) -> np.ndarray:
    """Sum of compute_s(e~*, -pi0(t_pi)) inside L_tilde."""
    p, N = L_tilde.p, L_tilde.n
    y = gfp.zeros(N)
    y[1:N - 1] = (-(gfp.asmat(pi0, p) @ gfp.asvec(t_pi, p))) % p
    return sum(compute_s(L_tilde, gfp.unit(N, 0), y)) % p


def bracket_dense(A: HomLieAlgebra, xs, ys) -> np.ndarray:
    """[x, y] per row (xs and ys broadcast) by one dense einsum over the whole
    structure tensor, with no sparsity, chunking or early reduction.  Exact
    while n^2 (p-1)^3 < 2^63."""
    xs = np.asarray(xs, dtype=np.int64) % A.p
    ys = np.asarray(ys, dtype=np.int64) % A.p
    return np.einsum("...a,...b,abk->...k", xs, ys, A.c) % A.p


def ad_dense(A: HomLieAlgebra, xs) -> np.ndarray:
    """ad(x) per row in [batch, in, out] layout, by einsum."""
    return np.einsum("ma,abk->mbk", np.asarray(xs, dtype=np.int64) % A.p, A.c) % A.p


def contract_dense(c, m, p: int) -> np.ndarray:
    """(c @ m) % p on every pair (i, j), zero or not."""
    return (np.asarray(c, dtype=np.int64) @ np.asarray(m, dtype=np.int64)) % p


def bracket_sides_dense(pi, A: HomLieAlgebra, A_dst: HomLieAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """bracket_sides by einsum over the whole structure tensors."""
    lhs = np.einsum("mk,ijk->ijm", pi, A.c) % A.p  # pi([e_i, e_j])
    return lhs, np.einsum("ai,bj,abm->ijm", pi, pi, A_dst.c) % A.p  # [pi(e_i), pi(e_j)]


def invariance_sides_dense(c, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    """invariance_sides by two einsums over the whole tensor."""
    return np.einsum("ijm,mk->ijk", c, g) % p, np.einsum("im,jkm->ijk", g, c) % p


def centralizer_dense(A: HomLieAlgebra, M) -> Subspace:
    """centralizer_of_image from its n^2 x n system built by one einsum."""
    m = gfp.asmat(M, A.p)
    rows = np.einsum("abk,bj->jka", A.c, m).reshape(A.n * A.n, A.n) % A.p
    return Subspace.from_vectors(gfp.kernel(rows, A.p), A.n, A.p)


def twisted_tensor_dense(c, alpha, p: int) -> np.ndarray:
    """The structure tensor of twist_algebra, alpha([e_i, e_j]), by einsum."""
    return np.einsum("mk,ijk->ijm", alpha, c) % p


def is_ideal_loop(A: HomLieAlgebra, S) -> bool:
    """alpha(s) and [s, e_j] tested for membership one vector at a time."""
    for s in S.basis:
        if not S.contains(A.apply_alpha(s)):
            return False
        if not all(S.contains(bracket_dense(A, s, gfp.unit(A.n, j))) for j in range(A.n)):
            return False
    return True


def hom_jacobi_dense(A: HomLieAlgebra) -> Report:
    """verify_hom_lie with dense [n, n, n, n] arrays: T(i; j, k) =
    [alpha(e_i), [e_j, e_k]] and the cyclic Hom-Jacobi sum on every basis
    triple, and multiplicativity by einsum.  O(n^4) memory."""
    p, n, c = A.p, A.n, A.c
    rep = Report(p=p, dim=n)
    for i in range(n):
        rep.record("alternating", not c[i, i].any(), (i, i), lhs=c[i, i], rhs=0)
    anti = (c + c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(anti.any(axis=2))):
        if i < j:
            rep.record("antisymmetry", False, (int(i), int(j)), lhs=c[i, j], rhs=(-c[j, i]) % p)
    rep.check("antisymmetry").passed += n * (n - 1) // 2 - rep.check("antisymmetry").failed

    ada = np.einsum("ai,abk->ibk", A.alpha, c) % p  # ad(alpha(e_i)) in [i, in, out] layout
    t1 = np.einsum("ibm,jkb->ijkm", ada, c) % p  # [alpha(e_i), [e_j, e_k]]
    jac = (t1 + t1.transpose(1, 2, 0, 3) + t1.transpose(2, 0, 1, 3)) % p
    rep.tally("hom_jacobi", jac.any(axis=3), jac, np.broadcast_to(gfp.zeros(n), jac.shape))

    lhs = np.einsum("mk,ijk->ijm", A.alpha, c) % p  # alpha([e_i, e_j])
    rhs = np.einsum("ai,bj,abm->ijm", A.alpha, A.alpha, c) % p  # [alpha(e_i), alpha(e_j)]
    rep.tally("multiplicativity", ((lhs - rhs) % p).any(axis=2), lhs, rhs)
    return rep


def leibniz_dense(A: HomLieAlgebra, D: Derivation) -> Report:
    """verify_derivation by einsum over the whole structure tensor, with
    t1 = -[alpha^k(e_j), D(e_i)] and t2 = [alpha^k(e_i), D(e_j)]."""
    p, n = A.p, A.n
    rep = Report(p=p, dim=n, degree=D.k)
    comm = (D.mat @ A.alpha - A.alpha @ D.mat) % p
    rep.record("twist_commute", not comm.any(), (), lhs=(D.mat @ A.alpha) % p, rhs=(A.alpha @ D.mat) % p)
    ak = gfp.mat_pow(A.alpha, D.k, p)
    lhs = np.einsum("kb,ijb->ijk", D.mat, A.c) % p  # D([e_i, e_j])
    adk = np.einsum("ai,abk->ibk", ak, A.c) % p  # ad(alpha^k(e_i))
    t1 = (-np.einsum("jbk,bi->ijk", adk, D.mat)) % p
    t2 = np.einsum("ibk,bj->ijk", adk, D.mat) % p
    rep.tally("leibniz", ((lhs - t1 - t2) % p).any(axis=2), lhs, (t1 + t2) % p)
    return rep


def bracket_entries_loop(A: HomLieAlgebra) -> list[tuple[int, int, int, int]]:
    """The (i, j, k, coeff) entries with i < j of bundle.from_parts, one pair
    at a time, raising ParseError on a tensor that is not alternating and
    antisymmetric.  Every diagonal c[i, i] is checked."""
    entries = []
    for i in range(A.n):
        if A.c[i, i].any():
            raise ParseError("structure tensor is not alternating/antisymmetric")
        for j in range(i + 1, A.n):
            if ((A.c[i, j] + A.c[j, i]) % A.p).any():
                raise ParseError("structure tensor is not alternating/antisymmetric")
            for k in range(A.n):
                if A.c[i, j, k]:
                    entries.append((i, j, k, int(A.c[i, j, k])))
    return sorted(entries)


def reduce_loop(L: HomLieAlgebra, B_L: BilinearForm, P_L: PStructure, e) -> ReduceResult:
    """Recover (V, B_V, D, x0, lambda, lambda0) and the p-data from L.

    e must be a nonzero isotropic central twist-eigenvector whose
    orthogonal complement is a p-ideal.  The partner e* solves
    B(., e) = 1 with free variables zero (normalized to B(e*, e*) = 0
    in odd characteristic, kept as-is in characteristic 2), and V is the
    orthogonal complement of the hyperbolic plane, in echelon form.
    """
    p, N = L.p, L.n
    n = N - 2
    e = gfp.asvec(e, p)
    if not e.any():
        raise NotCentral("e must be nonzero")
    if not center(L).contains(e):
        raise NotCentral("e is not central")
    if B_L.eval(e, e) != 0:
        raise DegenerateFrame("B(e, e) must vanish")
    alpha_e = L.apply_alpha(e)
    line = Subspace.from_vectors([e], N, p)
    if not line.contains(alpha_e):
        raise NotCentral("the twist does not preserve the chosen central line")
    pivot = int(np.argmax(e != 0))
    lam = int(alpha_e[pivot]) * gfp.inv(int(e[pivot]), p) % p

    e_perp = orth(B_L, line)
    if not is_ideal(L, e_perp):
        raise NotPIdeal("the orthogonal complement of e is not an ideal")
    if not e_perp.spans(eval_p_batch(P_L, e_perp.basis)):
        raise NotPIdeal("the orthogonal complement of e is not closed under [p]")

    row = (B_L.gram @ e) % p
    e_star = gfp.solve(row[None, :], np.array([1]), p)
    if e_star is None:
        raise DegenerateFrame("no vector pairs with e (form degenerate)")
    if p > 2:
        bss = B_L.eval(e_star, e_star)
        e_star = (e_star - gfp.inv(2, p) * bss * e) % p
    beta = B_L.eval(e_star, e_star)

    plane = Subspace.from_vectors([e, e_star], N, p)
    v_space = orth(B_L, plane)
    if v_space.dim != n:
        raise DegenerateFrame("hyperbolic plane does not split off")
    v_rows = v_space.basis

    trans = np.vstack([e_star[None, :], v_rows, e[None, :]])
    tinv = gfp.mat_inv(trans.T, p)
    if tinv is None:
        raise DegenerateFrame("frame vectors are not a basis")

    def coords(w):
        cc = (tinv @ gfp.asvec(w, p)) % p
        return int(cc[0]), cc[1:1 + n].copy(), int(cc[n + 1])

    a, v, b = coords(L.apply_alpha(e_star))
    if a != lam:
        raise FrameMismatch("twist action on e* is inconsistent with its action on e")
    x0, lam0 = v, b

    alpha_v = np.zeros((n, n), dtype=np.int64)
    d_mat = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        a, v, b = coords(L.apply_alpha(v_rows[j]))
        if a != 0:
            raise FrameMismatch("twist does not preserve the complement of the plane")
        alpha_v[:, j] = v
        a, v, b = coords(L.bracket(e_star, v_rows[j]))
        if a != 0 or b != 0:
            raise FrameMismatch("[e*, V] has components outside V")
        d_mat[:, j] = v

    upper = {}
    brackets = L.bracket_batch(v_rows[:, None, :], v_rows[None, :, :])
    for i in range(n):
        for j in range(i + 1, n):
            a, v, b = coords(brackets[i, j])
            if a != 0:
                raise FrameMismatch("[V, V] leaves the coisotropic flag")
            if v.any():
                upper[(i, j)] = v
    names = []
    for j in range(n):
        row = v_rows[j]
        if row.sum() == 1 and (row <= 1).all():
            names.append(L.basis_names[int(np.argmax(row))])
        else:
            names.append(f"v{j + 1}")
    V = HomLieAlgebra.from_upper(p, n, upper, alpha_v, names)
    B_V = BilinearForm((v_rows @ B_L.gram @ v_rows.T) % p, p)

    s_imgs = np.zeros((n, n), dtype=np.int64)
    p_basis = gfp.zeros(n)
    for j in range(n):
        a, v, b = coords(eval_p(P_L, v_rows[j]))
        if a != 0:
            raise NotPIdeal("a p-image of V leaves the coisotropic flag")
        s_imgs[j] = v
        p_basis[j] = b
    a, u0, m = coords(eval_p(P_L, e))
    if a != 0:
        raise NotPIdeal("the p-image of e leaves the coisotropic flag")
    xi, a0, l = coords(eval_p(P_L, e_star))

    d = DoubleExtensionData(Derivation(d_mat, p, k=1), x0, lam, lam0)
    pe = PExtensionData(xi, a0, m, l, u0, p_basis, p)
    return ReduceResult(
        V=V, B_V=B_V, d=d, P_V=PStructure(V, s_imgs), pe=pe,
        beta=beta, e_star=e_star, v_basis=v_rows, e=e,
    )


def pstructure_rows(P: PStructure, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> Report:
    """verify_pstructure's report with R1 and R2 on every vector of GF(p)^n,
    and R3 on every pair when p^(2n) fits EXHAUSTIVE_LIMIT (else on the same
    seeded samples); for p^n within the limit.  Every image is read from one
    eval_p_batch fold of all of GF(p)^n."""
    A = P.parent
    p, n = A.p, A.n
    count = p**n
    assert count <= EXHAUSTIVE_LIMIT
    pairs = count * count <= EXHAUSTIVE_LIMIT
    mode = "exhaustive" if pairs else "sampled"
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"r1": "exhaustive", "r2": "exhaustive", "r3": mode}, mode=mode)
    defect = r1_defect_batch(A, P, gfp.eye(n), P.images)
    rep.tally("r1_basis", defect.any(axis=(1, 2)), defect, 0)
    xs = gfp.all_vectors(n, p)
    folded = eval_p_batch(P, xs)

    def image(vs):
        return folded[gfp.vec_index(vs, p)]

    defect = r1_defect_batch(A, P, xs, folded)
    rep.tally("r1", defect.any(axis=(1, 2)), defect, 0, witness=rows(xs))
    for k in range(p):
        scaled = image(k * xs)
        want = (pow(k, p, p) * folded) % p
        rep.tally("r2", (scaled != want).any(axis=1), scaled, want, witness=lambda i: (k,) + rows(xs)(i))
    if pairs:
        us, vs = xs[np.repeat(np.arange(count), count)], xs[np.tile(np.arange(count), count)]
    else:
        rng = SplitMix64(seed)
        us, vs = rng.mat(samples, n, p), rng.mat(samples, n, p)
    sums = image(us + vs)
    want = (image(us) + image(vs) + compute_s_batch(A, us, vs).sum(axis=1)) % p
    rep.tally("r3", (sums != want).any(axis=1), sums, want, witness=rows(us, vs))
    return rep


def restricted_derivation_rows(A: HomLieAlgebra, P: PStructure, D: Derivation) -> bool:
    """is_restricted_derivation on every vector of GF(p)^n (within the limit)."""
    assert A.p**A.n <= EXHAUSTIVE_LIMIT
    xs = gfp.all_vectors(A.n, A.p)
    return not restricted_defect_batch(A, P, D, xs, eval_p_batch(P, xs)).any()


def iso_direct_rows(P_L: PStructure, P_Lt: PStructure, pi) -> Report:
    """The direct check of verify_restricted_iso, pi(x^[p]) = pi(x)^[p], on
    every vector of GF(p)^N (within the limit)."""
    p, N = P_L.parent.p, P_L.parent.n
    assert p**N <= EXHAUSTIVE_LIMIT
    pi = gfp.asmat(pi, p)
    xs = gfp.all_vectors(N, p)
    lhs = (eval_p_batch(P_L, xs) @ pi.T) % p
    rhs = eval_p_batch(P_Lt, (xs @ pi.T) % p)
    rep = Report()
    rep.tally("direct", (lhs != rhs).any(axis=1), lhs, rhs, witness=rows(xs))
    return rep


def product_exact(p: int, *factors) -> np.ndarray:
    """The product of matrices and vectors on Python integers, reduced mod p."""
    out = np.asarray(factors[0]).astype(object)
    for f in factors[1:]:
        out = out @ np.asarray(f).astype(object)
    return np.asarray(out % p, dtype=np.int64)


def _intmat(m) -> list[list[int]]:
    return [[int(v) for v in row] for row in np.asarray(m)]


def emit_stdlib(b: bundle.AlgebraBundle) -> str:
    """bundle.emit through the stdlib encoder, every entry an int() first."""
    doc = {
        "version": bundle.FORMAT_VERSION,
        "p": int(b.p),
        "dim": int(b.dim),
        "basis": list(b.basis),
        "brackets": [
            {"i": i, "j": j, "k": k, "coeff": c} for (i, j, k, c) in sorted(b.brackets)
        ],
        "alpha": _intmat(b.alpha),
        "form": None if b.form is None else _intmat(b.form),
        "pmap": None if b.pmap is None else _intmat(b.pmap),
        "derivations": {
            name: {"matrix": _intmat(d.mat), "degree": int(d.k)}
            for name, d in sorted(b.derivations.items())
        },
        "twist": None if b.twist is None else _intmat(b.twist),
        "extension": b.extension,
    }
    return json.dumps(doc, indent=2) + "\n"


def algebra_index_dense(c, p: int) -> dict:
    """HomLieAlgebra's constant caches (nnz, the ad rows, columns and matrix,
    the triples grouped by k with their starts and runs, alternating and
    inert) from dense boolean masks of c mod p, with 3-D np.nonzero."""
    c = np.asarray(c, dtype=np.int64) % p
    n = c.shape[0]
    mask = c != 0
    out = {"nnz": int(mask.sum()), "_ad_rows": np.nonzero(mask.any(axis=(1, 2)))[0]}
    flat = c[out["_ad_rows"]].reshape(-1, n * n)
    out["_ad_cols"] = np.flatnonzero(flat.any(axis=0))
    out["_ad_mat"] = flat[:, out["_ad_cols"]]
    k, a, b = np.nonzero(mask.transpose(2, 0, 1))
    ks = np.flatnonzero(mask.any(axis=(0, 1)))
    starts = np.searchsorted(k, ks)
    ends = np.append(starts[1:], k.size)
    room = (2**63 - 1) // max(1, (p - 1) ** 2)
    runs = None
    if np.max(ends - starts, initial=0) > room:
        split = [np.arange(lo, hi, room) for lo, hi in zip(starts, ends)]
        runs = np.cumsum([0] + [r.size for r in split[:-1]])
        starts = np.concatenate(split)
    out.update(_ks=ks, _triples=(a, b, c[a, b, k]), _starts=starts, _runs=runs)
    out["alternating"] = not ((a == b).any() or (c[b, a, k] != -c[a, b, k] % p).any())
    out["inert"] = ~c.any(axis=(1, 2)) & out["alternating"]
    return out


def tally_domain_diff(rep: Report, name: str, regime: str, P: PStructure, xs, pmaps, sides,
                      witness=rows, pairs: bool = False):
    """tally_domain with each comparison made on (lhs - rhs) % p arrays."""
    p, n = P.parent.p, P.parent.n
    size = n * (2 if pairs else 1)
    if regime == "exhaustive":
        lhs, rhs = sides(gfp.low_weight(size, p, p), *pmaps)
        if not ((lhs - rhs) % p).any():
            rep.check(name).passed += p**size
            return rep.check(name)
        if pairs:
            xs = np.hstack([np.repeat(xs, len(xs), axis=0), np.tile(xs, (len(xs), 1))])
    lhs, rhs = sides(xs, *pmaps)
    failed = ((lhs - rhs) % p).reshape(len(xs), -1).any(axis=1)
    return rep.tally(name, failed, lhs, rhs, witness=witness(*((xs[:, :n], xs[:, n:]) if pairs else (xs,))))
