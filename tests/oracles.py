"""Independent routes that exist only to cross-check the homext kernels.

PolyVec towers, the R3 coefficients and the p-map fold built on them, and
the coefficient recursion share no code with the batched kernels they are
compared against; formal_tower_full is the formal tower that brackets every
coefficient row, zero or not, in one bracket_batch call per step;
compute_eta_batch(V, B, D, u, v) and compute_eta are the eta_i as the
pairing of D(alpha^{p-2}(k u + v)) against the depth-(p-2) tower of V, where
restricted.compute_eta_batch(W, u, v) reads them off compute_s_batch on
W = V + Ke, and eval_P_fold and P_conditions_sampled fold and check P with
that pairing; s_tilde_direct deliberately runs the library's compute_s.
P_conditions_sampled runs check_P_conditions' sampled route on every input,
where check_P_conditions decides P_additivity when a proved hypothesis
holds; double_extend_unchecked builds the extension's bracket and twist for
any data, so that the decision meets inputs that fail its hypotheses, and
frames is the former odd-p hypothesis's test that a given L holds V + Ke.
phi_split, phi_sums and s_tilde are the split coefficient recursion on the
target frame (lambda = 1 only), where isom.verify_restricted_iso reads s~
from one compute_s_batch pair.
solve_p_property_loop keeps the one-system-per-xi search.
is_involutive_twist is the criterion for the extended twist to square to
the identity.  heis_table_p2, heis_table_P and psl3_table_P are the
fixtures' p-map and P in closed form; psl3_matrix_model derives psl(3)'s
brackets, trace form and cubes from 3x3 matrices, where twist.build_psl3
states them as literal tables.
reduce_loop reads the frame off L one coordinate vector at a time, with its
own flag checks, instead of rewriting L in the frame for split_frame.
bracket_dense, ad_dense, hom_jacobi_dense, leibniz_dense, contract_dense,
bracket_sides_dense, invariance_sides_dense, centralizer_dense and
twisted_tensor_dense contract the whole dense structure tensor, where the
kernels pay per nonzero structure constant or nonzero pair;
alpha_derivations solves leibniz_dense's equations for every
alpha^k-derivation at once.
pstructure_rows, restricted_derivation_rows and iso_direct_rows evaluate
the exhaustive checks on every row of their domain, with p-images folded by
eval_p_batch, no line reduction and no decision on the points of weight <= p;
pstructure_rows runs the sampled regime too, and never decides on the basis;
restricted_iso_rows is verify_restricted_iso's domain route in both regimes,
every row evaluated and the direct route never decided on the basis.
emit_stdlib writes a bundle through json.dumps(indent=2) from Python-int
lists, where bundle.emit joins the strings itself; algebra_index_dense
derives HomLieAlgebra's constant caches from dense masks of the n^3 tensor,
where the constructor reads the flat indices of the nonzero constants;
tally_domain_diff compares a check's sides through (lhs - rhs) % p arrays,
where tally_domain compares them with !=.
rref_loop eliminates one row at a time where gfp.rref updates every row of
a pivot column at once; kernel_loop, solve_loop, mat_inv_loop,
subspace_loop and subspace_reduce_loop are the gfp and Subspace routes on
it, with the kernel echelonized twice and a residue reduced row by row.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np

from homext import bundle, gfp, restricted
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    center,
    is_ideal,
    orth,
)
from homext.doubleext import DoubleExtensionData, ExtFrame, PExtensionData, eval_P_batch, split_frame
from homext.errors import (
    DegenerateFrame,
    DimMismatch,
    FrameMismatch,
    HomextError,
    NotCentral,
    NotPIdeal,
    ParseError,
)
from homext.isom import extract_iso_data
from homext.report import Report, rows
from homext.restricted import (
    EXHAUSTIVE_LIMIT,
    PPropertyWitness,
    PStructure,
    _formal_tower,
    _inverses,
    compute_s,
    compute_s_batch,
    eval_p,
    eval_p_all,
    eval_p_batch,
    r1_defect_batch,
    restricted_defect_batch,
)
from homext.rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64


class DegreeOverflow(HomextError):
    """A polynomial-vector operation exceeded its degree cap (internal misuse)."""


class BadLevel(HomextError):
    """Recursion level outside the admissible range 2..p."""


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


def compute_eta_batch(A: HomLieAlgebra, B: BilinearForm, D: Derivation, us, vs) -> np.ndarray:
    """The eta_1..eta_{p-1} coefficients used by odd-characteristic P maps.

    Pairs D(alpha^{p-2}(lam*u + v)) against the length-(p-2) formal tower
    of (lam*u + v) applied to u, expands in the formal parameter lam, and
    divides the coefficient of lam^(i-1) by i.  Returns [batch, p-1].  vs
    may be one [n] vector, shared by every u.  Odd p only.
    """
    p = A.p
    us = np.asarray(us, dtype=np.int64) % p
    vs = np.asarray(vs, dtype=np.int64) % p
    # B(D(alpha^{p-2}(w)), .) as a row vector: lam^0 part from v, lam^1 part from u
    pair = (((D.mat @ gfp.mat_pow(A.alpha, p - 2, p)) % p).T @ B.gram) % p
    right = _formal_tower(A, us, vs, p - 2)  # [batch, p-1, n]
    q = np.einsum("mk,mdk->md", np.broadcast_to((vs @ pair) % p, us.shape), right)
    q[:, 1:] += np.einsum("mk,mdk->md", (us @ pair) % p, right[:, :-1, :])
    return (_inverses(p)[None, :] * (q % p)) % p


def compute_eta(A: HomLieAlgebra, B: BilinearForm, D: Derivation, u, v) -> list[int]:
    """compute_eta_batch on one pair, as a list of ints."""
    etas = compute_eta_batch(A, B, D, gfp.asvec(u, A.p)[None, :], gfp.asvec(v, A.p)[None, :])
    return [int(x) for x in etas[0]]


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


def P_conditions_sampled(V: HomLieAlgebra, B: BilinearForm, D: Derivation, pe, samples: int,
                         seed: int) -> Report:
    """check_P_conditions on the sampled route for every input: one
    eval_P_batch call per row set, and P_homogeneity evaluated on every k*u,
    as a reference for the batched route (which reports it implied) and for
    the decision of P_additivity."""
    p, n = V.p, V.n
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"P_additivity": "sampled", "P_homogeneity": "implied"})
    rng = SplitMix64(seed)
    us, ws = rng.mat(samples, n, p), rng.mat(samples, n, p)
    pu, pw = eval_P_batch(V, B, D, pe, us), eval_P_batch(V, B, D, pe, ws)
    psum = eval_P_batch(V, B, D, pe, (us + ws) % p)
    cross = B.eval_batch((us @ D.mat.T) % p, ws) if p == 2 else compute_eta_batch(V, B, D, us, ws).sum(axis=1)
    want = (pu + pw + cross) % p
    rep.tally("P_additivity", (psum - want) % p != 0, psum, want, witness=rows(us, ws))
    for k in range(p):
        scaled, want = eval_P_batch(V, B, D, pe, (k * us) % p), (k * pu) % p
        rep.tally("P_homogeneity", (scaled - want) % p != 0, scaled, want,
                  witness=lambda i: (k,) + rows(us)(i))
    return rep


def double_extend_unchecked(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, x0, lam: int,
                            lam0: int) -> HomLieAlgebra:
    """double_extend's algebra in the frame (e*, V, e) for any D, x0, lambda
    and lambda0, with no check_extension_data: the result need not be a
    Hom-Lie algebra."""
    p, n = V.p, V.n
    N = n + 2
    c = np.zeros((N, N, N), dtype=np.int64)
    c[1:1 + n, 1:1 + n, 1:1 + n] = V.c
    c[1:1 + n, 1:1 + n, N - 1] = (D.mat.T @ B_V.gram) % p
    c[0, 1:1 + n, 1:1 + n] = D.mat.T
    c[1:1 + n, 0] = (-c[0, 1:1 + n]) % p
    alpha = np.zeros((N, N), dtype=np.int64)
    alpha[0, 0] = alpha[N - 1, N - 1] = lam
    alpha[1:1 + n, 0] = x0
    alpha[N - 1, 0] = lam0
    alpha[1:1 + n, 1:1 + n] = V.alpha
    alpha[N - 1, 1:1 + n] = (np.asarray(x0) @ B_V.gram) % p
    return HomLieAlgebra(p, c, alpha)


def frames(L: HomLieAlgebra, V: HomLieAlgebra, B_V: BilinearForm, D: Derivation) -> bool:
    """L holds V + Ke as double_extend's L does, in the frame (e*, V, e): for
    a, b in V, [a, b] = [a, b]_V + B(Da, b) e, e is central in V + Ke,
    alpha(a) = alpha_V(a) mod e and alpha(e) lies in Ke.  With
    restricted._yau_twist(L), the odd-p hypothesis that decided P_additivity
    from a given double extension L, before the decision moved onto
    doubleext._central_extension(V, B, D)."""
    p, n = V.p, V.n
    want = np.zeros((n + 1, n + 1, n + 2), dtype=np.int64)  # brackets of V + Ke, into (e*, V, e)
    want[:n, :n, 1:n + 1] = V.c
    want[:n, :n, n + 1] = (D.mat.T @ B_V.gram) % p
    return (L.p == p and L.n == n + 2 and np.array_equal(L.c[1:, 1:], want)
            and np.array_equal(L.alpha[1:n + 1, 1:n + 1], V.alpha)
            and not L.alpha[0, 1:].any() and not L.alpha[1:n + 1, n + 1].any())


def is_involutive_twist(V: HomLieAlgebra, B_V: BilinearForm, d: DoubleExtensionData) -> bool:
    """Criterion for the extended twist to square to the identity.

    alpha^2(e*) = lambda^2 e* + (lambda x0 + alpha(x0)) + (2 lambda lambda0 + B(x0, x0)) e,
    so beside alpha^2 = id on V it asks lambda^2 = 1, alpha(x0) = -lambda x0 and
    2 lambda lambda0 + B(x0, x0) = 0, in every characteristic.
    """
    p = V.p
    if not V.is_involutive():
        return False
    if (d.lam * d.lam) % p != 1:
        return False
    ok_x0 = np.array_equal(V.apply_alpha(d.x0), (-d.lam * d.x0) % p)
    return ok_x0 and (2 * d.lam * d.lam0 + B_V.eval(d.x0, d.x0)) % p == 0


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
        for row in gfp.null_basis(m, p):
            c = int(np.argmax(row != 0))
            if a0[c] != 0:
                a0 = (a0 - a0[c] * row) % p
        return PPropertyWitness(xi, a0, p)
    return None


def phi_recursion(L_tilde: HomLieAlgebra, x, y, level: int) -> dict:
    """Coefficients of the formal ad-tower by recursion, levels 2..level,
    keyed (level, i) with 1 <= i <= level-1.  Level 2 is [y, x]; each higher
    level mixes the previous one through ad of the alpha-powers of x and y."""
    p = L_tilde.p
    if not 2 <= level <= p:
        raise BadLevel(f"level must lie in 2..{p}, got {level}")
    x, y = gfp.asvec(x, p), gfp.asvec(y, p)
    table = {(2, 1): L_tilde.bracket(y, x)}
    for lvl in range(3, level + 1):
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


def phi_split(frame: ExtFrame, pi0, t_pi, level: int) -> dict:
    """V-part and central coefficient of each Phi entry, keyed (level, i), levels 2..level.

    Works in the target frame with x the dual line generator and y = -pi0(t_pi)
    in V.  The recursion assumes lambda = 1, so alpha^{l-2}(x) - x is
    w0 = sum_{j=0}^{l-3} alpha^j(x0) plus a central part; on a frame with
    lambda != 1 its entries are not the formal-tower coefficients.  From
    Phi(2, 1) = [y, x] = -D(y), level l is one batched step on level l-1 padded
    with a zero row at both ends:
    Phi(l, i) = [alpha^{l-2}(y), Phi(l-1, i)] + D(Phi(l-1, i-1)) + [w0, Phi(l-1, i-1)].
    """
    p = frame.V.p
    if not 2 <= level <= p:
        raise BadLevel(f"level must lie in 2..{p}, got {level}")
    V, B_V, D = frame.V, frame.B_V, frame.d.D
    pi0 = gfp.asmat(pi0, p)
    t = gfp.asvec(t_pi, p)
    if pi0.shape != (V.n, V.n) or t.shape[0] != V.n:
        raise DimMismatch("pi0 and t_pi must live on V")
    y = (-(pi0 @ t)) % p
    zero = gfp.zeros(V.n)[None, :]
    prev = (-D(y))[None, :] % p  # Phi(2, 1)
    ay, ax, w0 = y, frame.d.x0, frame.d.x0
    table = {(2, 1): (prev[0], 0)}  # [y, x] has no central part
    for lvl in range(3, level + 1):
        ay = (V.alpha @ ay) % p  # alpha^{lvl-2}(y)
        hi, lo = np.vstack([prev, zero]), np.vstack([zero, prev])  # Phi(lvl-1, i) and Phi(lvl-1, i-1)
        prev = (V.bracket_batch(ay, hi) + (lo @ D.mat.T) % p + V.bracket_batch(w0, lo)) % p
        scalars = (B_V.eval_batch(D(ay), hi) + B_V.eval_batch(D(w0), lo)) % p
        table.update({(lvl, i): (prev[i - 1], int(scalars[i - 1])) for i in range(1, lvl)})
        ax = (V.alpha @ ax) % p
        w0 = (w0 + ax) % p  # sum_{j=0}^{lvl-2} alpha^j(x0), the next level's w0
    return table


def phi_sums(frame: ExtFrame, pi0, t_pi) -> tuple[np.ndarray, int]:
    """sum_i (1/i) Phi(p, i) over i = 1..p-1, as (V-part, central coefficient);
    lambda = 1 only, as phi_split.

    Each term is reduced before the sum, which has p-1 terms below p.
    """
    p = frame.V.p
    split = phi_split(frame, pi0, t_pi, p)
    inv = _inverses(p)
    vecs = np.stack([split[(p, i)][0] for i in range(1, p)])
    scalars = np.array([split[(p, i)][1] for i in range(1, p)], dtype=np.int64)
    return gfp.mod(inv[:, None] * vecs, p).sum(axis=0) % p, int(gfp.mod(inv * scalars, p).sum() % p)


def s_tilde(L_tilde: HomLieAlgebra, B_Lt: BilinearForm, pi0, t_pi) -> np.ndarray:
    """Sum of the R3 coefficients at (e~*, -pi0(t_pi)), via the split recursion
    (lambda = 1 only, as phi_split)."""
    frame = split_frame(L_tilde, B_Lt)
    n = frame.n
    out = gfp.zeros(n + 2)
    out[1:1 + n], out[n + 1] = phi_sums(frame, pi0, t_pi)
    return out


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
    return Subspace.from_vectors(list(gfp.null_basis(rows, A.p)), A.n, A.p)


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


def reduce_loop(L: HomLieAlgebra, B_L: BilinearForm, P_L: PStructure, e) -> ExtFrame:
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

    d = DoubleExtensionData(Derivation(d_mat, p, k=1), x0, lam, lam0, beta)
    pe = PExtensionData(xi, a0, m, l, u0, p_basis, p)
    return ExtFrame(V, B_V, d, PStructure(V, s_imgs), pe, trans)


def pstructure_rows(P: PStructure, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                    exhaustive: bool = True) -> Report:
    """verify_pstructure's report by its domain route, with every row
    evaluated: R1 and R2 on every vector of GF(p)^n when exhaustive is true
    and p^n fits EXHAUSTIVE_LIMIT, and R3 on every pair when p^(2n) fits
    too; otherwise on the seeded samples, drawn in the same order (the
    vectors, then the pairs).  Every image is read from one eval_p_batch
    fold of the vectors."""
    A = P.parent
    p, n = A.p, A.n
    count = p**n
    table = exhaustive and count <= EXHAUSTIVE_LIMIT
    pairs = table and count * count <= EXHAUSTIVE_LIMIT
    vec, mode = ("exhaustive" if table else "sampled"), ("exhaustive" if pairs else "sampled")
    rep = Report(p=p, dim=n, seed=seed, samples=samples, mode=mode, regimes={"r1": vec, "r2": vec, "r3": mode})
    defect = r1_defect_batch(A, gfp.eye(n), P.images)
    rep.tally("r1_basis", defect.any(axis=(1, 2)), defect, 0)
    rng = SplitMix64(seed)
    xs = gfp.all_vectors(n, p) if table else rng.mat(samples, n, p)
    folded = eval_p_batch(P, xs)

    def image(vs):
        return folded[gfp.vec_index(vs, p)] if table else eval_p_batch(P, vs)

    defect = r1_defect_batch(A, xs, folded)
    rep.tally("r1", defect.any(axis=(1, 2)), defect, 0, witness=rows(xs))
    for k in range(p):
        scaled = image(k * xs)
        want = (pow(k, p, p) * folded) % p
        rep.tally("r2", (scaled != want).any(axis=1), scaled, want, witness=lambda i: (k,) + rows(xs)(i))
    if pairs:
        us, vs = xs[np.repeat(np.arange(count), count)], xs[np.tile(np.arange(count), count)]
    else:
        us, vs = rng.mat(samples, n, p), rng.mat(samples, n, p)
    sums = image(us + vs)
    want = (image(us) + image(vs) + compute_s_batch(A, us, vs).sum(axis=1)) % p
    rep.tally("r3", (sums != want).any(axis=1), sums, want, witness=rows(us, vs))
    return rep


def restricted_derivation_rows(A: HomLieAlgebra, P: PStructure, D: Derivation) -> bool:
    """is_restricted_derivation on every vector of GF(p)^n (within the limit)."""
    assert A.p**A.n <= EXHAUSTIVE_LIMIT
    xs = gfp.all_vectors(A.n, A.p)
    return not restricted_defect_batch(A, D, xs, eval_p_batch(P, xs)).any()


def alpha_derivations(A: HomLieAlgebra, k: int = 1) -> np.ndarray:
    """A basis of the alpha^k-derivations of A as [dim, n, n]: the null space
    of twist-commutation plus Leibniz, the einsums of leibniz_dense applied
    to all n^2 unit matrices at once (D = E_ab at flat index a*n + b)."""
    p, n = A.p, A.n
    units = np.eye(n * n, dtype=np.int64).reshape(n * n, n, n)
    comm = (units @ A.alpha - A.alpha @ units) % p
    adk = np.einsum("ai,abk->ibk", gfp.mat_pow(A.alpha, k, p), A.c) % p  # ad(alpha^k(e_i))
    lhs = np.einsum("dkb,ijb->dijk", units, A.c)  # D([e_i, e_j])
    t1 = -np.einsum("jbk,dbi->dijk", adk, units)  # [D(e_i), alpha^k(e_j)]
    t2 = np.einsum("ibk,dbj->dijk", adk, units)  # [alpha^k(e_i), D(e_j)]
    rows = np.hstack([comm.reshape(n * n, -1), (lhs - t1 - t2).reshape(n * n, -1)]) % p
    return gfp.null_basis(rows.T, p).reshape(-1, n, n)


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


def restricted_iso_rows(L: HomLieAlgebra, B_L: BilinearForm, L_tilde: HomLieAlgebra, B_Lt: BilinearForm,
                        P_L: PStructure, P_Lt: PStructure, pi, samples: int = DEFAULT_SAMPLES,
                        seed: int = DEFAULT_SEED) -> Report:
    """verify_restricted_iso's report by its domain route, with every row
    evaluated: the direct check on every vector of GF(p)^N, p-images read
    from eval_p_all tables, while p^N fits restricted.EXHAUSTIVE_LIMIT (read
    at call time), otherwise on `samples` seeded rows folded by
    eval_p_batch; then the theorem route, thm_pmap_pi0 and thm_P_pi0 on the
    unit vectors of V and `samples` seeded ones drawn after those rows.  It
    never decides on the basis or on the points of weight <= p, and
    meta["regimes"] is {"direct": that regime, "theorem": "sampled"}."""
    p, N = L.p, L.n
    n = N - 2
    pi = gfp.asmat(pi, p)
    table = p**N <= restricted.EXHAUSTIVE_LIMIT
    rng = SplitMix64(seed)
    xs = gfp.all_vectors(N, p) if table else rng.mat(samples, N, p)

    def pmap(P):
        return (lambda vs: eval_p_all(P)[gfp.vec_index(vs, p)]) if table else (lambda vs: eval_p_batch(P, vs))

    f_L, f_Lt = pmap(P_L), pmap(P_Lt)
    rep = Report(p=p, dim=N, seed=seed, samples=samples,
                 regimes={"direct": "exhaustive" if table else "sampled", "theorem": "sampled"})
    lhs, rhs = (f_L(xs) @ pi.T) % p, f_Lt((xs @ pi.T) % p)
    rep.tally("direct", (lhs != rhs).any(axis=1), lhs, rhs, witness=rows(xs))
    f, ft = split_frame(L, B_L, P_L), split_frame(L_tilde, B_Lt, P_Lt)
    a, shape = extract_iso_data(L, B_L, pi)
    rep.merge(shape)
    pe, pet, B_V = f.pe, ft.pe, f.B_V
    pi0, gamma, t, nu = a.pi0, a.gamma, a.t_pi, a.nu
    ginv = gfp.inv(gamma, p)

    def parts(fold, vs):  # V- and e-parts of fold on the embedded rows vs of V
        emb = np.zeros((len(vs), N), dtype=np.int64)
        emb[:, 1:1 + n] = vs
        imgs = fold(emb)
        return imgs[:, 1:1 + n], imgs[:, N - 1]

    us = np.vstack([gfp.eye(n), rng.mat(samples, n, p)])
    sV, pV = parts(f_L, us)
    sVt, pVt = parts(f_Lt, (us @ pi0.T) % p)
    btu = B_V.eval_batch(np.broadcast_to(t, us.shape), us)
    lhs, rhs = (sV @ pi0.T) % p, (sVt + btu[:, None] * pet.u0[None, :]) % p
    rep.tally("thm_pmap_pi0", ((lhs - rhs) % p).any(axis=1), lhs, rhs, witness=rows(us))
    want = (gamma * pV + B_V.eval_batch(np.broadcast_to(t, sV.shape), sV) - btu * pet.m) % p
    rep.tally("thm_P_pi0", (pVt - want) % p != 0, pVt, want, witness=rows(us))
    pt = (pi0 @ t) % p
    spt, ppt = (v[0] for v in parts(f_Lt, pt[None, :]))
    y = gfp.zeros(N)
    y[1:1 + n] = (-pt) % p
    st = compute_s_batch(L_tilde, gfp.unit(N, 0)[None, :], y)[0].sum(axis=0) % p
    c = (-gamma * nu) % p
    gxi = (ginv * pe.xi) % p
    a0_rhs = ((gamma * (((pi0 @ pe.a0) % p - gxi * pt) % p)) % p + (c * pet.u0) % p + spt - st[1:1 + n]) % p
    l_rhs = (gamma * ((B_V.eval(t, pe.a0) + gamma * pe.l - gxi * c) % p) + int(ppt) + c * pet.m
             - int(st[N - 1])) % p
    m_rhs = (ginv * ((gamma * pe.m + B_V.eval(t, pe.u0)) % p)) % p
    u0_rhs = (ginv * ((pi0 @ pe.u0) % p)) % p
    rep.record("thm_a0", np.array_equal(pet.a0, a0_rhs), (), lhs=pet.a0, rhs=a0_rhs)
    rep.record("thm_l", pet.l % p == l_rhs, (), lhs=pet.l, rhs=l_rhs)
    rep.record("thm_xi", pet.xi % p == pe.xi, (), lhs=pet.xi, rhs=pe.xi)
    rep.record("thm_m", pet.m % p == m_rhs, (), lhs=pet.m, rhs=m_rhs)
    rep.record("thm_u0", np.array_equal(pet.u0, u0_rhs), (), lhs=pet.u0, rhs=u0_rhs)
    names = ("thm_pmap_pi0", "thm_P_pi0", "thm_a0", "thm_l", "thm_xi", "thm_m", "thm_u0")
    verdicts = ["pass" if ok else "fail" for ok in (rep.check("direct").ok, all(rep.check(k).ok for k in names))]
    rep.meta["direct_verdict"], rep.meta["theorem_verdict"] = verdicts
    rep.record("verdicts_agree", verdicts[0] == verdicts[1], (), lhs=verdicts[0], rhs=verdicts[1])
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
                      pairs: bool = False):
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
    return rep.tally(name, failed, lhs, rhs, witness=rows(*((xs[:, :n], xs[:, n:]) if pairs else (xs,))))


def rref_loop(m, p: int) -> tuple[np.ndarray, list[int]]:
    """gfp.rref as a Python loop over rows: for each column, scan down for the
    first nonzero entry, swap it up, scale it to 1 and clear the column one
    row at a time."""
    a = gfp.asmat(m, p).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = None
        for i in range(r, rows):
            if a[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * gfp.inv(int(a[r, c]), p)) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_loop(m, p: int) -> list[np.ndarray]:
    """gfp.kernel built one free column at a time on rref_loop, its basis
    echelonized again and the zero rows dropped."""
    a = gfp.asmat(m, p)
    cols = a.shape[1]
    r, pivots = rref_loop(a[a.any(axis=1)], p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = gfp.zeros(cols)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-r[i, f]) % p
        basis.append(v)
    if not basis:
        return []
    stacked, _ = rref_loop(np.stack(basis), p)
    return [stacked[i].copy() for i in range(stacked.shape[0]) if stacked[i].any()]


def solve_loop(m, b, p: int) -> np.ndarray | None:
    """gfp.solve on rref_loop of the augmented matrix, one pivot at a time."""
    a, rhs = gfp.asmat(m, p), gfp.asvec(b, p)
    cols = a.shape[1]
    aug, pivots = rref_loop(np.hstack([a, rhs[:, None]]), p)
    if cols in pivots:
        return None
    x = gfp.zeros(cols)
    for i, c in enumerate(pivots):
        x[c] = aug[i, cols]
    return x


def mat_inv_loop(m, p: int) -> np.ndarray | None:
    """gfp.mat_inv on rref_loop of [m | I]."""
    a = gfp.asmat(m, p)
    n = a.shape[0]
    aug, pivots = rref_loop(np.hstack([a, gfp.eye(n)]), p)
    return aug[:, n:].copy() if pivots == list(range(n)) else None


def subspace_loop(vectors, n: int, p: int) -> np.ndarray:
    """Subspace.from_vectors' basis: rref_loop of the stacked vectors, its
    zero rows dropped one at a time."""
    vecs = [gfp.asvec(v, p) for v in vectors]
    if not vecs:
        return np.zeros((0, n), dtype=np.int64)
    r, _ = rref_loop(np.stack(vecs), p)
    return r[[i for i in range(r.shape[0]) if r[i].any()]]


def subspace_reduce_loop(basis, v, p: int) -> np.ndarray:
    """Subspace.reduce one basis row at a time: clear each row's pivot
    coordinate of v where it is nonzero."""
    v = gfp.asvec(v, p).copy()
    for row in basis:
        c = int(np.argmax(row != 0)) if row.any() else None
        if c is not None and v[c] != 0:
            v = (v - v[c] * row) % p
    return v


def heis_table_p2(v) -> np.ndarray:
    """x^[2] of the heisenberg-dual fixture in closed form."""
    v = gfp.asvec(v, 2)
    out = gfp.zeros(6)
    out[2] = (v[2] * v[2] + v[0] * v[1]) % 2
    out[4] = (v[0] * v[5]) % 2
    out[3] = (v[1] * v[5]) % 2
    return out


def heis_table_P(v) -> int:
    """P of the heisenberg-dual fixture's extension in closed form."""
    v = gfp.asvec(v, 2)
    return int((v[0] * v[3] + v[1] * v[4]) % 2)


def psl3_table_P(name: str, v) -> int:
    """P of the psl3 extension by D1, D2 or D3 in closed form (the cubics).

    Each cubic is pinned to its derivation by the P additivity law;
    tests/test_twist.py shows that swapping the first two breaks it."""
    lam = gfp.asvec(v, 3)
    if name == "D1":
        val = lam[3] ** 2 * lam[5] + 2 * lam[0] * lam[1] * lam[3] + 2 * lam[1] ** 2 * lam[2]
    elif name == "D2":
        val = lam[2] ** 2 * lam[6] + 2 * lam[0] * lam[4] * lam[2] + lam[3] * lam[4] ** 2
    elif name == "D3":
        val = (
            lam[0] * lam[1] * lam[4]
            + lam[3] * lam[5] * lam[4]
            + 2 * lam[1] * lam[2] * lam[6]
            + lam[0] * lam[3] * lam[6]
        )
    else:
        raise KeyError(name)
    return int(val % 3)


def _e(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=np.int64)
    m[i, j] = 1
    return m


def psl3_matrix_model() -> SimpleNamespace:
    """psl(3) = sl(3)/scalars over GF(3) derived from 3x3 matrices.

    Basis order: [x1,y1], x1, x2, x3, y1, y2, y3 with x3 = [x1,x2] and
    y3 = [y1,y2]; the scalar line is eliminated by solving against the
    8-matrix spanning set (7 representatives plus the identity), using
    h2 = 2(I - h1), i.e. h2 = h1 in the quotient.  Returns the
    representatives (reps), the structure tensor of their projected
    commutators (c), the trace form (gram), which descends to the quotient,
    and the projected matrix cubes (images).
    """
    p = 3
    x1, x2 = _e(0, 1), _e(1, 2)
    x3 = (x1 @ x2 - x2 @ x1) % p
    y1, y2 = _e(1, 0), _e(2, 1)
    y3 = (y1 @ y2 - y2 @ y1) % p
    h1 = (_e(0, 0) - _e(1, 1)) % p
    reps = [h1, x1, x2, x3, y1, y2, y3]
    span = np.stack([m.reshape(9) for m in reps + [np.eye(3, dtype=np.int64)]], axis=1) % p

    def project(m) -> np.ndarray:
        coords = gfp.solve(span, (m % p).reshape(9), p)
        assert coords is not None, "matrix outside the psl(3) model span"
        return coords[:7]

    c = np.array([[project(a @ b - b @ a) for b in reps] for a in reps])
    gram = np.array([[np.trace(a @ b) % p for b in reps] for a in reps])
    images = np.array([project(np.linalg.matrix_power(a, 3)) for a in reps])
    return SimpleNamespace(reps=reps, c=c, gram=gram, images=images)
