"""p-structures on multiplicative Hom-Lie algebras and their verifiers.

A p-structure x -> x^[p] obeys three axioms: R1 ties ad(x^[p]) to the
twisted ad-tower of x, R2 is p-homogeneity, and R3 expands (x+y)^[p]
through the coefficients s_i extracted from a formal-parameter tower.
Basis images determine the whole map (one image per basis vector), and
eval_p extends them to arbitrary vectors by folding R2/R3 in ascending
basis order.  Everything here is exact arithmetic over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import BilinearForm, Derivation, HomLieAlgebra
from .errors import DimMismatch, OddCharRequired
from .report import Report
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64

EXHAUSTIVE_LIMIT = 65536


@dataclass
class PStructure:
    """Basis-image table of a p-structure: images[j] = e_j^[p]."""

    parent: HomLieAlgebra
    images: np.ndarray  # [n, n], row j is e_j^[p]

    def __init__(self, parent: HomLieAlgebra, images):
        self.parent = parent
        self.images = np.asarray(images, dtype=np.int64) % parent.p
        if self.images.shape != (parent.n, parent.n):
            raise DimMismatch("p-structure needs one image per basis vector")
        # read-only, so the eval_p_all table can never go stale
        self.images.setflags(write=False)
        self._all_images: np.ndarray | None = None


@dataclass
class PPropertyWitness:
    xi: int
    a0: np.ndarray

    def __init__(self, xi: int, a0, p: int):
        self.xi = int(xi) % p
        self.a0 = gfp.asvec(a0, p)


def compute_s(A: HomLieAlgebra, x, y) -> list[np.ndarray]:
    """The R3 coefficients s_1..s_{p-1} of the pair (x, y).

    The tower ad(alpha^{p-2}(kx+y)) o ... o ad(kx+y) applied to x is a
    polynomial vector in the formal parameter k; s_i is 1/i times its
    coefficient of k^{i-1}.
    """
    p = A.p
    x = gfp.asvec(x, p)
    y = gfp.asvec(y, p)
    ops = []
    for t in range(p - 2, -1, -1):
        ops.append((A.ad(A.apply_alpha(y, t)), A.ad(A.apply_alpha(x, t))))
    res = gfp.polyvec_apply(ops, gfp.PolyVec.constant(x, p), max_degree=p - 1)
    return [(gfp.inv(i, p) * res.coeff(i - 1)) % p for i in range(1, p)]


def compute_s_batch(A: HomLieAlgebra, xs, ys) -> np.ndarray:
    """Batched compute_s: returns [batch, p-1, n] with row i-1 equal to s_i."""
    p, n = A.p, A.n
    xs = np.asarray(xs, dtype=np.int64) % p
    ys = np.asarray(ys, dtype=np.int64) % p
    m = xs.shape[0]
    coeffs = np.zeros((m, p, n), dtype=np.int64)
    coeffs[:, 0, :] = xs
    deg = 0
    for t in range(0, p - 1):  # innermost factor first
        ady = A.ad_batch((xs @ A.alpha_pow(t).T) % p)  # k-coefficient: ad(alpha^t(x))
        adc = A.ad_batch((ys @ A.alpha_pow(t).T) % p)  # constant part: ad(alpha^t(y))
        new = np.zeros_like(coeffs)
        for d in range(deg + 1):
            new[:, d, :] += np.einsum("mbk,mb->mk", adc, coeffs[:, d, :])
            new[:, d + 1, :] += np.einsum("mbk,mb->mk", ady, coeffs[:, d, :])
        coeffs = new % p
        deg += 1
    out = np.zeros((m, p - 1, n), dtype=np.int64)
    for i in range(1, p):
        out[:, i - 1, :] = (gfp.inv(i, p) * coeffs[:, i - 1, :]) % p
    return out


def eval_p(P: PStructure, x) -> np.ndarray:
    """Extend the basis images to an arbitrary vector via the R2/R3 fold.

    x is written in the basis and folded in ascending index order with
    (a+b)^[p] = a^[p] + b^[p] + sum_i s_i(a,b).  The axioms R1-R3 pin the
    map without picking an algorithm, so the fold order is fixed here and
    order-independence is asserted by property tests, not assumed.
    """
    A = P.parent
    p, n = A.p, A.n
    x = gfp.asvec(x, p)
    acc_vec = gfp.zeros(n)
    acc_img = gfp.zeros(n)
    started = False
    for j in range(n):
        lam = int(x[j])
        if lam == 0:
            continue
        part = (lam * gfp.unit(n, j)) % p
        part_img = (pow(lam, p, p) * P.images[j]) % p
        if started:
            s = compute_s(A, acc_vec, part)
            acc_img = (acc_img + part_img + sum(s)) % p
        else:
            acc_img = (acc_img + part_img) % p
            started = True
        acc_vec = (acc_vec + part) % p
    return acc_img


def eval_p_batch(P: PStructure, xs) -> np.ndarray:
    """eval_p on a batch of row vectors; exact same fold as eval_p."""
    A = P.parent
    p, n = A.p, A.n
    xs = np.asarray(xs, dtype=np.int64) % p
    m = xs.shape[0]
    acc_vec = np.zeros((m, n), dtype=np.int64)
    acc_img = np.zeros((m, n), dtype=np.int64)
    for j in range(n):
        lam = xs[:, j]
        if not lam.any():
            continue
        parts = np.zeros((m, n), dtype=np.int64)
        parts[:, j] = lam
        part_img = (lam[:, None] * P.images[j][None, :]) % p  # lam^p = lam in GF(p)
        s = compute_s_batch(A, acc_vec, parts).sum(axis=1) % p
        acc_img = (acc_img + part_img + s) % p
        acc_vec[:, j] = lam
    return acc_img


def eval_p_all(P: PStructure) -> np.ndarray:
    """eval_p over every vector of GF(p)^n, indexed by gfp.vec_index; cached.

    The table is filled one highest-coordinate block at a time.  A vector
    whose highest nonzero coordinate is j, with value lam, sits at index
    prefix + lam*p^j with prefix < p^j, and the ascending fold of eval_p
    adds coordinate j last, so

        table[lam*p^j + prefix] = table[prefix] + lam^p e_j^[p] + sum_i s_i(prefix, lam e_j)

    (lam^p = lam in GF(p)).  That costs one compute_s row per vector, and
    the table matches eval_p_batch bit for bit.  It is read-only.  When
    p^n fits the exhaustive limit, verify_pstructure (R1, R2 and R3),
    is_restricted_derivation and the direct route of the restricted-iso
    check read it instead of re-folding.
    """
    if P._all_images is None:
        A = P.parent
        p, n = A.p, A.n
        vecs = gfp.all_vectors(n, p)
        table = np.zeros_like(vecs)
        for j in range(n):
            block = p**j
            lams = np.repeat(np.arange(1, p, dtype=np.int64), block)
            parts = np.zeros((lams.shape[0], n), dtype=np.int64)
            parts[:, j] = lams
            prefix = np.tile(np.arange(block), p - 1)
            s = compute_s_batch(A, vecs[prefix], parts).sum(axis=1)
            part_img = lams[:, None] * P.images[j][None, :]  # lam^p = lam in GF(p)
            table[block:block * p] = (table[prefix] + part_img + s) % p
        table.setflags(write=False)
        P._all_images = table
    return P._all_images


def _tower_batch(A: HomLieAlgebra, xs, lo: int, hi: int) -> np.ndarray:
    """Matrices of ad(alpha^hi(x)) o ... o ad(alpha^lo(x)) in [batch, in, out] layout."""
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    out = None
    for t in range(lo, hi + 1):
        step = A.ad_batch((xs @ A.alpha_pow(t).T) % p)
        out = step if out is None else (out @ step) % p
    return out


def r1_defect_batch(A: HomLieAlgebra, P: PStructure, xs, images) -> np.ndarray:
    """Per-vector R1 defect: ad(x^[p]) o alpha^{p-1} minus the ad-tower."""
    p = A.p
    tower = _tower_batch(A, xs, 0, p - 1)
    lhs = (A.alpha_pow(p - 1).T[None, :, :] @ A.ad_batch(images)) % p
    return (lhs - tower) % p


def verify_pstructure(
    P: PStructure,
    exhaustive: bool | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Check R1/R2/R3 for the extension of the stored basis images.

    R1 is always checked on the basis (the unique-extension criterion).
    Beyond that, R1 runs over all p^n vectors when that count fits the
    exhaustive limit, R3 over all pairs when p^(2n) fits, and sampled
    seeded vectors otherwise; R2 follows the R1 regime with all k.  When R1
    is exhaustive, every p-image R2 and R3 need is read from the eval_p_all
    table, which equals the eval_p_batch fold bit for bit.
    meta["regimes"] records the regime each of R1/R2/R3 actually ran, and
    meta["mode"] is "exhaustive" only when all three were.
    """
    A = P.parent
    p, n = A.p, A.n
    count = p**n
    if exhaustive is None:
        exhaustive = count <= EXHAUSTIVE_LIMIT
    table = exhaustive and count <= EXHAUSTIVE_LIMIT
    pairs = exhaustive and count * count <= EXHAUSTIVE_LIMIT
    vec_regime = "exhaustive" if table else "sampled"
    pair_regime = "exhaustive" if pairs else "sampled"
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"r1": vec_regime, "r2": vec_regime, "r3": pair_regime},
                 mode="exhaustive" if table and pairs else "sampled")

    basis = gfp.eye(n)
    defect = r1_defect_batch(A, P, basis, P.images)
    for j in range(n):
        rep.record("r1_basis", not defect[j].any(), (j,), lhs=defect[j], rhs=0)

    full = eval_p_all(P) if table else None

    def p_map(vs):
        return eval_p_batch(P, vs) if full is None else full[gfp.vec_index(vs, p)]

    rng = SplitMix64(seed)
    xs = gfp.all_vectors(n, p) if table else np.stack([rng.vec(n, p) for _ in range(samples)])
    imgs = p_map(xs)
    defect = r1_defect_batch(A, P, xs, imgs)
    bad = np.nonzero(defect.any(axis=(1, 2)))[0]
    rep.check("r1").passed = xs.shape[0] - len(bad)
    for m in bad:
        rep.record("r1", False, (tuple(int(v) for v in xs[m]),), lhs=defect[m], rhs=0)

    # R2: (k x)^[p] = k^p x^[p] over every scalar k.
    for k in range(p):
        scaled = p_map((k * xs) % p)
        want = (pow(k, p, p) * imgs) % p
        bad = np.nonzero(((scaled - want) % p).any(axis=1))[0]
        rep.check("r2").passed += xs.shape[0] - len(bad)
        for m in bad:
            rep.record("r2", False, (k, tuple(int(v) for v in xs[m])),
                       lhs=scaled[m], rhs=want[m])

    if pairs:
        left = np.repeat(np.arange(count), count)
        right = np.tile(np.arange(count), count)
        xpairs, ypairs = xs[left], xs[right]
    else:
        xpairs = np.stack([rng.vec(n, p) for _ in range(samples)])
        ypairs = np.stack([rng.vec(n, p) for _ in range(samples)])
    sums = p_map((xpairs + ypairs) % p)
    ximgs, yimgs = p_map(xpairs), p_map(ypairs)
    cross = compute_s_batch(A, xpairs, ypairs).sum(axis=1) % p
    defect = (sums - ximgs - yimgs - cross) % p
    bad = np.nonzero(defect.any(axis=1))[0]
    rep.check("r3").passed = xpairs.shape[0] - len(bad)
    for m in bad:
        rep.record(
            "r3", False,
            (tuple(int(v) for v in xpairs[m]), tuple(int(v) for v in ypairs[m])),
            lhs=sums[m], rhs=(ximgs[m] + yimgs[m] + cross[m]) % p,
        )
    return rep


def restricted_defect_batch(
    A: HomLieAlgebra, P: PStructure, D: Derivation, xs, images
) -> np.ndarray:
    """D(x^[p]) minus ad(alpha^{p-1}(x)) o ... o ad(alpha(x)) (D(x)), batched.

    images[m] is xs[m]^[p] under P, as in r1_defect_batch.
    """
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    lhs = (images @ D.mat.T) % p
    tower = _tower_batch(A, xs, 1, p - 1)
    rhs = np.einsum("mbk,mb->mk", tower, (xs @ D.mat.T) % p) % p
    return (lhs - rhs) % p


def is_restricted_derivation(
    A: HomLieAlgebra,
    P: PStructure,
    D: Derivation,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Compatibility of D with the p-structure over every vector, or on basis
    plus sampled vectors when p^n exceeds the exhaustive limit.

    The defining condition is not multilinear, so the basis does not
    suffice; sampled arbitrary vectors keep the check honest.  The
    exhaustive regime reads the cached eval_p_all table.
    """
    p, n = A.p, A.n
    count = p**n
    if count <= EXHAUSTIVE_LIMIT:
        xs = gfp.all_vectors(n, p)
        imgs = eval_p_all(P)
    else:
        rng = SplitMix64(seed)
        xs = np.concatenate([gfp.eye(n), np.stack([rng.vec(n, p) for _ in range(samples)])])
        imgs = eval_p_batch(P, xs)
    return not restricted_defect_batch(A, P, D, xs, imgs).any()


def check_p_property(A: HomLieAlgebra, D: Derivation, w: PPropertyWitness) -> bool:
    """D^p = xi*D o alpha^{p-1} + ad(a0) o alpha^{p-1} with D(a0) = 0."""
    p = A.p
    apow = A.alpha_pow(p - 1)
    lhs = gfp.mat_pow(D.mat, p, p)
    rhs = (w.xi * D.mat @ apow + A.ad(w.a0) @ apow) % p
    return np.array_equal(lhs, rhs) and not D(w.a0).any()


def solve_p_property(A: HomLieAlgebra, D: Derivation) -> PPropertyWitness | None:
    """Search xi in ascending order and solve the linear system for a0.

    The map a0 -> matrix of ad(a0) o alpha^{p-1} is linear, so each xi
    yields a linear system joined with D(a0) = 0; the returned a0 is the
    echelon-minimal solution (particular solution reduced modulo the
    homogeneous kernel), making outputs reproducible.
    """
    p, n = A.p, A.n
    apow = A.alpha_pow(p - 1)
    cols = np.stack([(A.ad(gfp.unit(n, j)) @ apow) % p for j in range(n)])
    m = np.vstack([cols.reshape(n, n * n).T % p, D.mat])
    dp = gfp.mat_pow(D.mat, p, p)
    for xi in range(p):
        target = (dp - xi * (D.mat @ apow)) % p
        rhs = np.concatenate([target.reshape(n * n), gfp.zeros(n)])
        a0 = gfp.solve(m, rhs, p)
        if a0 is None:
            continue
        for row in gfp.kernel(m, p):
            c = int(np.argmax(row != 0))
            if a0[c] != 0:
                a0 = (a0 - a0[c] * row) % p
        return PPropertyWitness(xi, a0, p)
    return None


def compute_eta(A: HomLieAlgebra, B: BilinearForm, D: Derivation, u, v) -> list[int]:
    """The eta_1..eta_{p-1} coefficients used by odd-characteristic P maps.

    Pairs D(alpha^{p-2}(lam*u + v)) against the length-(p-2) ad-tower of
    (lam*u + v) applied to u, expands in the formal parameter lam, and
    divides the coefficient of lam^(i-1) by i.
    """
    if A.p == 2:
        raise OddCharRequired("eta coefficients need p > 2")
    etas = compute_eta_batch(A, B, D, gfp.asvec(u, A.p)[None, :], gfp.asvec(v, A.p)[None, :])
    return [int(x) for x in etas[0]]


def compute_eta_batch(A: HomLieAlgebra, B: BilinearForm, D: Derivation, us, vs) -> np.ndarray:
    """Batched compute_eta: [batch, p-1] of scalars."""
    if A.p == 2:
        raise OddCharRequired("eta coefficients need p > 2")
    p, n = A.p, A.n
    us = np.asarray(us, dtype=np.int64) % p
    vs = np.asarray(vs, dtype=np.int64) % p
    m = us.shape[0]
    da = (D.mat @ A.alpha_pow(p - 2)) % p
    left = np.zeros((m, 2, n), dtype=np.int64)
    left[:, 0, :] = (vs @ da.T) % p
    left[:, 1, :] = (us @ da.T) % p
    right = np.zeros((m, p, n), dtype=np.int64)
    right[:, 0, :] = us
    deg = 0
    for t in range(0, p - 2):
        adu = A.ad_batch((us @ A.alpha_pow(t).T) % p)
        adv = A.ad_batch((vs @ A.alpha_pow(t).T) % p)
        new = np.zeros_like(right)
        for d in range(deg + 1):
            new[:, d, :] += np.einsum("mbk,mb->mk", adv, right[:, d, :])
            new[:, d + 1, :] += np.einsum("mbk,mb->mk", adu, right[:, d, :])
        right = new % p
        deg += 1
    q = np.zeros((m, p), dtype=np.int64)
    for d1 in range(2):
        for d2 in range(deg + 1):
            if d1 + d2 >= p:
                continue
            q[:, d1 + d2] += B.eval_batch(left[:, d1, :], right[:, d2, :])
    q %= p
    out = np.zeros((m, p - 1), dtype=np.int64)
    for i in range(1, p):
        out[:, i - 1] = (gfp.inv(i, p) * q[:, i - 1]) % p
    return out
