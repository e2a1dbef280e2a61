"""p-structures on multiplicative Hom-Lie algebras and their verifiers.

A p-structure x -> x^[p] obeys three axioms: R1 ties ad(x^[p]) to the
twisted ad-tower of x, R2 is p-homogeneity, and R3 expands (x+y)^[p]
through the coefficients s_i extracted from a formal-parameter tower.
Basis images determine the whole map (one image per basis vector), and
eval_p extends them to arbitrary vectors by folding R2/R3 in ascending
basis order.  Everything here is exact arithmetic over GF(p).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import BilinearForm, Derivation, HomLieAlgebra
from .errors import DimMismatch, OddCharRequired
from .report import CheckResult, Report, rows
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64, check_samples

EXHAUSTIVE_LIMIT = 65536


class PStructure:
    """Basis-image table of a p-structure: images[j] = e_j^[p].

    parent and images are read-only properties and images is a read-only
    array, so the cached eval_p_all table can never go stale.
    """

    def __init__(self, parent: HomLieAlgebra, images):
        images = np.asarray(images, dtype=np.int64) % parent.p
        if images.shape != (parent.n, parent.n):
            raise DimMismatch("p-structure needs one image per basis vector")
        images.setflags(write=False)
        self._parent = parent
        self._images = images
        self._all_images: np.ndarray | None = None

    @property
    def parent(self) -> HomLieAlgebra:
        return self._parent

    @property
    def images(self) -> np.ndarray:  # [n, n], row j is e_j^[p]
        return self._images


@dataclass
class PPropertyWitness:
    xi: int
    a0: np.ndarray

    def __init__(self, xi: int, a0, p: int):
        self.xi = int(xi) % p
        self.a0 = gfp.asvec(a0, p)


def _formal_tower(A: HomLieAlgebra, xs, ys, depth: int) -> np.ndarray:
    """ad(alpha^{depth-1}(kx+y)) o ... o ad(kx+y) applied to x, per pair.

    The result is a polynomial vector in the formal parameter k; returns
    [batch, depth+1, n] with row d its coefficient of k^d.  This is the one
    tower behind both the s_i and the eta_i.
    """
    coeffs = np.zeros((xs.shape[0], depth + 1, A.n), dtype=np.int64)
    coeffs[:, 0, :] = xs
    # Innermost factor first.  alpha^t(y), the constant part of factor t, and
    # alpha^t(x), its k-coefficient, bracket the coefficient rows in one call.
    zs = np.stack([ys, xs], axis=1)[:, :, None, :]  # [batch, 2, 1, n]
    for t in range(depth):
        if t:
            zs = gfp.mod(zs @ A.alpha.T, A.p)
        part = A.bracket_batch(zs, coeffs[:, None, :t + 1, :])
        coeffs[:, :t + 1, :] = part[:, 0]
        coeffs[:, 1:t + 2, :] += part[:, 1]  # below 2p; bracket_batch reduces its input
    return gfp.mod(coeffs, A.p)


def _inverses(p: int) -> np.ndarray:
    """1/1, ..., 1/(p-1) in GF(p)."""
    return np.array([gfp.inv(i, p) for i in range(1, p)], dtype=np.int64)


def compute_s_batch(A: HomLieAlgebra, xs, ys) -> np.ndarray:
    """The R3 coefficients s_1..s_{p-1} of each pair (x, y): [batch, p-1, n].

    s_i is 1/i times the coefficient of k^{i-1} in the formal tower
    ad(alpha^{p-2}(kx+y)) o ... o ad(kx+y) applied to x.
    """
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    ys = np.asarray(ys, dtype=np.int64) % p
    tower = _formal_tower(A, xs, ys, p - 1)[:, :p - 1, :]
    return (_inverses(p)[None, :, None] * tower) % p


def compute_s(A: HomLieAlgebra, x, y) -> list[np.ndarray]:
    """compute_s_batch on one pair, as the list [s_1, ..., s_{p-1}]."""
    return list(compute_s_batch(A, gfp.asvec(x, A.p)[None, :], gfp.asvec(y, A.p)[None, :])[0])


def fold(p: int, xs, images, cross, inert) -> np.ndarray:
    """The ascending-index fold of a p-semilinear map f from its basis values.

    images[j] is f(e_j).  Each row x is written in the basis and folded in
    ascending index order with f(a + b) = f(a) + f(b) + cross(a, b) and
    f(lam e_j) = lam^p images[j] = lam images[j].  cross(prefixes, parts)
    gets the folded prefixes and the lam e_j rows as batches; it must vanish
    when either argument is zero, so it is called only on rows where both are
    nonzero, and when inert[j] is true it must vanish on every lam e_j, so
    coordinate j adds no cross term.  Returns [batch] + images.shape[1:].
    """
    xs = np.asarray(xs, dtype=np.int64) % p
    acc_vec = np.zeros_like(xs)
    acc = np.zeros(xs.shape[:1] + images.shape[1:], dtype=np.int64)
    started = np.zeros(xs.shape[0], dtype=bool)
    for j in np.nonzero(xs.any(axis=0))[0]:
        lam = xs[:, j]
        acc = (acc + np.multiply.outer(lam, images[j])) % p  # lam^p = lam in GF(p)
        live = np.nonzero(started & (lam != 0))[0]
        if live.size and not inert[j]:
            parts = np.zeros((live.size, xs.shape[1]), dtype=np.int64)
            parts[:, j] = lam[live]
            acc[live] = (acc[live] + cross(acc_vec[live], parts)) % p
        acc_vec[:, j] = lam
        started |= lam != 0
    return acc


def eval_p_batch(P: PStructure, xs) -> np.ndarray:
    """Extend the basis images to a batch of row vectors via the R2/R3 fold.

    The fold is `fold` with cross term the R3 sum of the s_i, which vanish
    when either argument is zero.  The axioms R1-R3 pin the map without
    picking an algorithm, so the fold order is fixed there and
    order-independence is asserted by property tests, not assumed.
    """
    A = P.parent
    return fold(A.p, xs, P.images, lambda us, vs: compute_s_batch(A, us, vs).sum(axis=1), A.inert)


def eval_p(P: PStructure, x) -> np.ndarray:
    """eval_p_batch on one vector."""
    return eval_p_batch(P, gfp.asvec(x, P.parent.p)[None, :])[0]


def eval_p_all(P: PStructure) -> np.ndarray:
    """eval_p over every vector of GF(p)^n, indexed by gfp.vec_index; cached.

    The table is filled one highest-coordinate block at a time.  A vector
    whose highest nonzero coordinate is j, with value lam, sits at index
    prefix + lam*p^j with prefix < p^j, and the ascending fold of eval_p
    adds coordinate j last, so

        table[lam*p^j + prefix] = table[prefix] + lam^p e_j^[p] + sum_i s_i(prefix, lam e_j)

    (lam^p = lam in GF(p)).  s_i has degree p-i in its second argument, so
    s_i(prefix, lam e_j) = lam^(p-i) s_i(prefix, e_j): one compute_s row per
    prefix serves every lam, weighted by lam^(p-i) mod p.  The weighted sum
    has p-1 terms below p^2 each, under 2^48 for p <= EXHAUSTIVE_LIMIT.  The
    table matches eval_p_batch bit for bit.  It is read-only.  Every check
    in the exhaustive regime of `domain` reads it instead of re-folding.  An
    inert e_j has s_i(prefix, e_j) = 0, so its block makes no compute_s call.
    """
    if P._all_images is None:
        A = P.parent
        p, n = A.p, A.n
        vecs = gfp.all_vectors(n, p)
        table = np.zeros_like(vecs)
        lams = np.arange(1, p, dtype=np.int64)
        weights = np.array([[pow(int(lam), p - i, p) for i in range(1, p)] for lam in lams],
                           dtype=np.int64)  # [lam, i] -> lam^(p-i) mod p
        for j in range(n):
            block = p**j
            part = lams[:, None, None] * P.images[j] + table[None, :block]  # lam^p = lam in GF(p)
            if not A.inert[j]:
                unit = np.broadcast_to(gfp.unit(n, j), (block, n))
                s = compute_s_batch(A, vecs[:block], unit).transpose(1, 0, 2)  # [i, prefix, n]
                part += (weights @ s.reshape(p - 1, -1)).reshape(p - 1, block, n)
            table[block:block * p] = gfp.mod(part, p).reshape(-1, n)
        table.setflags(write=False)
        P._all_images = table
    return P._all_images


def p_map(P: PStructure, table: bool):
    """x -> x^[p] on batches: read from the eval_p_all table, or folded."""
    if table:
        full = eval_p_all(P)
        return lambda vs: full[gfp.vec_index(vs, P.parent.p)]
    return lambda vs: eval_p_batch(P, vs)


def domain(P: PStructure, exhaustive: bool, samples: int, rng: SplitMix64):
    """The vectors a check of P runs over, x -> x^[p] on batches, and the regime.

    When exhaustive is true and p^n fits EXHAUSTIVE_LIMIT, that is every
    vector of GF(p)^n in gfp.all_vectors order, mapped through the
    eval_p_all table, and "exhaustive".  Otherwise it is `samples` rows
    drawn from rng, folded by eval_p_batch, and "sampled"; only this regime
    advances rng.  Checks tally over it through `tally_domain`.
    """
    A = P.parent
    if exhaustive and A.p**A.n <= EXHAUSTIVE_LIMIT:
        return gfp.all_vectors(A.n, A.p), p_map(P, True), "exhaustive"
    return rng.mat(samples, A.n, A.p), p_map(P, False), "sampled"


def domain_defect(P: PStructure, regime: str, xs, images, defect) -> np.ndarray:
    """defect(xs, images) on a `domain` of P, once per line when exhaustive.

    defect must have degree p in x and be linear in the image, as the R1
    and restricted-derivation defects are; then defect(lam x, lam image) =
    lam^p defect(x, image) = lam defect(x, image).  On the exhaustive
    domain with p > 2 it runs on the line representatives of gfp.line_map,
    and a row x = lam*rep whose image is lam*image(rep) gets lam*defect(rep).
    Any other row is computed directly, so the result equals
    defect(xs, images) bit for bit whatever the images are.  The sampled
    regime, and p = 2 with one point per line, run defect on every row.
    """
    p = P.parent.p
    if regime != "exhaustive" or p == 2:
        return defect(xs, images)
    lam, rep = gfp.line_map(P.parent.n, p)
    is_rep = lam == 1
    slot = np.cumsum(is_rep) - 1  # a representative row -> its row in d
    d = defect(xs[is_rep], images[is_rep])
    out = gfp.mod(lam.reshape((-1,) + (1,) * (d.ndim - 1)) * d[slot[rep]], p)
    odd = np.nonzero((images != gfp.mod(lam[:, None] * images[rep], p)).any(axis=1))[0]
    if odd.size:
        out[odd] = defect(xs[odd], images[odd])
    return out


def tally_domain(rep: Report, name: str, regime: str, P: PStructure, pmaps, defect, full,
                 pairs: bool = False) -> CheckResult:
    """Tally check `name` over the `domain` of P, deciding an exhaustive one
    on the points of weight <= p.

    defect(zs, *pmaps) is the check's defect on rows zs of GF(p)^N, with
    N = n, or 2n when pairs is true (a pair (x, y) is the row [x, y]);
    pmaps are batch p-maps from `p_map`.  Since they are the fold, as its
    eval_p_all table or as eval_p_batch, the defect of every check that
    comes here is a polynomial of degree <= p in the N coordinates, and such
    a polynomial that vanishes on every point with at most p nonzero
    coordinates vanishes everywhere (README, "Certified exhaustive
    checks").  So when regime is "exhaustive" and the defect vanishes on
    gfp.low_weight(N, p, p), the check passes on all p^N points and is
    tallied so without evaluating them.  Otherwise full() runs the check's
    full-domain (or sampled) route, which gives its counts, witnesses and
    values.
    """
    p = P.parent.p
    size = P.parent.n * (2 if pairs else 1)
    if regime == "exhaustive" and not defect(gfp.low_weight(size, p, p), *pmaps).any():
        rep.check(name).passed += p**size
    else:
        full()
    return rep.check(name)


def _tower_batch(A: HomLieAlgebra, xs) -> np.ndarray:
    """Matrices of ad(alpha^{p-1}(x)) o ... o ad(x) in [batch, in, out] layout."""
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    out = A.ad_batch(xs)
    for t in range(1, p):
        out = (out @ A.ad_batch((xs @ A.alpha_pow(t).T) % p)) % p
    return out


def r1_defect_batch(A: HomLieAlgebra, P: PStructure, xs, images) -> np.ndarray:
    """Per-vector R1 defect: ad(x^[p]) o alpha^{p-1} minus the ad-tower."""
    p = A.p
    tower = _tower_batch(A, xs)
    lhs = (A.alpha_pow(p - 1).T[None, :, :] @ A.ad_batch(images)) % p
    return (lhs - tower) % p


def verify_pstructure(
    P: PStructure,
    exhaustive: bool = True,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Check R1/R2/R3 for the extension of the stored basis images.

    R1 is always checked on the basis (the unique-extension criterion).
    Beyond that, R1 runs over the `domain` of P, R2 over the same vectors
    with all k, and R3 over all pairs when p^(2n) fits the exhaustive limit
    and over sampled seeded pairs otherwise; exhaustive=False samples all
    three.  When R1 is exhaustive, every p-image R2 and R3 need is read
    from the eval_p_all table, which equals the eval_p_batch fold bit for bit,
    and each exhaustive check is decided by `tally_domain` on the points of
    weight <= p; only a failing one walks its whole domain, for its counts
    and witnesses.
    meta["regimes"] records the regime each of R1/R2/R3 actually ran, and
    meta["mode"] is "exhaustive" only when all three were.
    """
    check_samples(samples)
    A = P.parent
    p, n = A.p, A.n
    rng = SplitMix64(seed)
    xs, pmap, vec_regime = domain(P, exhaustive, samples, rng)
    images = functools.cache(lambda: pmap(xs))
    count = p**n
    pairs = exhaustive and count * count <= EXHAUSTIVE_LIMIT  # then the vectors are exhaustive too
    pair_regime = "exhaustive" if pairs else "sampled"
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"r1": vec_regime, "r2": vec_regime, "r3": pair_regime},
                 mode=pair_regime)

    defect = r1_defect_batch(A, P, gfp.eye(n), P.images)
    rep.tally("r1_basis", defect.any(axis=(1, 2)), defect, 0)

    def r1(vs, imgs):
        return r1_defect_batch(A, P, vs, imgs)

    def r1_full():
        defect = domain_defect(P, vec_regime, xs, images(), r1)
        rep.tally("r1", defect.any(axis=(1, 2)), defect, 0, witness=rows(xs))

    tally_domain(rep, "r1", vec_regime, P, [pmap], lambda vs, f: r1(vs, f(vs)), r1_full)

    # R2: (k x)^[p] = k^p x^[p] over every scalar k.
    for k in range(p):
        def r2_sides(vs, f, imgs):
            return f((k * vs) % p), (pow(k, p, p) * imgs) % p

        def r2_full():
            scaled, want = r2_sides(xs, pmap, images())
            rep.tally("r2", ((scaled - want) % p).any(axis=1), scaled, want,
                      witness=lambda i: (k,) + rows(xs)(i))

        tally_domain(rep, "r2", vec_regime, P, [pmap],
                     lambda vs, f: np.subtract(*r2_sides(vs, f, f(vs))), r2_full)

    def r3_sides(us, vs, f):
        sums = f((us + vs) % p)
        return sums, (f(us) + f(vs) + compute_s_batch(A, us, vs).sum(axis=1)) % p

    def r3_full(xpairs, ypairs):
        sums, want = r3_sides(xpairs, ypairs, pmap)
        rep.tally("r3", ((sums - want) % p).any(axis=1), sums, want, witness=rows(xpairs, ypairs))

    if pairs:
        idx = np.arange(count)
        tally_domain(rep, "r3", "exhaustive", P, [pmap],
                     lambda zs, f: np.subtract(*r3_sides(zs[:, :n], zs[:, n:], f)),
                     lambda: r3_full(xs[np.repeat(idx, count)], xs[np.tile(idx, count)]), pairs=True)
    else:
        r3_full(rng.mat(samples, n, p), rng.mat(samples, n, p))
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
    rhs = (xs @ D.mat.T) % p
    for t in range(1, p):
        rhs = A.bracket_batch((xs @ A.alpha_pow(t).T) % p, rhs)
    return (lhs - rhs) % p


def is_restricted_derivation(
    A: HomLieAlgebra,
    P: PStructure,
    D: Derivation,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Compatibility of D with the p-structure on the basis plus the `domain`
    of P: every vector (decided on those of weight <= p by `tally_domain`),
    or seeded samples past the exhaustive limit.

    The defining condition is not multilinear, so the basis does not
    suffice; sampled arbitrary vectors keep the check honest.
    """
    check_samples(samples)
    xs, pmap, regime = domain(P, True, samples, SplitMix64(seed))
    basis = gfp.eye(A.n)

    def defect(vs, images):
        return restricted_defect_batch(A, P, D, vs, images)

    if defect(basis, pmap(basis)).any():
        return False
    rep = Report()
    return tally_domain(
        rep, "domain", regime, P, [pmap], lambda vs, f: defect(vs, f(vs)),
        lambda: rep.tally("domain", domain_defect(P, regime, xs, pmap(xs), defect).any(axis=1)),
    ).ok


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
    cols = (A.ad_batch(gfp.eye(n)).transpose(0, 2, 1) @ apow) % p  # ad(e_j) o alpha^{p-1}
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


def compute_eta_batch(A: HomLieAlgebra, B: BilinearForm, D: Derivation, us, vs) -> np.ndarray:
    """The eta_1..eta_{p-1} coefficients used by odd-characteristic P maps.

    Pairs D(alpha^{p-2}(lam*u + v)) against the length-(p-2) formal tower
    of (lam*u + v) applied to u, expands in the formal parameter lam, and
    divides the coefficient of lam^(i-1) by i.  Returns [batch, p-1].
    """
    if A.p == 2:
        raise OddCharRequired("eta coefficients need p > 2")
    p = A.p
    us = np.asarray(us, dtype=np.int64) % p
    vs = np.asarray(vs, dtype=np.int64) % p
    # B(D(alpha^{p-2}(w)), .) as a row vector: lam^0 part from v, lam^1 part from u
    pair = (D.mat @ A.alpha_pow(p - 2)).T @ B.gram % p
    right = _formal_tower(A, us, vs, p - 2)  # [batch, p-1, n]
    q = np.einsum("mk,mdk->md", (vs @ pair) % p, right)
    q[:, 1:] += np.einsum("mk,mdk->md", (us @ pair) % p, right[:, :-1, :])
    return (_inverses(p)[None, :] * (q % p)) % p


def compute_eta(A: HomLieAlgebra, B: BilinearForm, D: Derivation, u, v) -> list[int]:
    """compute_eta_batch on one pair, as a list of ints."""
    etas = compute_eta_batch(A, B, D, gfp.asvec(u, A.p)[None, :], gfp.asvec(v, A.p)[None, :])
    return [int(x) for x in etas[0]]
