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
from .algebra import BilinearForm, Derivation, HomLieAlgebra, Subspace
from .errors import DimMismatch, OddCharRequired
from .report import CheckResult, Report, rows
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED, SplitMix64, check_samples

EXHAUSTIVE_LIMIT = 65536
# Product budget of one slice of fold's cross terms: bounds its temporaries.
_FOLD_PRODUCTS = 1 << 15
# Element budget of the folded rows one PStructure keeps (see fold).
_FOLD_CACHE = 1 << 16
# Element budget of one slice of r1_defect_batch's [rows, n, n] matrices.
_R1_ELEMENTS = 1 << 18


class PStructure:
    """Basis-image table of a p-structure: images[j] = e_j^[p].

    parent and images are read-only properties and images is a read-only
    array, so the cached eval_p_all table and folds can never go stale.
    """

    def __init__(self, parent: HomLieAlgebra, images):
        images = np.asarray(images, dtype=np.int64) % parent.p
        if images.shape != (parent.n, parent.n):
            raise DimMismatch("p-structure needs one image per basis vector")
        images.setflags(write=False)
        self._parent = parent
        self._images = images
        self._all_images: np.ndarray | None = None
        self._folds: dict[bytes, bytes] = {}

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
    tower behind both the s_i and the eta_i.  ys is [batch, n], or one [n]
    vector shared by the batch.  On an alternating c the innermost factor
    gives k[x, x] + [y, x] = [y, x], so after t + 1 factors the degree is
    at most t and the top rows, which are zero, are not bracketed (README,
    "The formal tower").
    """
    p, shared = A.p, ys.ndim == 1
    coeffs = np.zeros((xs.shape[0], depth + 1, A.n), dtype=np.int64)
    coeffs[:, 0, :] = xs
    # Innermost factor first.  alpha^t(y), the constant part of factor t, and
    # alpha^t(x), its k-coefficient, bracket the live rows in one call; a
    # shared alpha^t(y) is one matrix ad(alpha^t(y)) instead.
    for t in range(depth):
        if t:
            xs, ys = gfp.mod(xs @ A.alpha.T, p), gfp.mod(ys @ A.alpha.T, p)
        hi = t + 1 - A.alternating  # rows alpha^t(x) meets: [x, x] = 0 zeroes the top one
        live = coeffs[:, :max(hi, 1)]  # below 2p, reduced before any product
        zs = ([] if shared else [ys]) + ([xs] if hi else [])
        part = A.bracket_batch(np.stack(zs, axis=1)[:, :, None, :], live[:, None]) if zs else None
        live[:] = gfp.mod(gfp.mod(live, p) @ A.ad_batch(ys[None])[0], p) if shared else part[:, 0]
        if hi:
            coeffs[:, 1:hi + 1, :] += part[:, -1]
    return gfp.mod(coeffs, p)


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """1/1, ..., 1/(p-1) in GF(p); cached per p and read-only."""
    out = np.array([gfp.inv(i, p) for i in range(1, p)], dtype=np.int64)
    out.setflags(write=False)
    return out


def compute_s_batch(A: HomLieAlgebra, xs, ys) -> np.ndarray:
    """The R3 coefficients s_1..s_{p-1} of each pair (x, y): [batch, p-1, n].

    s_i is 1/i times the coefficient of k^{i-1} in the formal tower
    ad(alpha^{p-2}(kx+y)) o ... o ad(kx+y) applied to x.  ys may be one
    [n] vector, shared by every x.
    """
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    ys = np.asarray(ys, dtype=np.int64) % p
    tower = _formal_tower(A, xs, ys, p - 1)[:, :p - 1, :]
    return (_inverses(p)[None, :, None] * tower) % p


def compute_s(A: HomLieAlgebra, x, y) -> list[np.ndarray]:
    """compute_s_batch on one pair, as the list [s_1, ..., s_{p-1}]."""
    return list(compute_s_batch(A, gfp.asvec(x, A.p)[None, :], gfp.asvec(y, A.p)[None, :])[0])


def fold(p: int, xs, images, cross, inert, nnz: int = 0, cache: dict | None = None) -> np.ndarray:
    """The fold of a p-semilinear map f from its basis values images[j] = f(e_j).

    The ascending-index fold with f(a + b) = f(a) + f(b) + cross(a, b) and
    f(lam e_j) = lam^p f(e_j) = lam f(e_j) is f(x) = sum_j x_j f(e_j) +
    sum_j cross(x_<j, x_j e_j): each cross term depends on x's own prefix
    x_<j, not on the running sum.  cross is homogeneous of degree p, so
    f(x) = c^p f(x/c) = c f(x/c) with c the leading nonzero coordinate of x,
    for any tensor, alpha and images.  Each distinct x/c, keyed by its bytes
    in a dtype that holds p - 1, is folded once per call and once per
    `cache` (key -> folded row bytes; past _FOLD_CACHE elements, rows are
    folded but not stored).  The linear part of those rows is one product,
    and cross runs on their live pairs (row, j) only: x_j != 0, x_<j != 0
    and j not inert (cross must vanish on the others), in slices of
    _FOLD_PRODUCTS products at about 2(p-1)*nnz a pair (a formal tower over
    nnz structure constants).  Returns a new [batch] + images.shape[1:].
    """
    xs = np.asarray(xs, dtype=np.int64) % p
    lead = xs[np.arange(len(xs)), (xs != 0).argmax(axis=1)]  # 0 on a zero row, which stays zero
    if scaled := np.max(lead, initial=0) > 1:  # else every row already is x/c, as always at p = 2
        cs, at = np.unique(lead, return_inverse=True)
        xs = (xs * np.array([gfp.inv(c, p) if c else 0 for c in cs], dtype=np.int64)[at][:, None]) % p
    dt, shape = np.min_scalar_type(p - 1), images.shape[1:]
    cache = {} if cache is None else cache  # without one, rows are still folded once per call
    keys, reps, where = np.unique(xs.astype(dt, order="C").view(f"V{dt.itemsize * xs.shape[1]}").ravel(),
                                   return_index=True, return_inverse=True)
    raw, w = keys.tobytes(), keys.itemsize
    names = [raw[i:i + w] for i in range(0, len(raw), w)]
    todo = [i for i, k in enumerate(names) if k not in cache]
    done = [i for i, k in enumerate(names) if k in cache]
    out = np.empty((len(keys),) + shape, dtype=np.int64)
    out[done] = np.frombuffer(b"".join(cache[names[i]] for i in done), dtype=dt).reshape((len(done),) + shape)
    xs = xs[reps[todo]]
    acc = gfp.mod(xs @ images, p)  # n terms below p^2, inside the dim*(p-1)^2 guard
    nz = xs != 0
    idx = np.arange(xs.shape[1])
    rows, cols = np.nonzero(nz & (idx > nz.argmax(axis=1)[:, None]) & ~inert)
    step = max(1, _FOLD_PRODUCTS // max(1, 2 * (p - 1) * nnz))
    for lo in range(0, rows.size, step):
        r, j = rows[lo:lo + step], cols[lo:lo + step]
        prefixes = np.where(idx < j[:, None], xs[r], 0)
        parts = np.zeros_like(prefixes)
        parts[np.arange(r.size), j] = xs[r, j]
        first = np.flatnonzero(np.diff(r, prepend=-1))  # rows come grouped: one sum per row
        acc[r[first]] = (acc[r[first]] + np.add.reduceat(cross(prefixes, parts), first, axis=0)) % p
    out[todo] = acc
    room = max(0, _FOLD_CACHE // images[0].size - len(cache))
    blob, vw = acc[:room].astype(dt).tobytes(), dt.itemsize * images[0].size
    cache.update((names[i], blob[k * vw:(k + 1) * vw]) for k, i in enumerate(todo[:room]))
    return (lead.reshape((-1,) + (1,) * len(shape)) * out[where]) % p if scaled else out[where]


def eval_p_batch(P: PStructure, xs) -> np.ndarray:
    """Extend the basis images to a batch of row vectors via the R2/R3 fold.

    The fold is `fold` with cross term the R3 sum of the s_i, which vanish
    when either argument is zero.  The axioms R1-R3 pin the map without
    picking an algorithm, so the fold order is fixed there and
    order-independence is asserted by property tests, not assumed.
    """
    A = P.parent
    return fold(A.p, xs, P.images, lambda us, vs: compute_s_batch(A, us, vs).sum(axis=1), A.inert, A.nnz,
                P._folds)


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
                s = compute_s_batch(A, vecs[:block], gfp.unit(n, j)).transpose(1, 0, 2)  # [i, prefix, n]
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
    advances rng.  Either way every check over one domain shares one fold
    of it: the table, or the rows eval_p_batch keeps on P.  Checks tally
    over it through `tally_domain`.
    """
    A = P.parent
    if exhaustive and A.p**A.n <= EXHAUSTIVE_LIMIT:
        return gfp.all_vectors(A.n, A.p), p_map(P, True), "exhaustive"
    return rng.mat(samples, A.n, A.p), p_map(P, False), "sampled"


def tally_domain(rep: Report, name: str, regime: str, P: PStructure, xs, pmaps, sides,
                 witness=rows, pairs: bool = False) -> CheckResult:
    """Tally check `name` over the `domain` of P, deciding an exhaustive one
    on the points of weight <= p.

    sides(zs, *pmaps) gives the check's two sides on rows zs of GF(p)^N,
    with N = n, or 2n when pairs is true (a pair (x, y) is the row [x, y]),
    both in [0, p), and a row fails where they differ (!=, no difference
    array); pmaps are batch p-maps from `domain` or `p_map`.  Since they
    are the fold, as its eval_p_all table or as eval_p_batch, the defect
    lhs - rhs of every check that comes here is a
    polynomial of degree <= p in the N coordinates, and such a polynomial
    that vanishes on every point with at most p nonzero coordinates
    vanishes everywhere (README, "Certified exhaustive checks").  So when
    regime is "exhaustive" and the sides agree on gfp.low_weight(N, p, p),
    the check passes on all p^N points and is tallied so without evaluating
    them.  Otherwise the same sides run on every row of the domain, which
    gives the counts, witnesses and values.  xs is that domain: the vectors
    of `domain`, whose pairs an exhaustive pair check takes x-major, or a
    sampled pair check's [x, y] rows.  witness(x rows[, y rows]) gives the
    witness callback of Report.tally.
    """
    p, n = P.parent.p, P.parent.n
    size = n * (2 if pairs else 1)
    if regime == "exhaustive":
        lhs, rhs = sides(gfp.low_weight(size, p, p), *pmaps)
        if not (lhs != rhs).any():
            rep.check(name).passed += p**size
            return rep.check(name)
        if pairs:
            xs = np.hstack([np.repeat(xs, len(xs), axis=0), np.tile(xs, (len(xs), 1))])
    lhs, rhs = sides(xs, *pmaps)
    failed = (lhs != rhs).reshape(len(xs), -1).any(axis=1)
    return rep.tally(name, failed, lhs, rhs, witness=witness(*((xs[:, :n], xs[:, n:]) if pairs else (xs,))))


def _tower_batch(A: HomLieAlgebra, xs) -> np.ndarray:
    """Matrices of ad(alpha^{p-1}(x)) o ... o ad(x) in [batch, in, out] layout."""
    p = A.p
    xs = np.asarray(xs, dtype=np.int64) % p
    out = A.ad_batch(xs)
    for _ in range(1, p):
        xs = (xs @ A.alpha.T) % p  # alpha^t(x) for factor t
        out = (out @ A.ad_batch(xs)) % p
    return out


def r1_defect_batch(A: HomLieAlgebra, P: PStructure, xs, images) -> np.ndarray:
    """Per-vector R1 defect: ad(x^[p]) o alpha^{p-1} minus the ad-tower.

    A batch past _R1_ELEMENTS matrix entries runs in slices of at most that
    many, which bounds the [rows, n, n] temporaries besides the result."""
    p, xs, images = A.p, np.asarray(xs), np.asarray(images)
    apow = gfp.mat_pow(A.alpha, p - 1, p).T
    step = max(1, _R1_ELEMENTS // A.n**2)

    def defect(cut):
        return gfp.mod(apow @ A.ad_batch(images[cut]) - _tower_batch(A, xs[cut]), p)

    if len(xs) <= step:
        return defect(slice(None))
    out = np.empty((len(xs), A.n, A.n), dtype=np.int64)
    for lo in range(0, len(xs), step):
        out[lo:lo + step] = defect(slice(lo, lo + step))
    return out


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
    from the eval_p_all table, which equals the eval_p_batch fold bit for bit.
    Each check is one `sides` function tallied by `tally_domain`, which
    decides an exhaustive one on the points of weight <= p; only a failing
    one walks its whole domain, for its counts and witnesses.
    meta["regimes"] records the regime each of R1/R2/R3 actually ran, and
    meta["mode"] is "exhaustive" only when all three were.
    """
    check_samples(samples)
    A = P.parent
    p, n = A.p, A.n
    rng = SplitMix64(seed)
    xs, pmap, vec_regime = domain(P, exhaustive, samples, rng)
    pairs = exhaustive and p**(2 * n) <= EXHAUSTIVE_LIMIT  # then the vectors are exhaustive too
    pair_regime = "exhaustive" if pairs else "sampled"
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"r1": vec_regime, "r2": vec_regime, "r3": pair_regime},
                 mode=pair_regime)

    defect = r1_defect_batch(A, P, gfp.eye(n), P.images)
    rep.tally("r1_basis", defect.any(axis=(1, 2)), defect, 0)
    tally_domain(rep, "r1", vec_regime, P, xs, [pmap], lambda vs, f: (r1_defect_batch(A, P, vs, f(vs)), 0))

    # R2: (k x)^[p] = k^p x^[p] over every scalar k.
    for k in range(p):
        tally_domain(rep, "r2", vec_regime, P, xs, [pmap],
                     lambda vs, f: (f((k * vs) % p), (pow(k, p, p) * f(vs)) % p),
                     witness=lambda vs: lambda i: (k,) + rows(vs)(i))

    def r3_sides(zs, f):
        us, vs = zs[:, :n], zs[:, n:]
        return f((us + vs) % p), (f(us) + f(vs) + compute_s_batch(A, us, vs).sum(axis=1)) % p

    zs = xs if pairs else np.hstack([rng.mat(samples, n, p), rng.mat(samples, n, p)])
    tally_domain(rep, "r3", pair_regime, P, zs, [pmap], r3_sides, pairs=True)
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
    for _ in range(1, p):
        xs = (xs @ A.alpha.T) % p  # alpha^t(x) for factor t
        rhs = A.bracket_batch(xs, rhs)
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
    or seeded samples past the exhaustive limit, with one `sides` function
    for both.

    The defining condition is not multilinear, so the basis is not proven
    to suffice; sampled arbitrary vectors keep the check honest.
    """
    check_samples(samples)
    xs, pmap, regime = domain(P, True, samples, SplitMix64(seed))

    def sides(vs, f):
        return restricted_defect_batch(A, P, D, vs, f(vs)), 0

    if sides(gfp.eye(A.n), pmap)[0].any():
        return False
    return tally_domain(Report(), "domain", regime, P, xs, [pmap], sides).ok


def check_p_property(A: HomLieAlgebra, D: Derivation, w: PPropertyWitness) -> bool:
    """D^p = xi*D o alpha^{p-1} + ad(a0) o alpha^{p-1} with D(a0) = 0."""
    p = A.p
    apow = gfp.mat_pow(A.alpha, p - 1, p)
    lhs = gfp.mat_pow(D.mat, p, p)
    rhs = (((w.xi * D.mat) % p @ apow) % p + (A.ad(w.a0) @ apow) % p) % p
    return np.array_equal(lhs, rhs) and not D(w.a0).any()


def solve_p_property(A: HomLieAlgebra, D: Derivation) -> PPropertyWitness | None:
    """The witness with the smallest xi, found by one linear solve.

    D^p = xi*D o alpha^{p-1} + ad(a0) o alpha^{p-1} with D(a0) = 0 is
    linear in (a0, xi), so xi is one more unknown, in the last column: when
    it is free every xi has a solution and solve sets it to 0, and when it
    is a pivot it is unique.  a0 is reduced modulo the kernel of its own
    columns, which makes it the echelon-minimal solution at that xi.
    """
    p, n = A.p, A.n
    apow = gfp.mat_pow(A.alpha, p - 1, p)
    cols = (A.ad_batch(gfp.eye(n)).transpose(0, 2, 1) @ apow) % p  # ad(e_j) o alpha^{p-1}
    m = np.vstack([cols.reshape(n, n * n).T % p, D.mat])
    xi_col = np.concatenate([((D.mat @ apow) % p).reshape(n * n), gfp.zeros(n)])  # D o alpha^{p-1}
    rhs = np.concatenate([gfp.mat_pow(D.mat, p, p).reshape(n * n), gfp.zeros(n)])
    sol = gfp.solve(np.hstack([m, xi_col[:, None]]), rhs, p)
    if sol is None:
        return None
    a0 = Subspace.from_vectors(gfp.kernel(m, p), n, p).reduce(sol[:n])
    return PPropertyWitness(int(sol[n]), a0, p)


def compute_eta_batch(A: HomLieAlgebra, B: BilinearForm, D: Derivation, us, vs) -> np.ndarray:
    """The eta_1..eta_{p-1} coefficients used by odd-characteristic P maps.

    Pairs D(alpha^{p-2}(lam*u + v)) against the length-(p-2) formal tower
    of (lam*u + v) applied to u, expands in the formal parameter lam, and
    divides the coefficient of lam^(i-1) by i.  Returns [batch, p-1].  vs
    may be one [n] vector, shared by every u.
    """
    if A.p == 2:
        raise OddCharRequired("eta coefficients need p > 2")
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
