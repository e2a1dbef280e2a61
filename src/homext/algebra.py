"""Hom-Lie algebras over GF(p): domain types and axiom verifiers.

A Hom-Lie algebra is a vector space with an alternating bracket and a
twist map alpha satisfying the alpha-twisted Jacobi identity; it is
multiplicative when alpha preserves the bracket and quadratic when it
carries a compatible invariant form.  All multilinear axioms are checked
on basis tuples, which suffices by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .errors import DimMismatch
from .report import Report

# Element budget of one bracket_batch chunk: bounds its temporaries.
_CHUNK_ELEMENTS = 1 << 18


class HomLieAlgebra:
    """Structure-constant model of (g, [.,.], alpha).

    The tensor c satisfies [e_i, e_j] = sum_k c[i,j,k] e_k.  Construction
    via from_upper enforces c[i,i,.] = 0 and c[j,i,.] = -c[i,j,.], so the
    alternating and antisymmetry axioms hold by construction; parsing
    untrusted tensors goes through the plain constructor and relies on
    verify_hom_lie instead.
    """

    def __init__(self, p: int, c, alpha, basis_names=None):
        self.p = int(p)
        c = np.asarray(c, dtype=np.int64)  # copied or reduced: the caller's array is never frozen below
        self.c = c.copy() if np.min(c, initial=0) >= 0 and np.max(c, initial=0) < p else gfp.mod(c, p)
        self.alpha = gfp.asmat(alpha, p)
        n = self.c.shape[0]
        if self.c.shape != (n, n, n) or self.alpha.shape != (n, n):
            raise DimMismatch("structure tensor and twist shapes disagree")
        self.c.setflags(write=False)  # read-only, so the caches below cannot go stale
        self.alpha.setflags(write=False)
        self.n = n
        self.basis_names = list(basis_names) if basis_names else [f"e{i+1}" for i in range(n)]
        # The nonzero constants c[a, b, k] off flat indices: work per constant, not per entry.
        flat = np.flatnonzero(self.c != 0)
        a, b, k = np.unravel_index(flat, self.c.shape)
        self.nnz, row_nnz = flat.size, np.bincount(a, minlength=n)
        # ad_batch multiplies by the nonzero rows a and nonzero (b, k) columns of c only
        self._ad_rows = np.flatnonzero(row_nnz)
        self._ad_cols = np.flatnonzero(np.bincount(flat % (n * n), minlength=n * n))
        self._ad_mat = self.c.reshape(n, n * n)[np.ix_(self._ad_rows, self._ad_cols)]
        # The constants grouped by k, in (a, b) order by a stable sort, for bracket_batch,
        # which writes the group sums into the columns _ks that have a constant.
        order, k_nnz = np.argsort(k, kind="stable"), np.bincount(k, minlength=n)
        a, b, k, self._ks = a[order], b[order], k[order], np.flatnonzero(k_nnz)
        self._triples, self._starts = (a, b, self.c.flat[flat[order]]), (np.cumsum(k_nnz) - k_nnz)[self._ks]
        # A k group sums up to n^2 products below p^2.  When that could pass
        # 2^63, each group is summed in runs of at most `room` products, and
        # the reduced run sums (each below p) are added per k afterwards.
        ends = self._starts + k_nnz[self._ks]
        room = (2**63 - 1) // max(1, (self.p - 1) ** 2)
        self._runs = None
        if np.max(ends - self._starts, initial=0) > room:
            runs = [np.arange(lo, hi, room) for lo, hi in zip(self._starts, ends)]
            self._runs = np.cumsum([0] + [r.size for r in runs[:-1]])  # first run of each k
            self._starts = np.concatenate(runs)
        # c is alternating (c[i, i] = 0 and c[j, i] = -c[i, j]) when every
        # nonzero constant c[a, b, k] has a != b and c[b, a, k] = -c[a, b, k].
        self.alternating = not ((a == b).any() or (self.c[b, a, k] != -self._triples[2] % self.p).any())
        # inert[j]: c is alternating and row j of c is zero, so e_j is central.
        # For y = lam e_j the innermost factor of the s- and eta-towers is
        # k[x, x] + [y, x] = 0, so every s_i(x, y) and eta_i(x, y) is 0,
        # whatever alpha is (README, "Inert coordinates").
        self.inert = (row_nnz == 0) & self.alternating
        self.inert.setflags(write=False)

    @classmethod
    def from_upper(cls, p: int, n: int, brackets: dict, alpha=None, basis_names=None):
        """Build from {(i, j): vector} with i < j; lower half is derived by sign."""
        c = np.zeros((n, n, n), dtype=np.int64)
        for (i, j), v in brackets.items():
            if not 0 <= i < j < n:
                raise DimMismatch(f"bracket index ({i},{j}) must satisfy 0 <= i < j < {n}")
            c[i, j] = vec = gfp.asvec(v, p)
            c[j, i] = (-vec) % p
        return cls(p, c, gfp.eye(n) if alpha is None else alpha, basis_names)

    def bracket(self, x, y) -> np.ndarray:
        """bracket_batch on one pair."""
        return self.bracket_batch(gfp.asvec(x, self.p), gfp.asvec(y, self.p))

    def bracket_batch(self, xs, ys) -> np.ndarray:
        """[x, y] per row of xs and ys (which broadcast, e.g. [m, 1, n] with
        [m, d, n]), summed over the nonzero structure constants only.

        c[a, b, k]*x_a is reduced mod p before it is multiplied by y_b, so a
        k group sums at most n^2 terms below p^2, in runs that keep every
        int64 sum below 2^63 when p is large.  Leading rows run in
        chunks of at most _CHUNK_ELEMENTS products, which bounds memory.
        """
        p = self.p
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        if xs.shape[-1:] != (self.n,) or ys.shape[-1:] != (self.n,):
            raise DimMismatch("bracket arguments must have the algebra dimension")
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        ndim = max(len(shape), 2)  # at least one leading axis to chunk over
        xs, ys = (v.reshape((1,) * (ndim - v.ndim) + v.shape) for v in (xs, ys))
        out = np.zeros((1,) * (ndim - len(shape)) + shape, dtype=np.int64)
        a, b, coef = self._triples
        step = max(1, _CHUNK_ELEMENTS // max(1, out[:1].size // self.n * coef.size))
        for lo in range(0, out.shape[0], step):
            xc = xs[lo:lo + step] if xs.shape[0] > 1 else xs
            yc = ys[lo:lo + step] if ys.shape[0] > 1 else ys
            xc = gfp.mod(np.take(gfp.mod(xc, p), a, axis=-1) * coef, p)
            prod = np.multiply(xc, np.take(gfp.mod(yc, p), b, axis=-1), order="C")
            part = gfp.mod(np.add.reduceat(prod, self._starts, axis=-1), p)
            if self._runs is not None:
                part = gfp.mod(np.add.reduceat(part, self._runs, axis=-1), p)
            out[lo:lo + step, ..., self._ks] = part
        return out.reshape(shape)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) = [x, .], acting on column vectors: ad_batch on
        one vector, transposed."""
        return self.ad_batch(gfp.asvec(x, self.p)[None, :])[0].T

    def ad_batch(self, xs) -> np.ndarray:
        """Batched adjoint maps in [batch, in, out] layout.

        Composition of maps in this layout is plain matmul with the inner
        factor on the left, which is what the R1 matrix tower uses.  One
        2-D matmul over the nonzero rows a and (b, k) columns of c, reduced
        in place; the other columns are zero.
        """
        xs = np.asarray(xs, dtype=np.int64) % self.p
        prod = xs[:, self._ad_rows] @ self._ad_mat
        out = np.zeros((xs.shape[0], self.n * self.n), dtype=np.int64)
        out[:, self._ad_cols] = np.remainder(prod, self.p, out=prod)
        return out.reshape(xs.shape[0], self.n, self.n)

    def apply_alpha(self, x, k: int = 1) -> np.ndarray:
        return (gfp.mat_pow(self.alpha, k, self.p) @ gfp.asvec(x, self.p)) % self.p

    def is_involutive(self) -> bool:
        return np.array_equal(gfp.mat_pow(self.alpha, 2, self.p), gfp.eye(self.n))


@dataclass
class BilinearForm:
    gram: np.ndarray
    p: int

    def __init__(self, gram, p: int):
        self.p = int(p)
        self.gram = gfp.asmat(gram, p)

    def eval(self, x, y) -> int:
        """eval_batch on one pair."""
        return int(self.eval_batch(gfp.asvec(x, self.p)[None, :], gfp.asvec(y, self.p)[None, :])[0])

    def eval_batch(self, xs, ys) -> np.ndarray:
        """B(x, y) per row.  x @ gram is reduced before it meets y, so no sum
        exceeds n*(p-1)^2; when that reaches 2^63 (past what bundle.parse
        accepts) the sums run on Python integers instead of int64."""
        p = self.p
        exact = object if self.gram.shape[0] * (p - 1) ** 2 >= 2**63 else np.int64
        xs = (np.asarray(xs, dtype=np.int64) % p).astype(exact)
        ys = (np.asarray(ys, dtype=np.int64) % p).astype(exact)
        left = (xs @ self.gram.astype(exact)) % p
        return ((left * ys).sum(axis=-1) % p).astype(np.int64)

    def is_symmetric(self) -> bool:
        return np.array_equal(self.gram, self.gram.T % self.p)

    def is_nondegenerate(self) -> bool:
        return gfp.rank(self.gram, self.p) == self.gram.shape[0]


@dataclass
class Derivation:
    """Linear map with a twist degree: a candidate alpha^k-derivation."""

    mat: np.ndarray
    k: int = 1
    p: int = 0

    def __init__(self, mat, p: int, k: int = 1):
        if int(k) < 0:
            raise ValueError(f"derivation degree must be nonnegative, got {k}")
        self.p = int(p)
        self.mat = gfp.asmat(mat, p)
        self.k = int(k)

    def __call__(self, x) -> np.ndarray:
        return (self.mat @ gfp.asvec(x, self.p)) % self.p


@dataclass
class Subspace:
    basis: np.ndarray  # rows in reduced echelon form
    p: int

    @classmethod
    def from_vectors(cls, vectors, n: int, p: int) -> "Subspace":
        vecs = [gfp.asvec(v, p) for v in vectors]
        if not vecs:
            return cls(np.zeros((0, n), dtype=np.int64), p)
        r, _ = gfp.rref(np.stack(vecs), p)
        keep = [i for i in range(r.shape[0]) if r[i].any()]
        return cls(r[keep].copy(), p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def spans(self, vectors) -> bool:
        """Every row of vectors lies in the subspace: one rank test."""
        return gfp.rank(np.vstack([self.basis, vectors[vectors.any(axis=1)]]), self.p) == self.dim

    def reduce(self, v) -> np.ndarray:
        """Residue of v after eliminating the subspace's pivot coordinates."""
        v = gfp.asvec(v, self.p).copy()
        for row in self.basis:
            c = int(np.argmax(row != 0)) if row.any() else None
            if c is not None and v[c] != 0:
                v = (v - v[c] * row) % self.p
        return v


def verify_hom_lie(A: HomLieAlgebra) -> Report:
    """Check alternating, antisymmetry, Hom-Jacobi and multiplicativity.

    An empty failure set means A is a multiplicative Hom-Lie algebra.
    """
    p, n, c = A.p, A.n, A.c
    rep = Report(p=p, dim=n)
    for i in range(n):
        rep.record("alternating", not c[i, i].any(), (i, i), lhs=c[i, i], rhs=0)
    # c[i, j] = -c[j, i] holds where both are zero, so only pairs with a
    # nonzero side are compared: O(n^2 + Pn) memory for P such pairs.
    nz = c.any(axis=2)
    i, j = np.nonzero(np.triu(nz | nz.T, 1))
    neg = (-c[j, i]) % p
    for s in np.nonzero((c[i, j] != neg).any(axis=1))[0]:
        rep.record("antisymmetry", False, (int(i[s]), int(j[s])), lhs=c[i[s], j[s]], rhs=neg[s])
    rep.check("antisymmetry").passed += n * (n - 1) // 2 - rep.check("antisymmetry").failed

    # T(i; j, k) = [alpha(e_i), [e_j, e_k]] is zero unless c[j, k] != 0, and J(i, j, k) =
    # T(i; j, k) + T(j; k, i) + T(k; i, j) is zero off the rotations of the triples
    # with T(i; j, k) != 0, so J is evaluated there only: O(n^3 + n^2 P) memory, P nonzero pairs.
    pairs = np.vstack([c[nz], gfp.zeros(n)])  # the nonzero [e_j, e_k], then a zero slot
    slot = np.where(nz, np.cumsum(nz).reshape(n, n) - 1, len(pairs) - 1)  # (j, k) -> its row
    # ad(alpha(e_i)) as [i, k, b] times the pairs: T(i; j, k) at [i, slot[j, k]]
    t = contract(A.ad_batch(A.alpha.T).transpose(0, 2, 1), pairs.T, p).transpose(0, 2, 1)
    hit = np.zeros((n, n, n), dtype=bool)
    hit[:, nz] = t[:, :-1].any(axis=2)  # T(i; j, k) != 0
    i, j, k = np.nonzero(hit | hit.transpose(1, 2, 0) | hit.transpose(2, 0, 1))  # and its rotations
    jac = (t[i, slot[j, k]] + t[k, slot[i, j]] + t[j, slot[k, i]]) % p
    hj = rep.tally("hom_jacobi", jac.any(axis=1), jac, np.broadcast_to(gfp.zeros(n), jac.shape),
                   witness=lambda s: (int(i[s]), int(j[s]), int(k[s])))
    hj.passed += n**3 - len(i)

    lhs, rhs = bracket_sides(A.alpha, A, A)
    rep.tally("multiplicativity", (lhs != rhs).any(axis=2), lhs, rhs)  # both sides reduced
    return rep


def bracket_sides(pi, A: HomLieAlgebra, A_dst: HomLieAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """pi([e_i, e_j]) and [pi(e_i), pi(e_j)]_dst as [i, j, out] tensors.

    pi preserves the bracket exactly when the two agree; A is the source
    algebra and A_dst the target (the same for an endomorphism).
    """
    cols = pi.T  # row i is pi(e_i)
    return contract(A.c, cols, A.p), A_dst.bracket_batch(cols[:, None, :], cols[None, :, :])


def contract(c, m, p: int) -> np.ndarray:
    """(c @ m) % p for an [n, n, n] tensor c, on its nonzero pairs (i, j)
    only: the other rows of the result are zero and cost no product."""
    flat = np.reshape(c, (-1, c.shape[-1]))
    live = flat.any(axis=1)
    out = np.zeros((flat.shape[0], m.shape[-1]), dtype=np.int64)
    prod = flat[live] @ m
    out[live] = np.remainder(prod, p, out=prod)
    return out.reshape(c.shape[:-1] + m.shape[-1:])


def invariance_sides(c, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    """B([e_i, e_j], e_k) and B(e_i, [e_j, e_k]) as [i, j, k] tensors."""
    n = g.shape[0]
    both = contract(c, np.hstack([g, g.T]), p)
    return both[..., :n], both[..., n:].transpose(2, 0, 1)


def verify_quadratic(A: HomLieAlgebra, B: BilinearForm) -> Report:
    """Symmetry, nondegeneracy, invariance and twist self-adjointness of B."""
    p, n, c, g = A.p, A.n, A.c, B.gram
    rep = Report(p=p, dim=n)
    rep.record("symmetric", B.is_symmetric(), (), lhs=g, rhs=g.T % p)
    rep.record("nondegenerate", B.is_nondegenerate(), (), lhs=0, rhs="nonzero")  # a degenerate form has det 0

    lhs, rhs = invariance_sides(c, g, p)
    rep.tally("invariance", (lhs - rhs) % p != 0, lhs, rhs)

    lhs = (A.alpha.T @ g) % p  # B(alpha(e_i), e_j)
    rhs = (g @ A.alpha) % p  # B(e_i, alpha(e_j))
    rep.tally("twist_self_adjoint", (lhs - rhs) % p != 0, lhs, rhs)
    return rep


def verify_derivation(A: HomLieAlgebra, D: Derivation) -> Report:
    """alpha^k-derivation axioms: twist-commutation plus the Leibniz rule."""
    p, n = A.p, A.n
    rep = Report(p=p, dim=n, degree=D.k)
    comm = (D.mat @ A.alpha - A.alpha @ D.mat) % p
    rep.record("twist_commute", not comm.any(), (), lhs=(D.mat @ A.alpha) % p, rhs=(A.alpha @ D.mat) % p)
    ak, d = gfp.mat_pow(A.alpha, D.k, p).T, D.mat.T  # rows alpha^k(e_i) and D(e_i)
    lhs = contract(A.c, d, p)  # D([e_i, e_j])
    t2 = A.bracket_batch(ak[:, None, :], d[None, :, :])  # [alpha^k(e_i), D(e_j)]
    t1 = (-t2.transpose(1, 0, 2)) % p  # [D(e_i), alpha^k(e_j)] = -[alpha^k(e_j), D(e_i)]
    rep.tally("leibniz", ((lhs - t1 - t2) % p).any(axis=2), lhs, (t1 + t2) % p)
    return rep


def is_derivation(A: HomLieAlgebra, D: Derivation) -> bool:
    return verify_derivation(A, D).ok


def center(A: HomLieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}: the centralizer of the identity's image."""
    return centralizer_of_image(A, gfp.eye(A.n))


def centralizer_of_image(A: HomLieAlgebra, M) -> Subspace:
    """{x : [x, M e_j] = 0 for all j} for a linear map M."""
    m = gfp.asmat(M, A.p)
    rows = contract(A.c.transpose(0, 2, 1), m, A.p).transpose(2, 1, 0).reshape(A.n * A.n, A.n)
    return Subspace.from_vectors(gfp.kernel(rows, A.p), A.n, A.p)


def orth(B: BilinearForm, S: Subspace) -> Subspace:
    """Orthogonal complement {x : B(x, s) = 0 for all s in S}."""
    n = B.gram.shape[0]
    if S.dim == 0:
        return Subspace(gfp.eye(n), B.p)
    rows = (S.basis @ B.gram.T) % B.p
    return Subspace.from_vectors(gfp.kernel(rows, B.p), n, B.p)


def is_ideal(A: HomLieAlgebra, S: Subspace) -> bool:
    """alpha(S) <= S and [S, g] <= S, as one rank test."""
    images = A.bracket_batch(S.basis[:, None, :], gfp.eye(A.n)[None, :, :]).reshape(-1, A.n)
    return S.spans(np.vstack([(S.basis @ A.alpha.T) % A.p, images]))


def is_nondegenerate_ideal(A: HomLieAlgebra, B: BilinearForm, S: Subspace) -> bool:
    """Ideal whose restricted form has full rank; S = 0 counts vacuously."""
    if not is_ideal(A, S):
        return False
    if S.dim == 0:
        return True
    restricted = gfp.mod(gfp.mod(S.basis @ B.gram, A.p) @ S.basis.T, A.p)  # reduced after every factor
    return gfp.rank(restricted, A.p) == S.dim


def d_invariant(B: BilinearForm, D: Derivation, p: int) -> bool:
    """D-invariance of B: B(x, D(x)) = 0 in char 2, skewness otherwise.

    In char 2 the quadratic condition is equivalent to a zero diagonal of
    G*D plus symmetry of the polarized form, so a basis-level matrix test
    is exact.
    """
    g, d = B.gram, D.mat
    m = (d.T @ g) % p
    if p == 2:
        return not np.diagonal(m).any() and np.array_equal(m, m.T % p)
    return not ((m + g @ d) % p).any()
