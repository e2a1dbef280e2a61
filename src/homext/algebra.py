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
from .report import MAX_FAILURES_KEPT, Report

# Element budget of one chunk of bracket_batch, bracket_pairs, _live_ads and Hom-Jacobi's T product blocks
# and J: bounds temporaries.
_CHUNK_ELEMENTS = 1 << 18
# Element budget of one Hom-Jacobi slice: its T entries and its triple mask.
_HJ_ELEMENTS = 1 << 22


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
        c = np.asarray(c, dtype=np.int64)  # adopted if reduced, read-only and owning its data
        if np.min(c, initial=0) < 0 or np.max(c, initial=0) >= p:
            c = gfp.mod(c, p)
        elif c.base is not None or c.flags.writeable:  # copied, so an array the caller may write is never frozen below
            c = c.copy()
        self.c = c
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
        self._ad_rows = rows = np.flatnonzero(row_nnz)
        self._ad_cols = cols = np.flatnonzero(np.bincount(flat % (n * n), minlength=n * n))
        # ad_batch's right operand, written from the constants: float64 where every product with it (at
        # least one row times it) takes gfp.matmul's float64 route, exact and of _FLOAT_MACS multiply-adds
        exact, large = n * (self.p - 1) ** 2 < 2**53, rows.size * cols.size >= gfp._FLOAT_MACS
        self._ad_mat = np.zeros((rows.size, cols.size), np.float64 if exact and large else np.int64)
        self._ad_mat[np.searchsorted(rows, a), np.searchsorted(cols, flat % (n * n))] = self.c.flat[flat]
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
        # Every [x, x] is central, so any ad(u) kills it (restricted._formal_tower):
        # on an alternating c, and on doubleext._central_extension's V + Ke, where it lies in Ke.
        self.central_squares = self.alternating
        # inert[j]: c is alternating and row j of c is zero, so e_j is central.
        # For y = lam e_j the innermost factor of the s- and eta-towers is
        # k[x, x] + [y, x] = 0, so every s_i(x, y) and eta_i(x, y) is 0,
        # whatever alpha is (README, "Inert coordinates").
        self.inert = (row_nnz == 0) & self.alternating
        self.inert.setflags(write=False)
        self._reports: dict = {}  # verify_hom_lie's and verify_derivation's, see _kept

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

    def bracket_pairs(self, xs, ys) -> np.ndarray:
        """[x_i, y_j] for every row x_i of xs and y_j of ys, as an
        [len(xs), len(ys), n] table.

        xs runs in slices of at most _CHUNK_ELEMENTS // (n * max(|ks|,
        len(ys))) rows: the slice's ad maps as their nonzero rows (i, out)
        (_live_ads), times ys^T into the entries [i, :, out].  Both products
        are gfp.matmul, exact at every p.
        """
        n = self.n
        xs, ys = gfp.asmat(xs, self.p), gfp.asmat(ys, self.p)
        if xs.shape[1] != n or ys.shape[1] != n:
            raise DimMismatch("bracket arguments must have the algebra dimension")
        out = np.zeros((len(xs), len(ys), n), dtype=np.int64)
        step = max(1, _CHUNK_ELEMENTS // (n * max(1, len(self._ks), len(ys))))
        for lo in range(0, len(xs), step):
            ids, rows = self._live_ads(xs[lo:lo + step])
            out[lo + ids // n, :, ids % n] = gfp.matmul(rows, ys.T, self.p)
        return out

    def _live_ads(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """ad(x) of every row x of xs, as (ids, rows): the nonzero
        rows (x, out) -> [x, e_b]_out over b of the [len(xs) * n, n] stack,
        and their flat indices x * n + out.  Only an out = k with a constant
        can be nonzero, so a slice of at most _CHUNK_ELEMENTS // (n |ks|)
        rows writes the nonzero (b, k) entries into those rows only, and only
        the kept rows outlive it."""
        n, ks = self.n, self._ks
        b, at = self._ad_cols // n, np.searchsorted(ks, self._ad_cols % n)
        ids, rows = [np.zeros(0, dtype=np.int64)], [np.zeros((0, n), dtype=np.int64)]
        step = max(1, _CHUNK_ELEMENTS // max(1, n * len(ks)))
        for lo in range(0, len(xs), step):
            part = self._ad_entries(xs[lo:lo + step])
            block = np.zeros((len(part), len(ks), n), dtype=np.int64)
            block[:, at, b] = part
            flat = block.reshape(-1, n)
            live = np.flatnonzero(flat.any(axis=1))
            ids.append((live // len(ks) + lo) * n + ks[live % len(ks)])
            rows.append(flat[live])
        return np.concatenate(ids), np.concatenate(rows)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) = [x, .], acting on column vectors: ad_batch on
        one vector, transposed."""
        return self.ad_batch(gfp.asvec(x, self.p)[None, :])[0].T

    def ad_batch(self, xs) -> np.ndarray:
        """Batched adjoint maps in [batch, in, out] layout.

        Composition of maps in this layout is plain matmul with the inner
        factor on the left, which is what the R1 matrix tower uses.  The
        nonzero (b, k) columns come from _ad_entries; the others are zero.
        """
        part = self._ad_entries(xs)
        out = np.zeros((len(part), self.n * self.n), dtype=np.int64)
        out[:, self._ad_cols] = part
        return out.reshape(len(part), self.n, self.n)

    def _ad_entries(self, xs) -> np.ndarray:
        """ad(x)[b, k] at the nonzero (b, k) columns of c, per row x of xs:
        one 2-D gfp.matmul over the nonzero rows a of c."""
        xs = np.asarray(xs, dtype=np.int64) % self.p
        return gfp.matmul(xs[:, self._ad_rows], self._ad_mat, self.p)

    def apply_alpha(self, x, k: int = 1) -> np.ndarray:
        return gfp.matmul(gfp.mat_pow(self.alpha, k, self.p), gfp.asvec(x, self.p), self.p)

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
        """B(x, y) per row: x gram, then its dot with y, each a gfp.matmul,
        which is exact at any p."""
        p = self.p
        xs, ys = np.asarray(xs, dtype=np.int64) % p, np.asarray(ys, dtype=np.int64) % p
        left = gfp.matmul(xs, self.gram, p)
        return gfp.matmul(left[..., None, :], ys[..., :, None], p)[..., 0, 0]

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
        return gfp.matmul(self.mat, gfp.asvec(x, self.p), self.p)


@dataclass
class Subspace:
    basis: np.ndarray  # rows in reduced echelon form
    p: int

    @classmethod
    def from_vectors(cls, vectors, n: int, p: int) -> "Subspace":
        r, pivots = gfp.rref(np.asarray(vectors, dtype=np.int64).reshape(-1, n), p)
        return cls(r[:len(pivots)], p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def spans(self, vectors) -> bool:
        """Every row of vectors (reduced) lies in the subspace: x is in it
        iff x is orthogonal to its annihilator, so one product decides."""
        return not gfp.matmul(vectors, gfp.null_basis(self.basis, self.p).T, self.p).any()

    def reduce(self, v) -> np.ndarray:
        """Residue of v after eliminating the subspace's pivot coordinates:
        v - v[pivots] @ basis, exact since each row is zero at the others'
        pivots (each product is reduced before the sum, so no sum wraps)."""
        v = gfp.asvec(v, self.p)
        pivots = np.argmax(self.basis != 0, axis=1)
        return (v - ((v[pivots, None] * self.basis) % self.p).sum(axis=0)) % self.p


def verify_hom_lie(A: HomLieAlgebra) -> Report:
    """Check alternating, antisymmetry, Hom-Jacobi and multiplicativity.

    An empty failure set means A is a multiplicative Hom-Lie algebra.  The
    report is made once per algebra (`_kept`).
    """
    return _kept(A, "hom_lie", lambda: _hom_lie_report(A))


def _kept(A: HomLieAlgebra, key, make) -> Report:
    """The report make() of key, made once per algebra and kept on it, which
    is sound because A is immutable; each call returns a copy."""
    if key not in A._reports:
        A._reports[key] = make()
    rep = A._reports[key]
    return Report(**rep.meta).merge(rep)


def _hom_lie_report(A: HomLieAlgebra) -> Report:
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

    _hom_jacobi(rep, A, nz)  # returns first, so its slices are freed before multiplicativity's tensors
    lhs, rhs = bracket_sides(A.alpha, A, A)
    rep.tally("multiplicativity", (lhs != rhs).any(axis=2), lhs, rhs)  # both sides reduced
    return rep


def _hom_jacobi(rep: Report, A: HomLieAlgebra, nz) -> None:
    """Tally Hom-Jacobi into rep; nz[j, k] is whether c[j, k] != 0.

    J(i, j, k) = T(i; j, k) + T(j; k, i) + T(k; i, j), with T(i; j, k) = [alpha(e_i), [e_j, e_k]],
    is one sum for the three rotations of (i, j, k).  So J is evaluated once per class of
    rotations, at its least rotation in C order, whose first index i is its least index,
    and only where one of the three T is nonzero (each needs a nonzero pair c[j, k]).
    Slices I of i run in order.  A slice makes the T its classes read, T(I; pairs >= min I)
    and T(j >= min I; the pairs with an index in I and both >= min I), as the nonzero rows
    (i, out) of ad(alpha(e_i)) times the pairs: at most _HJ_ELEMENTS entries, unless one i
    needs more.  A failing class fails its distinct rotations; the first failures in C order
    are kept across slices, and their J is summed from its definition at the end.
    """
    p, n, c = A.p, A.n, A.c
    pj, pk = np.nonzero(nz)  # the P nonzero pairs (j, k)
    pairs, low = np.concatenate([c[pj, pk], gfp.zeros(n)[None]]), np.minimum(pj, pk)  # their brackets, a zero slot
    ids, live = A._live_ads(A.alpha.T)  # T(i; j, k)[out] = live[(i, out)] . [e_j, e_k]
    starts = np.searchsorted(ids, np.arange(n + 1) * n) + np.arange(n + 1)  # rows of i: starts[i]:starts[i + 1]
    at = np.arange(len(ids)) + ids // n  # rows: each i's live rows, then a zero row for the (i, out) where T is zero
    rows, row_of = np.zeros((len(ids) + n, n), dtype=np.int64), np.repeat(starts[1:, None] - 1, n, axis=1)
    rows[at], row_of.flat[ids] = live, at  # row_of[i, out]: its row
    del live  # rows holds them: one copy, not two

    def tables(lo, hi, q):
        """T(i in [lo, hi); the pairs q, then the zero slot) flat, as products over the columns where the
        shorter operand y has a nonzero, in blocks of the longer x of at most _CHUNK_ELEMENTS entries in
        and out; the offsets of its rows (i, out); the slots [j, k] -> the column of the pair; and
        hits[i - lo, s], whether T(i; pair q[s]) != 0, per i's rows with their zero row."""
        a, b, sel = starts[lo], starts[hi], np.append(q, len(pj))
        slot = np.full((n, n), len(q))
        slot[pj[q], pk[q]] = np.arange(len(q))
        t = np.empty((b - a, len(sel)), dtype=np.int64)
        x, y, out = (rows[a:b], pairs[sel], t) if b - a >= len(sel) else (pairs[sel], rows[a:b], t.T)
        cols = np.flatnonzero(y.any(axis=0))
        right, step = y[:, cols].T, max(1, _CHUNK_ELEMENTS // max(len(y), len(cols)))
        for s in range(0, len(x), step):
            out[s:s + step] = gfp.matmul(x[s:s + step, cols], right, p)
        hits = np.logical_or.reduceat(t != 0, starts[lo:hi] - a)[:, :-1]
        return t.ravel(), (row_of[lo:hi] - a) * len(sel), slot, hits

    # per i, at most: T(i; all pairs), T(all; the 2n - 1 pairs with index i), its slice of the class mask
    rows_per_slice = max(1, _HJ_ELEMENTS // (n * len(pairs) + 2 * n * len(ids) + n * n))
    r, chunk = np.arange(n), max(1, _CHUNK_ELEMENTS // n)
    failed, keys = 0, np.zeros(0, dtype=np.int64)
    for lo in range(0, n, rows_per_slice):
        hi = min(n, lo + rows_per_slice)
        own = np.flatnonzero(low >= lo)
        t_own, own_at, slot_own, hit = tables(lo, hi, own)  # T(i; j, k) at own_at[i - lo] + slot_own[j, k]
        ev = np.zeros((hi - lo, n, n), dtype=bool)
        ev[:, pj[own], pk[own]] = hit
        q, t_q, q_at, slot_q = own, t_own, own_at, slot_own  # a slice of every i reads only its own T
        if hi - lo < n:  # T(j >= lo; the pairs q) at q_at[j - lo] + slot_q[.]
            q = np.flatnonzero((low >= lo) & (low < hi))
            t_q, q_at, slot_q, hit = tables(lo, n, q)
        qj, qk = pj[q], pk[q]  # hit[j - lo, s]: T(j; pair q[s]) != 0
        sel = qk < hi
        ev[qk[sel] - lo, lo:, qj[sel]] |= hit[:, sel].T  # T(j; k, i) != 0
        sel = qj < hi
        ev[qj[sel] - lo, qk[sel], lo:] |= hit[:, sel].T  # T(k; i, j) != 0
        i = r[lo:hi, None, None]
        ev &= (r[:, None] >= i) & (r >= i) & ((r != i) | (r[:, None] <= i))  # (i, j, k) is its class's least rotation
        i, j, k = np.nonzero(ev)
        i += lo
        for s in range(0, len(i), chunk):
            ic, jc, kc = i[s:s + chunk], j[s:s + chunk], k[s:s + chunk]
            jac = gfp.mod(np.take(t_own, own_at[ic - lo] + slot_own[jc, kc][:, None])
                          + np.take(t_q, q_at[kc - lo] + slot_q[ic, jc][:, None])
                          + np.take(t_q, q_at[jc - lo] + slot_q[kc, ic][:, None]), p)
            bad = jac.any(axis=1)
            if bad.any():  # the distinct rotations of each failing class
                ic, jc, kc = ic[bad], jc[bad], kc[bad]
                rot = np.unique([(ic * n + jc) * n + kc, (jc * n + kc) * n + ic, (kc * n + ic) * n + jc])
                failed, keys = failed + rot.size, np.union1d(keys, rot)[:MAX_FAILURES_KEPT]
    hj = rep.check("hom_jacobi")
    if failed:  # J from its definition, ax[i] = alpha(e_i)
        (i, j, k), ax = np.unravel_index(keys, (n, n, n)), A.alpha.T
        jac = (A.bracket_batch(ax[i], c[j, k]) + A.bracket_batch(ax[j], c[k, i]) + A.bracket_batch(ax[k], c[i, j])) % p
        rep.tally("hom_jacobi", np.ones(len(keys), dtype=bool), jac, np.broadcast_to(gfp.zeros(n), jac.shape),
                  witness=lambda s: (int(i[s]), int(j[s]), int(k[s])))
    hj.failed, hj.passed = hj.failed + failed - len(keys), hj.passed + n**3 - failed


def bracket_sides(pi, A: HomLieAlgebra, A_dst: HomLieAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """pi([e_i, e_j]) and [pi(e_i), pi(e_j)]_dst as [i, j, out] tensors.

    pi preserves the bracket exactly when the two agree; A is the source
    algebra and A_dst the target (the same for an endomorphism).
    """
    cols = pi.T  # row i is pi(e_i)
    return contract(A.c, cols, A.p), A_dst.bracket_pairs(cols, cols)


def contract(c, m, p: int) -> np.ndarray:
    """(c @ m) % p for an [n, n, n] tensor c, on its nonzero pairs (i, j)
    only: the other rows of the result are zero and cost no product."""
    flat = np.reshape(c, (-1, c.shape[-1]))
    live = flat.any(axis=1)
    out = np.zeros((flat.shape[0], m.shape[-1]), dtype=np.int64)
    out[live] = gfp.matmul(flat[live], m, p)
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
    rep.tally("invariance", lhs != rhs, lhs, rhs)  # both sides reduced

    lhs = gfp.matmul(A.alpha.T, g, p)  # B(alpha(e_i), e_j)
    rhs = gfp.matmul(g, A.alpha, p)  # B(e_i, alpha(e_j))
    rep.tally("twist_self_adjoint", lhs != rhs, lhs, rhs)
    return rep


def verify_derivation(A: HomLieAlgebra, D: Derivation) -> Report:
    """alpha^k-derivation axioms: twist-commutation plus the Leibniz rule.

    The report is made once per algebra and derivation (`_kept`), keyed by
    D's content, since D.mat is writable.
    """
    return _kept(A, (D.k, D.mat.shape, D.mat.tobytes()), lambda: _derivation_report(A, D))


def _derivation_report(A: HomLieAlgebra, D: Derivation) -> Report:
    p, n = A.p, A.n
    rep = Report(p=p, dim=n, degree=D.k)
    lhs, rhs = gfp.matmul(D.mat, A.alpha, p), gfp.matmul(A.alpha, D.mat, p)
    rep.record("twist_commute", np.array_equal(lhs, rhs), (), lhs=lhs, rhs=rhs)
    ak, d = gfp.mat_pow(A.alpha, D.k, p).T, D.mat.T  # rows alpha^k(e_i) and D(e_i)
    lhs = contract(A.c, d, p)  # D([e_i, e_j])
    t2 = A.bracket_pairs(ak, d)  # [alpha^k(e_i), D(e_j)]
    # t2 + [D(e_i), alpha^k(e_j)], the second term being -[alpha^k(e_j), D(e_i)]
    rhs = t2 - t2.transpose(1, 0, 2)
    del t2  # freed before mod's quotient array is made
    rhs = gfp.mod(rhs, p)
    rep.tally("leibniz", (lhs != rhs).any(axis=2), lhs, rhs)  # both sides reduced
    return rep


def center(A: HomLieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}: the centralizer of the identity's image."""
    return centralizer_of_image(A, gfp.eye(A.n))


def centralizer_of_image(A: HomLieAlgebra, M) -> Subspace:
    """{x : [x, M e_j] = 0 for all j} for a linear map M."""
    m = gfp.asmat(M, A.p)
    rows = contract(A.c.transpose(0, 2, 1), m, A.p).transpose(2, 1, 0).reshape(A.n * A.n, A.n)
    return Subspace(gfp.null_basis(rows, A.p), A.p)


def orth(B: BilinearForm, S: Subspace) -> Subspace:
    """Orthogonal complement {x : B(x, s) = 0 for all s in S}."""
    return Subspace(gfp.null_basis(gfp.matmul(S.basis, B.gram.T, B.p), B.p), B.p)


def is_ideal(A: HomLieAlgebra, S: Subspace) -> bool:
    """alpha(S) <= S and [S, g] <= S, as one product with S's annihilator;
    [s, e_j] is row j of ad_batch's map of s."""
    images = A.ad_batch(S.basis).reshape(-1, A.n)
    return S.spans(np.vstack([gfp.matmul(S.basis, A.alpha.T, A.p), images]))


def is_nondegenerate_ideal(A: HomLieAlgebra, B: BilinearForm, S: Subspace) -> bool:
    """Ideal whose restricted form has full rank; S = 0 counts vacuously."""
    if not is_ideal(A, S):
        return False
    if S.dim == 0:
        return True
    restricted = gfp.matmul(gfp.matmul(S.basis, B.gram, A.p), S.basis.T, A.p)
    return gfp.rank(restricted, A.p) == S.dim


def d_invariant(B: BilinearForm, D: Derivation, p: int) -> bool:
    """D-invariance of B: B(x, D(x)) = 0 in char 2, skewness otherwise.

    In char 2 the quadratic condition is equivalent to a zero diagonal of
    G*D plus symmetry of the polarized form, so a basis-level matrix test
    is exact.
    """
    g, d = B.gram, D.mat
    m = gfp.matmul(d.T, g, p)
    if p == 2:
        return not np.diagonal(m).any() and np.array_equal(m, m.T % p)
    return not ((m + gfp.matmul(g, d, p)) % p).any()
