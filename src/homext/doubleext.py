"""Double extensions of quadratic Hom-Lie algebras and their converse.

The one-dimensional double extension enlarges a quadratic algebra V to
L = span{e*} + V + span{e} using a derivation line and a central line,
with the bracket twisted by the form.  In the canonical frame e* sits at
index 0, the V basis at 1..n, and e at index n+1.  The reduction
operation recovers all construction data from such an L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    Subspace,
    contract,
    d_invariant,
    is_ideal,
    orth,
    verify_derivation,
)
from .errors import (
    DegenerateFrame,
    FrameMismatch,
    NotCentral,
    NotPIdeal,
    PreconditionFailed,
)
from .report import Report, rows
from .restricted import (
    PStructure,
    PPropertyWitness,
    check_p_property,
    compute_eta_batch,
    eval_p_batch,
    fold,
    is_restricted_derivation,
    _yau_twist,
)
from .rng import DEFAULT_SEED, SplitMix64, check_samples

EXTENSION_SAMPLES = 100  # sampled vectors of the extension hypotheses


@dataclass
class DoubleExtensionData:
    """What double_extend builds L from: the derivation, the twist column
    alpha(e*) = lam e* + x0 + lam0 e, and beta = B(e*, e*), which odd p forces
    to 0 and which the theorems leave free at p = 2."""

    D: Derivation
    x0: np.ndarray
    lam: int
    lam0: int
    beta: int = 0

    def __init__(self, D: Derivation, x0, lam: int, lam0: int, beta: int = 0):
        self.D = D
        self.x0 = gfp.asvec(x0, D.p)
        self.lam = int(lam) % D.p
        self.lam0 = int(lam0) % D.p
        self.beta = int(beta) % D.p


@dataclass
class PExtensionData:
    xi: int
    a0: np.ndarray
    m: int
    l: int
    u0: np.ndarray
    P_basis: np.ndarray

    def __init__(self, xi: int, a0, m: int, l: int, u0, P_basis, p: int):
        self.xi = int(xi) % p
        self.a0 = gfp.asvec(a0, p)
        self.m = int(m) % p
        self.l = int(l) % p
        self.u0 = gfp.asvec(u0, p)
        self.P_basis = gfp.asvec(P_basis, p)


def check_extension_data(V: HomLieAlgebra, B_V: BilinearForm, d: DoubleExtensionData) -> Report:
    """Hypotheses of the one-dimensional double extension theorem.

    The three defining identities differ by signs between characteristic
    2 and odd characteristic; both variants also need V involutive, D a
    twist-compatible derivation and the form D-invariant.
    """
    p = V.p
    rep = Report(p=p, dim=V.n)
    rep.record("involutive_V", V.is_involutive(), (), lhs=gfp.mat_pow(V.alpha, 2, p), rhs="id")
    rep.merge(verify_derivation(V, d.D))
    rep.record("d_invariant", d_invariant(B_V, d.D, p), ())
    dm, x0 = d.D.mat, d.x0
    dx0 = d.D(x0)
    lhs1 = (d.lam * dm + V.ad(x0)) % p
    rep.record("lambda_D_plus_ad_x0", np.array_equal(lhs1, dm), (), lhs=lhs1, rhs=dm)
    # the odd-characteristic signs; -1 = 1 makes them the char-2 identities
    lhs2 = V.apply_alpha(dx0)
    dm2 = gfp.matmul(dm, dm, p)
    eq3 = (gfp.matmul(V.alpha, dm2, p) - gfp.matmul(dm2, V.alpha, p) - V.ad(dx0)) % p
    rep.record("alpha_D_x0", not ((lhs2 + dx0) % p).any(), (), lhs=lhs2, rhs=dx0)
    rep.record("alpha_D_squared", not eq3.any(), (), lhs=eq3, rhs=0)
    return rep


def double_extend(V: HomLieAlgebra, B_V: BilinearForm, d: DoubleExtensionData) -> tuple[HomLieAlgebra, BilinearForm]:
    """Build (L, B_L) in the canonical frame (e*, V-basis, e), with
    B(e*, e*) = d.beta, which must be 0 in odd characteristic."""
    p, n = V.p, V.n
    rep = check_extension_data(V, B_V, d)
    if not rep.ok:
        raise PreconditionFailed("double extension data rejected", rep)
    if p > 2 and d.beta:
        raise PreconditionFailed("B(e*,e*) must vanish for p > 2")
    N = n + 2
    c = np.zeros((N, N, N), dtype=np.int64)
    gv = B_V.gram
    _central_tensor(V, B_V, d.D, c[1:, 1:, 1:])
    c[0, 1:1 + n, 1:1 + n] = d.D.mat.T
    c[1:1 + n, 0] = (-c[0, 1:1 + n]) % p
    alpha = np.zeros((N, N), dtype=np.int64)
    alpha[0, 0] = d.lam
    alpha[1:1 + n, 0] = d.x0
    alpha[N - 1, 0] = d.lam0
    alpha[1:1 + n, 1:1 + n] = V.alpha
    alpha[N - 1, 1:1 + n] = gfp.matmul(d.x0, gv, p)
    alpha[N - 1, N - 1] = d.lam
    gram = np.zeros((N, N), dtype=np.int64)
    gram[1:1 + n, 1:1 + n] = gv
    gram[0, N - 1] = gram[N - 1, 0] = 1
    gram[0, 0] = d.beta
    names = ["e*"] + list(V.basis_names) + ["e"]
    L = HomLieAlgebra(p, c, alpha, names)
    return L, BilinearForm(gram, p)


def _central_tensor(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, c: np.ndarray) -> np.ndarray:
    """Write the bracket of W = V + Ke in the frame (V, e) into the zero [n + 1]^3 array c and
    return it: [a, b] = [a, b]_V + B(Da, b) e for a, b in V, and e central.  double_extend
    writes it into L's block after e*, _central_extension into W's tensor."""
    c[:-1, :-1, :-1] = V.c
    c[:-1, :-1, -1] = gfp.matmul(D.mat.T, B_V.gram, V.p)  # B(D e_i, e_j)
    return c


def _central_extension(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation) -> HomLieAlgebra:
    """W = V + Ke (`_central_tensor`), with the twist alpha_V on V and 1 on e."""
    p, n = V.p, V.n
    c = _central_tensor(V, B_V, D, np.zeros((n + 1,) * 3, dtype=np.int64))
    alpha = np.eye(n + 1, dtype=np.int64)
    alpha[:n, :n] = V.alpha
    W = HomLieAlgebra(p, c, alpha, list(V.basis_names) + ["e"])
    W.central_squares = V.alternating  # then [x, x]_W = B(Dx, x) e, and e is central
    return W


def eval_P(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, pe: PExtensionData, v) -> int:
    return int(eval_P_batch(V, B_V, D, pe, gfp.asvec(v, V.p)[None, :])[0])


def eval_P_batch(V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, pe: PExtensionData, vs) -> np.ndarray:
    """The quadratic/p-semilinear map P induced by the basis values.

    char 2: P(sum l_j e_j) = sum l_j^2 P_basis[j] + sum_{i<j} l_i l_j B(D e_i, e_j).
    char > 2: the ascending-index `fold` of P(u+v) = P(u) + P(v) + sum_i eta_i(u, v),
    whose eta_i vanish when u or v is zero (`compute_eta_batch`, on W = V + Ke
    built once per call).  V's inert mask holds for them: for a V-central e_j the
    innermost factor of W's tower lands in Ke, which the next factor kills.
    """
    return _P_rows(None, V, B_V, D, pe, vs)


def _P_rows(W: HomLieAlgebra | None, V: HomLieAlgebra, B_V: BilinearForm, D: Derivation, pe: PExtensionData,
            vs) -> np.ndarray:
    """eval_P_batch, folding on W = _central_extension(V, B_V, D) when given."""
    p = V.p
    vs = np.asarray(vs, dtype=np.int64) % p
    if p == 2:
        cross = np.triu(gfp.matmul(D.mat.T, B_V.gram, p), 1)
        return (gfp.matmul(vs, pe.P_basis, p) + (gfp.matmul(vs, cross, p) * vs).sum(axis=1)) % p  # l^2 = l
    W = _central_extension(V, B_V, D) if W is None else W
    return fold(p, vs, pe.P_basis, lambda us, ws: compute_eta_batch(W, us, ws).sum(axis=1), V.inert, W.nnz)


def check_P_conditions(
    V: HomLieAlgebra,
    B_V: BilinearForm,
    D: Derivation,
    pe: PExtensionData,
    samples: int = EXTENSION_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Report:
    """The defining equations of P for either characteristic.

    P_additivity is decided without evaluating P when a proved hypothesis
    holds (README, "P_additivity is implied"): at p = 2 when B_V is
    D-invariant; at odd p when W = V + Ke (`_central_extension`) is a Yau
    twist (`restricted._yau_twist`; W is built once and also gives the
    sampled fold and cross term).  It is then tallied as `samples`
    passes, regime "implied", and nothing is drawn or folded.  Otherwise it
    runs on `samples` seeded pairs, regime "sampled": one `_P_rows` call
    folds every u, w and u + w, each once up to scale.  P(k u) = k^p P(u) is
    an identity of the fold and of the p = 2 formula (README, "R2 and
    P_homogeneity are implied"), so P_homogeneity is tallied as passed for
    every k and u, regime "implied", never evaluated."""
    check_samples(samples)
    p, n = V.p, V.n
    W = None  # V + Ke, built at odd p only
    implied = d_invariant(B_V, D, p) if p == 2 else _yau_twist(W := _central_extension(V, B_V, D))
    rep = Report(p=p, dim=n, seed=seed, samples=samples,
                 regimes={"P_additivity": "implied" if implied else "sampled", "P_homogeneity": "implied"})
    if implied:
        rep.check("P_additivity").passed += samples
    else:
        rng = SplitMix64(seed)
        us, ws = rng.mat(samples, n, p), rng.mat(samples, n, p)
        pu, pw, psum = _P_rows(W, V, B_V, D, pe, np.vstack([us, ws, (us + ws) % p])).reshape(3, samples)
        cross = B_V.eval_batch(gfp.matmul(us, D.mat.T, p), ws) if p == 2 else compute_eta_batch(W, us, ws).sum(axis=1)
        want = (pu + pw + cross) % p
        rep.tally("P_additivity", (psum - want) % p != 0, psum, want, witness=rows(us, ws))
    rep.check("P_homogeneity").passed += p * samples
    return rep


def check_p_extension_data(
    V: HomLieAlgebra,
    B_V: BilinearForm,
    P_V: PStructure,
    d: DoubleExtensionData,
    pe: PExtensionData,
    samples: int = EXTENSION_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Hypotheses of the p-structure extension theorem (both characteristics)."""
    check_samples(samples)
    p = V.p
    rep = Report(p=p, dim=V.n, seed=seed)
    rep.record("lambda_is_one", d.lam % p == 1, (), lhs=d.lam, rhs=1)
    rep.record(
        "p_property",
        check_p_property(V, d.D, PPropertyWitness(pe.xi, pe.a0, p)),
        (), lhs=(pe.xi, tuple(int(x) for x in pe.a0)),
    )
    rep.record(
        "restricted_derivation",
        is_restricted_derivation(V, P_V, d.D, samples=samples, seed=seed),
        (),
    )
    rep.record("D_u0_zero", not d.D(pe.u0).any(), (), lhs=d.D(pe.u0), rhs=0)
    ad_u0 = V.ad(pe.u0)  # [u0, y] = ad_u0 @ y, so u0 centralizes the image of M iff ad_u0 @ M = 0
    if p == 2:
        rep.record("u0_centralizes_alpha_image", not gfp.matmul(ad_u0, V.alpha, p).any(), (), lhs=pe.u0)
    else:
        rep.record("u0_central", not ad_u0.any(), (), lhs=pe.u0)
    rep.merge(check_P_conditions(V, B_V, d.D, pe, samples=samples, seed=seed))
    return rep


def extend_pstructure(
    L: HomLieAlgebra,
    V: HomLieAlgebra,
    B_V: BilinearForm,
    P_V: PStructure,
    d: DoubleExtensionData,
    pe: PExtensionData,
    samples: int = EXTENSION_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> PStructure:
    """Extend the p-structure of V across the double extension L.

    Basis images in the canonical frame: v_j picks up P_basis[j] e, the
    derivation line maps to a0 + l e + xi e*, the central line to
    m e + u0.
    """
    p, n = V.p, V.n
    if L.n != n + 2:
        raise FrameMismatch("L must be the double extension of V")
    rep = check_p_extension_data(V, B_V, P_V, d, pe, samples=samples, seed=seed)
    if not rep.ok:
        raise PreconditionFailed("p-structure extension data rejected", rep)
    imgs = np.zeros((n + 2, n + 2), dtype=np.int64)
    imgs[0, 0] = pe.xi
    imgs[0, 1:1 + n] = pe.a0
    imgs[0, n + 1] = pe.l
    imgs[1:1 + n, 1:1 + n] = P_V.images
    imgs[1:1 + n, n + 1] = pe.P_basis
    imgs[n + 1, 1:1 + n] = pe.u0
    imgs[n + 1, n + 1] = pe.m
    return PStructure(L, imgs)


@dataclass
class ExtFrame:
    """A double extension's data: double_extend(V, B_V, d) and, with p-data,
    extend_pstructure(L, V, B_V, P_V, d, pe) rebuild L in the frame whose
    vectors, in L's coordinates, are the rows [e*; V rows; e]."""

    V: HomLieAlgebra
    B_V: BilinearForm
    d: DoubleExtensionData
    P_V: PStructure | None
    pe: PExtensionData | None
    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.V.n


def split_frame(L: HomLieAlgebra, B_L: BilinearForm, P_L: PStructure | None = None) -> ExtFrame:
    """Read the construction data back off a canonically framed L; rows is
    the identity."""
    p = L.p
    n = L.n - 2
    if n < 0:
        raise FrameMismatch("dimension too small for a double extension frame")
    g = B_L.gram
    if g[0, n + 1] % p != 1 or g[n + 1, n + 1] % p != 0:
        raise FrameMismatch("form does not pair e* with e hyperbolically")
    if g[0, 1:1 + n].any() or g[n + 1, 1:1 + n].any():
        raise FrameMismatch("V block is not orthogonal to the frame lines")
    if L.c[n + 1].any():
        raise FrameMismatch("e is not central")
    if L.c[0, 1:1 + n, 0].any() or L.c[0, 1:1 + n, n + 1].any():
        raise FrameMismatch("[e*, V] does not lie in V")
    if L.alpha[0, 1:].any() or L.alpha[1:1 + n, n + 1].any():
        raise FrameMismatch("twist does not preserve the frame filtration")
    if L.alpha[n + 1, n + 1] != L.alpha[0, 0]:
        raise FrameMismatch("twist eigenvalues on e and e* disagree")
    V = HomLieAlgebra(p, L.c[1:1 + n, 1:1 + n, 1:1 + n], L.alpha[1:1 + n, 1:1 + n], L.basis_names[1:1 + n])
    B_V = BilinearForm(g[1:1 + n, 1:1 + n], p)
    d = DoubleExtensionData(Derivation(L.c[0, 1:1 + n, 1:1 + n].T, p, k=1), L.alpha[1:1 + n, 0],
                            L.alpha[0, 0], L.alpha[n + 1, 0], g[0, 0])
    P_V = pe = None
    if P_L is not None:
        imgs = P_L.images
        if imgs[1:1 + n, 0].any():
            raise FrameMismatch("p-images of V leave the coisotropic flag")
        if imgs[n + 1, 0] != 0:
            raise FrameMismatch("p-image of e leaves the coisotropic flag")
        P_V = PStructure(V, imgs[1:1 + n, 1:1 + n])
        pe = PExtensionData(
            xi=imgs[0, 0],
            a0=imgs[0, 1:1 + n],
            m=imgs[n + 1, n + 1],
            l=imgs[0, n + 1],
            u0=imgs[n + 1, 1:1 + n],
            P_basis=imgs[1:1 + n, n + 1],
            p=p,
        )
    return ExtFrame(V, B_V, d, P_V, pe, gfp.eye(n + 2))


def reduce(L: HomLieAlgebra, B_L: BilinearForm, P_L: PStructure, e) -> ExtFrame:
    """Recover the construction data (V, B_V, d, P_V, pe) from L.

    e must be a nonzero isotropic central twist-eigenvector whose
    orthogonal complement is a p-ideal.  The partner e* solves
    B(., e) = 1 with free variables zero (normalized to B(e*, e*) = 0
    in odd characteristic, kept as-is in characteristic 2), and V is the
    orthogonal complement of the hyperbolic plane, in echelon form.
    (L, B_L, P_L) is rewritten in the frame (e*, V rows, e), whose p-images
    are folded once: e-perp is closed under [p] iff no image of a V row or
    of e has an e*-coordinate.  The result is read back with split_frame,
    whose checks are the ones left to fail: once e-perp is an ideal closed
    under [p], the frame's brackets and p-images of V and e cannot leave
    it, and only a form that is not symmetric can make B(e*, V) or B(e, V)
    nonzero.  The frame [e*; V rows; e] is the record's rows.
    """
    p, N = L.p, L.n
    n = N - 2
    e = gfp.asvec(e, p)
    if not e.any():
        raise NotCentral("e must be nonzero")
    if L.ad(e).any():
        raise NotCentral("e is not central")
    if B_L.eval(e, e) != 0:
        raise DegenerateFrame("B(e, e) must vanish")
    alpha_e = L.apply_alpha(e)
    line = Subspace.from_vectors([e], N, p)
    if not line.contains(alpha_e):
        raise NotCentral("the twist does not preserve the chosen central line")

    if not is_ideal(L, orth(B_L, line)):
        raise NotPIdeal("the orthogonal complement of e is not an ideal")

    row = gfp.matmul(B_L.gram, e, p)
    e_star = gfp.solve(row[None, :], np.array([1]), p)
    if e_star is None:
        raise DegenerateFrame("no vector pairs with e (form degenerate)")
    if p > 2:
        bss = B_L.eval(e_star, e_star)
        e_star = (e_star - gfp.inv(2, p) * bss * e) % p

    plane = Subspace.from_vectors([e, e_star], N, p)
    v_space = orth(B_L, plane)
    if v_space.dim != n:
        raise DegenerateFrame("hyperbolic plane does not split off")
    v_rows = v_space.basis

    frame = np.vstack([e_star[None, :], v_rows, e[None, :]])
    tinv = gfp.mat_inv(frame.T, p)  # frame coordinates of w: tinv @ w
    if tinv is None:
        raise DegenerateFrame("frame vectors are not a basis")
    c = contract(L.bracket_pairs(frame, frame), tinv.T, p)
    alpha = gfp.matmul(tinv, gfp.matmul(L.alpha, frame.T, p), p)
    gram = gfp.matmul(frame, gfp.matmul(B_L.gram, frame.T, p), p)
    images = gfp.matmul(eval_p_batch(P_L, frame), tinv.T, p)
    if images[1:, 0].any():
        raise NotPIdeal("the orthogonal complement of e is not closed under [p]")
    unit = (np.count_nonzero(v_rows, axis=1) == 1) & (v_rows.max(axis=1, initial=0) == 1)  # rows that are some e_k
    names = ["e*"] + [L.basis_names[k] if u else f"v{j + 1}"
                      for j, (u, k) in enumerate(zip(unit.tolist(), v_rows.argmax(axis=1).tolist()))] + ["e"]
    Lf = HomLieAlgebra(p, c, alpha, names)
    f = split_frame(Lf, BilinearForm(gram, p), PStructure(Lf, images))
    f.rows = frame
    return f
