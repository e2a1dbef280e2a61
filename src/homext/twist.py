"""Twisting quadratic Lie algebras into Hom-Lie fixtures, plus builders.

A self-adjoint involution alpha turns a quadratic Lie algebra into a
Hom-Lie algebra by composing bracket, form and p-mapping with alpha.
The builders construct the two standing fixtures of the test corpus: a
6-dimensional Heisenberg-with-dual algebra over GF(2) and the projective
special linear algebra psl(3) over GF(3) derived from its matrix model,
together with its derivation table and twist.  A small sl(2) fixture
over GF(5) exercises the higher coefficient recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gfp
from .algebra import (BilinearForm, Derivation, HomLieAlgebra, bracket_sides, contract, verify_hom_lie,
                      verify_quadratic)
from .doubleext import DoubleExtensionData, PExtensionData
from .errors import PreconditionFailed
from .report import Report
from .restricted import PStructure


@dataclass
class TwistData:
    alpha: np.ndarray

    def __init__(self, alpha, p: int):
        self.alpha = gfp.asmat(alpha, p)


def check_twist_data(g: HomLieAlgebra, B: BilinearForm, t: TwistData) -> Report:
    """Self-adjointness, involutivity, and the bracket-endomorphism condition.

    The last condition is stronger than self-adjointness alone but is
    what the twisted bracket needs to stay Hom-Jacobi; the output is
    verified rather than trusted either way.
    """
    p = g.p
    rep = Report(p=p, dim=g.n)
    adjoint = np.array_equal(gfp.matmul(t.alpha.T, B.gram, p), gfp.matmul(B.gram, t.alpha, p))
    rep.record("alpha_self_adjoint", adjoint, ())
    rep.record("alpha_involutive", np.array_equal(gfp.mat_pow(t.alpha, 2, p), gfp.eye(g.n)), ())
    lhs, rhs = bracket_sides(t.alpha, g, g)
    rep.record("alpha_bracket_endomorphism", np.array_equal(lhs, rhs), ())  # both sides reduced
    rep.record("trivial_twist_input", np.array_equal(g.alpha, gfp.eye(g.n)), ())
    return rep


def twist_algebra(g: HomLieAlgebra, B: BilinearForm, t: TwistData) -> tuple[HomLieAlgebra, BilinearForm]:
    """Compose bracket and form with alpha; verify the result, never patch it."""
    p = g.p
    rep = check_twist_data(g, B, t)
    if not rep.ok:
        raise PreconditionFailed("twist data rejected", rep)
    c = contract(g.c, t.alpha.T, p)
    twisted = HomLieAlgebra(p, c, t.alpha, g.basis_names)
    form = BilinearForm(gfp.matmul(t.alpha.T, B.gram, p), p)
    out = verify_hom_lie(twisted)
    out.merge(verify_quadratic(twisted, form))
    if not out.ok:
        raise PreconditionFailed("twisted algebra failed verification", out)
    return twisted, form


def twist_pmap(P: PStructure, twisted: HomLieAlgebra, t: TwistData) -> PStructure:
    """x^[p] composed with alpha^{p-1}, reattached to the twisted algebra."""
    p = twisted.p
    apow = gfp.mat_pow(t.alpha, p - 1, p)
    return PStructure(twisted, gfp.matmul(P.images, apow.T, p))


def twist_derivation(g: HomLieAlgebra, D: Derivation, t: TwistData) -> Derivation:
    """alpha o D, the derivation matching the twisted bracket and p-map."""
    p = g.p
    lhs, rhs = gfp.matmul(t.alpha, D.mat, p), gfp.matmul(D.mat, t.alpha, p)
    if not np.array_equal(lhs, rhs):
        rep = Report()
        rep.record("alpha_D_commute", False, (), lhs=lhs, rhs=rhs)
        raise PreconditionFailed("derivation does not commute with the twist", rep)
    return Derivation(lhs, p, k=1)


@dataclass
class HeisenbergDualFixture:
    """dim-6 quadratic Lie algebra over GF(2) with its 2-structure and data."""

    V: HomLieAlgebra
    B: BilinearForm
    P: PStructure
    D: Derivation
    ext: DoubleExtensionData
    pext: PExtensionData

    def table_P(self, v) -> int:
        v = gfp.asvec(v, 2)
        return int((v[0] * v[3] + v[1] * v[4]) % 2)

    def table_p2(self, v) -> np.ndarray:
        v = gfp.asvec(v, 2)
        out = gfp.zeros(6)
        out[2] = (v[2] * v[2] + v[0] * v[1]) % 2
        out[4] = (v[0] * v[5]) % 2
        out[3] = (v[1] * v[5]) % 2
        return out


def build_heisenberg_dual() -> HeisenbergDualFixture:
    p = 2
    names = ["x", "y", "z", "x*", "y*", "z*"]
    brackets = {
        (0, 1): gfp.unit(6, 2),  # [x, y] = z
        (0, 5): gfp.unit(6, 4),  # [x, z*] = y*
        (1, 5): gfp.unit(6, 3),  # [y, z*] = x*
    }
    V = HomLieAlgebra.from_upper(p, 6, brackets, basis_names=names)
    gram = np.zeros((6, 6), dtype=np.int64)
    for i, j in ((0, 3), (1, 4), (2, 5)):
        gram[i, j] = gram[j, i] = 1
    B = BilinearForm(gram, p)
    images = np.zeros((6, 6), dtype=np.int64)
    images[2, 2] = 1  # z^[2] = z, all other basis squares vanish
    P = PStructure(V, images)
    D = Derivation(np.diag([1, 1, 0, 1, 1, 0]).astype(np.int64), p)
    z = gfp.unit(6, 2)
    ext = DoubleExtensionData(D, x0=gfp.zeros(6), lam=1, lam0=0)
    pext = PExtensionData(xi=1, a0=z, m=0, l=0, u0=z, P_basis=gfp.zeros(6), p=p)
    return HeisenbergDualFixture(V=V, B=B, P=P, D=D, ext=ext, pext=pext)


def _e(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=np.int64)
    m[i, j] = 1
    return m


@dataclass
class Psl3Fixture:
    """psl(3) over GF(3) from the matrix model, with derivations and twist."""

    g: HomLieAlgebra
    B: BilinearForm
    P: PStructure
    derivations: dict[str, Derivation]
    twist: TwistData
    table: dict[str, dict] = field(default_factory=dict)
    reps: list[np.ndarray] = field(default_factory=list)

    def table_P(self, name: str, v) -> int:
        # Each cubic is pinned to its derivation by the P additivity law;
        # tests/test_twist.py shows that swapping the first two breaks it.
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


def build_psl3() -> Psl3Fixture:
    """Derive psl(3) = sl(3)/scalars over GF(3) from 3x3 matrices.

    Basis order: [x1,y1], x1, x2, x3, y1, y2, y3 with x3 = [x1,x2] and
    y3 = [y1,y2]; the scalar line is eliminated by solving against the
    8-matrix spanning set (7 representatives plus the identity), using
    h2 = 2(I - h1), i.e. h2 = h1 in the quotient.  The trace form
    descends to the quotient and must reproduce the block Gram matrix
    diag(-1) + antidiagonal I_{2,1} pairing; that equality is asserted
    as the golden check on the whole construction.
    """
    p = 3
    x1, x2 = _e(0, 1), _e(1, 2)
    x3 = (gfp.matmul(x1, x2, p) - gfp.matmul(x2, x1, p)) % p
    y1, y2 = _e(1, 0), _e(2, 1)
    y3 = (gfp.matmul(y1, y2, p) - gfp.matmul(y2, y1, p)) % p
    h1 = (_e(0, 0) - _e(1, 1)) % p
    reps = [h1, x1, x2, x3, y1, y2, y3]
    names = ["h1", "x1", "x2", "x3", "y1", "y2", "y3"]
    ident = np.eye(3, dtype=np.int64)
    span = np.stack([m.reshape(9) for m in reps + [ident]], axis=1) % p

    def project(m) -> np.ndarray:
        coords = gfp.solve(span, (m % p).reshape(9), p)
        if coords is None:
            raise AssertionError("matrix outside the psl(3) model span")
        return coords[:7]

    brackets = {}
    for i in range(7):
        for j in range(i + 1, 7):
            comm = (gfp.matmul(reps[i], reps[j], p) - gfp.matmul(reps[j], reps[i], p)) % p
            vec = project(comm)
            if vec.any():
                brackets[(i, j)] = vec
    g = HomLieAlgebra.from_upper(p, 7, brackets, basis_names=names)

    gram = np.zeros((7, 7), dtype=np.int64)
    for i in range(7):
        for j in range(7):
            gram[i, j] = int(np.trace(gfp.matmul(reps[i], reps[j], p)) % p)
    expected = np.zeros((7, 7), dtype=np.int64)
    expected[0, 0] = 2  # -1
    pair = (1, 1, 2)  # I_{2,1} on the antidiagonal blocks
    for k in range(3):
        expected[1 + k, 4 + k] = expected[4 + k, 1 + k] = pair[k]
    assert np.array_equal(gram, expected), "trace form disagrees with the block Gram matrix"
    B = BilinearForm(gram, p)

    images = np.zeros((7, 7), dtype=np.int64)
    for j in range(7):
        cube = gfp.mat_pow(reps[j], 3, p)
        images[j] = project(cube)
    table_images = np.zeros((7, 7), dtype=np.int64)
    table_images[0, 0] = 1
    assert np.array_equal(images, table_images), "matrix cubes disagree with the stated 3-mapping"
    P = PStructure(g, images)

    def dmat(cols: dict[int, np.ndarray]) -> np.ndarray:
        m = np.zeros((7, 7), dtype=np.int64)
        for j, v in cols.items():
            m[:, j] = v
        return m

    derivs = {
        "D1": Derivation(dmat({3: gfp.unit(7, 4), 1: gfp.unit(7, 6)}), p),
        "D2": Derivation(dmat({2: 2 * gfp.unit(7, 1) % p, 4: gfp.unit(7, 5)}), p),
        "D3": Derivation(
            dmat({1: gfp.unit(7, 1), 3: gfp.unit(7, 3), 4: 2 * gfp.unit(7, 4) % p, 6: 2 * gfp.unit(7, 6) % p}),
            p,
        ),
    }
    alpha = np.diag([1, 2, 2, 1, 2, 2, 1]).astype(np.int64)
    twist = TwistData(alpha, p)
    table = {
        "D1": {"xi": 0, "a0": gfp.zeros(7), "label": "gl3-tilde"},
        "D2": {"xi": 0, "a0": gfp.zeros(7), "label": "gl3-hat"},
        "D3": {"xi": 1, "a0": gfp.zeros(7), "label": "gl3"},
    }
    return Psl3Fixture(g=g, B=B, P=P, derivations=derivs, twist=twist, table=table, reps=reps)


@dataclass
class Sl2Fixture:
    """sl(2) over GF(5): small odd-characteristic fixture for level > 3 recursions."""

    g: HomLieAlgebra
    B: BilinearForm
    P: PStructure
    D: Derivation
    ext: DoubleExtensionData
    pext: PExtensionData


def build_sl2_gf5() -> Sl2Fixture:
    p = 5
    names = ["E", "H", "F"]
    brackets = {
        (0, 1): (3 * gfp.unit(3, 0)) % p,  # [E, H] = -2E
        (0, 2): gfp.unit(3, 1),            # [E, F] = H
        (1, 2): (3 * gfp.unit(3, 2)) % p,  # [H, F] = -2F
    }
    g = HomLieAlgebra.from_upper(p, 3, brackets, basis_names=names)
    gram = np.array([[0, 0, 1], [0, 2, 0], [1, 0, 0]], dtype=np.int64)
    B = BilinearForm(gram, p)
    images = np.zeros((3, 3), dtype=np.int64)
    images[1, 1] = 1  # H^[5] = H, nilpotents vanish
    P = PStructure(g, images)
    D = Derivation(np.diag([2, 0, 3]).astype(np.int64), p)  # ad(H)
    ext = DoubleExtensionData(D, x0=gfp.zeros(3), lam=1, lam0=0)
    pext = PExtensionData(xi=0, a0=gfp.unit(3, 1), m=0, l=0, u0=gfp.zeros(3), P_basis=gfp.zeros(3), p=p)
    return Sl2Fixture(g=g, B=B, P=P, D=D, ext=ext, pext=pext)
