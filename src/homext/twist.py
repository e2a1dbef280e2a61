"""Twisting quadratic Lie algebras into Hom-Lie fixtures, plus builders.

A self-adjoint involution alpha turns a quadratic Lie algebra into a
Hom-Lie algebra by composing bracket, form and p-mapping with alpha.
The builders construct the two standing fixtures of the test corpus: a
6-dimensional Heisenberg-with-dual algebra over GF(2) and the projective
special linear algebra psl(3) over GF(3), together with its derivation
table and twist, both as literal tables.  A small sl(2) fixture
over GF(5) exercises the higher coefficient recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class Psl3Fixture:
    """psl(3) over GF(3) with its derivations, twist and the D3 extension."""

    g: HomLieAlgebra
    B: BilinearForm
    P: PStructure
    derivations: dict[str, Derivation]
    twist: TwistData
    table: dict[str, dict]
    ext: DoubleExtensionData
    pext: PExtensionData


def build_psl3() -> Psl3Fixture:
    """psl(3) = sl(3)/scalars over GF(3) as literal tables.

    Basis order: [x1,y1], x1, x2, x3, y1, y2, y3 with x3 = [x1,x2] and
    y3 = [y1,y2]; h2 = h1 in the quotient.  The brackets are the projected
    commutators of 3x3 matrices, the Gram matrix the trace form
    diag(-1) + antidiagonal I_{2,1} pairing and the 3-map the matrix cubes
    (tests/oracles.py derives all three from the matrix model).
    """
    p = 3
    names = ["h1", "x1", "x2", "x3", "y1", "y2", "y3"]
    consts = {  # (i, j): (k, c) for [e_i, e_j] = c e_k
        (0, 1): (1, 2), (0, 2): (2, 2), (0, 3): (3, 1), (0, 4): (4, 1), (0, 5): (5, 1), (0, 6): (6, 2),
        (1, 2): (3, 1), (1, 4): (0, 1), (1, 6): (5, 1), (2, 5): (0, 1), (2, 6): (4, 2),
        (3, 4): (2, 2), (3, 5): (1, 1), (3, 6): (0, 1), (4, 5): (6, 1),
    }
    brackets = {ij: c * gfp.unit(7, k) for ij, (k, c) in consts.items()}
    g = HomLieAlgebra.from_upper(p, 7, brackets, basis_names=names)

    gram = np.zeros((7, 7), dtype=np.int64)
    gram[0, 0] = 2  # -1
    for k, v in enumerate((1, 1, 2)):  # I_{2,1} on the antidiagonal blocks
        gram[1 + k, 4 + k] = gram[4 + k, 1 + k] = v
    B = BilinearForm(gram, p)
    images = np.zeros((7, 7), dtype=np.int64)
    images[0, 0] = 1  # h1^[3] = h1, the other basis cubes vanish
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
    ext = DoubleExtensionData(derivs["D3"], x0=gfp.zeros(7), lam=1, lam0=0)
    pext = PExtensionData(xi=table["D3"]["xi"], a0=table["D3"]["a0"], m=0, l=0, u0=gfp.zeros(7),
                          P_basis=gfp.zeros(7), p=p)
    return Psl3Fixture(g=g, B=B, P=P, derivations=derivs, twist=twist, table=table, ext=ext, pext=pext)


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
