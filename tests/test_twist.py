import numpy as np
import pytest
from oracles import compute_eta_batch, psl3_matrix_model, psl3_table_P

from homext import gfp
from homext.algebra import (
    BilinearForm,
    Derivation,
    HomLieAlgebra,
    center,
    d_invariant,
    verify_derivation,
    verify_hom_lie,
    verify_quadratic,
)
from homext.errors import PreconditionFailed
from homext.restricted import (
    is_restricted_derivation,
    solve_p_property,
    verify_pstructure,
)
from homext.rng import SplitMix64
from homext.twist import TwistData, check_twist_data, twist_algebra, twist_derivation, twist_pmap


def test_twist_identity_is_noop(psl3):
    t = TwistData(gfp.eye(7), 3)
    g2, b2 = twist_algebra(psl3.g, psl3.B, t)
    assert np.array_equal(g2.c, psl3.g.c)
    assert np.array_equal(b2.gram, psl3.B.gram)
    P2 = twist_pmap(psl3.P, g2, t)
    assert np.array_equal(P2.images, psl3.P.images)
    D2 = twist_derivation(psl3.g, psl3.derivations["D2"], t)
    assert np.array_equal(D2.mat, psl3.derivations["D2"].mat)


def test_twist_psl3(psl3, psl3_twisted):
    ga, ba, pa, _ = psl3_twisted
    assert verify_hom_lie(ga).ok
    assert verify_quadratic(ga, ba).ok
    assert ga.is_involutive()
    # B_alpha(x, y) = B(alpha(x), y)
    assert np.array_equal(ba.gram, (psl3.twist.alpha.T @ psl3.B.gram) % 3)
    # twisted p-map keeps the images because alpha squares to the identity
    assert np.array_equal(pa.images, psl3.P.images)
    assert verify_pstructure(pa).ok


def test_twist_minus_identity_on_abelian():
    A = HomLieAlgebra(3, np.zeros((2, 2, 2), dtype=np.int64), gfp.eye(2))
    B = BilinearForm(gfp.eye(2), 3)
    t = TwistData((2 * gfp.eye(2)) % 3, 3)
    g2, b2 = twist_algebra(A, B, t)
    assert not g2.c.any()
    assert np.array_equal(b2.gram, (2 * gfp.eye(2)) % 3)


def test_twist_rejects_non_bracket_endomorphism(psl3):
    # self-adjoint involution that is not a bracket endomorphism: swap the
    # hyperbolic partners e2 <-> e5 (B-symmetric) but leave the rest alone
    m = gfp.eye(7)
    m[[1, 4]] = m[[4, 1]]
    t = TwistData(m, 3)
    sym = np.array_equal((m.T @ psl3.B.gram) % 3, (psl3.B.gram @ m) % 3)
    assert sym and np.array_equal((m @ m) % 3, gfp.eye(7))
    with pytest.raises(PreconditionFailed) as exc:
        twist_algebra(psl3.g, psl3.B, t)
    assert not exc.value.report.check("alpha_bracket_endomorphism").ok


def test_twist_pmap_char2_composes_once(heis):
    # p = 2: images composed a single time with the involution
    swap = gfp.eye(6)
    swap[[0, 1]] = swap[[1, 0]]
    swap[[3, 4]] = swap[[4, 3]]
    P = heis.P
    twisted = twist_pmap(P, heis.V, TwistData(swap, 2))
    assert np.array_equal(twisted.images, (P.images @ swap.T) % 2)


def test_twist_derivation_examples(psl3, psl3_twisted):
    ga, ba, pa, derivs = psl3_twisted
    zero = Derivation(np.zeros((7, 7), dtype=np.int64), 3)
    assert not twist_derivation(psl3.g, zero, psl3.twist).mat.any()
    for name in ("D2", "D3"):
        Da = derivs[name]
        assert np.array_equal(Da.mat, (psl3.twist.alpha @ psl3.derivations[name].mat) % 3)
        assert verify_derivation(ga, Da).ok
        assert d_invariant(ba, Da, 3)
        assert is_restricted_derivation(ga, pa, Da)
        w = solve_p_property(ga, Da)
        assert (w.xi, w.a0.any()) == (psl3.table[name]["xi"], False)


def test_twist_derivation_rejects_anticommuting(psl3):
    # D1 swaps the twist eigenspaces, so alpha o D1 = -D1 o alpha
    D1 = psl3.derivations["D1"]
    a = psl3.twist.alpha
    assert np.array_equal((a @ D1.mat) % 3, (-D1.mat @ a) % 3)
    with pytest.raises(PreconditionFailed):
        twist_derivation(psl3.g, D1, psl3.twist)


def test_heisenberg_fixture_shape(heis):
    assert verify_quadratic(heis.V, heis.B).ok
    assert np.array_equal(eval := heis.P.images[2], gfp.unit(6, 2))  # z^[2] = z
    c = center(heis.V)
    assert c.dim == 3 and c.contains(gfp.unit(6, 2))
    assert heis.pext.xi == 1 and np.array_equal(heis.pext.a0, gfp.unit(6, 2))


def test_psl3_quotient_identification():
    # h2 = E22 - E33 equals h1 modulo scalars in characteristic 3
    fx = psl3_matrix_model()
    h1 = fx.reps[0]
    h2 = np.zeros((3, 3), dtype=np.int64)
    h2[1, 1], h2[2, 2] = 1, -1 % 3
    ident = np.eye(3, dtype=np.int64)
    assert np.array_equal((h1 + 2 * h2) % 3, ident)
    span = np.stack([m.reshape(9) for m in fx.reps + [ident]], axis=1) % 3
    coords = gfp.solve(span, h2.reshape(9) % 3, 3)
    assert np.array_equal(coords[:7], gfp.unit(8, 0)[:7])  # h2 projects to e1


def test_psl3_tables_match_the_matrix_model(psl3):
    """build_psl3's literal tables are the matrix model's projected
    commutators, trace form and projected cubes."""
    model = psl3_matrix_model()
    assert np.array_equal(psl3.g.c, model.c)
    assert np.array_equal(psl3.B.gram, model.gram)
    assert np.array_equal(psl3.P.images, model.images)


def test_psl3_fixture_table(psl3):
    # [x1, x2] = x3 in the ordered basis
    assert np.array_equal(psl3.g.bracket(gfp.unit(7, 1), gfp.unit(7, 2)), gfp.unit(7, 3))
    for name, D in psl3.derivations.items():
        assert verify_derivation(psl3.g, D).ok
        assert d_invariant(psl3.B, D, 3)
        assert is_restricted_derivation(psl3.g, psl3.P, D)


def test_table_P_attribution_is_pinned_by_additivity(psl3):
    """The D1/D2 cubics must not be swapped: the transposed pairing fails
    the defining additivity law while the stored pairing satisfies it."""
    rng = SplitMix64(404)

    def printed_swap(name, v):
        other = {"D1": "D2", "D2": "D1"}[name]
        return psl3_table_P(other, v)

    for name in ("D1", "D2"):
        D = psl3.derivations[name]
        good = bad = 0
        for _ in range(300):
            x, y = rng.vec(7, 3), rng.vec(7, 3)
            cross = int(compute_eta_batch(psl3.g, psl3.B, D, x[None, :], y[None, :]).sum() % 3)
            s = (x + y) % 3
            if psl3_table_P(name, s) == (psl3_table_P(name, x) + psl3_table_P(name, y) + cross) % 3:
                good += 1
            if printed_swap(name, s) == (printed_swap(name, x) + printed_swap(name, y) + cross) % 3:
                bad += 1
        assert good == 300
        assert bad < 300


def test_twist_of_a_tensor_that_is_not_lie_fails_verification():
    """alpha = id is valid twist data on any algebra with alpha = id, but
    [e0, e1] = e0 and [e0, e2] = e1 break Jacobi: J(e0, e1, e2) = -e1."""
    g = HomLieAlgebra.from_upper(3, 3, {(0, 1): gfp.unit(3, 0), (0, 2): gfp.unit(3, 1)})
    B = BilinearForm(gfp.eye(3), 3)
    t = TwistData(gfp.eye(3), 3)
    assert check_twist_data(g, B, t).ok
    with pytest.raises(PreconditionFailed, match="^twisted algebra failed verification$") as exc:
        twist_algebra(g, B, t)
    assert exc.value.report.check("hom_jacobi").failed > 0
