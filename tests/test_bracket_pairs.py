"""bracket_pairs, the one all-pairs bracket table, and the routes built on it.

bracket_pairs is checked against the dense einsum oracle at p = 2, 3, 5,
65521 and at primes on both sides of bundle.parse's guard for n = 3, where
gfp.matmul runs on int64 and on Python integers.  Hom-Jacobi, evaluated per
class of rotations in slices of i, and Leibniz are checked against their dense
oracles (counts, the first failures and their values) on sl_n, its Yau twists,
the fixtures and their transports by random isomorphisms, with slice budgets
small enough that every slice and chunk boundary is crossed.
"""

import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from conftest import sl_n, sl_n_bundle

from homext import algebra, gfp
from homext.algebra import Derivation, HomLieAlgebra, verify_hom_lie
from homext.cli import main
from homext.report import Report

# The largest prime with 3 (p-1)^2 < 2^63, which bundle.parse accepts at dim 3,
# and the least prime past it, which the library still takes.
P_GUARD, P_PAST = 1753413037, 1753413059


def exact_pairs(A: HomLieAlgebra, xs, ys) -> np.ndarray:
    """[x_i, y_j] on Python integers: oracles.bracket_dense wraps past n^2 (p-1)^3 < 2^63."""
    xs, ys = (np.asarray(v, dtype=np.int64).astype(object) % A.p for v in (xs, ys))
    out = np.einsum("ia,jb,abk->ijk", xs, ys, A.c.astype(object)) % A.p
    return out.astype(np.int64)


def random_algebra(p, n, rng, alternating):
    c = rng.integers(0, p, (n, n, n)) * (rng.random((n, n, n)) < 0.5)
    if alternating:
        c = (c - c.transpose(1, 0, 2)) % p
    return HomLieAlgebra(p, c, rng.integers(0, p, (n, n)))


def test_guard_primes():
    assert gfp.is_prime(P_GUARD) and gfp.is_prime(P_PAST)
    assert 3 * (P_GUARD - 1) ** 2 < 2**63 <= 3 * (P_PAST - 1) ** 2
    assert not any(gfp.is_prime(q) for q in range(P_GUARD + 1, P_PAST))


@pytest.mark.parametrize("p", [2, 3, 5, 65521, P_GUARD, P_PAST])
def test_bracket_pairs_matches_the_dense_oracle(p, monkeypatch):
    """Random tensors, alternating or not, with random alpha; xs and ys of
    other lengths than n and each other, with zero rows, unreduced entries and
    empty tables; whole and in slices of one and two rows."""
    rng = np.random.default_rng(p % 1000)
    for trial in range(12):
        n = 3 if p > 65521 else int(rng.integers(1, 7))
        A = random_algebra(p, n, rng, alternating=trial % 2 == 0)
        xs, ys = rng.integers(0, p, (int(rng.integers(0, 9)), n)), rng.integers(0, p, (int(rng.integers(1, 9)), n))
        xs[::3], ys[1::4] = 0, 0
        want = exact_pairs(A, xs, ys)
        if p <= 65521:
            assert np.array_equal(want, oracles.bracket_dense(A, xs[:, None], ys[None]))
        for chunk in (algebra._CHUNK_ELEMENTS, n * n, 2 * n * n):
            monkeypatch.setattr(algebra, "_CHUNK_ELEMENTS", chunk)
            got = A.bracket_pairs(xs + p, ys - 2 * p)
            assert got.shape == (len(xs), len(ys), n) and got.dtype == np.int64
            assert np.array_equal(got, want), (p, n, chunk)
        assert A.bracket_pairs(ys, xs).shape == (len(ys), len(xs), n)


def test_bracket_pairs_takes_both_product_routes(monkeypatch):
    """At dim 3 both guard primes are exact: P_GUARD's products stay on
    int64 and P_PAST's pass 2^63 and run on Python integers."""
    seen = []
    real = gfp.matmul

    def spy(a, b, p):
        seen.append((p, np.asarray(a).shape[-1] * (p - 1) ** 2 >= 2**63))
        return real(a, b, p)

    monkeypatch.setattr(gfp, "matmul", spy)
    rng = np.random.default_rng(38)
    for p in (P_GUARD, P_PAST):
        A = random_algebra(p, 3, rng, alternating=True)
        xs = np.full((4, 3), p - 1)
        assert np.array_equal(A.bracket_pairs(xs, xs), exact_pairs(A, xs, xs))
    assert {(P_GUARD, False), (P_PAST, True)} <= set(seen) and (P_GUARD, True) not in seen


def transport(A: HomLieAlgebra, pi) -> HomLieAlgebra:
    """A carried across the invertible pi by the dense oracle: a dense tensor
    and twist whose Hom-Jacobi and multiplicativity hold iff A's do."""
    p = A.p
    u = gfp.mat_inv(pi, p).T  # row a is pi^-1(e_a)
    c = oracles.bracket_dense(A, u[:, None], u[None]) @ pi.T % p
    return HomLieAlgebra(p, c, pi @ A.alpha @ u.T % p)


def invertible(n, p, rng):
    while True:
        pi = rng.integers(0, p, (n, n))
        if gfp.mat_inv(pi, p) is not None:
            return pi


@pytest.fixture(scope="module")
def wide_cases(heis, heis_ext, psl3, psl3_twisted, sl2, sl2_ext):
    """name -> (algebra, derivations): sl_n and Yau twists, the fixtures,
    their transports, and perturbed copies whose Hom-Jacobi fails."""
    rng = np.random.default_rng(3801)
    out = {}
    for n, p, g in [(3, 2, None), (3, 5, None), (3, 5, [1, -1, 1]), (4, 3, [1, -1, 1, -1]), (3, 7, [-1, 1, 1])]:
        A, _, _, D = sl_n(n, p, g)
        out[f"sl{n} p={p} g={g}"] = (A, [D])
    out["heis.V"], out["heis.L"] = (heis.V, [heis.D]), (heis_ext[0], [])
    out["psl3"], out["psl3_a"] = (psl3.g, list(psl3.derivations.values())), (psl3_twisted[0], list(psl3_twisted[3].values()))
    out["sl2"], out["sl2.L"] = (sl2.g, [sl2.D]), (sl2_ext[0], [])
    for name in list(out):
        A = out[name][0]
        out[f"{name} transported"] = (transport(A, invertible(A.n, A.p, rng)), [])
        c = A.c.copy()
        c[tuple(rng.integers(0, A.n, 3))] = rng.integers(1, A.p) if A.p > 2 else 1
        out[f"{name} perturbed"] = (HomLieAlgebra(A.p, c, A.alpha), [])
    return out


@pytest.mark.parametrize("budget", [1, 300, 1 << 22])
def test_hom_jacobi_and_leibniz_in_slices_match_the_dense_oracles(wide_cases, budget, monkeypatch):
    """Counts, the first 16 witnesses and their values equal the dense
    oracles' with one i per slice, a few, and the whole algebra in one, and
    J summed in chunks of one or a few classes."""
    monkeypatch.setattr(algebra, "_HJ_ELEMENTS", budget)
    monkeypatch.setattr(algebra, "_CHUNK_ELEMENTS", 1 << 18 if budget > 300 else 7 * 16)
    rng = np.random.default_rng(budget)
    failed = 0
    for name, (A, derivs) in wide_cases.items():
        got = algebra._hom_lie_report(A)
        assert got.to_dict() == oracles.hom_jacobi_dense(A).to_dict(), name
        failed += got.check("hom_jacobi").failed > 16
        for D in derivs + [Derivation(rng.integers(0, A.p, (A.n, A.n)), A.p, k=2)]:
            assert algebra._derivation_report(A, D).to_dict() == oracles.leibniz_dense(A, D).to_dict(), name
    assert failed >= 5  # the perturbed copies fail more classes than a report keeps


@pytest.mark.parametrize("p", [P_GUARD, P_PAST])
def test_hom_jacobi_and_leibniz_match_object_oracles_at_the_guard_primes(p, monkeypatch):
    """At dim 3 the dense oracles sum Python integers (object-dtype tensors),
    while Hom-Jacobi's T product runs on int64 at P_GUARD and on Python
    integers at P_PAST, where it multiplies over all 3 columns.  Reports
    agree on sl2 and its Yau twist with D = ad(H), which pass, and on
    perturbed copies, random alternating tensors with random alpha and random
    degree-2 maps, which fail."""
    seen = set()
    real = gfp.matmul

    def spy(a, b, q):
        seen.add((sys._getframe(1).f_code.co_name, np.asarray(a).shape[-1] * (q - 1) ** 2 >= 2**63))
        return real(a, b, q)

    monkeypatch.setattr(gfp, "matmul", spy)
    rng = np.random.default_rng(39)
    cases = [(A, D) for A, _, _, D in (sl_n(2, p), sl_n(2, p, [1, -1]))]
    for A, D in list(cases):
        c = A.c.copy()
        c[0, 1] = (c[0, 1] + rng.integers(1, p, 3)) % p
        cases += [(HomLieAlgebra(p, c, A.alpha), D), (random_algebra(p, 3, rng, alternating=True), D)]
    verdicts = []
    for A, D in cases + [(A, Derivation(rng.integers(0, p, (3, 3)), p, k=2)) for A, _ in cases]:
        dense = SimpleNamespace(p=p, n=3, c=A.c.astype(object), alpha=A.alpha.astype(object))
        got = algebra._hom_lie_report(A)
        assert got.to_dict() == oracles.hom_jacobi_dense(dense).to_dict()
        d_dense = SimpleNamespace(mat=D.mat.astype(object), k=D.k)
        assert algebra._derivation_report(A, D).to_dict() == oracles.leibniz_dense(dense, d_dense).to_dict()
        verdicts.append(got.check("hom_jacobi").ok)
    assert any(verdicts) and not all(verdicts)
    assert {big for name, big in seen if name == "tables"} == {p == P_PAST}  # the T product's route


@pytest.mark.parametrize("n, p, g", [(3, 2, None), (5, 2, None), (4, 3, None), (5, 3, [1, 1, -1, 1, 1]),
                                     (3, 5, None), (9, 5, [1, -1] * 4 + [1]), (3, 7, [1, 1, -1])])
def test_sl_n_verifies(n, p, g, tmp_path, capsys):
    """sl_n and its Yau twists pass every check verify makes."""
    path = tmp_path / "sl.json"
    path.write_text(sl_n_bundle(n, p, g))
    assert main(["verify", str(path), "--samples", "20"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_verify_hom_lie_memory_on_sl12():
    """sl12 over GF(5) (dim 143, 3,696 nonzero pairs): Hom-Jacobi holds one
    slice of T, never the whole [n, P + 1, n] tensor (887 MB), and the
    multiplicativity table is made in slices.  The peak is about 60 MB."""
    A = sl_n(12, 5)[0]
    assert A.n == 143 and int(A.c.any(axis=2).sum()) == 3696
    tracemalloc.start()
    try:
        rep = verify_hom_lie(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.check("hom_jacobi").passed == A.n**3
    assert peak < 96 * 2**20


def test_hom_jacobi_memory_on_a_dense_star():
    """[e_0, e_j] has every e_k and alpha is dense, at dim 128 over GF(5): each
    i has n live ad rows, so a slice holds one i, and the first one's
    T(all j; the pairs of 0) has (n^2 + n) rows of all P + 1 slots (32 MB).
    Its product runs in blocks, so the peak is that table, the held ad rows
    (n^2 rows of n) and the block and J-chunk temporaries; an unblocked
    product adds float64 and int64 copies of both (about 94 MB)."""
    n, p, rng = 128, 5, np.random.default_rng(128)
    c = np.zeros((n, n, n), dtype=np.int64)
    c[0, 1:] = rng.integers(1, p, (n - 1, n))
    c[1:, 0] = -c[0, 1:] % p
    A = HomLieAlgebra(p, c, rng.integers(0, p, (n, n)))
    nz = A.c.any(axis=2)
    table, held = 8 * (n * n + n) * (int(nz.sum()) + 1), 8 * n**3
    rep = Report(p=p, dim=n)
    tracemalloc.start()
    try:
        algebra._hom_jacobi(rep, A, nz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.check("hom_jacobi").failed > 0
    assert peak < table + held + 16 * 2**20
