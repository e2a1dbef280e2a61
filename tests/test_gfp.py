import ast
import itertools
import pathlib

import numpy as np
import oracles
import pytest

from homext import gfp
from homext.errors import DimMismatch, ZeroInverse


@pytest.mark.parametrize("p,a,want", [(3, 2, 2), (2, 1, 1), (5, 3, 2)])
def test_inv_examples(p, a, want):
    assert gfp.inv(a, p) == want
    assert gfp.inv(a, p) * a % p == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        gfp.inv(0, 5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    els = range(p)
    for a, b in itertools.product(els, els):
        assert (a + b) % p == (b + a) % p
        assert (a * b) % p == (b * a) % p
        for c in els:
            assert ((a + b) + c) % p == (a + (b + c)) % p
            assert (a * (b + c)) % p == (a * b + a * c) % p
    for a in range(1, p):
        assert gfp.inv(a, p) * a % p == 1


def test_kernel_identity_empty():
    assert list(gfp.null_basis(gfp.eye(4), 5)) == []


def test_kernel_zero_matrix_standard_basis():
    ker = list(gfp.null_basis(np.zeros((3, 3), dtype=np.int64), 3))
    assert np.array_equal(np.stack(ker), gfp.eye(3))


def test_kernel_gf2_vs_enumeration():
    m = np.array([[1, 1], [0, 0]], dtype=np.int64)
    ker = list(gfp.null_basis(m, 2))
    brute = [v for v in gfp.all_vectors(2, 2) if not (m @ v % 2).any() and v.any()]
    assert len(ker) == 1
    assert any(np.array_equal(ker[0], v) for v in brute)
    assert np.array_equal(ker[0], [1, 1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_rank_nullity(p):
    rng = np.random.default_rng(20240517 + p)
    for _ in range(25):
        m = rng.integers(0, p, size=(4, 5))
        ker = list(gfp.null_basis(m, p))
        assert gfp.rank(m, p) + len(ker) == 5
        for v in ker:
            assert not (m @ v % p).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_ignores_zero_rows(p):
    rng = np.random.default_rng(41 + p)
    for _ in range(40):
        rows, cols = int(rng.integers(0, 6)), int(rng.integers(1, 7))
        m = rng.integers(0, p, size=(rows, cols))
        padded = np.zeros((rows + int(rng.integers(1, 5)), cols), dtype=np.int64)
        at = np.sort(rng.choice(padded.shape[0], size=rows, replace=False))
        padded[at] = m
        want = list(gfp.null_basis(m, p))
        got = list(gfp.null_basis(padded, p))
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    for m in (np.zeros((0, 4), dtype=np.int64), np.zeros((5, 4), dtype=np.int64)):
        assert np.array_equal(np.stack(list(gfp.null_basis(m, p))), gfp.eye(4))


def test_solve_identity():
    b = np.array([3, 1, 4], dtype=np.int64)
    assert np.array_equal(gfp.solve(gfp.eye(3), b, 5), b)


def test_solve_inconsistent_returns_none():
    assert gfp.solve(np.zeros((2, 2), dtype=np.int64), [1, 0], 3) is None


def test_solve_homogeneous_invertible():
    m = np.array([[1, 2], [2, 1]], dtype=np.int64)
    assert np.array_equal(gfp.solve(m, [0, 0], 3), [0, 0])


def test_solve_free_variables_zero():
    # single equation x0 + x1 = 1 over GF(2): pivot on x0, x1 free -> (1, 0)
    x = gfp.solve(np.array([[1, 1]]), [1], 2)
    assert np.array_equal(x, [1, 0])


def test_rref_deterministic_pivoting():
    m = np.array([[0, 2, 4], [3, 1, 2], [3, 3, 1]], dtype=np.int64)
    r1, piv1 = gfp.rref(m, 5)
    r2, piv2 = gfp.rref(m.copy(), 5)
    assert np.array_equal(r1, r2) and piv1 == piv2
    for i, c in enumerate(piv1):
        assert r1[i, c] == 1


def test_det_and_mat_inv():
    """Full rank exactly when the determinant (the Leibniz sum) is nonzero."""
    m = np.array([[1, 2], [2, 1]], dtype=np.int64)
    assert _det_leibniz(m, 3) == 0 and gfp.rank(m, 3) == 1
    assert gfp.mat_inv(m, 3) is None
    inv = gfp.mat_inv(m, 5)
    assert np.array_equal((m @ inv) % 5, gfp.eye(2))
    assert _det_leibniz(m, 5) == (1 - 4) % 5 and gfp.rank(m, 5) == 2
    rng = np.random.default_rng(2)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = rng.integers(0, p, size=(n, n))
                assert (gfp.rank(m, p) == n) == (_det_leibniz(m, p) != 0), (p, m)


def _det_leibniz(m, p):
    """The determinant by the Leibniz sum on Python integers, mod p."""
    n, total = len(m), 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= int(m[i][perm[i]])
        total += term
    return total % p


def test_det_and_mat_pow_do_not_wrap_at_the_largest_p():
    """6 (p-1)^2 is just below 2^63, so an elimination step may multiply two
    entries but not three before reducing; mat_pow squares.  The rank is
    full exactly when the determinant is nonzero."""
    p = 1239850223
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.integers(0, p, size=(6, 6))
        assert _det_leibniz(m, p) != 0 and gfp.rank(m, p) == 6
    m[1] = (2 * m[0]) % p
    assert _det_leibniz(m, p) == 0 and gfp.rank(m, p) == 5
    power = gfp.eye(6)
    for k in range(10):
        assert np.array_equal(gfp.mat_pow(m, k, p), power), k
        power = oracles.product_exact(p, power, m)


def test_mat_pow_rejects_a_negative_exponent():
    assert np.array_equal(gfp.mat_pow([[2, 1], [0, 2]], 0, 3), gfp.eye(2))
    with pytest.raises(ValueError, match="k >= 0"):
        gfp.mat_pow(gfp.eye(2), -1, 3)


def test_all_vectors_indexing_roundtrip():
    xs = gfp.all_vectors(3, 3)
    assert xs.shape == (27, 3)
    assert np.array_equal(gfp.vec_index(xs, 3), np.arange(27))


def test_domain_arrays_are_shared_and_read_only():
    for f, args in ((gfp.all_vectors, (4, 3)), (gfp.low_weight, (4, 3, 3))):
        a = f(*args)
        assert f(*args) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1
        assert f.cache_info().maxsize <= 8


def test_polyvec_trim_and_eval():
    pv = oracles.PolyVec([[1, 0], [0, 2], [0, 0]], 3)
    assert pv.degree == 1
    assert np.array_equal(pv.coeff(5), [0, 0])
    assert np.array_equal(pv.eval_at(2), [1, 4 % 3])


def test_polyvec_apply_zero_ops():
    z = np.zeros((2, 2), dtype=np.int64)
    res = oracles.polyvec_apply([(z, z)], oracles.PolyVec.constant([1, 1], 3), max_degree=2)
    assert res.is_zero()


def test_polyvec_apply_single_ad_operator(heis):
    # ad(kx+y) applied to x is the constant [y, x] because [x, x] = 0
    v = heis.V
    x = gfp.unit(6, 0)
    y = gfp.unit(6, 1)
    res = oracles.polyvec_apply([(v.ad(y), v.ad(x))], oracles.PolyVec.constant(x, 2), max_degree=1)
    assert res.degree == 0
    assert np.array_equal(res.coeff(0), v.bracket(y, x))


def test_polyvec_apply_degree_overflow():
    one = gfp.eye(1)
    pv = oracles.PolyVec.constant([1], 3)
    with pytest.raises(oracles.DegreeOverflow):
        oracles.polyvec_apply([(one, one)] * 4, pv, max_degree=2)


def test_polyvec_coefficients_match_interpolation(psl3_twisted):
    # degree extraction agrees with evaluating at every k and interpolating
    ga, _, _, _ = psl3_twisted
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.integers(0, 3, size=7)
        y = rng.integers(0, 3, size=7)
        ops = [(ga.ad(ga.apply_alpha(y, t)), ga.ad(ga.apply_alpha(x, t))) for t in (1, 0)]
        pv = oracles.polyvec_apply(ops, oracles.PolyVec.constant(x, 3), max_degree=2)
        evals = np.stack([pv.eval_at(k) for k in range(3)])
        # Lagrange interpolation over GF(3): vandermonde solve per coordinate
        vand = np.array([[1, k, k * k] for k in range(3)], dtype=np.int64) % 3
        vinv = gfp.mat_inv(vand, 3)
        coeffs = (vinv @ evals) % 3
        for d in range(3):
            assert np.array_equal(coeffs[d], pv.coeff(d))


def test_polyvec_eval_matches_numeric_composition(psl3_twisted):
    # evaluating the formal composite at k agrees with substituting k first
    ga, _, _, _ = psl3_twisted
    rng = np.random.default_rng(13)
    for _ in range(15):
        x = rng.integers(0, 3, size=7)
        y = rng.integers(0, 3, size=7)
        ops = [(ga.ad(ga.apply_alpha(y, t)), ga.ad(ga.apply_alpha(x, t))) for t in (1, 0)]
        pv = oracles.polyvec_apply(ops, oracles.PolyVec.constant(x, 3), max_degree=2)
        for k in range(3):
            numeric = np.asarray(x, dtype=np.int64) % 3
            for m0, m1 in reversed(ops):
                numeric = ((m0 + k * m1) @ numeric) % 3
            assert np.array_equal(pv.eval_at(k), numeric)


def _operands(rng, p, shapes, top=False):
    """Reduced operands of the given shapes; top draws from the top 1/32
    of [0, p), so every sum of k products is above 0.9 k (p-1)^2."""
    return [rng.integers(p - p // 32 if top else 0, p, size=s) for s in shapes]


# Each shape small (int64 route) and at least gfp._FLOAT_MACS multiply-adds (float64 route).
_SHAPES = {"2-D": ([(4, 7), (7, 5)], [(40, 30), (30, 20)]), "batched": ([(3, 4, 7), (3, 7, 5)], [(6, 20, 20)] * 2),
           "broadcast": ([(6, 6), (4, 6, 6)], [(20, 20), (8, 20, 20)]),
           "matrix-vector": ([(4, 7), (7,)], [(300, 30), (30,)])}


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
@pytest.mark.parametrize("size", [0, 1], ids=["int64", "float64"])
@pytest.mark.parametrize("kind", list(_SHAPES))
def test_matmul_is_the_exact_product(p, size, kind):
    shapes = _SHAPES[kind][size]
    macs = np.matmul(*(np.zeros(s) for s in shapes)).size * shapes[0][-1]
    assert (macs >= gfp._FLOAT_MACS) == bool(size)
    rng = np.random.default_rng(p)
    a, b = _operands(rng, p, shapes, top=p > 5)
    out = gfp.matmul(a, b, p)
    assert out.dtype == np.int64 and out.min() >= 0 and out.max() < p
    assert np.array_equal(out, oracles.product_exact(p, a, b))


@pytest.mark.parametrize("p", [2, 5, 65521])
@pytest.mark.parametrize("kind", list(_SHAPES))
def test_matmul_reads_a_float64_operand_as_its_integers(p, kind):
    """An operand held as float64 integers in [0, p), as HomLieAlgebra keeps
    ad_batch's, gives the int64 operand's product on the float64 route."""
    a, b = _operands(np.random.default_rng(p), p, _SHAPES[kind][1], top=p > 5)
    want = gfp.matmul(a, b, p)
    for got in (gfp.matmul(a.astype(np.float64), b, p), gfp.matmul(a, b.astype(np.float64), p)):
        assert got.dtype == np.int64 and np.array_equal(got, want), kind


def test_ad_batch_keeps_a_float64_operand_only_for_the_float64_route():
    """HomLieAlgebra converts ad_batch's operand once where a product of one
    row with it has _FLOAT_MACS multiply-adds and k (p-1)^2 < 2^53: never
    for the fixtures' tiny tensors, nor at the largest prime of the guard."""
    from homext.algebra import HomLieAlgebra
    from homext.twist import build_psl3

    assert build_psl3().g._ad_mat.dtype == np.int64
    n, rng = 30, np.random.default_rng(31)
    for p, dtype in ((5, np.float64), (1239850223, np.int64)):
        c = rng.integers(0, p, (n, n, n))
        A = HomLieAlgebra(p, (c - c.transpose(1, 0, 2)) % p, gfp.eye(n))
        assert A._ad_mat.dtype == dtype and A._ad_mat.size >= gfp._FLOAT_MACS
        xs = rng.integers(0, p, (3, n))
        assert np.array_equal(A.ad_batch(xs), oracles.product_exact(p, xs, A.c.reshape(n, n * n)).reshape(3, n, n))


def test_matmul_keeps_stacks_of_tiny_matrices_on_int64(monkeypatch):
    """numpy calls BLAS once per matrix of a stack, which loses to int64 when
    the result matrices have at most gfp._STACK_TINY rows and columns: those
    stacks stay on int64 past _FLOAT_MACS, 4 x 4 ones and 2-D products do
    not.  The float64 route is the one that reduces through gfp.mod."""
    assert gfp._STACK_TINY == 3
    mod, routes = gfp.mod, []
    monkeypatch.setattr(gfp, "mod", lambda a, p: routes.append(a.shape) or mod(a, p))
    rng = np.random.default_rng(9)
    cases = [([(300, 3, 3), (300, 3, 3)], False), ([(2, 2), (3000, 2, 2)], False),
             ([(200, 1, 40), (200, 40, 1)], False), ([(300, 3, 40), (40,)], False),
             ([(300, 2, 7), (7, 3)], False), ([(300, 4, 4), (300, 4, 4)], True), ([(3, 4000), (4000, 3)], True)]
    for shapes, on_float in cases:
        assert np.matmul(*(np.zeros(s) for s in shapes)).size * shapes[0][-1] >= gfp._FLOAT_MACS, shapes
        for p in (3, 5):
            routes.clear()
            a, b = _operands(rng, p, shapes)
            assert np.array_equal(gfp.matmul(a, b, p), oracles.product_exact(p, a, b)), shapes
            assert bool(routes) == on_float, shapes


def test_matmul_takes_int64_where_float64_stops_being_exact():
    """Exact at k (p-1)^2 just below 2^53, the float64 route, and just
    above, where a float64 product rounds, so int64 must take over."""
    p = 33554393  # the largest prime below 2^25
    k = (2**53 - 1) // (p - 1) ** 2
    assert k * (p - 1) ** 2 < 2**53 <= (k + 1) * (p - 1) ** 2
    rng = np.random.default_rng(7)
    assert 40 * k * 40 >= gfp._FLOAT_MACS
    for inner in (k, k + 1):
        a, b = _operands(rng, p, [(40, inner), (inner, 40)], top=True)
        assert np.array_equal(gfp.matmul(a, b, p), oracles.product_exact(p, a, b)), inner
    rounded = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    assert not np.array_equal(rounded, oracles.product_exact(p, a, b))


def test_matmul_at_the_largest_prime_of_the_parse_guard():
    """bundle.parse accepts dim (p-1)^2 < 2^63: the largest such prime at
    dim 6 is exact at k = 6, on int64, and at k = 7, where int64 sums
    can wrap, on Python integers."""
    p, q = 1239850223, 1239850223 + 1
    while not gfp.is_prime(q):
        q += 1
    assert gfp.is_prime(p) and 6 * (p - 1) ** 2 < 2**63 <= 6 * (q - 1) ** 2
    rng = np.random.default_rng(8)
    for inner in (6, 7):
        for shapes in ([(4, inner), (inner, 3)], [(2, 4, inner), (inner, 3)], [(4, inner), (inner,)]):
            a, b = _operands(rng, p, shapes, top=True)
            out = gfp.matmul(a, b, p)
            assert out.dtype == np.int64 and out.min() >= 0 and out.max() < p
            assert np.array_equal(out, oracles.product_exact(p, a, b)), (inner, shapes)


def test_every_matrix_product_goes_through_gfp_matmul():
    """One product kernel: `@` and np.matmul occur in src/homext only in gfp.py."""
    src = pathlib.Path(gfp.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gfp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult) or (
                    isinstance(node, ast.Attribute) and node.attr == "matmul"
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


@pytest.mark.parametrize("call,message", [
    (lambda: gfp.asvec(np.zeros((2, 2)), 3), "expected a vector, got shape (2, 2)"),
    (lambda: gfp.asmat(np.zeros(3), 3), "expected a matrix, got shape (3,)"),
    (lambda: gfp.solve(gfp.eye(2), gfp.zeros(3), 3), "solve: shape mismatch"),
    (lambda: gfp.mat_inv(np.zeros((2, 3)), 3), "inverse needs a square matrix"),
])
def test_shape_guards_raise_dim_mismatch(call, message):
    with pytest.raises(DimMismatch) as exc:
        call()
    assert str(exc.value) == message
