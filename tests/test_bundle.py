import json
import math

import numpy as np
import oracles
import pytest

from homext import bundle, gfp
from homext.errors import ParseError


def heis_bundle(heis):
    return bundle.from_parts(
        heis.V, heis.B, heis.P, {"D": heis.D},
        extension=bundle.extension_dict("D", heis.ext, heis.pext),
    )


def test_emit_parse_roundtrip_identity(heis):
    text = bundle.emit(heis_bundle(heis))
    again = bundle.emit(bundle.parse(text))
    assert text == again
    assert text.endswith("\n")


def test_emit_canonicalizes_bracket_order(heis):
    b = heis_bundle(heis)
    b.brackets = list(reversed(b.brackets))
    text = bundle.emit(b)
    assert text == bundle.emit(bundle.parse(text))


def test_parse_reconstructs_domain_objects(heis):
    b = bundle.parse(bundle.emit(heis_bundle(heis)))
    A = b.algebra()
    assert np.array_equal(A.c, heis.V.c)
    assert np.array_equal(b.bilinear_form().gram, heis.B.gram)
    assert np.array_equal(b.pstructure(A).images, heis.P.images)
    name, d, pe = b.extension_data()
    assert name == "D"
    assert np.array_equal(d.D.mat, heis.D.mat)
    assert pe.xi == 1 and np.array_equal(pe.a0, gfp.unit(6, 2))


def test_psl3_bundle_roundtrip(psl3):
    b = bundle.from_parts(psl3.g, psl3.B, psl3.P, psl3.derivations, twist=psl3.twist)
    text = bundle.emit(b)
    b2 = bundle.parse(text)
    assert bundle.emit(b2) == text
    assert np.array_equal(b2.twist_data().alpha, psl3.twist.alpha)
    assert set(b2.derivations) == {"D1", "D2", "D3"}


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda d: d.update(version="0"), "version"),
        (lambda d: d.update(p=4), "prime"),
        (lambda d: d.update(p=2**64 + 13), r"below 2\^63"),  # a prime
        (lambda d: d["brackets"].append({"i": 1, "j": 0, "k": 2, "coeff": 1}), "i < j"),
        (lambda d: d["brackets"].append({"i": 0, "j": 1, "k": 2, "coeff": 5}), "coefficient"),
        (lambda d: d["brackets"].append(dict(d["brackets"][0])), "duplicate"),
        (lambda d: d.update(alpha=[[1, 0], [0, 1]]), "alpha"),
        (lambda d: d["extension"].pop("xi"), "xi"),
    ],
)
def test_parse_rejects_malformed(heis, mutate, msg):
    import json

    doc = json.loads(bundle.emit(heis_bundle(heis)))
    mutate(doc)
    with pytest.raises(ParseError, match=msg):
        bundle.parse(json.dumps(doc))


SCALARS = [
    (lambda d, v: d.update(p=v), "prime"),
    (lambda d, v: d.update(dim=v), "dim must be positive"),
    (lambda d, v: d["brackets"][0].update(i=v), "i < j"),
    (lambda d, v: d["brackets"][0].update(j=v), "i < j"),
    (lambda d, v: d["brackets"][0].update(k=v), "target"),
    (lambda d, v: d["brackets"][0].update(coeff=v), "coefficient"),
    (lambda d, v: d["derivations"]["D"].update(degree=v), "degree must be a nonnegative integer"),
    (lambda d, v: d["extension"].update({"lambda": v}), "extension lambda must be an integer"),
    (lambda d, v: d["extension"].update(beta=v), "extension beta must be an integer"),
]
MATRICES = [
    (lambda d, v: d["alpha"][0].__setitem__(0, v), "alpha entries"),
    (lambda d, v: d["form"][0].__setitem__(0, v), "form entries"),
    (lambda d, v: d["pmap"][0].__setitem__(0, v), "pmap entries"),
    (lambda d, v: d["derivations"]["D"]["matrix"][0].__setitem__(0, v), "derivation D entries"),
    (lambda d, v: d["extension"]["x0"].__setitem__(0, v), "extension x0 entries"),
]


@pytest.mark.parametrize("value", [1.5, "3", True])
def test_parse_accepts_only_json_integers(heis, value):
    """int() would read 1.5, "3" and true as 1, 3 and 1, and numpy casts a
    true among the integers of a matrix row to 1; parse rejects each with
    the field's own message."""
    for edit, msg in SCALARS + MATRICES:
        doc = json.loads(bundle.emit(heis_bundle(heis)))
        edit(doc, value)
        with pytest.raises(ParseError, match=msg):
            bundle.parse(json.dumps(doc))


def test_parse_rejects_a_matrix_entry_past_int64(heis):
    doc = json.loads(bundle.emit(heis_bundle(heis)))
    doc["alpha"][0][0] = 2**64
    with pytest.raises(ParseError, match="alpha entries"):
        bundle.parse(json.dumps(doc))


@pytest.mark.parametrize("p,prime", [(2147483647, True), (2147483649, False), (561, False), (41041, False),
                                     (3215031751, False), (10**16 + 61, True)])
def test_parse_tests_primality_up_to_the_square_root(heis, p, prime):
    # 2^31 - 1 is prime and 2^31 + 1 = 3 * 715827883; trial division up to
    # p itself needs minutes for the prime, and up to sqrt(p) about 9 s for
    # 10^16 + 61.  561, 41041 and 3215031751 are Carmichael numbers, which
    # pass the Fermat test to every coprime base.  A prime passes the test and
    # then, at dim 6, meets the int64 envelope (test_parse_int64_envelope).
    import json
    import time

    doc = json.loads(bundle.emit(heis_bundle(heis)))
    doc["p"] = p
    start = time.perf_counter()
    if prime:
        with pytest.raises(ParseError, match=r"dim \* \(p-1\)\^2 must be below 2\^63"):
            bundle.parse(json.dumps(doc))
    else:
        with pytest.raises(ParseError, match="p must be prime"):
            bundle.parse(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


def test_is_prime_matches_trial_division_below_1e5():
    import math

    def trial(p):
        return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))

    assert [gfp.is_prime(p) for p in range(-2, 10**5)] == [trial(p) for p in range(-2, 10**5)]


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        bundle.parse("{not json")


def test_from_parts_rejects_broken_tensor(heis):
    A = heis.V
    broken = A.c.copy()
    broken[2, 1, 0] = 1  # breaks antisymmetry against [1,2]
    from homext.algebra import HomLieAlgebra

    bad = HomLieAlgebra(2, broken, A.alpha, A.basis_names)
    with pytest.raises(ParseError):
        bundle.from_parts(bad)


def _fixture_algebras(request):
    heis, psl3, sl2 = (request.getfixturevalue(f) for f in ("heis", "psl3", "sl2"))
    out = {
        "heis V": heis.V,
        "heis L": request.getfixturevalue("heis_ext")[0],
        "psl3": psl3.g,
        "psl3_a": request.getfixturevalue("psl3_twisted")[0],
        "sl2 V": sl2.g,
        "sl2 L": request.getfixturevalue("sl2_ext")[0],
    }
    for name, pipe in request.getfixturevalue("psl3_pipelines").items():
        out[f"psl3 {name} L"] = pipe["L"]
    return out


def test_from_parts_brackets_match_loop(request):
    for name, A in _fixture_algebras(request).items():
        assert bundle.from_parts(A).brackets == oracles.bracket_entries_loop(A), name


@pytest.mark.parametrize("fixture,slot", [
    ("psl3", "antisymmetry"), ("psl3", "sign"), ("psl3", "diagonal"), ("heis", "diagonal"),
])
def test_from_parts_rejects_what_the_loop_rejects(request, fixture, slot):
    from homext.algebra import HomLieAlgebra

    fx = request.getfixturevalue(fixture)
    A = fx.g if fixture == "psl3" else fx.V
    c = A.c.copy()
    if slot == "antisymmetry":
        c[4, 2, 0] = (c[4, 2, 0] + 1) % A.p
    elif slot == "sign":
        c[1, 0] = c[0, 1]  # [e2, e1] = +[e1, e2]: antisymmetric only in char 2
    else:
        c[-1, -1, 0] = 1  # in char 2 only the alternating check sees it
    bad = HomLieAlgebra(A.p, c, A.alpha)
    assert A.alternating and not bad.alternating
    with pytest.raises(ParseError):
        oracles.bracket_entries_loop(bad)
    with pytest.raises(ParseError, match="^structure tensor is not alternating/antisymmetric$"):
        bundle.from_parts(bad)



def _largest_prime_below(bound):
    p = bound - 1
    while not gfp.is_prime(p):
        p -= 1
    return p


def _envelope_edge(dim):
    """The least q with dim * q^2 >= 2^63."""
    return math.isqrt((2**63 - 1) // dim) + 1


def _diagonal_doc(p, dim):
    return {"version": "1", "p": p, "dim": dim, "basis": [f"e{i}" for i in range(dim)],
            "brackets": [], "alpha": np.eye(dim, dtype=int).tolist()}


@pytest.mark.parametrize("dim", [1, 6, 40, 256])
def test_parse_int64_envelope(dim):
    """dim * (p-1)^2 < 2^63: the largest prime inside parses, the next prime
    up is rejected with a ParseError that names the limit."""
    inside = _largest_prime_below(_envelope_edge(dim) + 1)
    outside = inside + 1
    while not gfp.is_prime(outside):
        outside += 1
    assert dim * (inside - 1) ** 2 < 2**63 <= dim * (outside - 1) ** 2
    assert bundle.parse(json.dumps(_diagonal_doc(inside, dim))).p == inside
    with pytest.raises(ParseError, match=r"dim \* \(p-1\)\^2 must be below 2\^63"):
        bundle.parse(json.dumps(_diagonal_doc(outside, dim)))


def test_parse_rejects_dim_above_the_cap(tmp_path, capsys):
    from homext.cli import main

    assert bundle.MAX_DIM == 256
    assert bundle.parse(json.dumps(_diagonal_doc(2, 256))).dim == 256
    with pytest.raises(ParseError, match="dim must be at most 256"):
        bundle.parse(json.dumps(_diagonal_doc(2, 257)))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_diagonal_doc(2, 257)))
    assert main(["verify", str(path)]) == 2
    assert "dim must be at most 256" in capsys.readouterr().err


def test_parse_rejects_a_bundle_over_the_memory_limit(tmp_path, capsys):
    """verify_peak bounds verify's peak RSS from dim, the nonzero bracket
    pairs and the entries (README, "Memory").  sl16 over GF(5) and the 85
    block copies of sl2-gf5 (dim 255) are inside the limit; dim 256 with
    10,000 pairs (i, j), one entry each, is refused with exit 2, and the
    message names the limit."""
    from homext.cli import main

    assert bundle.PEAK_LIMIT == 2**30
    assert bundle.verify_peak(255, 8700, 4910) < bundle.PEAK_LIMIT  # sl16
    assert bundle.verify_peak(255, 510, 255) < bundle.PEAK_LIMIT  # 85 copies of sl2-gf5
    doc = _diagonal_doc(5, 256)
    iu, ju = np.triu_indices(256, 1)
    doc["brackets"] = [{"i": int(i), "j": int(j), "k": 0, "coeff": 1} for i, j in zip(iu[:10000], ju[:10000])]
    need = bundle.verify_peak(256, 20000, 10000)
    assert need > bundle.PEAK_LIMIT
    msg = (f"dim 256 with 20000 nonzero bracket pairs and 10000 entries needs {need >> 20} MB by verify's "
           f"memory model, over the 1024 MB limit")
    with pytest.raises(ParseError, match=msg):
        bundle.parse(json.dumps(doc))
    doc["brackets"] = doc["brackets"][:1000]  # 2,000 pairs: inside
    assert bundle.parse(json.dumps(doc)).dim == 256
    path = tmp_path / "dense.json"
    doc["brackets"] = [{"i": int(i), "j": int(j), "k": 0, "coeff": 1} for i, j in zip(iu[:10000], ju[:10000])]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {msg}"


def test_algebra_holds_one_tensor_on_sl12():
    """AlgebraBundle.algebra() freezes the tensor it builds and HomLieAlgebra
    adopts it, so construction holds one [n, n, n] tensor, not two: on sl12
    over GF(5) (dim 143, 22.3 MB) the tracemalloc peak is below 1.3 of it."""
    import tracemalloc

    from conftest import sl_n_bundle

    b = bundle.parse(sl_n_bundle(12, 5))
    tracemalloc.start()
    try:
        A = b.algebra()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.n == 143 and A.c.base is None and not A.c.flags.writeable
    assert peak < 1.3 * A.c.nbytes


def test_bilinear_form_sums_do_not_wrap():
    """eval and eval_batch reduce x @ gram before it meets y, and past the
    int64 envelope they run on Python integers.  The old x @ gram @ y gave
    4294912627 at p = 4294967311."""
    from homext.algebra import BilinearForm

    for p, n in ((4294967311, 3), (_largest_prime_below(_envelope_edge(3) + 1), 3), (2**31 - 1, 1), (5, 4)):
        rng = np.random.default_rng(p % 1000)
        gram = rng.integers(0, p, size=(n, n), dtype=np.int64)
        gram[0] = p - 1
        xs = rng.integers(0, p, size=(20, n), dtype=np.int64)
        ys = rng.integers(0, p, size=(20, n), dtype=np.int64)
        xs[0] = ys[0] = p - 1
        B = BilinearForm(gram, p)
        want = [sum(int(x[i]) * int(gram[i, j]) * int(y[j]) for i in range(n) for j in range(n)) % p
                for x, y in zip(xs, ys)]
        assert B.eval_batch(xs, ys).tolist() == want, p
        assert [B.eval(x, y) for x, y in zip(xs, ys)] == want, p
    full = BilinearForm(np.full((3, 3), 4294967310), 4294967311)
    assert full.eval([4294967310] * 3, [4294967310] * 3) == 4294967302
