"""bundle.emit and bundle.dumps against the stdlib encoder, byte for byte.

json.dumps(indent=2) runs the pure-Python encoder, so bundle.dumps joins
the strings itself; oracles.emit_stdlib is the emit that went through
json.dumps.  parse reads matrix entries through itertools.chain; its
ParseError messages are pinned for every malformed shape.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracles
from homext import bundle, cli, gfp
from homext.algebra import BilinearForm, Derivation, HomLieAlgebra, verify_hom_lie
from homext.errors import ParseError
from homext.report import Report
from homext.restricted import PStructure, verify_pstructure

P61 = 2**61 - 1  # a Mersenne prime


def _bundles(heis, heis_ext, psl3, psl3_twisted, psl3_pipelines, sl2, sl2_ext, sampled_p5, wide_char2):
    out = {
        "heisenberg-dual": bundle.from_parts(heis.V, heis.B, heis.P, {"D": heis.D},
                                             extension=bundle.extension_dict("D", heis.ext, heis.pext)),
        "heisenberg-dual L": bundle.from_parts(*heis_ext),
        "psl3": bundle.from_parts(psl3.g, psl3.B, psl3.P, psl3.derivations, twist=psl3.twist),
        "psl3 twisted": bundle.from_parts(*psl3_twisted[:3], psl3_twisted[3]),
        "sl2-gf5": bundle.from_parts(sl2.g, sl2.B, sl2.P, {"D": sl2.D},
                                     extension=bundle.extension_dict("D", sl2.ext, sl2.pext)),
        "sl2-gf5 L": bundle.from_parts(*sl2_ext),
    }
    for name in ("D1", "D3"):
        run = psl3_pipelines[name]
        out[f"psl3 {name} L"] = bundle.from_parts(run["L"], run["B_L"], run["P_L"])
    for name, gen in (("sampled-p5", sampled_p5), ("wide-char2", wide_char2)):
        out[name] = bundle.from_parts(gen["V"], gen["B"], gen["P"], {"D": gen["D"]},
                                      extension=bundle.extension_dict("D", gen["ext"], gen["pe"]))
        out[f"{name} L"] = bundle.from_parts(gen["L"], gen["B_L"], gen["P_L"])
    A = HomLieAlgebra.from_upper(3, 3, {(0, 1): gfp.unit(3, 2)}, basis_names=['h"1', "x\\y", "é☃\t"])
    out["odd names, no derivations"] = bundle.from_parts(A, BilinearForm(gfp.eye(3), 3), derivations={})
    out["algebra only"] = bundle.from_parts(A)
    n = 2
    near = np.array([[P61 - 1, 0], [1, P61 - 2]], dtype=np.int64)
    out["p = 2^61 - 1"] = bundle.AlgebraBundle(
        p=P61, dim=n, basis=["a", "b"], brackets=[(0, 1, 1, P61 - 1), (0, 1, 0, 2**60)], alpha=near,
        form=near.T.copy(), pmap=near, derivations={"big": Derivation(near, P61, 7), "zero": Derivation(0 * near, P61)},
        twist=near, extension={"derivation": "big", "x0": [P61 - 1, 0], "lambda": P61 - 3, "lambda0": 0,
                               "xi": 1, "a0": [0, 1], "m": P61 - 1, "l": 0, "u0": [2**60, 1], "P_basis": [0, 0]},
    )
    return out


@pytest.fixture(scope="module")
def bundles(heis, heis_ext, psl3, psl3_twisted, psl3_pipelines, sl2, sl2_ext, sampled_p5, wide_char2):
    return _bundles(heis, heis_ext, psl3, psl3_twisted, psl3_pipelines, sl2, sl2_ext, sampled_p5, wide_char2)


def test_emit_equals_the_stdlib_encoder(bundles):
    assert len(bundles) == 15
    for name, b in bundles.items():
        text = bundle.emit(b)
        assert text == oracles.emit_stdlib(b), name
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name
        if b.p < 2**31:  # parse caps dim * (p - 1)^2 below 2^63
            assert bundle.emit(bundle.parse(text)) == text, name


def test_emit_of_python_lists_and_absent_parts():
    """A bundle built by hand with list matrices writes as the int64 arrays would."""
    b = bundle.AlgebraBundle(p=5, dim=2, basis=["u", "v"], brackets=[], alpha=[[1, 0], [0, 1]],
                             form=[[0, 1], [1, 0]])
    assert bundle.emit(b) == oracles.emit_stdlib(b)
    assert '"brackets": [],' in bundle.emit(b) and '"derivations": {},' in bundle.emit(b)


def test_fixture_command_output_is_canonical():
    for name in ("heisenberg-dual", "psl3", "sl2-gf5"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["fixture", name]) == 0
        text = out.getvalue()
        assert text == oracles.emit_stdlib(bundle.parse(text)), name


def _reports(heis, psl3):
    broken = PStructure(heis.V, (heis.P.images + gfp.unit(6, 0)[:, None]) % 2)
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2] = 1  # not antisymmetric
    rep = Report(file="é.json", seed=7, samples=None, ratio=0.5, nan=float("nan"), flag=True,
                 regimes={"r1": "sampled"}, empty={}, none=None)
    rep.merge(verify_hom_lie(HomLieAlgebra(3, c, gfp.eye(3))))
    rep.record("text", False, ("x", 1), lhs="nonzero", rhs=[])
    return {"broken p-map": verify_pstructure(broken), "psl3 exhaustive": verify_pstructure(psl3.P),
            "mixed": rep, "empty": Report()}


def test_report_dumps_equal_the_stdlib_encoder(heis, psl3):
    reports = _reports(heis, psl3)
    assert not reports["broken p-map"].ok and reports["broken p-map"].failing()[0].failures
    for name, rep in reports.items():
        doc = rep.to_dict()
        assert bundle.dumps(doc) == json.dumps(doc, indent=2), name


def test_dumps_of_json_values():
    for value in ([], {}, [[]], [{}], "", " \x00\"", -(2**70), 1e300, -0.0, [None, True, False],
                  {"a": [1, [2, [3]]], "b": {"c": []}}, (1, 2), np.zeros((0, 3), dtype=np.int64),
                  np.arange(6, dtype=np.int64).reshape(1, 2, 3)):
        want = json.dumps(value.tolist() if isinstance(value, np.ndarray) else value, indent=2)
        assert bundle.dumps(value) == want, value
    with pytest.raises(TypeError):
        bundle.dumps([np.int64(1)])  # json.dumps rejects numpy scalars too


def _doc(heis):
    return json.loads(bundle.emit(bundle.from_parts(heis.V, heis.B, heis.P, {"D": heis.D},
                                                    extension=bundle.extension_dict("D", heis.ext, heis.pext))))


SHAPES = {
    "deep": lambda m: [[[v] for v in row] for row in m],
    "ragged": lambda m: [m[0][:-1]] + m[1:],
    "long row": lambda m: [m[0] + [0]] + m[1:],
    "short": lambda m: m[:-1],
    "flat": lambda m: [row[0] for row in m],
    "empty": lambda m: [],
    "empty rows": lambda m: [[] for _ in m],
    "string": lambda m: "abc",
    "number": lambda m: 5,
    "object": lambda m: {"a": 1},
}
ENTRIES = {"float": 1.5, "string": "3", "bool": True, "null": None, "negative": -1, "past int64": 2**64,
           "p": 2, "list": [0], "object": {"a": 1}}


@pytest.mark.parametrize("key", ["alpha", "form", "pmap"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_parse_shape_messages(heis, key, shape):
    doc = _doc(heis)
    doc[key] = SHAPES[shape](doc[key])
    msg = "pmap must be one image row per basis vector" if key == "pmap" else f"{key} must be dim x dim"
    with pytest.raises(ParseError) as exc:
        bundle.parse(json.dumps(doc))
    assert str(exc.value) == msg


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_parse_entry_messages(heis, entry):
    for key, label in (("alpha", "alpha"), ("form", "form"), ("pmap", "pmap")):
        doc = _doc(heis)
        doc[key][1][2] = ENTRIES[entry]
        with pytest.raises(ParseError) as exc:
            bundle.parse(json.dumps(doc))
        assert str(exc.value) == f"{label} entries must be integers in [0, 2)", (key, entry)
    doc = _doc(heis)
    doc["derivations"]["D"]["matrix"][0][0] = ENTRIES[entry]
    with pytest.raises(ParseError, match=r"^derivation D entries must be integers in \[0, 2\)$"):
        bundle.parse(json.dumps(doc))
    doc = _doc(heis)
    doc["extension"]["x0"][3] = ENTRIES[entry]
    with pytest.raises(ParseError, match=r"^extension x0 entries must be integers in \[0, 2\)$"):
        bundle.parse(json.dumps(doc))


def test_parse_vector_shape_messages(heis):
    for value in ([0] * 5, [[0]] * 6, [[0, 0]] * 6, "x", 3, {}):
        doc = _doc(heis)
        doc["extension"]["a0"] = value
        with pytest.raises(ParseError, match="^extension a0 must have length dim$"):
            bundle.parse(json.dumps(doc))


def test_parse_arrays_are_int64_copies(heis):
    b = bundle.parse(json.dumps(_doc(heis)))
    for m in (b.alpha, b.form, b.pmap, b.derivations["D"].mat):
        assert m.dtype == np.int64 and m.shape == (6, 6) and m.flags.writeable
    assert np.array_equal(b.pmap, heis.P.images)


def test_algebra_of_a_hand_built_bundle_checks_its_bracket_indices():
    """algebra() fills c from the bracket list; an index pair outside
    0 <= i < j < dim is refused, as parse refuses it in a file."""
    for i, j in ((1, 0), (1, 1), (-1, 1), (0, 2)):
        b = bundle.AlgebraBundle(p=3, dim=2, basis=["u", "v"], brackets=[(i, j, 0, 1)], alpha=gfp.eye(2))
        with pytest.raises(ParseError, match=r"^brackets must satisfy 0 <= i < j < dim$"):
            b.algebra()
    b = bundle.AlgebraBundle(p=3, dim=2, basis=["u", "v"], brackets=[(0, 1, 0, 4), (0, 1, 1, -1)], alpha=gfp.eye(2))
    assert b.algebra().c.tolist() == [[[0, 0], [1, 2]], [[2, 1], [0, 0]]]
