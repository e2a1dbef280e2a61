import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from homext import bundle, cli, gfp
from homext.algebra import BilinearForm, HomLieAlgebra
from homext.cli import main
from homext.doubleext import EXTENSION_SAMPLES, DoubleExtensionData
from homext.restricted import PStructure
from homext.rng import DEFAULT_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_and_verify_heisenberg(tmp_path, capsys):
    path = tmp_path / "v.json"
    code, out, err = run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["ok"] is True
    assert doc["meta"]["seed"] == 0xD0B1E
    assert doc["meta"]["mode"] == "exhaustive"


def test_verify_exit_one_on_corruption(tmp_path, capsys):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    b = bundle.parse(path.read_text())
    b.brackets = [
        (i, j, k, c if (i, j, k) != (0, 1, 2) else 0) for (i, j, k, c) in b.brackets
    ]
    b.brackets = [(i, j, k, c) for (i, j, k, c) in b.brackets if c]
    path.write_text(bundle.emit(b))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    doc = json.loads(out)
    failing = {c["name"] for c in doc["checks"] if c["status"] == "fail"}
    assert failing  # at least one named axiom pinpoints the damage
    named = [c for c in doc["checks"] if c["status"] == "fail" and c["failures"]]
    assert any(c["failures"][0]["witness"] for c in named)


def test_verify_exit_two_on_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2


def test_extend_then_verify(tmp_path, capsys):
    v = tmp_path / "v.json"
    L = tmp_path / "L.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    code, _, _ = run(capsys, "extend", str(v), "--out", str(L))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(L))
    assert code == 0
    assert bundle.parse(L.read_text()).dim == 8


def test_p_extend_reduce_roundtrip_bit_exact(tmp_path, capsys, heis):
    """heisenberg-dual, and the same with "beta": 1, which L's form carries
    as B(e*, e*) and reduce hands back to p-extend."""
    for beta in (0, 1):
        v, L, v2, L2 = (tmp_path / f"{name}{beta}.json" for name in ("v", "L", "v2", "L2"))
        run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
        if beta:
            d = DoubleExtensionData(heis.D, heis.ext.x0, heis.ext.lam, heis.ext.lam0, beta)
            v.write_text(bundle.emit(bundle.from_parts(heis.V, heis.B, heis.P, {"D": heis.D},
                                                       extension=bundle.extension_dict("D", d, heis.pext))))
        assert run(capsys, "p-extend", str(v), "--out", str(L))[0] == 0
        assert json.loads(L.read_text())["form"][0][0] == beta
        assert run(capsys, "reduce", str(L), "--out", str(v2))[0] == 0
        assert run(capsys, "p-extend", str(v2), "--out", str(L2))[0] == 0
        assert L.read_text() == L2.read_text()
        assert v.read_text() == v2.read_text()


def test_reduce_rejects_noncentral_index(tmp_path, capsys):
    v = tmp_path / "v.json"
    L = tmp_path / "L.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    code, out, err = run(capsys, "reduce", str(L), "--center-index", "1")
    assert code == 1
    assert "NotCentral" in err


def test_twist_pipeline_psl3(tmp_path, capsys):
    src = tmp_path / "psl3.json"
    tw = tmp_path / "psl3a.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    code, out, err = run(capsys, "twist", str(src), "--out", str(tw))
    assert code == 0
    assert "dropping derivation D1" in err
    b = bundle.parse(tw.read_text())
    assert set(b.derivations) == {"D2", "D3"}
    assert b.extension is not None and b.extension["derivation"] == "D3"
    code, out, err = run(capsys, "verify", str(tw), "--samples", "150")
    assert code == 0


FIXTURE_SHA256 = {
    "heisenberg-dual": "92c612b7be47ad99f039f5da29090ec40c92a336c3359e638a4b54dc543007ef",
    "psl3": "d401648eed698e076b8678cf6462d4331df472e150bd7139fc26edfd1e008c41",
    "sl2-gf5": "6f49724bdbb7788848fcf03ca2635b56fb7dee857bebe94076f52f986c79b8bc",
}
PSL3_TWIST_SHA256 = "0b393bc9cf0bf11e628d9ce0e4601b7f461994cee15b9daac52555fdb8206861"


def test_fixture_and_twist_bytes_are_pinned(tmp_path, capsys):
    """The fixture bundles are literal tables: their bytes, and those of the
    twisted psl3 bundle, are pinned by sha256 (as CI pins the console script's)."""
    for name, digest in FIXTURE_SHA256.items():
        code, out, _ = run(capsys, "fixture", name)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, name
    src = tmp_path / "psl3.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    code, out, _ = run(capsys, "twist", str(src))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == PSL3_TWIST_SHA256


def test_unknown_fixture_is_refused_with_the_names_in_order(capsys):
    """`homext fixture` offers twist.FIXTURES' names, in their order."""
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "nope"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "homext fixture: error: argument name: invalid choice: 'nope' (choose from 'heisenberg-dual', 'psl3', 'sl2-gf5')")


def test_extension_with_unknown_derivation_is_a_parse_error(tmp_path, capsys, monkeypatch):
    """bundle.parse rejects an extension that names no derivation of the
    bundle, so each command that reads it exits 2 before any check runs."""
    path = tmp_path / "psl3.json"
    run(capsys, "fixture", "psl3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["extension"]["derivation"] = "X"
    path.write_text(json.dumps(doc))
    calls, real = [], cli.verify_hom_lie
    monkeypatch.setattr(cli, "verify_hom_lie", lambda *args: calls.append(args) or real(*args))
    for command in ("verify", "extend", "p-extend", "twist"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "error: extension refers to unknown derivation 'X'" in err, command
    assert calls == []


def test_twisted_p_extend_verifies(tmp_path, capsys):
    src = tmp_path / "psl3.json"
    tw = tmp_path / "psl3a.json"
    L = tmp_path / "gl3a.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    run(capsys, "twist", str(src), "--out", str(tw))
    assert run(capsys, "p-extend", str(tw), "--out", str(L))[0] == 0
    b = bundle.parse(L.read_text())
    assert b.dim == 9 and b.pmap is not None
    code, out, _ = run(capsys, "verify", str(L), "--samples", "120")
    assert code == 0


def test_verify_exhaustive_reports_sampled_r3(tmp_path, capsys, psl3_null):
    # psl(3) + two null lines (alpha singular, so R1 and R3 walk their domain):
    # 3^9 vectors fit the exhaustive limit but 3^18 pairs do not, so R1 is
    # exhaustive, R3 is sampled and the report must say so
    src = tmp_path / "psl3null.json"
    src.write_text(bundle.emit(bundle.from_parts(psl3_null[0], psl3_null[1], psl3_null[2])))
    code, out, _ = run(capsys, "verify", str(src), "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["regimes"] == {"r1": "exhaustive", "r2": "implied", "r3": "sampled"}
    assert doc["meta"]["mode"] == "sampled"
    r3 = next(c for c in doc["checks"] if c["name"] == "r3")
    assert r3["passed"] == 30
    # psl(3) itself has alpha = id: decided on the basis, over the same sizes
    src = tmp_path / "psl3.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    code, out, _ = run(capsys, "verify", str(src), "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["regimes"] == {"r1": "basis", "r2": "implied", "r3": "implied",
                                      "extension.P_additivity": "implied", "extension.P_homogeneity": "implied"}
    assert doc["meta"]["mode"] == "sampled"
    counts = {c["name"]: c["passed"] for c in doc["checks"] if c["name"] in ("r1", "r2", "r3")}
    assert counts == {"r1": 3**7, "r2": 3**8, "r3": 30}


def test_verify_decides_past_the_limit_on_the_basis(tmp_path, capsys):
    # 2^17 vectors exceed the exhaustive limit, but alpha = id makes the
    # abelian GF(2)^17 a Yau twist: its basis decides R1, R2 and R3
    n = 17
    A = HomLieAlgebra(2, np.zeros((n, n, n), dtype=np.int64), gfp.eye(n))
    path = tmp_path / "abelian.json"
    path.write_text(bundle.emit(bundle.from_parts(A, BilinearForm(gfp.eye(n), 2), PStructure(A, np.zeros((n, n))))))
    code, out, _ = run(capsys, "verify", str(path), "--samples", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["regimes"] == {"r1": "basis", "r2": "implied", "r3": "implied"}
    assert doc["meta"]["mode"] == "sampled"


def test_solve_p_property_cli(tmp_path, capsys):
    src = tmp_path / "psl3.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    code, out, err = run(capsys, "solve-p-property", str(src), "--derivation", "D3")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["xi"] == 1
    assert doc["witness"]["a0"] == [0] * 7


def test_isom_check_identity(tmp_path, capsys):
    v = tmp_path / "v.json"
    L = tmp_path / "L.json"
    mp = tmp_path / "map.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    mp.write_text(json.dumps({"pi": np.eye(8, dtype=int).tolist()}))
    code, out, err = run(capsys, "isom-check", str(L), str(L), "--map", str(mp))
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["direct_verdict"] == "pass"
    assert doc["meta"]["theorem_verdict"] == "pass"


def test_isom_check_checks_the_bracket_once_and_decides_on_the_basis(tmp_path, capsys, monkeypatch):
    """verify_restricted_iso reads pi's hypotheses from the report
    verify_adapted_iso keeps on L, so isom-check runs one bracket_sides of
    pi; the identity of the sl2 over GF(1009) extension is decided on the
    basis."""
    from homext import isom

    v, L, mp = tmp_path / "v.json", tmp_path / "L.json", tmp_path / "map.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(v))
    doc = json.loads(v.read_text())
    p = doc["p"] = 1009
    doc["brackets"] = [{"i": 0, "j": 1, "k": 0, "coeff": p - 2}, {"i": 0, "j": 2, "k": 1, "coeff": 1},
                       {"i": 1, "j": 2, "k": 2, "coeff": p - 2}]
    doc["derivations"]["D"]["matrix"] = [[2, 0, 0], [0, 0, 0], [0, 0, p - 2]]
    v.write_text(json.dumps(doc))
    assert run(capsys, "p-extend", str(v), "--out", str(L))[0] == 0
    mp.write_text(json.dumps({"pi": np.eye(5, dtype=int).tolist()}))
    calls, real = [], isom.bracket_sides
    monkeypatch.setattr(isom, "bracket_sides", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "isom-check", str(L), str(L), "--map", str(mp))
    doc = json.loads(out)
    assert code == 0 and len(calls) == 1
    assert doc["meta"]["direct_verdict"] == doc["meta"]["theorem_verdict"] == "pass"
    assert doc["meta"]["regimes"] == {"direct": "basis", "theorem": "basis"}


def test_verify_checks_each_derivation_on_the_basis_once(tmp_path, capsys, monkeypatch):
    """homext verify asks for the restricted-derivation check of the
    extension's derivation twice, for D.restricted and in the extension
    hypotheses; its basis defect is computed once per derivation."""
    from homext import restricted

    calls, real = [], restricted.restricted_defect_batch

    def counted(A, D, xs, images):
        if np.array_equal(xs, gfp.eye(A.n)):
            calls.append(D.mat.tobytes())
        return real(A, D, xs, images)

    monkeypatch.setattr(restricted, "restricted_defect_batch", counted)
    for name, count in (("heisenberg-dual", 1), ("psl3", 3), ("sl2-gf5", 1)):
        path = tmp_path / f"{name}.json"
        run(capsys, "fixture", name, "--out", str(path))
        calls.clear()
        code, out, _ = run(capsys, "verify", str(path))
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert code == 0 and checks["extension.restricted_derivation"] == "pass"
        assert len(calls) == len(set(calls)) == count, name


def test_isom_check_detects_flag_violation(tmp_path, capsys):
    v = tmp_path / "v.json"
    L = tmp_path / "L.json"
    mp = tmp_path / "map.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    pi = np.eye(8, dtype=int)
    pi[[0, 7]] = pi[[7, 0]]
    mp.write_text(json.dumps({"pi": pi.tolist()}))
    code, out, err = run(capsys, "isom-check", str(L), str(L), "--map", str(mp))
    assert code == 1


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    monkeypatch.setenv("HOMEXT_SEED", "0x123")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 0x123


def test_malformed_seed_env_is_a_parse_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    monkeypatch.setenv("HOMEXT_SEED", "abc")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: HOMEXT_SEED must be an integer, got 'abc'\n"


def test_malformed_seed_option_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    for argv in (["verify", str(path)], ["p-extend", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: seed must be an integer, got 'abc'\n"), err


def test_fixture_sl2_verifies(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0


def test_samples_below_one_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    for value in ("0", "-5"):
        for argv in (("verify", str(path)), ("p-extend", str(path))):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--samples", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--samples" in err and "at least 1" in err


def test_p_extend_passes_samples_to_the_extension_checks(tmp_path, capsys, monkeypatch):
    """p-extend --samples reaches check_p_extension_data (default 100), and
    the written bundle does not depend on it when the checks pass."""
    from homext import doubleext

    seen = []
    check = doubleext.check_p_extension_data

    def spy(*args, **kwargs):
        seen.append((kwargs["samples"], kwargs["seed"]))
        return check(*args, **kwargs)

    monkeypatch.setattr(doubleext, "check_p_extension_data", spy)
    v = tmp_path / "v.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(v))
    outs = []
    for extra in ([], ["--samples", "7"], ["--samples", "7", "--seed", "3"]):
        out = tmp_path / f"L{len(outs)}.json"
        assert run(capsys, "p-extend", str(v), "--out", str(out), *extra)[0] == 0
        outs.append(out.read_text())
    assert seen == [(100, 0xD0B1E), (7, 0xD0B1E), (7, 3)]
    assert outs[0] == outs[1] == outs[2]


def _edited(tmp_path, capsys, fixture, name, edit):
    """Write `fixture`, apply edit(doc) to its JSON and return the new path."""
    path = tmp_path / f"{name}.json"
    run(capsys, "fixture", fixture, "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_verify_reports_how_P_additivity_was_checked(tmp_path, capsys):
    """The verify report names the regimes of the extension checks: implied
    on the three fixtures (p = 2 by D-invariance, p = 3 and 5 because V + Ke
    is a Yau twist), sampled and failing once heisenberg-dual's D leaves
    B not D-invariant.  On sl2-gf5, lambda = 2 fails the extension
    hypotheses but leaves P_additivity implied, since V + Ke reads no
    lambda; D = E11 makes V + Ke no Hom-Lie algebra, and P_additivity is
    sampled and fails."""
    for fixture in ("heisenberg-dual", "psl3", "sl2-gf5"):
        path = tmp_path / f"{fixture}.json"
        run(capsys, "fixture", fixture, "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        regimes = json.loads(out)["meta"]["regimes"]
        assert code == 0 and regimes["extension.P_additivity"] == "implied", fixture
        assert regimes["extension.P_homogeneity"] == "implied", fixture
    path = _edited(tmp_path, capsys, "heisenberg-dual", "skew",
                   lambda doc: doc["derivations"]["D"]["matrix"][0].__setitem__(0, 0))
    code, out, _ = run(capsys, "verify", str(path))
    doc = json.loads(out)
    checks = {c["name"]: c["status"] for c in doc["checks"]}
    assert code == 1 and doc["meta"]["regimes"]["extension.P_additivity"] == "sampled"
    assert checks["extension.P_additivity"] == checks["extension.d_invariant"] == "fail"
    for name, edit, regime in (
        ("lam2", lambda doc: doc["extension"].update({"lambda": 2}), "implied"),
        ("e11", lambda doc: doc["derivations"]["D"].update(matrix=[[1, 0, 0], [0, 0, 0], [0, 0, 0]]), "sampled"),
    ):
        code, out, _ = run(capsys, "verify", str(_edited(tmp_path, capsys, "sl2-gf5", name, edit)))
        doc = json.loads(out)
        check = next(c for c in doc["checks"] if c["name"] == "extension.P_additivity")
        assert code == 1 and doc["meta"]["regimes"]["extension.P_additivity"] == regime, name
        assert ((check["passed"], check["failed"]) == (100, 0)) if regime == "implied" else check["failed"] > 0, name


def test_negative_derivation_degree_is_a_parse_error(tmp_path, capsys):
    # a float, a string and a bool are not JSON integers, whatever int() makes of them
    for degree in (-1, 1.5, "3", True):
        path = _edited(tmp_path, capsys, "heisenberg-dual", "neg",
                       lambda doc: doc["derivations"]["D"].update(degree=degree))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == "", degree
        assert err == "error: derivation D degree must be a nonnegative integer\n", degree


def test_huge_derivation_degree_verifies_in_under_a_second(tmp_path, capsys):
    """alpha^k comes from repeated squaring, so k = 10^9 costs 30 squarings."""
    path = _edited(tmp_path, capsys, "heisenberg-dual", "big",
                   lambda doc: doc["derivations"]["D"].update(degree=10**9))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0  # alpha is an involution, so alpha^(10^9) = id
    leibniz = next(c for c in json.loads(out)["checks"] if c["name"] == "D.leibniz")
    assert leibniz["status"] == "pass" and leibniz["passed"] == 36


def test_rejected_extension_data_prints_the_rejecting_report(tmp_path, capsys):
    path = _edited(tmp_path, capsys, "heisenberg-dual", "lam0",
                   lambda doc: doc["extension"].update({"lambda": 0}))
    code, out, err = run(capsys, "p-extend", str(path))
    assert code == 1
    assert err.startswith("precondition failed: double extension data rejected\n")
    assert "[FAIL] lambda_D_plus_ad_x0" in err
    failing = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failing == ["lambda_D_plus_ad_x0"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "{psl3}", "--exhaustive"], "unrecognized arguments: --exhaustive"),
    (["p-extend", "{psl3}", "--derivation", "D3"], "unrecognized arguments: --derivation D3"),
    (["extend", "{L}"], "bundle carries no extension data"),
    (["reduce", "{L}", "--center-index", "9"], "center index out of range"),
    (["isom-check", "{L}", "{L}", "--map", "{missing}"], "cannot read map file: "),
    (["isom-check", "{noform}", "{noform}", "--map", "{id}"], "isom-check needs quadratic bundles"),
    (["p-extend", "{beta}"], "extension beta = B(e*, e*) must be 0 for odd p"),
    (["verify", "{missing}"], "cannot read /"),
    (["extend", "{noform}"], "extend needs a quadratic bundle (form missing)"),
    (["p-extend", "{noform}"], "p-extend needs form and pmap"),
    (["reduce", "{noform}"], "reduce needs form and pmap"),
    (["twist", "{L}"], "twist needs form and a twist matrix"),
    (["solve-p-property", "{psl3}", "--derivation", "D9"], "no derivation named 'D9'"),
])
def test_usage_errors_exit_two_with_their_reason(tmp_path, capsys, argv, message):
    paths = {"psl3": tmp_path / "psl3.json", "L": tmp_path / "L.json", "id": tmp_path / "id.json",
             "missing": tmp_path / "missing.json"}
    run(capsys, "fixture", "psl3", "--out", str(paths["psl3"]))
    run(capsys, "p-extend", str(paths["psl3"]), "--out", str(paths["L"]))
    paths["id"].write_text(json.dumps({"pi": np.eye(7, dtype=int).tolist()}))
    paths["noform"] = _edited(tmp_path, capsys, "psl3", "noform", lambda doc: doc.update(form=None))
    paths["beta"] = _edited(tmp_path, capsys, "psl3", "beta", lambda doc: doc["extension"].update(beta=1))
    try:
        code, out, err = run(capsys, *[a.format(**{k: str(v) for k, v in paths.items()}) for a in argv])
    except SystemExit as exc:  # argparse's own usage errors: the usage line, then the error
        code, (out, err) = exc.code, capsys.readouterr()
        assert err.startswith("usage: homext ")
        err = err.splitlines()[-1].removeprefix("homext: ")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_solve_p_property_without_witness_exits_one(tmp_path, capsys):
    """D = J_2(1) + 0 on sl2-gf5: D^5 = diag(1, 1, 0) would need xi = 0 (the
    (E, H) entry of D is 1) and then ad(a0) = diag(1, 1, 0) with D(a0) = 0."""
    path = _edited(tmp_path, capsys, "sl2-gf5", "jordan",
                   lambda doc: doc["derivations"]["D"].update(matrix=[[1, 1, 0], [0, 1, 0], [0, 0, 0]]))
    code, out, err = run(capsys, "solve-p-property", str(path), "--derivation", "D")
    assert code == 1
    assert json.loads(out) == {"witness": None}
    assert err == "no p-property witness\n"


def test_twist_drops_the_extension_of_a_dropped_derivation(tmp_path, capsys):
    path = _edited(tmp_path, capsys, "psl3", "ext-d1", lambda doc: doc["extension"].update(derivation="D1"))
    code, out, err = run(capsys, "twist", str(path))
    assert code == 0
    assert err == "dropping derivation D1: does not commute with the twist\n"
    b = bundle.parse(out)
    assert set(b.derivations) == {"D2", "D3"} and b.extension is None


def test_samples_that_are_not_an_integer_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--samples", "abc"])
    assert exc.value.code == 2
    assert "argument --samples: invalid int value: 'abc'" in capsys.readouterr().err


def _diag_map(n, value):
    pi = np.eye(n, dtype=int).tolist()
    pi[0][0] = value
    return {"pi": pi}


@pytest.mark.parametrize("doc,message", [
    (_diag_map(8, 1.5), "pi entries must be integers in [0, 2)"),
    ({"pi": [[i == j for j in range(8)] for i in range(8)]}, "pi entries must be integers in [0, 2)"),
    (_diag_map(8, 3), "pi entries must be integers in [0, 2)"),
    (_diag_map(8, 2**64), "pi entries must be integers in [0, 2)"),
    (_diag_map(8, -1), "pi entries must be integers in [0, 2)"),
    ({"pi": np.eye(9, dtype=int).tolist()}, "pi must be dim x dim"),
    ({"pi": [[1] * 8] * 7}, "pi must be dim x dim"),
    ([1], "map file must hold a JSON object"),
    ({"map": []}, "map file missing field 'pi'"),
    ({}, "map file missing field 'pi'"),
])
def test_isom_check_map_is_read_as_bundle_entries(tmp_path, capsys, doc, message):
    """pi is dim x dim with JSON integers in [0, p): a 1.5, a true or a 3 is not
    read as 1, and a wrong shape or an entry past int64 is a parse error."""
    v, L, mp = tmp_path / "v.json", tmp_path / "L.json", tmp_path / "map.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    mp.write_text(json.dumps(doc))
    code, out, err = run(capsys, "isom-check", str(L), str(L), "--map", str(mp))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_isom_check_refuses_bundles_of_another_p_or_dim(tmp_path, capsys):
    v, L, s, mp = (tmp_path / f"{n}.json" for n in ("v", "L", "s", "map"))
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    run(capsys, "fixture", "psl3", "--out", str(s))  # p = 3
    mp.write_text(json.dumps({"pi": np.eye(8, dtype=int).tolist()}))
    psl3_dim8 = _edited(tmp_path, capsys, "psl3", "psl3-8", lambda doc: doc.update(
        dim=8, basis=doc["basis"] + ["z"], alpha=np.eye(8, dtype=int).tolist(),
        form=None, pmap=None, derivations={}, twist=None, extension=None))
    for a, b, message in [
        (L, psl3_dim8, "isom-check needs bundles of one p, got 2 and 3"),
        (L, v, "isom-check needs bundles of one dim, got 8 and 6"),
        (v, L, "isom-check needs bundles of one dim, got 6 and 8"),
    ]:
        code, out, err = run(capsys, "isom-check", str(a), str(b), "--map", str(mp))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(basis="".join(doc["basis"])), "basis must be a list of strings"),
    (lambda doc: doc.update(basis=list(range(len(doc["basis"])))), "basis must be a list of strings"),
    (lambda doc: doc.update(basis={name: 1 for name in doc["basis"]}), "basis must be a list of strings"),
    (lambda doc: doc.update(basis=None), "basis must be a list of strings"),
    (lambda doc: doc.update(derivations=[1]), "derivations must be an object"),
    (lambda doc: doc.update(derivations="D"), "derivations must be an object"),
    (lambda doc: doc.update(derivations=None), "derivations must be an object"),
    (lambda doc: doc.update(extension=[1]), "extension must be an object"),
    (lambda doc: doc.update(extension="D"), "extension must be an object"),
    (lambda doc: doc["extension"].update(derivation=5), "extension derivation must be a string"),
    (lambda doc: doc["extension"].update(derivation=["D"]), "extension derivation must be a string"),
    (lambda doc: doc["extension"].update(derivation=None), "extension derivation must be a string"),
    (lambda doc: doc["extension"].update(beta=None), "extension beta must be an integer"),
    # only form, pmap and twist may be null: a required matrix or vector keeps its shape message
    (lambda doc: doc.update(alpha=None), "alpha must be dim x dim"),
    (lambda doc: doc["derivations"]["D"].update(matrix=None), "derivation D must be dim x dim"),
    (lambda doc: doc["extension"].update(x0=None), "extension x0 must have length dim"),
    (lambda doc: doc["extension"].update(P_basis=None), "extension P_basis must have length dim"),
    (lambda doc: doc.update(brackets=None), "brackets must be a list"),
    (lambda doc: doc.update(brackets=5), "brackets must be a list"),
    (lambda doc: doc["brackets"].append(None), "each bracket must be an object with i, j, k and coeff"),
    (lambda doc: doc["brackets"].append(5), "each bracket must be an object with i, j, k and coeff"),
    (lambda doc: doc["brackets"].append([1, 2]), "each bracket must be an object with i, j, k and coeff"),
    (lambda doc: doc["brackets"][0].pop("coeff"), "each bracket must be an object with i, j, k and coeff"),
    (lambda doc: doc["derivations"].update(D=None), "derivation D must be an object with a matrix"),
    (lambda doc: doc["derivations"].update(D=5), "derivation D must be an object with a matrix"),
    (lambda doc: doc["derivations"].update(D=[]), "derivation D must be an object with a matrix"),
    (lambda doc: doc["derivations"]["D"].pop("matrix"), "derivation D must be an object with a matrix"),
    (lambda doc: doc.pop("p"), "bundle missing field 'p'"),
    (lambda doc: doc.pop("dim"), "bundle missing field 'dim'"),
    (lambda doc: doc.pop("basis"), "bundle missing field 'basis'"),
    (lambda doc: doc.pop("brackets"), "bundle missing field 'brackets'"),
    (lambda doc: doc.pop("alpha"), "bundle missing field 'alpha'"),
])
def test_bundle_schema_holes_are_parse_errors(tmp_path, capsys, edit, message):
    path = _edited(tmp_path, capsys, "heisenberg-dual", "bad", edit)
    for command in ("verify", "p-extend"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_number_names_no_derivation(tmp_path, capsys):
    """A derivation named "5" is not named by the JSON number 5: only a
    string names a derivation, so p-extend refuses the bundle."""
    def edit(doc):
        doc["derivations"] = {"5": doc["derivations"]["D"]}
        doc["extension"]["derivation"] = 5

    path = _edited(tmp_path, capsys, "heisenberg-dual", "num", edit)
    code, out, err = run(capsys, "p-extend", str(path))
    assert (code, out, err) == (2, "", "error: extension derivation must be a string\n")
    doc = json.loads(path.read_text())
    doc["extension"]["derivation"] = "5"
    path.write_text(json.dumps(doc))
    assert run(capsys, "p-extend", str(path))[0] == 0


@pytest.mark.parametrize("text", ["[1]", '"bundle"', "3", "null"])
def test_bundle_that_is_not_an_object_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: bundle must be a JSON object\n")


@pytest.mark.parametrize("index", ["-1", "8"])
def test_center_index_out_of_range_names_the_range(tmp_path, capsys, index):
    v, L = tmp_path / "v.json", tmp_path / "L.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    code, out, err = run(capsys, "reduce", str(L), "--center-index", index)
    assert (code, out, err) == (2, "", "error: center index out of range: must be in [0, 8)\n")


# main(argv) is called many times in one process (tests, perfbench); the
# parser it builds on the first call must carry nothing from one call to the next.
def _python(*args):
    """`python *args` in a fresh interpreter that imports this homext: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfp.__file__)))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_import_builds_no_parser_and_calls_share_one(tmp_path):
    script = """
import argparse, sys

built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k)
import homext.cli
counts = [len(built)]
for argv in (["fixture", "sl2-gf5", "--out", sys.argv[1]], ["verify", sys.argv[1]], ["fixture", "psl3"]):
    homext.cli.main(argv)
    counts.append(len(built))
print(counts, built.count("homext"), file=sys.stderr)
"""
    code, _, err = _python("-c", script, str(tmp_path / "v.json"))
    assert code == 0, err
    counts, top = err.splitlines()[-1].rsplit(" ", 1)
    counts = json.loads(counts)
    assert counts[0] == 0 and counts[1] > 0 and counts[1:] == [counts[1]] * 3, counts
    assert top == "1"


def test_sampling_flags_do_not_reach_the_next_call(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(path))
    flagged = run(capsys, "verify", str(path), "--samples", "7", "--seed", "3")
    plain = run(capsys, "verify", str(path))
    assert flagged[1] != plain[1]
    assert json.loads(flagged[1])["meta"]["seed"] == 3
    assert plain == _python("-m", "homext.cli", "verify", str(path))


def test_center_index_does_not_reach_the_next_call(tmp_path, capsys):
    v, L, v2 = tmp_path / "v.json", tmp_path / "L.json", tmp_path / "v2.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    run(capsys, "p-extend", str(v), "--out", str(L))
    code, _, err = run(capsys, "reduce", str(L), "--center-index", "1")
    assert code == 1 and "NotCentral" in err
    assert run(capsys, "reduce", str(L), "--out", str(v2))[0] == 0
    assert v2.read_text() == v.read_text()


def test_p_extend_samples_do_not_reach_the_next_call(tmp_path, capsys, monkeypatch):
    from homext import doubleext

    seen = []
    check = doubleext.check_p_extension_data

    def spy(*args, **kwargs):
        seen.append(kwargs["samples"])
        return check(*args, **kwargs)

    monkeypatch.setattr(doubleext, "check_p_extension_data", spy)
    v = tmp_path / "v.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(v))
    assert run(capsys, "p-extend", str(v), "--samples", "5")[0] == 0
    assert run(capsys, "p-extend", str(v))[0] == 0
    assert seen == [5, EXTENSION_SAMPLES]


def test_seed_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))

    def seed():
        return json.loads(run(capsys, "verify", str(path))[1])["meta"]["seed"]

    monkeypatch.setenv("HOMEXT_SEED", "5")
    first = seed()
    monkeypatch.setenv("HOMEXT_SEED", "6")
    second = seed()
    monkeypatch.delenv("HOMEXT_SEED")
    assert (first, second, seed()) == (5, 6, DEFAULT_SEED)


def test_usage_errors_and_help_leave_the_next_call_intact(tmp_path, capsys):
    path = tmp_path / "v.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(path))
    expected = run(capsys, "verify", str(path))
    helps = []
    for argv in (["verify", str(path), "--samples", "0"], ["--help"], ["frobnicate"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (0 if argv == ["--help"] else 2)
        captured = capsys.readouterr()
        if argv == ["--help"]:
            helps.append(captured.out)
        assert run(capsys, "verify", str(path)) == expected
    assert helps[0] == helps[1] and helps[0].startswith("usage: homext ")
