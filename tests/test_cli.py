import json

import numpy as np

from homext import bundle
from homext.cli import main


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


def test_p_extend_reduce_roundtrip_bit_exact(tmp_path, capsys):
    v = tmp_path / "v.json"
    L = tmp_path / "L.json"
    v2 = tmp_path / "v2.json"
    L2 = tmp_path / "L2.json"
    run(capsys, "fixture", "heisenberg-dual", "--out", str(v))
    assert run(capsys, "p-extend", str(v), "--out", str(L))[0] == 0
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


def test_twisted_p_extend_verifies(tmp_path, capsys):
    src = tmp_path / "psl3.json"
    tw = tmp_path / "psl3a.json"
    L = tmp_path / "gl3a.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    run(capsys, "twist", str(src), "--out", str(tw))
    assert run(capsys, "p-extend", str(tw), "--derivation", "D3", "--out", str(L))[0] == 0
    b = bundle.parse(L.read_text())
    assert b.dim == 9 and b.pmap is not None
    code, out, _ = run(capsys, "verify", str(L), "--samples", "120")
    assert code == 0


def test_verify_exhaustive_reports_sampled_r3(tmp_path, capsys):
    # 3^7 vectors fit the exhaustive limit but 3^14 pairs do not, so R3 is
    # sampled even under --exhaustive and the report must say so
    src = tmp_path / "psl3.json"
    run(capsys, "fixture", "psl3", "--out", str(src))
    code, out, _ = run(capsys, "verify", str(src), "--exhaustive", "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["regimes"] == {"r1": "exhaustive", "r2": "exhaustive", "r3": "sampled"}
    assert doc["meta"]["mode"] == "sampled"
    r3 = next(c for c in doc["checks"] if c["name"] == "r3")
    assert r3["passed"] == 30


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


def test_fixture_sl2_verifies(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    run(capsys, "fixture", "sl2-gf5", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
