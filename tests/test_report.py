import json

import numpy as np

from homext.report import MAX_FAILURES_KEPT, Report


def test_record_and_ok():
    r = Report()
    r.record("a", True)
    r.record("a", False, (1, 2), lhs=np.array([1, 0]), rhs=0)
    assert not r.ok
    assert r.check("a").passed == 1 and r.check("a").failed == 1
    assert r.check("a").failures[0].witness == (1, 2)


def test_merge_is_associative_on_counts():
    def mk(name, okc, failc):
        r = Report()
        for _ in range(okc):
            r.record(name, True)
        for _ in range(failc):
            r.record(name, False)
        return r

    left = mk("x", 1, 2).merge(mk("x", 3, 0).merge(mk("x", 0, 1)))
    right = mk("x", 1, 2).merge(mk("x", 3, 0)).merge(mk("x", 0, 1))
    assert left.check("x").passed == right.check("x").passed == 4
    assert left.check("x").failed == right.check("x").failed == 3


def test_failure_cap():
    r = Report()
    for i in range(MAX_FAILURES_KEPT + 10):
        r.record("big", False, (i,))
    assert r.check("big").failed == MAX_FAILURES_KEPT + 10
    assert len(r.check("big").failures) == MAX_FAILURES_KEPT


def test_json_shape_and_key_order():
    r = Report(seed=1, samples=7)
    r.record("one", True)
    r.record("two", False, (0,), lhs=np.array([1]), rhs=[0])
    d = r.to_dict()
    assert list(d.keys()) == ["checks", "summary", "meta"]
    assert [c["name"] for c in d["checks"]] == ["one", "two"]
    assert d["summary"] == {"passed": 1, "failed": 1, "ok": False}
    text = json.dumps(d)
    assert json.loads(text) == d  # json-serializable, no numpy leakage


def test_summary_lines():
    r = Report()
    r.record("good", True)
    r.record("bad", False)
    lines = r.summary().splitlines()
    assert lines[0].startswith("[ok ] good") and lines[1].startswith("[FAIL] bad")


def test_tally_counts_every_entry_and_records_failing_indices():
    r = Report()
    failed = np.array([[False, True], [False, False], [True, False]])
    lhs = np.arange(6).reshape(3, 2)
    c = r.tally("t", failed, lhs, 0)
    assert (c.passed, c.failed) == (4, 2)
    assert [f.witness for f in c.failures] == [(0, 1), (2, 0)]
    assert [int(f.lhs) for f in c.failures] == [1, 4]
    assert [f.rhs for f in c.failures] == [0, 0]
    r.tally("t", np.zeros(3, dtype=bool))  # a second tally adds to the same check
    assert (c.passed, c.failed) == (7, 2)


def test_tally_witness_callback_and_cap():
    xs = np.arange(2 * (MAX_FAILURES_KEPT + 4)).reshape(-1, 2)
    r = Report()
    r.record("w", False, ("first",))
    c = r.tally("w", np.ones(xs.shape[0], dtype=bool), xs, witness=lambda i: ("row", int(xs[i][0])))
    assert c.failed == xs.shape[0] + 1 and c.passed == 0
    assert len(c.failures) == MAX_FAILURES_KEPT
    assert c.failures[0].witness == ("first",)
    assert c.failures[1].witness == ("row", 0)
    assert c.failures[-1].witness == ("row", 2 * (MAX_FAILURES_KEPT - 2))
    assert list(c.failures[1].lhs) == [0, 1]
    full = Report()
    for i in range(MAX_FAILURES_KEPT):
        full.record("w", False, (i,))
    full.tally("w", np.ones(3, dtype=bool))
    assert full.check("w").failed == MAX_FAILURES_KEPT + 3
    assert len(full.check("w").failures) == MAX_FAILURES_KEPT


def test_merge_with_prefix_renames_checks_and_keeps_meta():
    base = Report(file="a.json", seed=1)
    base.record("x", True)
    other = Report(seed=99, extra="ignored")
    other.record("x", False, (3,))
    other.record("y", True)
    base.merge(other, prefix="D.")
    assert list(base.checks) == ["x", "D.x", "D.y"]
    assert base.check("D.x").failed == 1 and base.check("D.x").name == "D.x"
    assert base.check("D.x").failures[0].witness == (3,)
    assert base.check("x").passed == 1 and base.check("x").failed == 0
    assert base.meta == {"file": "a.json", "seed": 1}
    base.merge(other)  # an unprefixed merge still adopts meta
    assert base.meta["seed"] == 99 and base.meta["extra"] == "ignored"


def test_prefixed_merge_adds_the_regimes_under_prefixed_names():
    """A prefixed merge takes other's meta["regimes"] only, renamed like its
    checks, beside the regimes this report already has; neither report's
    regimes dict is changed in place."""
    base = Report(seed=1, regimes={"r1": "basis"})
    mine = base.meta["regimes"]
    other = Report(seed=99, regimes={"P_additivity": "implied", "P_homogeneity": "implied"})
    other.record("P_additivity", True)
    base.merge(other, prefix="extension.")
    assert base.meta == {"seed": 1, "regimes": {"r1": "basis", "extension.P_additivity": "implied",
                                                "extension.P_homogeneity": "implied"}}
    assert mine == {"r1": "basis"} and other.meta["regimes"] == {"P_additivity": "implied",
                                                                 "P_homogeneity": "implied"}
    plain = Report()
    plain.merge(Report(), prefix="D.")
    plain.merge(other, prefix="x.")
    assert plain.meta == {"regimes": {"x.P_additivity": "implied", "x.P_homogeneity": "implied"}}


def test_tally_keeps_copies_of_failing_rows():
    """A kept failure holds its own row, not a view of the whole table, so
    a failing check does not keep its n^3 sides alive."""
    lhs, rhs = np.arange(24).reshape(2, 3, 4), np.zeros((2, 3, 4), dtype=np.int64)
    r = Report()
    r.tally("t", (lhs != rhs).any(axis=2), lhs, rhs)
    r.tally("s", lhs != rhs, lhs, rhs)
    rows = r.check("t").failures
    assert len(rows) == 6 and all(f.lhs.base is None and f.rhs.base is None for f in rows)
    assert [f.lhs.tolist() for f in rows] == lhs.reshape(6, 4).tolist()
    scalars = r.check("s").failures
    assert all(isinstance(f.lhs, np.integer) for f in scalars)  # entries stay scalars
    assert r.to_dict()["checks"][1]["failures"][0] == {"witness": [0, 0, 1], "lhs": 1, "rhs": 0}
