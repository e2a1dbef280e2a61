"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Run from the repository root.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that the self times of a traced
pass sum to no more than the pass's wall time, and that the correctness
gate trips (and the command exits nonzero) when an output is corrupted
before the comparison.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from spans import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {what}")
    print(f"smoke: ok: {what}")


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def emitted_metrics() -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, str(run.HERE / "run.py"), "--workload", "char2-heis",
                "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        r = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        check(r.returncode == 0, f"--trace {trace} exits 0")
        out = last_json(r.stdout)
        check(set(out) == {"correct", "attempted", "failed", "metrics"} and out["correct"]
              and out["failed"] == 0 and out["attempted"] >= 1, f"--trace {trace} result line")
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        check(got == want, f"--trace {trace} emits every {group} metric with its unit")
        check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                  for v in out["metrics"].values()), f"--trace {trace} values are finite numbers")
        if trace == 0:
            detail = json.loads(r.stdout.strip().splitlines()[-2])
            check(detail["error_rate"] == 0, "error_rate is printed and 0")


def self_time_bound(work: Path) -> None:
    import homext

    for name in ("sampled-p5", "wide-char2"):
        wl = dataclasses.replace(workloads.WORKLOADS[name], size=1)
        pl = run.Pipeline(wl, 5, work, None)
        run.setup_probe(wl, 5, pl.paths["V0"])
        pl.write_map()
        pl.run()
        tracer = Tracer()
        tracer.pass_id = 1
        tracer.install(homext)
        try:
            ps = pl.run(tracer)
        finally:
            tracer.uninstall()
        table = tracer.pass_table(1)
        self_sum = sum(row["self_s"] for row in table.values())
        check(not pl.failures, f"tiny {name}: every stage passes the gate")
        check(0 < self_sum <= ps.wall, f"tiny {name}: self times {self_sum:.4f} s <= pass {ps.wall:.4f} s")
        check(table["algebra.HomLieAlgebra.ad_batch"]["rows"] > 0, f"tiny {name}: method spans recorded")


def gate_trips(work: Path) -> None:
    wl = workloads.WORKLOADS["char2-heis"]
    expected = run.load_expected(wl)
    pl = run.Pipeline(wl, 1, work, expected)
    run.setup_probe(wl, 1, pl.paths["V0"])
    pl.write_map()
    ps = pl.run()
    check(not pl.failures, "char2-heis pass matches the recorded outputs")
    bundles, reports = pl.outputs(ps)

    bad = dict(bundles, L2=bundles["L2"].replace(b'"coeff": 1', b'"coeff": 0', 1))
    check(any("L2 differs from L" in why for _, why in pl.gate(ps, bad, reports)),
          "gate trips on a corrupted L2")
    bad = dict(bundles, v2=bundles["v2"] + b" ")
    check(any("v2" in why for _, why in pl.gate(ps, bad, reports)), "gate trips on a corrupted v2")
    bad_reports = copy.deepcopy(reports)
    bad_reports["verify_L"]["r3"][0] -= 1
    check(any(s == "verify_L" for s, _ in pl.gate(ps, bundles, bad_reports)),
          "gate trips on a changed check count")

    pl.paths["L"].write_bytes(bundles["L"].replace(b"\n", b"\n ", 1))
    failed_before = pl.failed
    check(pl.gate(ps) and pl.failed > failed_before, "gate trips on a corrupted L file, and counts it")

    corrupted = copy.deepcopy(expected)
    corrupted["digests"]["L"] = "0" * 64
    saved, run.load_expected = run.load_expected, lambda _wl: corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "char2-heis", "--seed", "1", "--seconds", "0.1"])
    finally:
        run.load_expected = saved
    result = last_json(out.getvalue())
    check(rc == 1 and not result["correct"] and result["failed"] > 0,
          "a failing gate makes the command exit nonzero with correct=false")


def main() -> int:
    emitted_metrics()
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=run.ROOT) as tmp:
        self_time_bound(Path(tmp))
        gate_trips(Path(tmp))
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
