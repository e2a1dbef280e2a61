"""Benchmark of the homext CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One pass runs every stage of the pipeline
in this process, through `homext.cli.main(argv)`, so the real parse, emit
and report code runs:

    [twist] -> verify V -> p-extend V -> verify L -> reduce L -> p-extend v2
            -> isom-check L L2 --map identity

Set-up (a fresh interpreter that imports homext, generates the input and
parses it) is timed in child processes before the passes.  A first pass
warms up and is not timed; then passes run until --seconds have elapsed
(at least one).  Every pass goes through the correctness gate.  Every
timing is scaled by a fixed reference kernel run right before and after
it (see `calibrate`), so the metrics read in seconds at one fixed host
speed; the raw wall times are on the detail line.  The last
line of stdout is one JSON object: correct, attempted / failed stage calls,
and the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  The exit code is 1 when the gate fails.

With --trace 1, untraced and traced passes alternate; spans are written to
.perfbench-out/ at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_RUNS = 7
CALIB_REF_S = 0.003  # reference-kernel seconds at the reference host speed
VERIFY, CONSTRUCT = "verify", "construct"
BUNDLES = ("V", "L", "v2", "L2")
STAGES = ("twist", "verify_V", "p_extend_V", "verify_L", "reduce", "p_extend_v2", "isom_check")

# One thread per process, set-up probes included: numpy's OpenBLAS would
# otherwise start a pool of nproc threads at import, and on a 2-core host
# that start-up costs ~80 ms of CPU that depends on what else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports homext from ./src, or exits)

import homext  # noqa: E402
import numpy as np  # noqa: E402
from homext import cli  # noqa: E402


_RNG = np.random.default_rng(0)
_CAL_M = _RNG.integers(0, 3, size=(48, 48), dtype=np.int64)
_CAL_X = _RNG.integers(0, 3, size=(2000, 12), dtype=np.int64)
_CAL_OUT = (np.empty((48, 48), dtype=np.int64), np.empty((2000, 12, 12), dtype=np.int64))
CALIBRATIONS: list[float] = []  # every calibration of this process, for the detail line


def _kernel() -> None:
    """A fixed mix of the work homext does: an interpreter loop, small
    matrix products mod p and a broadcast pair product (2.3 MB).  It
    writes into preallocated buffers, so the allocator's state after a
    stage does not change its time."""
    acc = 0
    for i in range(2000):
        acc += (i * 7) % 5
    m, pairs = _CAL_OUT
    np.matmul(_CAL_M, _CAL_M, out=m)
    for _ in range(2):
        np.remainder(m, 3, out=m)
        np.matmul(m.copy(), _CAL_M, out=m)
    np.multiply(_CAL_X[:, :, None], _CAL_X[:, None, :], out=pairs)
    np.remainder(pairs, 3, out=pairs)


def calibrate() -> float:
    """Seconds of the reference kernel now (the fastest of three runs).

    The benchmark's host changes speed by up to 2x over seconds to
    minutes, in CPU time as much as in wall time.  A timing t taken
    between two calibrations c0, c1 is reported as
    t * CALIB_REF_S / ((c0 + c1) / 2): seconds at the speed where the
    kernel takes CALIB_REF_S.  The kernel does not touch homext, so a
    change to the program moves the scaled timing as much as the raw one.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    CALIBRATIONS.append(best)
    return best


def scale(t: float, c0: float, c1: float) -> float:
    return t * CALIB_REF_S * 2 / (c0 + c1)


@dataclass
class Pass:
    wall: float = 0.0  # sum of the raw stage times
    times: dict = field(default_factory=dict)  # stage -> seconds
    scaled: dict = field(default_factory=dict)  # stage -> reference seconds
    rcs: dict = field(default_factory=dict)  # stage -> exit code (None: raised)
    stdout: dict = field(default_factory=dict)
    stderr: dict = field(default_factory=dict)


class Pipeline:
    """One workload's files, stage list and correctness gate."""

    def __init__(self, wl, seed: int, work: Path, expected: dict | None):
        self.wl, self.seed, self.expected = wl, seed, expected
        self.paths = {k: work / f"{k}.json" for k in ("V0", "map") + BUNDLES}
        if not wl.twist:
            self.paths["V"] = self.paths["V0"]
        s = str(seed)
        common = ["--seed", s] + ([] if wl.samples is None else ["--samples", str(wl.samples)])
        p = {k: str(v) for k, v in self.paths.items()}
        self.stages = [("twist", CONSTRUCT, ["twist", p["V0"], "--out", p["V"]])] if wl.twist else []
        self.stages += [
            ("verify_V", VERIFY, ["verify", p["V"], *common]),
            ("p_extend_V", CONSTRUCT, ["p-extend", p["V"], "--out", p["L"], "--seed", s]),
            ("verify_L", VERIFY, ["verify", p["L"], *common]),
            ("reduce", CONSTRUCT, ["reduce", p["L"], "--out", p["v2"]]),
            ("p_extend_v2", CONSTRUCT, ["p-extend", p["v2"], "--out", p["L2"], "--seed", s]),
            ("isom_check", VERIFY, ["isom-check", p["L"], p["L2"], "--map", p["map"], *common]),
        ]
        self.first: dict | None = None  # bundle bytes of the first (warm-up) pass
        self.attempted = 0  # stage calls
        self.failed = 0  # stage calls with at least one gate failure
        self.failures: list[tuple[str, str]] = []

    def write_map(self) -> None:
        dim = json.loads(self.paths["V0"].read_text())["dim"] + 2
        pi = [[int(i == j) for j in range(dim)] for i in range(dim)]
        self.paths["map"].write_text(json.dumps({"pi": pi}))

    def run(self, tracer=None) -> Pass:
        for k in BUNDLES:
            if self.paths[k] != self.paths["V0"]:
                self.paths[k].unlink(missing_ok=True)
        ps = Pass()
        cal = calibrate()
        for stage, _, argv in self.stages:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
            if tracer:
                tracer.stage = stage
            t0 = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed stage call, not a crashed benchmark
                rc = None
                err.write(traceback.format_exc())
            ps.times[stage] = time.perf_counter() - t0
            ps.rcs[stage], ps.stdout[stage], ps.stderr[stage] = rc, out.getvalue(), err.getvalue()
            after = calibrate()
            ps.scaled[stage] = scale(ps.times[stage], cal, after)
            cal = after
        ps.wall = sum(ps.times.values())
        self.gate(ps)
        return ps

    def outputs(self, ps: Pass) -> tuple[dict, dict]:
        """Bundle bytes and per-report {check: [passed, failed]} of a pass."""
        bundles = {k: self.paths[k].read_bytes() if self.paths[k].exists() else b"" for k in BUNDLES}
        reports = {}
        for stage, side, _ in self.stages:
            if side == VERIFY:
                try:
                    doc = json.loads(ps.stdout[stage])
                    reports[stage] = {c["name"]: [c["passed"], c["failed"]] for c in doc["checks"]}
                except (ValueError, KeyError, TypeError):
                    reports[stage] = None
        return bundles, reports

    def gate(self, ps: Pass, bundles: dict | None = None, reports: dict | None = None) -> list:
        """Check one pass; record and return its (stage, reason) failures.

        Checks: every stage exits 0; L2 is byte-identical to L; v2 to V
        (not after `twist`: reduce keeps only D, so those bytes differ);
        bundles equal the first pass's and the recorded digests; each
        report's per-check (passed, failed) counts equal the recorded ones.
        """
        if bundles is None:
            bundles, reports = self.outputs(ps)
        owner = {"V": self.stages[0][0], "L": "p_extend_V", "v2": "reduce", "L2": "p_extend_v2"}
        bad = []
        for stage, rc in ps.rcs.items():
            if rc != 0:
                bad.append((stage, f"exit {rc}: {ps.stderr[stage].strip()[-400:]}"))
        if bundles["L2"] != bundles["L"]:
            bad.append(("p_extend_v2", "L2 differs from L"))
        if not self.wl.twist and bundles["v2"] != bundles["V"]:
            bad.append(("reduce", "v2 differs from V"))
        if self.first is None:
            self.first = bundles
        for k in BUNDLES:
            if bundles[k] != self.first[k]:
                bad.append((owner[k], f"{k} differs from the first pass"))
        exp = self.expected
        if exp is not None:
            if exp["seed"] is None or exp["seed"] == self.seed:
                for k, digest in exp["digests"].items():
                    if hashlib.sha256(bundles[k]).hexdigest() != digest:
                        bad.append((owner[k], f"{k} digest differs from the recorded one"))
            for stage, counts in exp["checks"].items():
                if reports.get(stage) != counts:
                    bad.append((stage, "check counts differ from the recorded ones"))
        self.attempted += len(self.stages)
        self.failed += len({stage for stage, _ in bad})
        self.failures += bad
        return bad

    def record(self, ps: Pass) -> dict:
        """The expected-output entry for this workload (see expected.json)."""
        bundles, reports = self.outputs(ps)
        return {
            "size": self.wl.size,
            "seed": self.seed if self.wl.seeded else None,
            "digests": {k: hashlib.sha256(bundles[k]).hexdigest() for k in BUNDLES},
            "checks": reports,
        }


def setup_probe(wl, seed: int, out: Path) -> float:
    """Wall seconds of a fresh interpreter that imports homext and writes
    and parses the workload's input (left at `out`).  `setup_s` scales it
    with a calibration on each side (see `timed_setup`)."""
    argv = [sys.executable, str(HERE / "workloads.py"), wl.name, str(seed), str(wl.size), str(out)]
    t0 = time.perf_counter()
    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if r.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed ({r.returncode}): {r.stderr[-400:]}")
    return elapsed


def timed_setup(wl, seed: int, out: Path, runs: int) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds of `runs` set-up probes."""
    raw, scaled = [], []
    cal = calibrate()
    for _ in range(runs):
        raw.append(setup_probe(wl, seed, out))
        after = calibrate()
        scaled.append(scale(raw[-1], cal, after))
        cal = after
    return raw, scaled


def timing(values: list[float]) -> dict:
    """Sample count, min, median and quartiles of a timing, and the highest
    of p90/p95/p99/p99.9 that still has at least ten samples beyond it."""
    out = {"n": len(values), "min": min(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for q in (99.9, 99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q:g}"] = float(np.percentile(values, q))
            break
    return out


def side_time(pl: Pipeline, ps: Pass, side: str | None, key: str = "scaled") -> float:
    times = getattr(ps, key)
    return sum(times[stage] for stage, s, _ in pl.stages if side in (None, s))


def end_to_end(pl: Pipeline, passes: list[Pass], setups: tuple[list, list],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end values by name, and stats (n, min, median, quartiles, tail)
    of every timing, stages included.

    Each timing is the median of its scaled samples (reference seconds,
    see `calibrate`); `raw.*` gives the same stats of the wall times.
    """
    samples = {}
    for key, prefix in (("scaled", ""), ("times", "raw.")):
        samples[f"{prefix}pipeline_s"] = [side_time(pl, ps, None, key) for ps in passes]
        samples[f"{prefix}verify_s"] = [side_time(pl, ps, VERIFY, key) for ps in passes]
        samples[f"{prefix}construct_s"] = [side_time(pl, ps, CONSTRUCT, key) for ps in passes]
        samples[f"{prefix}setup_s"] = setups[0] if prefix else setups[1]
        for stage, _, _ in pl.stages:
            samples[f"{prefix}cli.{stage}"] = [getattr(ps, key)[stage] for ps in passes]
    stats = {k: timing(v) for k, v in samples.items()}
    values = {k: stats[k]["median"] for k in ("pipeline_s", "verify_s", "construct_s", "setup_s")}
    values["peak_rss_mb"] = peak_rss_mb
    return values, stats


def layer_values(names: list[str], tracer, pass_id: int, checks: int, overhead: float) -> dict:
    """Per-layer values of one traced pass, for the names in BENCHMARK.json.

    `<fn>.{calls,rows,self_s,total_s}` read the span table (fn is
    `<module>.<qualname>`), `<module>.self_s` sums a module's self times;
    the rest are ratios and counts defined below.
    """
    table = tracer.pass_table(pass_id)
    folds = tracer.fold_ratios(pass_id)
    known = set(tracer.names) | {f"cli.{stage}" for stage in STAGES}
    empty = {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0, "misses": 0}

    def stat(fn, key):
        if fn not in known:
            raise SystemExit(f"perfbench: BENCHMARK.json names unknown span {fn!r}")
        return table.get(fn, empty).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in names:
        head, _, key = name.rpartition(".")
        if name == "trace_overhead":
            v = overhead
        elif name == "report.checks":
            v = checks
        elif name == "bundle.bytes":
            v = tracer.bundle_bytes[pass_id]
        elif name.startswith("restricted.fold_unique_ratio"):
            stage = name.removeprefix("restricted.fold_unique_ratio").lstrip(".")
            picked = [folds.get(stage, (0, 0))] if stage else list(folds.values())
            v = ratio(sum(u for u, _ in picked), sum(f for _, f in picked))
        elif name == "restricted.eval_p_all.miss_ratio":
            v = ratio(stat(head, "misses"), stat(head, "calls"))
        elif name == "restricted.compute_s_batch.us_per_pair":
            v = ratio(stat(head, "total_s") * 1e6, stat(head, "rows"))
        elif key == "self_s" and "." not in head:
            v = sum((r["self_s"] for fn, r in table.items() if fn.startswith(head + ".")), 0.0)
        elif key in ("calls", "rows", "self_s", "total_s"):
            v = stat(head, key)
        else:
            raise SystemExit(f"perfbench: no rule for per-layer metric {name!r}")
        out[name] = v
    return out


def report_checks(pl: Pipeline, ps: Pass) -> int:
    """Instances checked in one pass: passed + failed over every report."""
    _, reports = pl.outputs(ps)
    return sum(p + f for counts in reports.values() if counts for p, f in counts.values())


def measure(wl, seed: int, seconds: float, trace: bool, spec: dict, expected: dict | None,
            work: Path, out_dir: Path | None = None) -> tuple[Pipeline, dict, dict]:
    """Set up, warm up, run timed passes; return the pipeline (with its gate
    tallies), {metric: (value, unit)} and the detail record."""
    pl = Pipeline(wl, seed, work, expected)
    setups = timed_setup(wl, seed, pl.paths["V0"], 1 if trace else SETUP_RUNS)
    pl.write_map()
    pl.run()  # warm-up, also the first gate: generated inputs must verify
    # Every pass allocates the same; read the peak before the timed passes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, traced = [], []
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(pl.run())
        if tracer:
            tracer.pass_id = len(traced) + 1
            tracer.install(homext)
            try:
                traced.append(pl.run(tracer))
            finally:
                tracer.uninstall()
    values, stats = end_to_end(pl, passes, setups, peak_rss_mb)
    stats["calibration"] = timing(CALIBRATIONS)
    detail = {"workload": wl.name, "seed": seed, "timings": stats,
              "error_rate": pl.failed / pl.attempted, "failures": pl.failures[:20]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    else:
        # Per-layer values come from the fastest traced pass, so they are
        # consistent with each other; the overhead compares scaled medians.
        best = min(range(len(traced)), key=lambda i: traced[i].wall)
        traced_s = statistics.median(side_time(pl, ps, None) for ps in traced)
        overhead = traced_s / values["pipeline_s"] - 1
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_values(names, tracer, best + 1, report_checks(pl, traced[best]), overhead)
        detail["traced_pass_s"] = timing([side_time(pl, ps, None) for ps in traced])
        detail["spans"] = len(tracer.spans)
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl.gz")
            table = tracer.pass_table(best + 1)
            (out_dir / f"layers-{wl.name}-seed{seed}.json").write_text(json.dumps(table, indent=1))
    return pl, {k: (v, units[k]) for k, v in metrics.items()}, detail


def load_expected(wl) -> dict | None:
    entry = json.loads((HERE / "expected.json").read_text()).get(wl.name)
    return entry if entry is not None and entry["size"] == wl.size else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the homext CLI pipeline on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="print this workload's expected.json entry from one pass and exit")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception: set-up children are killed and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.record:
            pl = Pipeline(wl, args.seed, work, None)
            setup_probe(wl, args.seed, pl.paths["V0"])
            pl.write_map()
            ps = pl.run()
            if pl.failures:
                raise SystemExit(f"perfbench: cannot record a failing pass: {pl.failures}")
            print(json.dumps({wl.name: pl.record(ps)}, indent=1))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pl, metrics, detail = measure(wl, args.seed, args.seconds, bool(args.trace), spec,
                                      load_expected(wl), work, ROOT / ".perfbench-out")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": pl.failed == 0,
        "attempted": pl.attempted,
        "failed": pl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if pl.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
