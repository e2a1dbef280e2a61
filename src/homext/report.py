"""Structured pass/fail reporting for the axiom and theorem checkers.

A Report aggregates named checks.  Each check counts passing instances
and keeps the first few failing witnesses together with the mismatched
values, which is what makes a red CI run actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_FAILURES_KEPT = 16


def _plain(value):
    if isinstance(value, np.ndarray):
        return [int(x) for x in value.reshape(-1)]
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@dataclass
class Failure:
    witness: tuple
    lhs: object = None
    rhs: object = None

    def to_dict(self) -> dict:
        return {
            "witness": _plain(tuple(self.witness)),
            "lhs": _plain(self.lhs),
            "rhs": _plain(self.rhs),
        }


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "passed": self.passed,
            "failed": self.failed,
            "failures": [f.to_dict() for f in self.failures],
        }


def rows(*arrays):
    """Witness callback for tally: the rows of `arrays` at the failing index."""
    return lambda idx: tuple(tuple(int(v) for v in a[idx]) for a in arrays)


class Report:
    def __init__(self, **meta):
        self.checks: dict[str, CheckResult] = {}
        self.meta = dict(meta)

    def check(self, name: str) -> CheckResult:
        if name not in self.checks:
            self.checks[name] = CheckResult(name)
        return self.checks[name]

    def record(self, name: str, ok, witness=(), lhs=None, rhs=None) -> bool:
        c = self.check(name)
        if ok:
            c.passed += 1
        else:
            c.failed += 1
            if len(c.failures) < MAX_FAILURES_KEPT:
                c.failures.append(Failure(tuple(witness), lhs, rhs))
        return bool(ok)

    def tally(self, name: str, failed, lhs=None, rhs=None, witness=tuple) -> CheckResult:
        """Count every entry of the boolean array `failed` under one check.

        Each failing index (a tuple of ints, in C order) is recorded with
        witness(index); an ndarray lhs/rhs is indexed there, anything else
        is kept as given, an indexed value as a copy, so that a kept failure
        does not hold the whole table alive.  Pass np.broadcast_to for a
        constant array value.
        """
        failed = np.asarray(failed, dtype=bool)
        bad = np.argwhere(failed)
        c = self.check(name)
        c.passed += failed.size - len(bad)
        c.failed += len(bad)
        for row in bad[:max(MAX_FAILURES_KEPT - len(c.failures), 0)]:
            idx = tuple(int(i) for i in row)
            c.failures.append(Failure(
                tuple(witness(idx)),
                lhs[idx].copy() if isinstance(lhs, np.ndarray) else lhs,
                rhs[idx].copy() if isinstance(rhs, np.ndarray) else rhs,
            ))
        return c

    def merge(self, other: "Report", prefix: str = "") -> "Report":
        """Add other's counts and failures; a prefixed merge renames its
        checks to prefix + name and takes of other's meta only its
        "regimes", under the same names."""
        for name, c in other.checks.items():
            mine = self.check(prefix + name)
            mine.passed += c.passed
            mine.failed += c.failed
            room = MAX_FAILURES_KEPT - len(mine.failures)
            mine.failures.extend(c.failures[:room])
        if not prefix:
            self.meta.update(other.meta)
        elif "regimes" in other.meta:
            regimes = {prefix + name: regime for name, regime in other.meta["regimes"].items()}
            self.meta["regimes"] = {**self.meta.get("regimes", {}), **regimes}
        return self

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks.values() if not c.ok]

    def to_dict(self) -> dict:
        total_pass = sum(c.passed for c in self.checks.values())
        total_fail = sum(c.failed for c in self.checks.values())
        return {
            "checks": [c.to_dict() for c in self.checks.values()],
            "summary": {
                "passed": total_pass,
                "failed": total_fail,
                "ok": self.ok,
            },
            "meta": {k: _plain(v) for k, v in sorted(self.meta.items())},
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks.values():
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"[{mark}] {c.name}: {c.passed} passed, {c.failed} failed")
        return "\n".join(lines)
