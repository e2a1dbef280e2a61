"""Span tracing of homext from outside the package.

`Tracer.install` replaces every public function and public method of every
homext module with a wrapper that records one span per call: name, start,
end, parent span and pass id (plus batch rows for `*_batch` functions).
Names re-bound by `from .x import y` in other modules, and the re-exports
of the package itself, are replaced too, so every call path is seen.
`Tracer.uninstall` puts the originals back.  Spans stay in memory; the
per-layer metrics are derived from them after the pass.

A span's self time is its duration minus its children's durations (calls
nest and never overlap: the pipeline is single-threaded).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import pkgutil
import time
import types
from collections import defaultdict

import numpy as np

FOLDS = ("restricted.eval_p_batch", "restricted.eval_p")


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('homext.')}.{fn.__qualname__}"


def _rows(args) -> int:
    """Leading dimension of the first 2-D array argument (the batch)."""
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, pass id, rows)
        self.spans: list[tuple] = []
        self._stack = [-1]
        self.pass_id = 0
        self.stage = ""
        # (pass id, stage) -> {id(P): [P, folded row arrays]}
        self.folds: dict[tuple, dict] = defaultdict(dict)
        self.bundle_bytes: dict[int, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self._wrappers: dict[object, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------

    def _open(self, nid: int, rows: int) -> int:
        idx = len(self.spans)
        self.spans.append((nid, time.perf_counter(), 0.0, self._stack[-1], self.pass_id, rows))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        nid, start, _, parent, pid, rows = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent, pid, rows)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, for the pipeline's stages."""
        idx = self._open(self._name_id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def _observe(self, name: str, args, result) -> None:
        if name in FOLDS:
            P = args[0]
            xs = np.array(args[1], dtype=np.int64).reshape(-1, P.parent.n) % P.parent.p
            groups = self.folds[(self.pass_id, self.stage)]
            groups.setdefault(id(P), [P, []])[1].append(xs)
        elif name == "bundle.parse":
            self.bundle_bytes[self.pass_id] += len(args[0])
        elif name == "bundle.emit":
            self.bundle_bytes[self.pass_id] += len(result)

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = _span_name(fn)
        nid = self._name_id(name)
        batch = fn.__name__.endswith("_batch")
        observed = name in FOLDS or name in ("bundle.parse", "bundle.emit")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, _rows(args) if batch else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observed:
                self._observe(name, args, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        mods = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType):
                    if val.__module__.startswith(prefix) and not val.__name__.startswith("_"):
                        self._replace(mod, attr, self._wrap(val))
                elif (isinstance(val, type) and val.__module__ == mod.__name__
                      and not issubclass(val, BaseException)):
                    self._install_methods(val)

    def _install_methods(self, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, types.FunctionType):
                self._replace(cls, attr, self._wrap(val))
            elif isinstance(val, (classmethod, staticmethod)):
                self._replace(cls, attr, type(val)(self._wrap(val.__func__)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def pass_table(self, pass_id: int) -> dict:
        """Per-function stats of one pass: calls, rows, self_s, total_s.

        total_s counts only the outermost call of a name, so recursion is
        not double-counted.  Also returns `eval_p_all` misses: calls that
        spawned an `eval_p_batch` child.
        """
        idxs = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        child = defaultdict(float)
        for i in idxs:
            nid, start, end, parent, _, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0})
        misses = set()
        for i in idxs:
            nid, start, end, parent, _, rows = self.spans[i]
            name = self.names[nid]
            row = table[name]
            row["calls"] += 1
            row["rows"] += rows
            row["self_s"] += (end - start) - child[i]
            a = parent
            while a >= 0 and self.spans[a][0] != nid:
                a = self.spans[a][3]
            if a < 0:
                row["total_s"] += end - start
            if parent >= 0 and name == "restricted.eval_p_batch" \
                    and self.names[self.spans[parent][0]] == "restricted.eval_p_all":
                misses.add(parent)
        table["restricted.eval_p_all"]["misses"] = len(misses)
        return dict(table)

    def fold_ratios(self, pass_id: int) -> dict[str, tuple[int, int]]:
        """stage -> (distinct vectors folded, vectors folded), per PStructure."""
        out = {}
        for (pid, stage), groups in self.folds.items():
            if pid != pass_id:
                continue
            uniq = folded = 0
            for _, arrays in groups.values():
                xs = np.concatenate(arrays)
                folded += xs.shape[0]
                uniq += np.unique(xs, axis=0).shape[0]
            out[stage] = (uniq, folded)
        return out

    def write(self, path) -> None:
        """Write every span, gzipped, as one JSON line: name, start, end,
        parent index, pass id, rows."""
        with gzip.open(path, "wt") as fh:
            for nid, start, end, parent, pid, rows in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, pid, rows]) + "\n")
