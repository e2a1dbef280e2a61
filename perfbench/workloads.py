"""Workload inputs for the homext benchmark.

Each workload is one input bundle plus the CLI flags the pipeline passes.
Two come from the package's fixtures; two are generated here, from the
workload seed, with homext's public constructors and `bundle.emit` only.

Run as a script this module is the set-up probe: a fresh interpreter that
imports homext, writes one workload's input bundle and parses it back,
which is what every shell invocation of the CLI pays before its work:

    python3 perfbench/workloads.py NAME SEED SIZE OUT
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

SRC = Path.cwd() / "src"


def import_homext():
    """Import homext from the checkout's `src/`, never from elsewhere."""
    if not (SRC / "homext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no homext sources under {SRC}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import homext  # noqa: F401


import_homext()

import numpy as np  # noqa: E402

from homext import (  # noqa: E402
    BilinearForm,
    Derivation,
    DoubleExtensionData,
    HomLieAlgebra,
    PExtensionData,
    PStructure,
    build_heisenberg_dual,
    build_sl2_gf5,
    bundle,
    cli,
)


def _hyperbolic_sum(fx_alg, fx_form, fx_pmap, fx_der, k, d_block):
    """fx ⊕ GF(p)^{2k}: abelian block with alpha = id, zero p-map and the
    hyperbolic form [[0, I], [I, 0]]; the derivation is fx_der ⊕ d_block."""
    p, n = fx_alg.p, fx_alg.n
    N = n + 2 * k
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if fx_alg.c[i, j].any():
                v = np.zeros(N, dtype=np.int64)
                v[:n] = fx_alg.c[i, j]
                upper[(i, j)] = v
    alpha = np.eye(N, dtype=np.int64)
    alpha[:n, :n] = fx_alg.alpha
    names = list(fx_alg.basis_names) + [f"a{i + 1}" for i in range(k)] + [f"b{i + 1}" for i in range(k)]
    g = HomLieAlgebra.from_upper(p, N, upper, alpha, names)
    gram = np.zeros((N, N), dtype=np.int64)
    gram[:n, :n] = fx_form.gram
    gram[n:n + k, n + k:] = np.eye(k, dtype=np.int64)
    gram[n + k:, n:n + k] = np.eye(k, dtype=np.int64)
    imgs = np.zeros((N, N), dtype=np.int64)
    imgs[:n, :n] = fx_pmap.images
    dm = np.zeros((N, N), dtype=np.int64)
    dm[:n, :n] = fx_der.mat
    dm[n:, n:] = d_block
    return g, BilinearForm(gram, p), PStructure(g, imgs), Derivation(dm, p)


def _bundle_text(g, form, pmap, D, d, pe) -> str:
    b = bundle.from_parts(g, form, pmap, {"D": D}, extension=bundle.extension_dict("D", d, pe))
    return bundle.emit(b)


def sampled_p5(seed: int, k: int) -> str:
    """sl2-gf5 ⊕ hyperbolic abelian GF(5)^{2k} with D = ad(H) ⊕ [[0, S], [0, 0]].

    S is a seeded skew k×k matrix, so D is skew for the form; D^5 = ad(H)
    gives the p-property witness (xi = 0, a0 = H).
    """
    fx = build_sl2_gf5()
    p = fx.g.p
    rnd = random.Random(seed)
    s = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            s[i, j] = rnd.randrange(p)
            s[j, i] = (-s[i, j]) % p
    block = np.zeros((2 * k, 2 * k), dtype=np.int64)
    block[:k, k:] = s
    g, form, pmap, D = _hyperbolic_sum(fx.g, fx.B, fx.P, fx.D, k, block)
    zero = np.zeros(g.n, dtype=np.int64)
    h = np.zeros(g.n, dtype=np.int64)
    h[1] = 1
    return _bundle_text(
        g, form, pmap, D,
        DoubleExtensionData(D, zero, 1, 0),
        PExtensionData(0, h, 0, 0, zero, zero, p),
    )


def wide_char2(seed: int, k: int) -> str:
    """heisenberg-dual ⊕ hyperbolic abelian GF(2)^{2k} with D = fixture D ⊕ id.

    The input does not depend on the seed; the seed only drives the CLI's
    sampled checks.
    """
    fx = build_heisenberg_dual()
    g, form, pmap, D = _hyperbolic_sum(fx.V, fx.B, fx.P, fx.D, k, np.eye(2 * k, dtype=np.int64))
    zero = np.zeros(g.n, dtype=np.int64)
    z = np.zeros(g.n, dtype=np.int64)
    z[2] = 1
    return _bundle_text(
        g, form, pmap, D,
        DoubleExtensionData(D, zero, 1, 0),
        PExtensionData(1, z, 0, 0, z, zero, 2),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str | None = None  # homext fixture name; None means generated here
    generator: object = None  # (seed, size) -> bundle text
    size: int = 0  # k of the generated hyperbolic block
    twist: bool = False  # run `twist` first (the stored involution)
    samples: int | None = None  # --samples for verify / isom-check; None: CLI default
    seeded: bool = False  # the input bundle depends on the seed

    def input_text(self, seed: int) -> str:
        if self.fixture is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["fixture", self.fixture])
            if rc != 0:
                raise SystemExit(f"perfbench: `homext fixture {self.fixture}` exited {rc}")
            return out.getvalue()
        return self.generator(seed, self.size)


# Sizes are fixed; keep p**dim far from EXHAUSTIVE_LIMIT = 65536 in both
# directions, or the regime flips (heis ⊕ GF(2)^10 has 2**16 vectors and
# `verify` goes exhaustive, ~70 s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("char2-heis", fixture="heisenberg-dual"),
        Workload("char3-psl3", fixture="psl3", twist=True),
        Workload("sampled-p5", generator=sampled_p5, size=4, samples=100, seeded=True),
        Workload("wide-char2", generator=wide_char2, size=16, samples=20),
    )
}


def main(argv: list[str]) -> int:
    name, seed, size, out = argv
    wl = WORKLOADS[name]
    wl = replace(wl, size=int(size))
    Path(out).write_text(wl.input_text(int(seed, 0)))
    bundle.parse(Path(out).read_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
