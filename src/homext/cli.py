"""Command-line driver: fixtures, verification, extension, reduction.

Reports go to stdout as JSON with a human summary on stderr; bundle
outputs go to --out or stdout.  Exit codes: 0 all checks pass, 1 a
semantic check or theorem precondition failed, 2 parse/usage errors.
The env var HOMEXT_SEED overrides the default sampling seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bundle as bundle_mod
from . import gfp
from .algebra import d_invariant, verify_derivation, verify_hom_lie, verify_quadratic
from .doubleext import (
    EXTENSION_SAMPLES,
    check_extension_data,
    check_p_extension_data,
    double_extend,
    extend_pstructure,
    reduce as reduce_ext,
)
from .errors import HomextError, ParseError, PreconditionFailed
from .isom import verify_adapted_iso, verify_restricted_iso
from .report import Report
from .restricted import EXHAUSTIVE_LIMIT, is_restricted_derivation, solve_p_property, verify_pstructure
from .rng import DEFAULT_SAMPLES, DEFAULT_SEED
from .twist import (
    build_heisenberg_dual,
    build_psl3,
    build_sl2_gf5,
    twist_algebra,
    twist_derivation,
    twist_pmap,
)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HOMEXT_SEED")
    if env:
        try:
            return int(env, 0)
        except ValueError:
            raise ParseError(f"HOMEXT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_bundle(path: str) -> bundle_mod.AlgebraBundle:
    try:
        with open(path) as fh:
            return bundle_mod.parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_bundle(b, out: str | None) -> None:
    text = bundle_mod.emit(b)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _finish(report: Report) -> int:
    sys.stdout.write(bundle_mod.dumps(report.to_dict()) + "\n")
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def _fixture_bundle(name: str) -> bundle_mod.AlgebraBundle:
    if name == "heisenberg-dual":
        fx = build_heisenberg_dual()
        return bundle_mod.from_parts(
            fx.V, fx.B, fx.P, {"D": fx.D},
            extension=bundle_mod.extension_dict("D", fx.ext, fx.pext),
        )
    if name == "psl3":
        fx = build_psl3()
        from .doubleext import DoubleExtensionData, PExtensionData

        ext = DoubleExtensionData(fx.derivations["D3"], gfp.zeros(7), 1, 0)
        pe = PExtensionData(1, gfp.zeros(7), 0, 0, gfp.zeros(7), gfp.zeros(7), 3)
        return bundle_mod.from_parts(
            fx.g, fx.B, fx.P, fx.derivations, twist=fx.twist,
            extension=bundle_mod.extension_dict("D3", ext, pe),
        )
    fx = build_sl2_gf5()  # argparse's choices admit no other name
    return bundle_mod.from_parts(
        fx.g, fx.B, fx.P, {"D": fx.D},
        extension=bundle_mod.extension_dict("D", fx.ext, fx.pext),
    )


def cmd_fixture(args) -> int:
    _write_bundle(_fixture_bundle(args.name), args.out)
    return 0


def cmd_verify(args) -> int:
    b = _read_bundle(args.file)
    seed = _seed(args)
    if args.exhaustive and b.p**b.dim > EXHAUSTIVE_LIMIT:
        raise ParseError(f"{b.p}^{b.dim} vectors exceed the exhaustive limit {EXHAUSTIVE_LIMIT}")
    A = b.algebra()
    report = Report(file=args.file, seed=seed, samples=args.samples)
    report.merge(verify_hom_lie(A))
    form = b.bilinear_form()
    if form is not None:
        report.merge(verify_quadratic(A, form))
    P = b.pstructure(A)
    if P is not None:
        report.merge(verify_pstructure(P, samples=args.samples, seed=seed))
    t = b.twist_data()
    if t is not None and form is not None:
        from .twist import check_twist_data

        report.merge(check_twist_data(A, form, t), prefix="twist.")
    for name, D in b.derivations.items():
        report.merge(verify_derivation(A, D), prefix=f"{name}.")
        if form is not None:
            report.record(f"{name}.d_invariant", d_invariant(form, D, b.p), ())
        if P is not None:
            report.record(
                f"{name}.restricted",
                is_restricted_derivation(A, P, D, samples=args.samples, seed=seed),
                (),
            )
    ext = b.extension_data()
    if ext is not None and form is not None:
        name, d, pe = ext
        report.merge(check_extension_data(A, form, d), prefix="extension.")
        if P is not None:
            report.merge(check_p_extension_data(A, form, P, d, pe, seed=seed), prefix="extension.")
    return _finish(report)


def _load_extension(b, derivation_flag):
    ext = b.extension_data()
    if derivation_flag:
        if derivation_flag not in b.derivations:
            raise ParseError(f"no derivation named {derivation_flag!r}")
        if ext is None or ext[0] != derivation_flag:
            raise ParseError(
                f"bundle extension data is not for derivation {derivation_flag!r}"
            )
    if ext is None:
        raise ParseError("bundle carries no extension data")
    return ext


def cmd_extend(args) -> int:
    b = _read_bundle(args.file)
    form = b.bilinear_form()
    if form is None:
        raise ParseError("extend needs a quadratic bundle (form missing)")
    name, d, _ = _load_extension(b, args.derivation)
    A = b.algebra()
    L, B_L = double_extend(A, form, d)
    _write_bundle(bundle_mod.from_parts(L, B_L), args.out)
    return 0


def cmd_p_extend(args) -> int:
    b = _read_bundle(args.file)
    form = b.bilinear_form()
    A = b.algebra()
    P = b.pstructure(A)
    if form is None or P is None:
        raise ParseError("p-extend needs form and pmap")
    name, d, pe = _load_extension(b, args.derivation)
    L, B_L = double_extend(A, form, d)
    P_L = extend_pstructure(L, A, form, P, d, pe, samples=args.samples, seed=_seed(args))
    _write_bundle(bundle_mod.from_parts(L, B_L, P_L), args.out)
    return 0


def cmd_reduce(args) -> int:
    b = _read_bundle(args.file)
    form = b.bilinear_form()
    A = b.algebra()
    P = b.pstructure(A)
    if form is None or P is None:
        raise ParseError("reduce needs form and pmap")
    idx = args.center_index if args.center_index is not None else A.n - 1
    if not 0 <= idx < A.n:
        raise ParseError("center index out of range")
    rr = reduce_ext(A, form, P, gfp.unit(A.n, idx))
    out = bundle_mod.from_parts(
        rr.V, rr.B_V, rr.P_V, {"D": rr.d.D},
        extension=bundle_mod.extension_dict("D", rr.d, rr.pe),
    )
    _write_bundle(out, args.out)
    return 0


def cmd_twist(args) -> int:
    b = _read_bundle(args.file)
    form = b.bilinear_form()
    t = b.twist_data()
    if form is None or t is None:
        raise ParseError("twist needs form and a twist matrix")
    A = b.algebra()
    g_t, b_t = twist_algebra(A, form, t)
    P = b.pstructure(A)
    P_t = None if P is None else twist_pmap(P, g_t, t)
    derivs = {}
    for name, D in b.derivations.items():
        try:
            derivs[name] = twist_derivation(A, D, t)
        except PreconditionFailed:
            print(f"dropping derivation {name}: does not commute with the twist", file=sys.stderr)
    ext = b.extension
    if ext is not None and ext["derivation"] not in derivs:
        ext = None
    out = bundle_mod.from_parts(g_t, b_t, P_t, derivs, extension=ext)
    _write_bundle(out, args.out)
    return 0


def cmd_solve_p_property(args) -> int:
    b = _read_bundle(args.file)
    A = b.algebra()
    if args.derivation not in b.derivations:
        raise ParseError(f"no derivation named {args.derivation!r}")
    w = solve_p_property(A, b.derivations[args.derivation])
    if w is None:
        print(json.dumps({"witness": None}))
        print("no p-property witness", file=sys.stderr)
        return 1
    print(json.dumps({"witness": {"xi": int(w.xi), "a0": [int(v) for v in w.a0]}}))
    print(f"xi={int(w.xi)} a0={[int(v) for v in w.a0]}", file=sys.stderr)
    return 0


def cmd_isom_check(args) -> int:
    ba = _read_bundle(args.file_a)
    bb = _read_bundle(args.file_b)
    try:
        with open(args.map) as fh:
            doc = json.load(fh)
        pi = np.asarray(doc["pi"], dtype=np.int64)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read map file: {exc}") from exc
    fa, fb = ba.bilinear_form(), bb.bilinear_form()
    if fa is None or fb is None:
        raise ParseError("isom-check needs quadratic bundles")
    A, B = ba.algebra(), bb.algebra()
    seed = _seed(args)
    report = verify_adapted_iso(A, fa, B, fb, pi)
    Pa, Pb = ba.pstructure(A), bb.pstructure(B)
    if Pa is not None and Pb is not None:
        report.merge(
            verify_restricted_iso(A, fa, B, fb, Pa, Pb, pi, samples=args.samples, seed=seed)
        )
    return _finish(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homext",
        description="Construct and verify restricted Hom-Lie algebra double extensions over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, samples=DEFAULT_SAMPLES):
        sp.add_argument("--samples", type=_positive_int, default=samples,
                        help=f"sampled vectors per check, at least 1 (default {samples})")
        sp.add_argument("--seed", type=lambda s: int(s, 0), default=None)

    sp = sub.add_parser("fixture", help="emit a built-in example bundle")
    sp.add_argument("name", choices=["heisenberg-dual", "psl3", "sl2-gf5"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fixture)

    sp = sub.add_parser("verify", help="run every checker applicable to the bundle")
    sp.add_argument("file")
    sp.add_argument("--exhaustive", action="store_true", help="exit 2 unless p^dim fits the exhaustive limit")
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("extend", help="one-dimensional double extension")
    sp.add_argument("file")
    sp.add_argument("--derivation")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("p-extend", help="double extension with extended p-structure")
    sp.add_argument("file")
    sp.add_argument("--derivation")
    sp.add_argument("--out")
    add_common(sp, samples=EXTENSION_SAMPLES)
    sp.set_defaults(func=cmd_p_extend)

    sp = sub.add_parser("reduce", help="recover the construction data from an extension")
    sp.add_argument("file")
    sp.add_argument("--center-index", type=int, default=None,
                    help="basis index of the central vector e (default: last)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("twist", help="apply the bundle's stored involution")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_twist)

    sp = sub.add_parser("solve-p-property", help="find a (xi, a0) witness for a derivation")
    sp.add_argument("file")
    sp.add_argument("--derivation", required=True)
    sp.set_defaults(func=cmd_solve_p_property)

    sp = sub.add_parser("isom-check", help="verify an adapted / restricted isomorphism")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--map", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_isom_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            _finish(exc.report)
        return 1
    except HomextError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
