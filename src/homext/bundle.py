"""Algebra bundle file format: canonical JSON, exact integers only.

A bundle stores one algebra with optional form, p-map images, named
derivations, a candidate twist involution and double-extension data.
Emission is canonical (fixed key order, brackets sorted lexicographically
by (i, j, k), two-space indent, trailing newline), so parse followed by
emit is the identity on canonical files and emit is idempotent.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gfp
from .algebra import BilinearForm, Derivation, HomLieAlgebra
from .doubleext import DoubleExtensionData, PExtensionData
from .errors import ParseError
from .restricted import PStructure
from .twist import TwistData

FORMAT_VERSION = "1"
MAX_DIM = 256  # the dense structure tensor has dim^3 entries


@dataclass
class AlgebraBundle:
    p: int
    dim: int
    basis: list[str]
    brackets: list[tuple[int, int, int, int]]  # (i, j, k, coeff) with i < j
    alpha: np.ndarray
    form: np.ndarray | None = None
    pmap: np.ndarray | None = None
    derivations: dict[str, Derivation] = field(default_factory=dict)
    twist: np.ndarray | None = None
    extension: dict | None = None

    def algebra(self) -> HomLieAlgebra:
        c = np.zeros((self.dim,) * 3, dtype=np.int64)
        i, j, k, coeff = np.array(self.brackets, dtype=np.int64).reshape(-1, 4).T
        _expect(((0 <= i) & (i < j) & (j < self.dim)).all(), "brackets must satisfy 0 <= i < j < dim")
        c[i, j, k], c[j, i, k] = coeff, (-coeff) % self.p  # the upper half, and the lower one by sign
        return HomLieAlgebra(self.p, c, self.alpha, self.basis)

    def bilinear_form(self) -> BilinearForm | None:
        return None if self.form is None else BilinearForm(self.form, self.p)

    def pstructure(self, algebra: HomLieAlgebra | None = None) -> PStructure | None:
        if self.pmap is None:
            return None
        return PStructure(algebra or self.algebra(), self.pmap)

    def twist_data(self) -> TwistData | None:
        return None if self.twist is None else TwistData(self.twist, self.p)

    def extension_data(self) -> tuple[str, DoubleExtensionData, PExtensionData] | None:
        if self.extension is None:
            return None
        ext = self.extension
        name = ext["derivation"]
        if name not in self.derivations:
            raise ParseError(f"extension refers to unknown derivation {name!r}")
        d = DoubleExtensionData(self.derivations[name], ext["x0"], ext["lambda"], ext["lambda0"])
        pe = PExtensionData(ext["xi"], ext["a0"], ext["m"], ext["l"], ext["u0"], ext["P_basis"], self.p)
        return name, d, pe


def from_parts(
    A: HomLieAlgebra,
    form: BilinearForm | None = None,
    pmap: PStructure | None = None,
    derivations: dict[str, Derivation] | None = None,
    twist: TwistData | None = None,
    extension: dict | None = None,
) -> AlgebraBundle:
    """Assemble a bundle; the tensor must already be alternating and antisymmetric."""
    if not A.alternating:
        raise ParseError("structure tensor is not alternating/antisymmetric")
    flat = np.flatnonzero(A.c != 0)  # C order: sorted by (i, j, k)
    i, j, k = np.unravel_index(flat, A.c.shape)
    entries = [e for e in zip(i.tolist(), j.tolist(), k.tolist(), A.c.flat[flat].tolist()) if e[0] < e[1]]
    return AlgebraBundle(
        p=A.p,
        dim=A.n,
        basis=list(A.basis_names),
        brackets=entries,
        alpha=A.alpha.copy(),
        form=None if form is None else form.gram.copy(),
        pmap=None if pmap is None else pmap.images.copy(),
        derivations=dict(derivations or {}),
        twist=None if twist is None else twist.alpha.copy(),
        extension=extension,
    )


def extension_dict(name: str, d: DoubleExtensionData, pe: PExtensionData) -> dict:
    return {
        "derivation": name,
        "x0": [int(v) for v in d.x0],
        "lambda": int(d.lam),
        "lambda0": int(d.lam0),
        "xi": int(pe.xi),
        "a0": [int(v) for v in pe.a0],
        "m": int(pe.m),
        "l": int(pe.l),
        "u0": [int(v) for v in pe.u0],
        "P_basis": [int(v) for v in pe.P_basis],
    }


def emit(b: AlgebraBundle) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "p": int(b.p),
        "dim": int(b.dim),
        "basis": list(b.basis),
        "brackets": [
            {"i": i, "j": j, "k": k, "coeff": c} for (i, j, k, c) in sorted(b.brackets)
        ],
        "alpha": b.alpha,
        "form": b.form,
        "pmap": b.pmap,
        "derivations": {
            name: {"matrix": d.mat, "degree": int(d.k)}
            for name, d in sorted(b.derivations.items())
        },
        "twist": b.twist,
        "extension": b.extension,
    }
    return dumps(doc) + "\n"


def dumps(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for the values bundles and
    reports hold (str keys); numeric ndarrays are written as lists of ints.
    With an indent, json.dumps runs its pure-Python encoder, so this writer
    joins the strings itself (an array row is one %d format)."""
    return _dump(value, "\n")


def _dump(v, nl: str) -> str:
    inner, esc = nl + "  ", json.encoder.encode_basestring_ascii
    if isinstance(v, np.ndarray) and v.ndim == 1:
        return (f"[{inner}" + f"%d,{inner}" * (v.size - 1) + f"%d{nl}]") % tuple(v.tolist()) if v.size else "[]"
    if isinstance(v, dict):
        body = ("," + inner).join(f"{esc(k)}: {_dump(x, inner)}" for k, x in v.items())
        return "{" + inner + body + nl + "}" if body else "{}"
    if isinstance(v, (list, tuple, np.ndarray)):
        body = ("," + inner).join(str(x) if type(x) is int else _dump(x, inner) for x in v)
        return "[" + inner + body + nl + "]" if body else "[]"
    return str(v) if type(v) is int else esc(v) if isinstance(v, str) else json.dumps(v)  # None, bool, float


def _expect(cond, msg):
    if not cond:
        raise ParseError(msg)


def _entries(name, value, shape, p, shape_msg=None):
    """value as an int64 array of `shape` whose entries are JSON integers in
    [0, p), else ParseError; None stays None.  The entries are read as Python
    objects first: np.int64 would truncate 1.5 and parse "3", and numpy casts
    a true among integers to 1."""
    if value is None:
        return None
    rows = value if len(shape) == 2 else [value]
    if type(value) is list and len(value) == shape[0] and all(type(r) is list and len(r) == shape[-1] for r in rows):
        if set(map(type, flat := list(itertools.chain.from_iterable(rows)))) == {int}:
            _expect(0 <= min(flat) and max(flat) < p, f"{name} entries must be integers in [0, {p})")
            return np.array(value, dtype=np.int64)
    # Not integers of that shape: numpy's reading of the value tells which message applies.
    _expect(np.asarray(value, dtype=object).shape == shape, shape_msg or f"{name} must be dim x dim")
    raise ParseError(f"{name} entries must be integers in [0, {p})")


def parse(text: str) -> AlgebraBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        _expect(doc.get("version") == FORMAT_VERSION, "unsupported format version")
        p = doc["p"]  # only JSON integers: int() would read 1.5, "3" and true as 1, 3, 1
        _expect(type(p) is int and gfp.is_prime(p), "p must be prime")
        _expect(p < 2**63, "p must be below 2^63")  # entries are int64
        dim = doc["dim"]
        _expect(type(dim) is int and dim >= 1, "dim must be positive")
        _expect(dim <= MAX_DIM, f"dim must be at most {MAX_DIM}")
        # int64 sums of dim products below p^2, as in a matrix-vector product
        _expect(dim * (p - 1) ** 2 < 2**63, "dim * (p-1)^2 must be below 2^63")
        basis = list(doc["basis"])
        _expect(len(basis) == dim, "basis names must match dim")
        brackets = []
        for ent in doc["brackets"]:
            i, j, k, c = ent["i"], ent["j"], ent["k"], ent["coeff"]
            _expect(type(i) is type(j) is int and 0 <= i < j < dim,
                    f"bracket ({i},{j}) must satisfy 0 <= i < j < dim")
            _expect(type(k) is int and 0 <= k < dim, "bracket target out of range")
            _expect(type(c) is int and 0 < c < p, "bracket coefficient out of range")
            brackets.append((i, j, k, c))
        _expect(len(set((i, j, k) for i, j, k, _ in brackets)) == len(brackets),
                "duplicate bracket entry")
        alpha = _entries("alpha", doc["alpha"], (dim, dim), p)
        form = _entries("form", doc.get("form"), (dim, dim), p)
        pmap = _entries("pmap", doc.get("pmap"), (dim, dim), p, "pmap must be one image row per basis vector")
        derivs = {}
        for name, spec in doc.get("derivations", {}).items():
            mat = _entries(f"derivation {name}", spec["matrix"], (dim, dim), p)
            degree = spec.get("degree", 1)
            _expect(type(degree) is int and degree >= 0,
                    f"derivation {name} degree must be a nonnegative integer")
            derivs[name] = Derivation(mat, p, degree)
        twist = _entries("twist", doc.get("twist"), (dim, dim), p)
        ext = doc.get("extension")
        if ext is not None:
            for key in ("derivation", "x0", "lambda", "lambda0", "xi", "a0", "m", "l", "u0", "P_basis"):
                _expect(key in ext, f"extension missing field {key!r}")
            for key in ("x0", "a0", "u0", "P_basis"):
                _entries(f"extension {key}", ext[key], (dim,), p, f"extension {key} must have length dim")
            for key in ("lambda", "lambda0", "xi", "m", "l"):
                _expect(type(ext[key]) is int, f"extension {key} must be an integer")
            ext = {
                "derivation": str(ext["derivation"]),
                "x0": [int(v) for v in ext["x0"]],
                "lambda": int(ext["lambda"]) % p,
                "lambda0": int(ext["lambda0"]) % p,
                "xi": int(ext["xi"]) % p,
                "a0": [int(v) for v in ext["a0"]],
                "m": int(ext["m"]) % p,
                "l": int(ext["l"]) % p,
                "u0": [int(v) for v in ext["u0"]],
                "P_basis": [int(v) for v in ext["P_basis"]],
            }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed bundle: {exc}") from exc
    return AlgebraBundle(
        p=p, dim=dim, basis=basis, brackets=sorted(brackets), alpha=alpha,
        form=form, pmap=pmap, derivations=derivs, twist=twist, extension=ext,
    )
