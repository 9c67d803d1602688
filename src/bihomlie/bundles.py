"""Domain bundles: algebras, coalgebras, bialgebras, representations,
matched pairs, bilinear forms, and the Report type every checker returns.

Each bundle fixes one canonical basis; all structure constants refer to it.
The dual space always uses the canonical dual basis, so every dual map is a
transpose.  Optional fields (nijenhuis, differential, ...) absent mean
"not claimed", never "identity".  Bundles are immutable after construction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable

from .exact import (
    DimensionMismatch,
    Matrix,
    Row,
    Tensor3,
    Vector,
    ZERO,
    format_scalar,
    scalar,
)


class ParseError(ValueError):
    """Malformed bundle document; message carries the offending field or line."""


class MissingField(ValueError):
    """A checker or construction needs an optional field that is absent."""


# -- bundle types --------------------------------------------------------------


@dataclass(frozen=True)
class Differential:
    """A square map together with its weight."""

    matrix: Matrix
    weight: Fraction


@dataclass(frozen=True)
class AlgebraBundle:
    """A bracket algebra with structure maps alpha, beta and optional
    nijenhuis / differential operators.  kind "lie" forces alpha = beta = id."""

    dim: int
    bracket: Tensor3
    alpha: Matrix
    beta: Matrix
    nijenhuis: Matrix | None = None
    differential: Differential | None = None
    kind: str = "bihom-lie"

    def __post_init__(self) -> None:
        n = self.dim
        if self.bracket.shape != (n, n, n):
            raise DimensionMismatch(f"bracket shape {self.bracket.shape} does not match dim {n}")
        d = self.differential.matrix if self.differential else None
        for name, m in [("alpha", self.alpha), ("beta", self.beta), ("nijenhuis", self.nijenhuis), ("differential", d)]:
            if m is not None and (m.rows, m.cols) != (n, n):
                raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, expected {n}x{n}")
        if self.kind not in ("lie", "bihom-lie"):
            raise ParseError(f"unknown algebra kind {self.kind!r}")
        if self.kind == "lie":
            if not (self.alpha.is_identity() and self.beta.is_identity()):
                raise ParseError("kind 'lie' requires alpha = beta = identity")

    def require_nijenhuis(self) -> Matrix:
        if self.nijenhuis is None:
            raise MissingField("algebra bundle has no nijenhuis operator")
        return self.nijenhuis

    def require_differential(self) -> Differential:
        if self.differential is None:
            raise MissingField("algebra bundle has no differential")
        return self.differential


@dataclass(frozen=True)
class CoalgebraBundle:
    """A comultiplication with structure maps and optional conijenhuis /
    codifferential operators."""

    dim: int
    comul: Tensor3
    alpha: Matrix
    beta: Matrix
    conijenhuis: Matrix | None = None
    codiff: Differential | None = None

    def __post_init__(self) -> None:
        n = self.dim
        if self.comul.shape != (n, n, n):
            raise DimensionMismatch(f"comul shape {self.comul.shape} does not match dim {n}")
        d = self.codiff.matrix if self.codiff else None
        for name, m in [("alpha", self.alpha), ("beta", self.beta), ("conijenhuis", self.conijenhuis), ("codiff", d)]:
            if m is not None and (m.rows, m.cols) != (n, n):
                raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, expected {n}x{n}")

    def require_conijenhuis(self) -> Matrix:
        if self.conijenhuis is None:
            raise MissingField("coalgebra bundle has no conijenhuis operator")
        return self.conijenhuis

    def require_codiff(self) -> Differential:
        if self.codiff is None:
            raise MissingField("coalgebra bundle has no codifferential")
        return self.codiff


@dataclass(frozen=True)
class BialgebraBundle:
    """An algebra and a coalgebra over the same space with shared maps."""

    algebra: AlgebraBundle
    coalgebra: CoalgebraBundle

    def __post_init__(self) -> None:
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatch("algebra and coalgebra dimensions differ")
        if self.algebra.alpha != self.coalgebra.alpha or self.algebra.beta != self.coalgebra.beta:
            raise ParseError("bialgebra requires shared alpha and beta")

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class RepresentationBundle:
    """A module over an algebra bundle: action matrices rho(e_i) together with
    the module maps p, q and optional eta / xi operators."""

    algebra: AlgebraBundle
    vdim: int
    rho: tuple[Matrix, ...]
    p: Matrix
    q: Matrix
    eta: Matrix | None = None
    xi: Matrix | None = None

    def __post_init__(self) -> None:
        if len(self.rho) != self.algebra.dim:
            raise DimensionMismatch(f"{len(self.rho)} action matrices for algebra of dim {self.algebra.dim}")
        v = self.vdim
        for name, m in [("p", self.p), ("q", self.q), ("eta", self.eta), ("xi", self.xi), *[(f"rho[{i}]", r) for i, r in enumerate(self.rho)]]:
            if m is not None and (m.rows, m.cols) != (v, v):
                raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, expected {v}x{v}")

    def require_eta(self) -> Matrix:
        if self.eta is None:
            raise MissingField("representation bundle has no eta operator")
        return self.eta

    def require_xi(self) -> Matrix:
        if self.xi is None:
            raise MissingField("representation bundle has no xi operator")
        return self.xi


@dataclass(frozen=True)
class MatchedPairBundle:
    """Two algebras acting on each other: rho sends left basis vectors to maps
    on the right space, h sends right basis vectors to maps on the left."""

    left: AlgebraBundle
    right: AlgebraBundle
    rho: tuple[Matrix, ...]
    h: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.rho) != self.left.dim or len(self.h) != self.right.dim:
            raise DimensionMismatch("action list lengths do not match algebra dimensions")
        for m in self.rho:
            if (m.rows, m.cols) != (self.right.dim, self.right.dim):
                raise DimensionMismatch("rho matrices must act on the right space")
        for m in self.h:
            if (m.rows, m.cols) != (self.left.dim, self.left.dim):
                raise DimensionMismatch("h matrices must act on the left space")

    @cached_property
    def rho_module(self) -> RepresentationBundle:
        """V as a module over L through rho, with V's maps and operators."""
        return _module(self.left, self.right, self.rho)

    @cached_property
    def h_module(self) -> RepresentationBundle:
        """L as a module over V through h, with L's maps and operators."""
        return _module(self.right, self.left, self.h)


def _module(acting: AlgebraBundle, on: AlgebraBundle, action: tuple[Matrix, ...]) -> RepresentationBundle:
    return RepresentationBundle(acting, on.dim, action, on.alpha, on.beta, eta=on.nijenhuis,
                                xi=on.differential.matrix if on.differential else None)


@dataclass(frozen=True)
class FormBundle:
    """A bilinear form via its Gram matrix B(e_i, e_j)."""

    gram: Matrix

    def __post_init__(self) -> None:
        if not self.gram.is_square():
            raise DimensionMismatch("gram matrix must be square")

    @property
    def dim(self) -> int:
        return self.gram.rows


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Residual:
    """Exact residual array stored sparsely; pass iff no nonzero cells."""

    shape: tuple[int, ...]
    nonzeros: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def collect(shape: tuple[int, ...], cells: Iterable[tuple[tuple[int, ...], Fraction]]) -> "Residual":
        nz = tuple(sorted(((idx, v) for idx, v in cells if v != 0), key=lambda c: c[0]))
        return Residual(shape, nz)

    @staticmethod
    def tabulate(ranges: tuple[int, ...], width: int, value: Callable[..., Row]) -> "Residual":
        """Residual of the rows value(*idx), each of extent width and given by
        a ``Row``, over every index tuple idx in the ranges.  Tuples come in
        index order and a row's columns in increasing order, so the cells of
        the nonempty rows are appended already sorted."""
        cells = []
        for idx in itertools.product(*map(range, ranges)):
            den, pairs = value(*idx)
            if pairs:
                cells.extend([(idx + (k,), Fraction(v, den)) for k, v in pairs])
        return Residual(ranges + (width,), tuple(cells))

    @staticmethod
    def from_matrix(m: Matrix | Tensor3) -> "Residual":
        """The residual of a whole Matrix or Tensor3, indexed like it."""
        if isinstance(m, Matrix):
            return Residual.tabulate((m.rows,), m.cols, m.nz.__getitem__)
        return Residual.tabulate(m.shape[:2], m.shape[2], lambda i, j: m.nz[i][j])

    @property
    def is_zero(self) -> bool:
        return not self.nonzeros


@dataclass(frozen=True)
class CheckEntry:
    identity: str
    case: str
    residual: Residual
    advisory: bool = False

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def entry(identity: str, case: str, residual: Residual) -> CheckEntry:
    return CheckEntry(identity, case, residual)


@dataclass(frozen=True)
class Report:
    """Per-identity exact residuals with boolean verdicts.

    notes carry violated hypotheses the checkers report without gating on
    (e.g. "alpha is not invertible").  Advisory entries are informational
    variants that never affect the verdict.
    """

    entries: tuple[CheckEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries if not e.advisory)

    def merged(self, *others: "Report") -> "Report":
        reports = (self, *others)
        return Report(tuple(e for r in reports for e in r.entries), tuple(n for r in reports for n in r.notes))

    def prefixed(self, prefix: str) -> "Report":
        """Re-label entry cases with a context prefix (for composite reports)."""
        return Report(
            tuple(CheckEntry(e.identity, f"{prefix}:{e.case}" if e.case else prefix, e.residual, e.advisory) for e in self.entries),
            tuple(f"{prefix}: {n}" for n in self.notes),
        )


# -- serialization ---------------------------------------------------------------


def _fmt_vector(v: Vector) -> list[str]:
    return [format_scalar(x) for x in v]


def _fmt_matrix(m: Matrix) -> list[list[str]]:
    return [_fmt_vector(row) for row in m.entries]


def _fmt_bracket(t: Tensor3) -> list[dict[str, Any]]:
    return [{"i": i + 1, "j": j + 1, "out": _fmt_vector(t.entries[i][j])}
            for i, plane in enumerate(t.nz) for j, (_, pairs) in enumerate(plane) if pairs]


def _fmt_comul(t: Tensor3) -> list[dict[str, Any]]:
    return [{"k": k + 1, "out": [_fmt_vector(row) for row in t.entries[k]]}
            for k, plane in enumerate(t.nz) if any(pairs for _, pairs in plane)]


def _parsed(where: str, parse: Callable[[Any], Any], obj: Any) -> Any:
    """parse(obj), a malformed obj reported as a ParseError naming the field."""
    try:
        return parse(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {where!r}: {exc}") from exc


def _parse_matrix(obj: Any, n: int, where: str) -> Matrix:
    m = _parsed(where, Matrix.from_rows, obj)
    if (m.rows, m.cols) != (n, n):
        raise DimensionMismatch(f"field {where!r} is {m.rows}x{m.cols} against dim {n}")
    return m


def _parse_actions(obj: Any, count: int, n: int, where: str) -> tuple[Matrix, ...]:
    """A JSON list of one n x n action matrix per basis vector of a dim-count space."""
    if not isinstance(obj, list):
        raise ParseError(f"field {where!r}: expected a JSON list of matrices, got {obj!r}")
    if len(obj) != count:
        raise DimensionMismatch(f"{len(obj)} {where} matrices against dim {count}")
    return tuple(_parse_matrix(m, n, f"{where}[{i}]") for i, m in enumerate(obj))


def _integer(value: Any) -> int:
    """A JSON integer; floats, booleans and strings are refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _entry_list(obj: Any, where: str) -> list:
    """The entries of a bracket or comul field, which must be a JSON list;
    ``null``, ``0``, ``false`` or ``{}`` are refused, not read as empty."""
    if not isinstance(obj, list):
        raise ParseError(f"field {where!r}: expected a JSON list of entries, got {obj!r}")
    return obj


def _parse_bracket(obj: Any, n: int, where: str = "bracket") -> Tensor3:
    cells = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for item in _entry_list(obj, where):
        try:
            i, j = _integer(item["i"]), _integer(item["j"])
            out = [scalar(x) for x in item["out"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"field {where!r}: bad entry {item!r}: {exc}") from exc
        if not (1 <= i <= n and 1 <= j <= n) or len(out) != n:
            raise DimensionMismatch(f"field {where!r}: entry (i={i}, j={j}) out of range for dim {n}")
        if (i, j) in seen:
            raise ParseError(f"field {where!r}: repeated entry (i={i}, j={j})")
        seen.add((i, j))
        cells[i - 1][j - 1] = out
    return Tensor3.from_entries(cells)


def _parse_comul(obj: Any, n: int, where: str = "comul") -> Tensor3:
    cells = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for item in _entry_list(obj, where):
        try:
            k = _integer(item["k"])
            out = [[scalar(x) for x in row] for row in item["out"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"field {where!r}: bad entry {item!r}: {exc}") from exc
        if not 1 <= k <= n or len(out) != n or any(len(row) != n for row in out):
            raise DimensionMismatch(f"field {where!r}: entry k={k} out of range for dim {n}")
        if k in seen:
            raise ParseError(f"field {where!r}: repeated entry k={k}")
        seen.add(k)
        cells[k - 1] = out
    return Tensor3.from_entries(cells)


def _parse_differential(obj: Any, n: int, where: str) -> Differential:
    try:
        mat = obj["matrix"]
        w = scalar(obj["weight"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"field {where!r}: {exc}") from exc
    return Differential(_parse_matrix(mat, n, where + ".matrix"), w)


def _algebra_document(b: AlgebraBundle) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": "algebra",
        "dim": b.dim,
        "variant": b.kind,
        "bracket": _fmt_bracket(b.bracket),
        "alpha": _fmt_matrix(b.alpha),
        "beta": _fmt_matrix(b.beta),
    }
    if b.nijenhuis is not None:
        doc["nijenhuis"] = _fmt_matrix(b.nijenhuis)
    if b.differential is not None:
        doc["differential"] = {"matrix": _fmt_matrix(b.differential.matrix), "weight": format_scalar(b.differential.weight)}
    return doc


def _coalgebra_document(c: CoalgebraBundle) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": "coalgebra",
        "dim": c.dim,
        "comul": _fmt_comul(c.comul),
        "alpha": _fmt_matrix(c.alpha),
        "beta": _fmt_matrix(c.beta),
    }
    if c.conijenhuis is not None:
        doc["conijenhuis"] = _fmt_matrix(c.conijenhuis)
    if c.codiff is not None:
        doc["codiff"] = {"matrix": _fmt_matrix(c.codiff.matrix), "weight": format_scalar(c.codiff.weight)}
    return doc


def document(bundle: Any) -> dict[str, Any]:
    """Serialize any bundle to its JSON document (lowest-terms rationals)."""
    if isinstance(bundle, AlgebraBundle):
        return _algebra_document(bundle)
    if isinstance(bundle, CoalgebraBundle):
        return _coalgebra_document(bundle)
    if isinstance(bundle, BialgebraBundle):
        both = {**_coalgebra_document(bundle.coalgebra), **_algebra_document(bundle.algebra)}
        keys = ("dim", "variant", "bracket", "comul", "alpha", "beta", "nijenhuis", "conijenhuis", "differential", "codiff")
        return {"kind": "bialgebra", **{k: both[k] for k in keys if k in both}}
    if isinstance(bundle, RepresentationBundle):
        doc = {
            "kind": "representation",
            "dim": bundle.algebra.dim,
            "vdim": bundle.vdim,
            "algebra": _algebra_document(bundle.algebra),
            "rho": [_fmt_matrix(m) for m in bundle.rho],
            "p": _fmt_matrix(bundle.p),
            "q": _fmt_matrix(bundle.q),
        }
        if bundle.eta is not None:
            doc["eta"] = _fmt_matrix(bundle.eta)
        if bundle.xi is not None:
            doc["xi"] = _fmt_matrix(bundle.xi)
        return doc
    if isinstance(bundle, MatchedPairBundle):
        return {
            "kind": "matched_pair",
            "dim": bundle.left.dim,
            "left": _algebra_document(bundle.left),
            "right": _algebra_document(bundle.right),
            "rho": [_fmt_matrix(m) for m in bundle.rho],
            "h": [_fmt_matrix(m) for m in bundle.h],
        }
    if isinstance(bundle, FormBundle):
        return {"kind": "form", "dim": bundle.dim, "gram": _fmt_matrix(bundle.gram)}
    raise TypeError(f"cannot serialize {type(bundle).__name__}")


def dumps(bundle: Any) -> str:
    return json.dumps(document(bundle), indent=2) + "\n"


def _algebra_from_document(doc: dict[str, Any]) -> AlgebraBundle:
    n = _read_dim(doc)
    variant = doc.get("variant", "bihom-lie")
    alpha = _parse_matrix(doc["alpha"], n, "alpha") if "alpha" in doc else Matrix.identity(n)
    beta = _parse_matrix(doc["beta"], n, "beta") if "beta" in doc else Matrix.identity(n)
    nij = _parse_matrix(doc["nijenhuis"], n, "nijenhuis") if "nijenhuis" in doc else None
    diff = _parse_differential(doc["differential"], n, "differential") if "differential" in doc else None
    return AlgebraBundle(n, _parse_bracket(doc.get("bracket", []), n), alpha, beta, nij, diff, variant)


def _coalgebra_from_document(doc: dict[str, Any]) -> CoalgebraBundle:
    n = _read_dim(doc)
    alpha = _parse_matrix(doc["alpha"], n, "alpha") if "alpha" in doc else Matrix.identity(n)
    beta = _parse_matrix(doc["beta"], n, "beta") if "beta" in doc else Matrix.identity(n)
    conij = _parse_matrix(doc["conijenhuis"], n, "conijenhuis") if "conijenhuis" in doc else None
    codiff = _parse_differential(doc["codiff"], n, "codiff") if "codiff" in doc else None
    return CoalgebraBundle(n, _parse_comul(doc.get("comul", []), n), alpha, beta, conij, codiff)


def _read_dim(doc: dict[str, Any], key: str = "dim") -> int:
    try:
        n = _integer(doc[key])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or bad {key!r}: {exc}") from exc
    if n < 1:
        raise ParseError(f"{key} must be positive, got {n}")
    return n


def from_document(doc: dict[str, Any]) -> Any:
    """Build a bundle from a parsed JSON document, dispatching on 'kind'."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing 'kind': {exc}") from exc
    if kind == "algebra":
        return _algebra_from_document(doc)
    if kind == "coalgebra":
        return _coalgebra_from_document(doc)
    if kind == "bialgebra":
        return BialgebraBundle(_algebra_from_document(doc), _coalgebra_from_document(doc))
    if kind == "representation":
        n, vdim = _read_dim(doc), _read_dim(doc, "vdim")
        try:
            algebra = _algebra_from_document(doc["algebra"])
            rho_docs = doc["rho"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"representation document: {exc}") from exc
        if algebra.dim != n:
            raise DimensionMismatch(f"embedded algebra dim {algebra.dim} does not match dim {n}")
        rho = _parse_actions(rho_docs, n, vdim, "rho")
        p = _parse_matrix(doc["p"], vdim, "p") if "p" in doc else Matrix.identity(vdim)
        q = _parse_matrix(doc["q"], vdim, "q") if "q" in doc else Matrix.identity(vdim)
        eta = _parse_matrix(doc["eta"], vdim, "eta") if "eta" in doc else None
        xi = _parse_matrix(doc["xi"], vdim, "xi") if "xi" in doc else None
        return RepresentationBundle(algebra, vdim, rho, p, q, eta, xi)
    if kind == "matched_pair":
        try:
            left = _algebra_from_document(doc["left"])
            right = _algebra_from_document(doc["right"])
            rho_docs, h_docs = doc["rho"], doc["h"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"matched_pair document: {exc}") from exc
        rho = _parse_actions(rho_docs, left.dim, right.dim, "rho")
        h = _parse_actions(h_docs, right.dim, left.dim, "h")
        return MatchedPairBundle(left, right, rho, h)
    if kind == "form":
        n = _read_dim(doc)
        if "gram" not in doc:
            raise ParseError("form document needs a 'gram' matrix")
        return FormBundle(_parse_matrix(doc["gram"], n, "gram"))
    raise ParseError(f"unknown bundle kind {kind!r}")


def load(text: str) -> Any:
    """Parse a bundle document; exact round-trip with dumps()."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return from_document(doc)


def load_path(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh.read())


def save_path(bundle: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(bundle))


# -- canonical fixtures -----------------------------------------------------------


def bihom2(m: int | str | Fraction, n: int | str | Fraction) -> AlgebraBundle:
    """Two-dimensional parametric family carrying commuting twisting maps and a
    compatible deformation operator; defined for m != 0 and n not in {0, 1}."""
    m, n = scalar(m), scalar(n)
    if m == 0 or n == 0 or n == 1:
        raise ValueError("bihom2 requires m != 0, n != 0 and n != 1")
    bracket = Tensor3.from_entries([
        [[ZERO, ZERO], [-n, m]],
        [[n - 1, -m * (n - 1) / n], [-n / m, scalar(1)]],
    ])
    alpha = Matrix.from_rows([[1, Fraction(1) / m], [0, (n - 1) / n]])
    beta = Matrix.identity(2)
    nij = Matrix.from_rows([[1, n * (1 - m) / m], [0, m]])
    return AlgebraBundle(2, bracket, alpha, beta, nijenhuis=nij, kind="bihom-lie")


def sl2() -> AlgebraBundle:
    """sl2 on basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    cells = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
             [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
             [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
    return AlgebraBundle(3, Tensor3.from_entries(cells), Matrix.identity(3), Matrix.identity(3), kind="lie")


def aff2() -> AlgebraBundle:
    """Two-dimensional non-abelian algebra: [e1, e2] = e2."""
    cells = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    return AlgebraBundle(2, Tensor3.from_entries(cells), Matrix.identity(2), Matrix.identity(2), kind="lie")


def abelian(n: int) -> AlgebraBundle:
    """Abelian algebra of dimension n with identity structure maps."""
    if n < 1:
        raise ValueError(f"abelian requires a positive dimension, got {n}")
    return AlgebraBundle(n, Tensor3.zeros((n, n, n)), Matrix.identity(n), Matrix.identity(n), kind="lie")


def canonical_fixtures() -> dict[str, Any]:
    """Named bundle catalog.  Parametric entries are callables."""
    return {
        "bihom2": bihom2,
        "sl2": sl2(),
        "aff2": aff2(),
        "abelian": abelian,
    }


def fixture_by_name(name: str) -> Any:
    """Resolve a catalog reference like "sl2", "abelian(3)" or "bihom2(2,3)"."""
    name = name.strip()
    if "(" in name and name.endswith(")"):
        base, argstr = name[:-1].split("(", 1)
        args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    else:
        base, args = name, []
    catalog = canonical_fixtures()
    if base not in catalog:
        raise ParseError(f"unknown fixture {base!r}; known: {sorted(catalog)}")
    item = catalog[base]
    if callable(item):
        try:
            if base == "abelian":
                return item(int(args[0]))
            return item(*[scalar(a) for a in args])
        except (IndexError, ValueError, TypeError) as exc:
            raise ParseError(f"bad arguments for fixture {base!r}: {exc}") from exc
    if args:
        raise ParseError(f"fixture {base!r} takes no arguments")
    return item
