"""Domain bundles: algebras, coalgebras, bialgebras, representations,
matched pairs, bilinear forms, and the Report type every checker returns.

Each bundle fixes one canonical basis; all structure constants refer to it.
The dual space always uses the canonical dual basis, so every dual map is a
transpose.  Optional fields (nijenhuis, differential, ...) absent mean
"not claimed", never "identity"; ``require`` reads one that a checker needs.
Bundles are immutable after construction.  A Report's residuals have one
reader, ``Residual.from_rows``: it makes the cells of (index, row) pairs and
``Residual.collect`` sorts them; no other module builds a cell.

This module alone knows the document format.  ``FIELDS`` declares each
field of each kind once: the writer writes the set ones in that order, and
the reader refuses any other key.  There is one reader per value type (a
square matrix, a {matrix, weight} differential, an action list, keyed tensor
entries), and every JSON list they read passes one check, which refuses a
string (or anything else) where a list belongs.  ``parse_json`` parses every
JSON text the package reads (a bundle, a ``--maps`` or ``--pattern`` file),
and ``require_kind`` is the one check that a bundle is of a kind an input takes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .exact import (
    EMPTY,
    MAX_DIGITS,
    DimensionMismatch,
    Matrix,
    Row,
    Tensor3,
    ZERO,
    _dense,
    _quoted,
    _row,
    cached_property,
    scalar,
)


class ParseError(ValueError):
    """Malformed bundle document; message carries the offending field or line."""


class MissingField(ValueError):
    """A checker or construction needs an optional field that is absent."""


# -- bundle types --------------------------------------------------------------


def _require_square(n: int, maps: dict[str, Matrix | None]) -> None:
    """DimensionMismatch naming the first given map that is not n x n; None passes."""
    for name, m in maps.items():
        if m is not None and (m.rows, m.cols) != (n, n):
            raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, expected {n}x{n}")


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
        _require_square(n, {"alpha": self.alpha, "beta": self.beta, "nijenhuis": self.nijenhuis,
                            "differential": self.differential and self.differential.matrix})
        if self.kind not in ("lie", "bihom-lie"):
            raise ParseError(f"unknown algebra kind {_quoted(self.kind)}")
        if self.kind == "lie":
            if not (self.alpha.is_identity() and self.beta.is_identity()):
                raise ParseError("kind 'lie' requires alpha = beta = identity")


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
        _require_square(n, {"alpha": self.alpha, "beta": self.beta, "conijenhuis": self.conijenhuis,
                            "codiff": self.codiff and self.codiff.matrix})


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
        _require_square(self.vdim, {"p": self.p, "q": self.q, "eta": self.eta, "xi": self.xi,
                                    **{f"rho[{i}]": r for i, r in enumerate(self.rho)}})


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
        _require_square(self.right.dim, {f"rho[{i}]": m for i, m in enumerate(self.rho)})
        _require_square(self.left.dim, {f"h[{i}]": m for i, m in enumerate(self.h)})

    @cached_property
    def swapped(self) -> "MatchedPairBundle":
        """The same pair read from its other side: (V, L, h, rho)."""
        return MatchedPairBundle(self.right, self.left, self.h, self.rho)

    @cached_property
    def rho_module(self) -> RepresentationBundle:
        """V as a module over L through rho, with V's maps and operators."""
        v = self.right
        return RepresentationBundle(self.left, v.dim, self.rho, v.alpha, v.beta, eta=v.nijenhuis,
                                    xi=v.differential.matrix if v.differential else None)

    @cached_property
    def h_module(self) -> RepresentationBundle:
        """L as a module over V through h, with L's maps and operators."""
        return self.swapped.rho_module


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


#: bundle type -> the kind its document names
KINDS: dict[type, str] = {AlgebraBundle: "algebra", CoalgebraBundle: "coalgebra", BialgebraBundle: "bialgebra",
                          RepresentationBundle: "representation", MatchedPairBundle: "matched_pair", FormBundle: "form"}


def require(bundle: Any, field: str) -> Any:
    """The optional field of bundle, or MissingField naming its kind and the field."""
    value = getattr(bundle, field)
    if value is None:
        what = field if field in ("differential", "codiff") else f"{field} operator"
        raise MissingField(f"{KINDS[type(bundle)]} bundle has no {what}")
    return value


def require_kind(bundle: Any, what: str, *types: type) -> Any:
    """The bundle, if it is of one of the kinds ``what`` accepts; else a ParseError naming them."""
    if not isinstance(bundle, types):
        wanted, got = " or ".join(KINDS[t] for t in types), KINDS[type(bundle)]
        raise ParseError(f"{what} needs a bundle of kind {wanted}, got kind {got}")
    return bundle


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class Residual:
    """Exact residual array stored sparsely; pass iff no nonzero cells."""

    shape: tuple[int, ...]
    nonzeros: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __init__(self, shape: tuple[int, ...], nonzeros: tuple[tuple[tuple[int, ...], Fraction], ...]) -> None:
        d = self.__dict__  # as in exact.Matrix
        d["shape"], d["nonzeros"] = shape, nonzeros

    @staticmethod
    def collect(shape: tuple[int, ...], cells: Iterable[tuple[tuple[int, ...], Fraction]]) -> "Residual":
        nz = tuple(sorted(((idx, v) for idx, v in cells if v != 0), key=lambda c: c[0]))
        return Residual(shape, nz)

    @staticmethod
    def from_rows(shape: tuple[int, ...], rows: Iterable[tuple[tuple[int, ...], Row]],
                  row_first: bool = False) -> "Residual":
        """The one reader of rows: the residual with cell (*idx, k), or (k, *idx) if row_first, for each nonzero k
        of each (idx, row) pair, in any order.  The cells pass ``collect`` (looked up on the class, so a wrapper
        sees every residual); no cell makes the zero residual without that call."""
        cells = [((k, *idx) if row_first else (*idx, k), Fraction(v, den)) for idx, (den, pairs) in rows
                 for k, v in pairs]
        return Residual.collect(shape, cells) if cells else Residual(shape, ())

    @staticmethod
    def from_matrix(m: Matrix | Tensor3) -> "Residual":
        """The residual of a whole Matrix or Tensor3, indexed like it: with no nonempty row (the common case, a
        passing identity) the zero residual is returned at once, and otherwise its rows go to ``from_rows``."""
        shape = (m.rows, m.cols) if isinstance(m, Matrix) else m.shape
        if m.is_zero():
            return Residual(shape, ())
        return Residual.from_rows(shape, (((i,), row) for i, row in enumerate(m.nz)) if len(shape) == 2 else
                                  (((i, j), row) for i, plane in enumerate(m.nz) for j, row in enumerate(plane)))

    @property
    def is_zero(self) -> bool:
        return not self.nonzeros


@dataclass(frozen=True, init=False)
class CheckEntry:
    identity: str
    case: str
    residual: Residual
    advisory: bool = False

    def __init__(self, identity: str, case: str, residual: Residual, advisory: bool = False) -> None:
        d = self.__dict__  # as in exact.Matrix
        d["identity"], d["case"], d["residual"], d["advisory"] = identity, case, residual, advisory

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


@dataclass(frozen=True, init=False)
class Report:
    """Per-identity exact residuals with boolean verdicts.

    notes carry violated hypotheses the checkers report without gating on
    (e.g. "algebra is not involutive").  Advisory entries are informational
    variants that never affect the verdict.
    """

    entries: tuple[CheckEntry, ...]
    notes: tuple[str, ...] = ()

    def __init__(self, entries: tuple[CheckEntry, ...], notes: tuple[str, ...] = ()) -> None:
        d = self.__dict__  # as in exact.Matrix
        d["entries"], d["notes"] = entries, notes

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries if not e.advisory)

    def merged(self, *others: "Report") -> "Report":
        """This report's entries and notes followed by those of each other report, in order, concatenated into
        lists and then tuples."""
        entries, notes = list(self.entries), list(self.notes)
        for r in others:
            entries += r.entries
            notes += r.notes
        return Report(tuple(entries), tuple(notes))

    def prefixed(self, prefix: str) -> "Report":
        """Re-label entry cases with a context prefix (for composite reports)."""
        return Report(
            tuple([CheckEntry(e.identity, f"{prefix}:{e.case}" if e.case else prefix, e.residual, e.advisory)
                   for e in self.entries]),
            tuple([f"{prefix}: {n}" for n in self.notes]),
        )


# -- documents -------------------------------------------------------------------


#: document kind -> its fields after "kind", in the order they are written.
#: A document holding any other key is refused; a bialgebra holds the fields
#: of an algebra and of a coalgebra.
FIELDS: dict[str, tuple[str, ...]] = {
    "algebra": ("dim", "variant", "bracket", "alpha", "beta", "nijenhuis", "differential"),
    "coalgebra": ("dim", "comul", "alpha", "beta", "conijenhuis", "codiff"),
    "bialgebra": ("dim", "variant", "bracket", "comul", "alpha", "beta", "nijenhuis", "conijenhuis",
                  "differential", "codiff"),
    "representation": ("dim", "vdim", "algebra", "rho", "p", "q", "eta", "xi"),
    "matched_pair": ("dim", "left", "right", "rho", "h"),
    "form": ("dim", "gram"),
}


def to_json(value: Any) -> Any:
    """value as JSON data: a matrix as its rows of lowest-terms rationals, a
    differential as {matrix, weight}, a bundle as its document, a list or
    tuple item by item, and anything else (already JSON) as it is."""
    if isinstance(value, Matrix):
        return [[str(x) for x in row] for row in value.entries]
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Differential):
        return {"matrix": to_json(value.matrix), "weight": str(value.weight)}
    if type(value) in KINDS:
        return document(value)
    return value


def _values(b: Any) -> dict[str, Any]:
    """The value of each field FIELDS declares for the kind of b; None when unset."""
    if isinstance(b, AlgebraBundle):
        return {"dim": b.dim, "variant": b.kind, "alpha": b.alpha, "beta": b.beta, "nijenhuis": b.nijenhuis,
                "differential": b.differential,
                "bracket": [{"i": i + 1, "j": j + 1, "out": [str(x) for x in _dense(row, b.dim)]}
                            for i, plane in enumerate(b.bracket.nz) for j, row in enumerate(plane) if row[1]]}
    if isinstance(b, CoalgebraBundle):
        t = b.comul
        return {"dim": b.dim, "alpha": b.alpha, "beta": b.beta, "conijenhuis": b.conijenhuis, "codiff": b.codiff,
                "comul": [{"k": k + 1, "out": to_json(Matrix(b.dim, b.dim, plane))}
                          for k, plane in enumerate(t.nz) if any(pairs for _, pairs in plane)]}
    if isinstance(b, BialgebraBundle):
        return {**_values(b.coalgebra), **_values(b.algebra)}
    if isinstance(b, RepresentationBundle):
        return {"dim": b.algebra.dim, "vdim": b.vdim, "algebra": b.algebra, "rho": b.rho, "p": b.p, "q": b.q,
                "eta": b.eta, "xi": b.xi}
    if isinstance(b, MatchedPairBundle):
        return {"dim": b.left.dim, "left": b.left, "right": b.right, "rho": b.rho, "h": b.h}
    return {"dim": b.dim, "gram": b.gram}


def document(bundle: Any) -> dict[str, Any]:
    """Serialize any bundle to its JSON document (lowest-terms rationals): each
    set field of its kind, in ``FIELDS`` order."""
    kind = KINDS.get(type(bundle))
    if kind is None:
        raise TypeError(f"cannot serialize {type(bundle).__name__}")
    values = _values(bundle)
    return {"kind": kind, **{key: to_json(values[key]) for key in FIELDS[kind] if values[key] is not None}}


def dumps(bundle: Any) -> str:
    return json.dumps(document(bundle), indent=2) + "\n"


def _parsed(where: str, parse: Callable[[Any], Any], obj: Any) -> Any:
    """parse(obj), a malformed obj reported as a ParseError naming the field."""
    try:
        return parse(obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {where!r}: {_quoted(exc)}") from exc


def _list(obj: Any, where: str, what: str) -> list:
    """obj if it is a JSON list.  Anything else is refused: a string is never
    read one character at a time, nor ``null``, ``0`` or ``{}`` as empty."""
    if not isinstance(obj, list):
        raise ParseError(f"field {where!r}: expected a JSON list of {what}, got {_quoted(obj)}")
    return obj


def _rows(obj: Any, where: str) -> list[list]:
    """The one row reader: obj as a JSON list of rows, each a JSON list."""
    return [_list(row, where, "rationals") for row in _list(obj, where, "rows")]


def _square(obj: Any, n: int, where: str) -> Matrix:
    """obj read as an n x n matrix."""
    m = _parsed(where, Matrix.from_rows, _rows(obj, where))
    _require_square(n, {f"field {where!r}": m})
    return m


def _object(obj: Any, where: str, keys: tuple[str, ...], what: str) -> dict:
    """obj if it is a JSON object holding each of keys and no other key; else a ParseError naming the missing or
    unknown key, or the value that is no object, and the shape expected."""
    shape = f"{what} must be a JSON object with keys {', '.join(keys)}"
    if not isinstance(obj, dict):
        raise ParseError(f"field {where!r}: {shape}, got {_quoted(obj)}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"field {where!r}: {_quoted(obj)} has no key {key!r}; {shape}")
    _known_keys(obj, keys, what)
    return obj


def _known_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    for key in obj:
        if key not in keys:
            raise ParseError(f"field {_quoted(key)} is not read from {what}; known fields: {', '.join(keys)}")


def _integer(value: Any) -> int:
    """A JSON integer; floats, booleans and strings are refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {_quoted(value)}")
    return value


def _read_dim(doc: dict[str, Any], key: str = "dim") -> int:
    try:
        n = _integer(doc[key])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or bad {key!r}: {exc}") from exc
    if n < 1:
        raise ParseError(f"{key} must be positive, got {n}")
    if n > sys.maxsize:  # no list has more entries
        raise ParseError(f"{key} must be at most {sys.maxsize}, got {_quoted(n)}")
    return n


def _field(doc: dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise ParseError(f"field {key!r} is missing")
    return doc[key]


def _matrix(doc: dict[str, Any], key: str, n: int) -> Matrix | None:
    """Field key of doc as an n x n matrix, or None when it is absent."""
    return _square(doc[key], n, key) if key in doc else None


def _maps(doc: dict[str, Any], keys: tuple[str, ...], n: int) -> tuple[Matrix, ...]:
    """Fields keys of doc as n x n matrices, in order; the absent ones share one identity, built only for them."""
    identity = Matrix.identity(n) if any(key not in doc for key in keys) else None
    return tuple(_square(doc[key], n, key) if key in doc else identity for key in keys)


def _differential(doc: dict[str, Any], key: str, n: int) -> Differential | None:
    """Field key of doc as a {matrix, weight} differential on dim n, or None when it is absent."""
    if key not in doc:
        return None
    obj = _object(doc[key], key, ("matrix", "weight"), f"a {key}")
    weight = _parsed(key, scalar, obj["weight"])
    return Differential(_square(obj["matrix"], n, f"{key}.matrix"), weight)


def _actions(doc: dict[str, Any], key: str, count: int, n: int) -> tuple[Matrix, ...]:
    """Field key of doc as one n x n action matrix per basis vector of a dim-count space."""
    obj = _list(_field(doc, key), key, "matrices")
    if len(obj) != count:
        raise DimensionMismatch(f"{len(obj)} {key} matrices against dim {count}")
    return tuple(_square(m, n, f"{key}[{i}]") for i, m in enumerate(obj))


def _entries(doc: dict[str, Any], key: str, n: int,
             index_keys: tuple[str, ...]) -> Iterator[tuple[tuple[int, ...], Any]]:
    """(indices, out) of each entry of the keyed tensor field key, an absent
    field holding none: a JSON list of objects whose index_keys are JSON
    integers in 1..n, each tuple of indices at most once.  The caller reads out."""
    seen = set()
    for item in _list(doc.get(key, []), key, "entries"):
        out = _object(item, key, (*index_keys, "out"), f"a {key} entry")["out"]
        try:
            idx = tuple(_integer(item[k]) for k in index_keys)
        except TypeError as exc:
            raise ParseError(f"field {key!r}: bad entry {_quoted(item)}: {exc}") from exc
        if not all(1 <= i <= n for i in idx):
            raise DimensionMismatch(f"field {key!r}: entry {_quoted(dict(zip(index_keys, idx)))}"
                                    f" out of range for dim {n}")
        if idx in seen:
            raise ParseError(f"field {key!r}: repeated entry {dict(zip(index_keys, idx))}")
        seen.add(idx)
        yield idx, out


def _bracket(doc: dict[str, Any], n: int) -> Tensor3:
    """The rows of the bracket's entries, each checked for length before it is
    read; an absent (i, j) is empty, and the planes with no entry share one tuple."""
    rows: dict[tuple[int, int], Row] = {}
    for (i, j), out in _entries(doc, "bracket", n, ("i", "j")):
        if len(_list(out, "bracket", "rationals")) != n:
            raise DimensionMismatch(f"field 'bracket': entry (i={i}, j={j}) has {len(out)} coordinates against dim {n}")
        rows[i - 1, j - 1] = _parsed("bracket", lambda values: _row(map(scalar, values)), out)
    planes = {i for i, _ in rows}
    empty = (EMPTY,) * n
    return Tensor3((n, n, n), tuple(tuple(rows.get((i, j), EMPTY) for j in range(n)) if i in planes else empty
                                    for i in range(n)))


def _comul(doc: dict[str, Any], n: int) -> Tensor3:
    planes = [Matrix.zeros(n, n)] * n
    for (k,), out in _entries(doc, "comul", n, ("k",)):
        planes[k - 1] = _square(out, n, "comul")
    return Tensor3((n, n, n), tuple(m.nz for m in planes))


def _algebra(doc: dict[str, Any]) -> AlgebraBundle:
    n = _read_dim(doc)
    return AlgebraBundle(n, _bracket(doc, n), *_maps(doc, ("alpha", "beta"), n), _matrix(doc, "nijenhuis", n),
                         _differential(doc, "differential", n), doc.get("variant", "bihom-lie"))


def _coalgebra(doc: dict[str, Any], maps: tuple[Matrix, Matrix] | None = None) -> CoalgebraBundle:
    """The coalgebra of doc; a bialgebra passes the maps its algebra read."""
    n = _read_dim(doc)
    return CoalgebraBundle(n, _comul(doc, n), *(maps or _maps(doc, ("alpha", "beta"), n)),
                           _matrix(doc, "conijenhuis", n), _differential(doc, "codiff", n))


def _nested_algebra(doc: dict[str, Any], key: str) -> AlgebraBundle:
    return require_kind(from_document(_field(doc, key)), f"field {key!r}", AlgebraBundle)


def from_document(doc: Any) -> Any:
    """Build a bundle from a parsed JSON document, dispatching on 'kind'."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing 'kind': {exc}") from exc
    if not isinstance(kind, str) or kind not in FIELDS:
        raise ParseError(f"unknown bundle kind {_quoted(kind)}")
    _known_keys(doc, ("kind", *FIELDS[kind]), f"{kind} documents")
    if kind == "algebra":
        return _algebra(doc)
    if kind == "coalgebra":
        return _coalgebra(doc)
    if kind == "bialgebra":
        algebra = _algebra(doc)
        return BialgebraBundle(algebra, _coalgebra(doc, (algebra.alpha, algebra.beta)))
    if kind == "representation":
        n, vdim = _read_dim(doc), _read_dim(doc, "vdim")
        algebra = _nested_algebra(doc, "algebra")
        if algebra.dim != n:
            raise DimensionMismatch(f"embedded algebra dim {algebra.dim} does not match dim {n}")
        return RepresentationBundle(algebra, vdim, _actions(doc, "rho", n, vdim), *_maps(doc, ("p", "q"), vdim),
                                    _matrix(doc, "eta", vdim), _matrix(doc, "xi", vdim))
    if kind == "matched_pair":
        n, left, right = _read_dim(doc), _nested_algebra(doc, "left"), _nested_algebra(doc, "right")
        if left.dim != n:
            raise DimensionMismatch(f"field 'dim': {n} does not match the left algebra's dim {left.dim}")
        return MatchedPairBundle(left, right, _actions(doc, "rho", left.dim, right.dim),
                                 _actions(doc, "h", right.dim, left.dim))
    return FormBundle(_square(_field(doc, "gram"), _read_dim(doc), "gram"))


def read_maps(doc: Any, n: int, fields: tuple[str, ...] = ("alpha", "beta")) -> tuple[Matrix, ...]:
    """The maps named in fields, in order, of a ``--maps`` document on dim n; beta defaults to the identity."""
    if not isinstance(doc, dict) or "alpha" not in doc:
        raise ParseError("maps file needs an 'alpha' matrix")
    _known_keys(doc, fields, "maps files")
    return _maps(doc, fields, n)


def read_pattern(doc: Any) -> list[list[Fraction | None]]:
    """The rows of a ``--pattern`` document: rationals, null for a free entry."""
    return _parsed("pattern", lambda rows: [[None if x is None else scalar(x) for x in row] for row in rows],
                   _rows(doc, "pattern"))


def parse_json(text: str, what: str) -> Any:
    """The JSON data text holds.  Malformed JSON, JSON nested more deeply than
    the parser recurses, and an object that repeats a key (which ``json.loads``
    reads as its last value) are ParseErrors naming what."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ParseError(f"{what} repeats the key {_quoted(key)}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {what} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what} is nested too deeply to parse") from exc
    except ValueError as exc:  # the one other refusal: an integer literal past Python's digit limit
        raise ParseError(f"{what} holds an integer of more than {MAX_DIGITS} digits") from exc


def load(text: str) -> Any:
    """Parse a bundle document; exact round-trip with dumps()."""
    doc = parse_json(text, "bundle document")
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
    if n > sys.maxsize:
        raise ValueError(f"abelian requires a dimension of at most {sys.maxsize}, got {_quoted(n)}")
    return AlgebraBundle(n, Tensor3.zeros((n, n, n)), Matrix.identity(n), Matrix.identity(n), kind="lie")


def _decimal(text: str) -> int:
    """An optional sign and decimal digits, nothing else: int() alone reads "1_0" as 10 and stops at Python's limit."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS):
        raise ValueError(f"expected an integer of at most {MAX_DIGITS} digits, got {_quoted(text)}")
    return int(text)


#: fixture name -> its builder and the reader of each argument it takes
FIXTURES: dict[str, tuple[Callable[..., AlgebraBundle], tuple[Callable[[str], Any], ...]]] = {
    "bihom2": (bihom2, (scalar, scalar)),
    "sl2": (sl2, ()),
    "aff2": (aff2, ()),
    "abelian": (abelian, (_decimal,)),
}


def fixture_by_name(name: str) -> AlgebraBundle:
    """Build only the fixture a reference like "sl2", "abelian(3)" or "bihom2(2,3)" names, reading every argument."""
    name = name.strip()
    if "(" in name and name.endswith(")"):
        base, argstr = name[:-1].split("(", 1)
        args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    else:
        base, args = name, []
    if base not in FIXTURES:
        raise ParseError(f"unknown fixture {_quoted(base)}; known: {sorted(FIXTURES)}")
    build, readers = FIXTURES[base]
    if args and not readers:
        raise ParseError(f"fixture {base!r} takes no arguments")
    try:
        if len(args) != len(readers):
            raise ValueError(f"{len(args)} given where it takes {len(readers)}")
        return build(*[read(arg) for read, arg in zip(readers, args)])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad arguments for fixture {base!r}: {exc}") from exc
