"""Exact rational linear algebra: scalars, sparse matrices, order-3 tensors.

Everything is arbitrary-precision rational arithmetic, so equality is
structural and every residual test is exact.  Each stored row is integers over
one denominator (``Row``); ``Fraction`` values are built only where a value
leaves the kernel (``entries``, elimination read-off).  All values are
immutable after construction; every operation is a pure function.

``contract_sum`` is the one contraction: each of the checkers' identities, a
signed sum of contractions of one tensor, is one call.  Their maps are mostly
the identity or diagonal (``Matrix.diag``), and a diagonal stays diagonal: a
product of two diagonals and the inverse of one are taken entry by entry,
multiplying by the identity and transposing a diagonal return an operand
unchanged (any other transpose is built once per matrix), and diagonal terms
fold into one factor per cell, so such a sum is one pass over its nonzero rows.
A transposed tensor records its source, so transposing it back returns that
source and builds nothing.

A stored row has content 1, so a row scaled by one rational (a scalar multiple,
an entry of a product of diagonals, a row of a folded sum whose factor is the
same for every cell) reaches lowest terms from two small gcds, of the factor's
numerator with the row's denominator and of its denominator with the row's
numerators, with no gcd over the product; a row whose sum cancels is ``EMPTY``
without a pass that filters its zeros.

Code that runs once per row (``_reduced``, ``_scaled``, ``_sum``, the rows of
``_regrouped`` and of ``contract_sum``'s diagonal path, elimination's
``_combine``) is written as plain loops: CPython before 3.12 runs every
comprehension as a function call of its own (3.12 inlines them, PEP 709), and
on the rows of one to three cells the twisted checks make, that call costs
more than the arithmetic.  A row's content comes from ``_content``, which stops
at the first gcd of 1.  A comprehension that runs once per matrix or tensor
stays.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
#: the most digits a number may carry: Python's own limit on reading an integer, never raised here
MAX_DIGITS = 4300


class cached_property:
    """A property computed on its first read and stored in the instance's ``__dict__``, where later reads find it
    before this descriptor, which defines no ``__set__``.  ``functools.cached_property`` does the same, but before
    Python 3.12 it takes a lock on every first read; the values here are pure functions of immutable objects, so
    two threads that race on one first read at worst compute it twice."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class SingularMatrix(ValueError):
    """Raised when an inversion target has no inverse."""


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def _quoted(value: object) -> str:
    """The repr of an offending value, or the text of an exception, cut to at most 80 characters."""
    text = str(value) if isinstance(value, Exception) else repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` / ``"p"`` string to a Fraction;
    a bool is refused, never read as 0 or 1, and so is an underscore, which
    ``Fraction`` would skip ("1_0" is not 10), and an exponent ("1e5")."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_DIGITS and max(map(len, re.findall(r"\d+", value)), default=0) > MAX_DIGITS:
            raise ValueError(f"a scalar may carry at most {MAX_DIGITS} digits in a row")
        if "_" in value:
            raise ValueError(f"a scalar has no underscores, got {_quoted(value)}")
        if "e" in value or "E" in value:  # Fraction("1e300000000") computes 10**300000000
            raise ValueError(f"a scalar has no exponent, got {_quoted(value)}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_quoted(value)}") from None
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {_quoted(value.strip())}") from None
    raise TypeError(f"cannot interpret {_quoted(value)} as an exact scalar")


#: a row as (den, pairs): den > 0 and the (column, numerator) pairs of its nonzero
#: entries in increasing column order, in lowest terms, so the form is canonical
Row = tuple[int, tuple[tuple[int, int], ...]]
EMPTY: Row = (1, ())
_pairs = itemgetter(1)  # a row's pairs, empty exactly for a zero row


def _content(g: int, pairs: Iterable[tuple[int, int]]) -> int:
    """gcd(g, every numerator of the (column, numerator) pairs), stopping at the first gcd of 1: a stored row's
    content is 1, so the gcd of a row over a new denominator is almost always 1 by its first numerator."""
    for _, v in pairs:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def _reduced(den: int, pairs: tuple[tuple[int, int], ...]) -> Row:
    """The row of the nonzero (column, numerator) pairs over den > 0, in lowest terms."""
    if den == 1 or (g := _content(den, pairs)) == 1:
        return den, pairs
    out = []
    for k, v in pairs:
        out.append((k, v // g))
    return den // g, tuple(out)


def _sorted_row(den: int, acc: dict[int, int]) -> Row:
    """The row of the numerators {column: value} over den, zeros dropped; a row that cancels is ``EMPTY`` at once."""
    if not all(acc.values()):
        if not any(acc.values()):
            return EMPTY
        acc = {k: v for k, v in acc.items() if v}
    return _reduced(den, tuple(sorted(acc.items()))) if acc else EMPTY


def _row(values: Iterable[Fraction]) -> Row:
    """The row of dense values: over the lcm of their denominators, already in lowest terms."""
    nonzero = [(k, x) for k, x in enumerate(values) if x]
    den = math.lcm(*[x.denominator for _, x in nonzero])
    return den, tuple((k, x.numerator * (den // x.denominator)) for k, x in nonzero)


def _dense(row: Row, width: int) -> Vector:
    den, pairs = row
    out = [ZERO] * width
    for k, v in pairs:
        out[k] = Fraction(v, den)
    return tuple(out)


def _shifted(row: Row, offset: int) -> Row:
    """The row with every column moved up by offset."""
    out = []
    for k, v in row[1]:
        out.append((k + offset, v))
    return row[0], tuple(out)


def _sum(r1: Row, r2: Row, sign: int) -> Row:
    """r1 + r2, or r1 - r2 for a negative sign."""
    (d1, p1), (d2, p2) = r1, r2
    if not p2:
        return r1
    if not p1:
        if sign > 0:
            return r2
        out = []
        for k, y in p2:
            out.append((k, -y))
        return d2, tuple(out)
    den = d1 if d1 == d2 else math.lcm(d1, d2)
    f1, f2 = den // d1, sign * (den // d2)
    if f1 == 1:
        acc = dict(p1)
    else:
        acc = {}
        for k, x in p1:
            acc[k] = f1 * x
    for k, y in p2:
        acc[k] = acc.get(k, 0) + f2 * y
    return _sorted_row(den, acc)


def _scaled(row: Row, p: int, q: int) -> Row:
    """row * p / q for coprime integers p != 0 and q > 0, in lowest terms from two gcds: the row's own content
    is 1, so (one prime at a time) the product's is gcd(den, p) * gcd(q, numerators), and no gcd is taken over
    the product.  A factor that reduces to 1 over the row's denominator keeps the row's pairs."""
    den, pairs = row
    if not pairs:
        return EMPTY
    if (h := math.gcd(den, p)) != 1:
        den, p = den // h, p // h
    if q != 1 and (r := _content(q, pairs)) != 1:
        out = []
        for k, v in pairs:
            out.append((k, v // r * p))
        return den * (q // r), tuple(out)
    if p == 1:
        return den * q, pairs
    out = []
    for k, v in pairs:
        out.append((k, v * p))
    return den * q, tuple(out)


def _combination(terms: Iterable[tuple[int, Sequence[Row], Row]]) -> Row:
    """The sum of sign * sum_b x_b * rows[b] over (sign, rows, coeffs) terms,
    coeffs giving the nonzero x_b: a row-wise sparse product (Gustavson), where
    zero entries of either factor cost nothing.  Products are added as integers
    over a running common denominator, grown to an lcm when a term needs it."""
    acc: dict[int, int] = {}
    den = 1
    for sign, rows, (dc, coeffs) in terms:
        for b, x in coeffs:
            db, pairs = rows[b]
            if not pairs:
                continue
            d = dc * db
            if d != den:
                if den % d:
                    grown = math.lcm(den, d)
                    f = grown // den
                    for k in acc:
                        acc[k] *= f
                    den = grown
                x *= den // d
            if sign < 0:
                x = -x
            for k, y in pairs:
                acc[k] = acc.get(k, 0) + x * y
    return _sorted_row(den, acc)


@dataclass(frozen=True, init=False)
class Matrix:
    """Matrix of exact rationals, stored by the nonzeros of its rows.

    ``nz[i]`` is row i as a ``Row``: one positive denominator and the integer
    numerators of its nonzero entries in increasing column order, in lowest
    terms; that form is canonical, so equal matrices compare equal.
    ``entries`` is the dense row-major view, in Fractions.  Columns hold
    images of basis vectors: composition of linear maps is matrix product in
    the fixed basis.
    """

    rows: int
    cols: int
    nz: tuple[Row, ...]

    def __init__(self, rows: int, cols: int, nz: tuple[Row, ...]) -> None:
        d = self.__dict__  # the fields written in place: a frozen dataclass's own __init__ pays a setattr call each
        d["rows"], d["cols"], d["nz"] = rows, cols, nz

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(_dense(row, self.cols) for row in self.nz)

    @cached_property
    def diag(self) -> tuple[int, tuple[int, ...]] | None:
        """The diagonal as (den, numerators), integers over the lcm of its
        denominators, if the matrix is square with no entry off it; else None."""
        if self.rows != self.cols or any(p and (len(p) > 1 or p[0][0] != i) for i, (_, p) in enumerate(self.nz)):
            return None
        den = math.lcm(*[d for d, _ in self.nz])
        return den, tuple(pairs[0][1] * (den // d) if pairs else 0 for d, pairs in self.nz)

    @cached_property
    def scalar_multiple(self) -> tuple[int, int] | None:
        """(num, den), in lowest terms, if the matrix is c I for c = num / den (the square zero matrix is 0 I);
        else None."""
        d = self.diag
        if d is None:
            return None
        c = d[1][0] if d[1] else 1
        return (c, d[0]) if d[1].count(c) == self.rows else None

    def is_identity(self) -> bool:
        return self.scalar_multiple == (1, 1)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> "Matrix":
        data = [[scalar(x) for x in row] for row in rows]
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise DimensionMismatch("ragged rows in matrix literal")
        return Matrix(len(data), ncols, tuple(map(_row, data)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple((1, ((i, 1),)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (EMPTY,) * rows)

    @staticmethod
    def diagonal(values: Sequence[int | str | Fraction]) -> "Matrix":
        d = [scalar(v) for v in values]
        return Matrix(len(d), len(d), tuple((x.denominator, ((i, x.numerator),)) if x else EMPTY
                                            for i, x in enumerate(d)))

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        return Matrix.from_rows(cols).transpose()

    def transpose(self) -> "Matrix":
        """The transpose: a diagonal is its own, and any other is built once per matrix and kept."""
        return self if self.diag is not None else self._transposed

    @cached_property
    def _transposed(self) -> "Matrix":
        den = math.lcm(*[d for d, _ in self.nz])
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, (d, pairs) in enumerate(self.nz):
            f = den // d
            for j, v in pairs:
                out[j].append((i, f * v))
        return Matrix(self.cols, self.rows, tuple(_reduced(den, tuple(col)) for col in out))

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(map(_sum, self.nz, other.nz, repeat(1))))

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(map(_sum, self.nz, other.nz, repeat(-1))))

    def neg(self) -> "Matrix":
        """-self, row by row: negating the numerators keeps each row in lowest terms."""
        nz = []
        for den, pairs in self.nz:
            out = []
            for j, v in pairs:
                out.append((j, -v))
            nz.append((den, tuple(out)))
        return Matrix(self.rows, self.cols, tuple(nz))

    def scale(self, c: int | str | Fraction) -> "Matrix":
        c = scalar(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix(self.rows, self.cols, tuple(_scaled(row, c.numerator, c.denominator) for row in self.nz))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        if self.diag is not None and other.diag is not None:  # elementwise: v1 / d1 scaled by v2 / d2
            return Matrix(self.rows, self.cols, tuple(_scaled(r1, r2[1][0][1], r2[0]) if r2[1] else EMPTY
                                                      for r1, r2 in zip(self.nz, other.nz)))
        rows = other.nz
        return Matrix(self.rows, other.cols, tuple(_combination(((1, rows, row),)) if row[1] else EMPTY
                                                   for row in self.nz))

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to a vector of length {len(v)}")
        return tuple(sum((x * v[j] for j, x in pairs), ZERO) / den for den, pairs in self.nz)

    def is_zero(self) -> bool:
        return not any(map(_pairs, self.nz))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal sum of two maps on a direct-sum space."""
    return Matrix(a.rows + b.rows, a.cols + b.cols, a.nz + tuple(_shifted(row, a.cols) for row in b.nz))


@dataclass(frozen=True, init=False)
class Tensor3:
    """Order-3 tensor of exact rationals, stored by the nonzeros of its rows:
    ``nz[i][j]`` is row t[i][j] as a ``Row``, as in ``Matrix``; ``entries`` is
    the dense view, in Fractions.

    A bracket is stored as ``c[i][j][k]`` with [e_i, e_j] = sum_k c[i][j][k] e_k;
    a comultiplication as ``t[k][i][j]`` with D(e_k) = sum_ij t[k][i][j] e_i (x) e_j.
    """

    shape: tuple[int, int, int]
    nz: tuple[tuple[Row, ...], ...]
    #: on a transpose's result only: (its source, the axes that transpose it back to the source); no part of
    #: the value, so it changes no ``==``, hash or repr
    back: tuple["Tensor3", tuple[int, int, int]] | None = field(default=None, compare=False, repr=False)

    def __init__(self, shape: tuple[int, int, int], nz: tuple[tuple[Row, ...], ...],
                 back: tuple["Tensor3", tuple[int, int, int]] | None = None) -> None:
        d = self.__dict__  # as in Matrix
        d["shape"], d["nz"], d["back"] = shape, nz, back

    @cached_property
    def entries(self) -> tuple[tuple[Vector, ...], ...]:
        return tuple(tuple(_dense(row, self.shape[2]) for row in plane) for plane in self.nz)

    @staticmethod
    def zeros(shape: tuple[int, int, int]) -> "Tensor3":
        d1, d2, _ = shape
        return Tensor3(shape, ((EMPTY,) * d2,) * d1)

    @staticmethod
    def from_entries(entries: Sequence[Sequence[Sequence[int | str | Fraction]]]) -> "Tensor3":
        data = [[[scalar(x) for x in row] for row in plane] for plane in entries]
        shape = (len(data), len(data[0]), len(data[0][0]))
        for plane in data:
            if len(plane) != shape[1] or any(len(row) != shape[2] for row in plane):
                raise DimensionMismatch("ragged tensor literal")
        return Tensor3(shape, tuple(tuple(map(_row, plane)) for plane in data))

    def is_zero(self) -> bool:
        return not any(map(_pairs, chain.from_iterable(self.nz)))

    def add(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(map(_sum, p1, p2, repeat(1))) for p1, p2 in zip(self.nz, other.nz)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(map(_sum, p1, p2, repeat(-1))) for p1, p2 in zip(self.nz, other.nz)))

    def transpose(self, axes: tuple[int, int, int]) -> "Tensor3":
        """Permute the axes: axis p of the result is axis axes[p] of self.
        Rows move whole when the last axis stays, and cells are regrouped
        (``_regrouped``) otherwise.  The result records self as its source,
        so transposing it back returns self and builds nothing; nothing is
        recorded on self."""
        if self.back is not None and self.back[1] == axes:
            return self.back[0]
        shape = tuple(self.shape[a] for a in axes)
        if axes[2] == 2:
            nz = self.nz if axes[0] == 0 else tuple(zip(*self.nz))
        else:
            nz = _regrouped(self.nz, axes, shape)
        return Tensor3(shape, nz, (self, (axes.index(0), axes.index(1), axes.index(2))))

    def _same_shape(self, other: "Tensor3") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"tensor shape mismatch {self.shape} vs {other.shape}")


def _regrouped(nz: tuple[tuple[Row, ...], ...], axes: tuple[int, int, int],
               shape: tuple[int, int, int]) -> tuple[tuple[Row, ...], ...]:
    """The rows of a transpose that moves the last axis: the cells, read in index order over one common
    denominator, fill every output row in increasing order, and a row no cell reaches is ``EMPTY``."""
    a0, a1, a2 = axes
    den = math.lcm(*[d for plane in nz for d, _ in plane])
    out: list[list[list[tuple[int, int]]]] = [[[] for _ in range(shape[1])] for _ in range(shape[0])]
    for i, plane in enumerate(nz):
        for j, (d, pairs) in enumerate(plane):
            f = den // d
            for k, v in pairs:
                idx = (i, j, k)
                out[idx[a0]][idx[a1]].append((idx[a2], f * v))
    nz = []
    for plane in out:
        rows = []
        for row in plane:
            rows.append(_reduced(den, tuple(row)) if row else EMPTY)
        nz.append(tuple(rows))
    return tuple(nz)


def _contract(t: Tensor3, axis: int, m: Matrix) -> Tensor3:
    """Transform one axis of ``t`` by a map ``m`` that is not diagonal, as in ``contract_sum``, which checks
    its size: each output row is one ``_combination`` of rows of ``t`` (axes 0 and 1) or of m^T (axis 2), so
    zero entries of ``t`` and of ``m`` cost nothing, and one whose coefficient row is empty is skipped."""
    d0, d1, d2 = t.shape
    if axis == 0:  # row (a, j): sum_b m[a][b] t[b][j]
        by_j = list(zip(*t.nz))
        nz = tuple(tuple(_combination(((1, rows, row),)) for rows in by_j) if row[1] else (EMPTY,) * d1
                   for row in m.nz)
    elif axis == 1:  # row (i, a): sum_b m[a][b] t[i][b]
        nz = tuple(tuple(_combination(((1, plane, row),)) if row[1] else EMPTY for row in m.nz) for plane in t.nz)
    else:  # row (i, j): sum_b t[i][j][b] (row b of m^T)
        mt = m.transpose().nz
        nz = tuple(tuple(_combination(((1, mt, row),)) if row[1] else EMPTY for row in plane) for plane in t.nz)
    shape = (m.rows, d1, d2) if axis == 0 else (d0, m.rows, d2) if axis == 1 else (d0, d1, m.rows)
    return Tensor3(shape, nz)


#: one term of ``contract_sum``: (scale, (m0, m1, m2)), the scale an int or a Fraction, a map of None the identity
Term = tuple[int | Fraction, tuple[Matrix | None, Matrix | None, Matrix | None]]


def contract_sum(t: Tensor3, terms: Sequence[Term]) -> Tensor3:
    """The sum of scale * (t with axis i transformed by maps[i]) over the terms; a map m acts covariantly, the
    entry at index a on its axis becoming sum_b m[a][b] * (the entry at index b), so an input slot takes m^T.

    Terms of scale 0 are dropped before anything is built, and one loop over the terms left checks each map
    against its axis, folds each c I (``Matrix.scalar_multiple``; None is 1 I) into its term's integer
    multiplier and picks the path.  When every map left is c I, the sum is one rational multiple of t: 1 returns
    ``t`` itself, 0 the zero tensor, and any other scales each row.  When every map left is diagonal, each
    nonempty row (i, j) of t takes the factors f0 + sum f * a2[k] over its cells, f0 = x * a0[i] * a1[j] for the
    first term whose axis-2 map is c I and f likewise for each other term, whose axis-2 diagonal is a2 (all ones
    for c I), x being the term's multiplier; this is integers over one common denominator, one gcd per row (two
    small ones, as in ``_scaled``, for a row on which every factor but f0 vanishes), and no table is built.
    Otherwise each term applies its maps in turn, a diagonal as its one-term sum and any other by ``_contract``,
    and the terms are added."""
    kept, ints, common, general, varying = [(s, maps) for s, maps in terms if s], [], 1, False, False
    for s, maps in kept:  # per term: its multiplier, the multiplier's denominator, each axis' diagonal over it
        num, den, axes = s.numerator, s.denominator, []
        for m, n in zip(maps, t.shape):
            diag = None  # over den, or None for a map folded into the multiplier
            if m is not None:
                if m.cols != n:
                    raise DimensionMismatch(f"matrix {m.rows}x{m.cols} does not match an axis of extent {n}")
                if (c := m.scalar_multiple) is not None:
                    num, den = num * c[0], den * c[1]
                elif m.diag is None:
                    general = True
                else:
                    den, diag, varying = den * m.diag[0], m.diag[1], True
            axes.append(diag)
        ints.append((num, den, axes))
        common = math.lcm(common, den)
    if general:
        out = None
        for s, maps in kept:
            u = t
            for axis, m in enumerate(maps):
                if m is not None:
                    u = _contract(u, axis, m) if m.diag is None else \
                        contract_sum(u, [(1, tuple(m if a == axis else None for a in range(3)))])
            if s != 1 and (out is None or s != -1):  # a scalar multiple, unless it is subtracted
                u, s = contract_sum(u, [(s, (None, None, None))]), 1
            out = u if out is None else out.add(u) if s == 1 else out.sub(u)
        return out
    if not varying:  # the sum is f / common times t
        f = sum([num * (common // den) for num, den, _ in ints])
        if f == common:
            return t
        if not f:
            return Tensor3.zeros(t.shape)
        g = math.gcd(f, common)
        return Tensor3(t.shape, tuple(tuple(_scaled(row, f // g, common // g) for row in plane) for plane in t.nz))
    ones, first, rest = (1,) * max(t.shape), None, []  # the first constant term, then every other term
    for num, den, (a0, a1, a2) in ints:
        x = num * (common // den)
        if a2 is None and first is None:
            first = (x, a0 or ones, a1 or ones)
        else:  # a constant axis-2 diagonal read as ones
            rest.append((a2 or ones, x, a0 or ones, a1 or ones))
    x0, b0, b1 = first or (0, ones, ones)
    (c2, z, c0, c1), *rest = rest or [(ones, 0, ones, ones)]  # the second term, read without a list per row
    nz = []  # cell (i, j, k) times f0 + f * c2[k] + sum of g * a2[k], each factor x * a0[i] * a1[j] of one term
    for i, plane in enumerate(t.nz):
        y0, y, cs = x0 * b0[i], z * c0[i], []
        for a2, x, a0, a1 in rest:
            cs.append((a2, x * a0[i], a1))
        out = []
        for j, (den, pairs) in enumerate(plane):
            if not pairs:
                out.append(EMPTY)
                continue
            f0, f = y0 * b1[j], y * c1[j]
            fs = []
            for a2, x, a1 in cs:
                if g := x * a1[j]:
                    fs.append((a2, g))
            cells = []
            if fs:
                for k, v in pairs:
                    w = f0 + f * c2[k]
                    for a2, g in fs:
                        w += g * a2[k]
                    if w:
                        cells.append((k, v * w))
            elif f:
                for k, v in pairs:
                    if w := f0 + f * c2[k]:
                        cells.append((k, v * w))
            else:  # one factor f0 / common for the whole row: _scaled, written out (a call per row costs more)
                if not f0:
                    out.append(EMPTY)
                    continue
                g = math.gcd(f0, common)
                p, q = f0 // g, common // g
                if (h := math.gcd(den, p)) != 1:
                    den, p = den // h, p // h
                if q != 1 and (r := _content(q, pairs)) != 1:
                    for k, v in pairs:
                        cells.append((k, v // r * p))
                    out.append((den * (q // r), tuple(cells)))
                elif p == 1:
                    out.append((den * q, pairs))
                else:
                    for k, v in pairs:
                        cells.append((k, v * p))
                    out.append((den * q, tuple(cells)))
                continue
            out.append(_reduced(den * common, tuple(cells)) if cells else EMPTY)
        nz.append(tuple(out))
    return Tensor3(t.shape, tuple(nz))


# -- sparse integer elimination ------------------------------------------------
#
# Rows arrive as integer dicts {column: value}, the right-hand side in the
# column after the unknowns; one normalizer (``_primitive_rows``) scales each
# to a primitive row and drops empty and repeated rows, and they are brought to
# reduced echelon form column by column, left to right, touching nonzeros
# only; rationals appear only when the results are read off.  The pivot
# columns are those of the reduced row echelon form, so every kernel basis
# vector, particular solution and inverse is the one dense Gauss-Jordan
# elimination gives.


def _primitive_rows(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Each integer row {column: value} of nonzero values, scaled to a primitive row with a positive leading entry;
    empty rows and repeats of an earlier row (up to a scalar) are dropped.  A row is read, never changed."""
    out: list[dict[int, int]] = []
    seen: set[frozenset[tuple[int, int]]] = set()
    for row in rows:
        if not row:
            continue
        g = math.gcd(*row.values())
        if row[min(row)] < 0:
            g = -g
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _combine(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a * row - b * other over the nonzeros, with its content divided out."""
    if a == 1:
        new = dict(row)
    else:
        new = {}
        for j, v in row.items():
            new[j] = a * v
    for j, v in other.items():
        w = new.get(j, 0) - b * v
        if w:
            new[j] = w
        else:
            del new[j]
    if new and (content := math.gcd(*new.values())) > 1:  # one C call: faster than _content on these longer rows
        for j, v in new.items():
            new[j] = v // content
    return new


def _bareiss_echelon(rows: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form of integer rows, up to a scale per row:
    (pivot rows, their pivot columns).

    Rows wait in buckets keyed by their leading column, and columns are taken
    left to right.  The sparsest row of a bucket becomes its pivot (Markowitz);
    every other row of the bucket is combined with it fraction-free to clear
    the column and moves to the bucket of its new leading column, or vanishes.
    Then each pivot column is cleared from the rows above, bottom row first."""
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    order = list(buckets)
    heapq.heapify(order)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    while order:
        c = heapq.heappop(order)
        bucket = buckets.pop(c)
        pivot = min(bucket, key=len)
        for row in bucket:
            if row is pivot:
                continue
            g = math.gcd(pivot[c], row[c])
            new = _combine(pivot[c] // g, row, row[c] // g, pivot)
            if new:
                lead = min(new)
                if lead not in buckets:
                    buckets[lead] = []
                    heapq.heappush(order, lead)
                buckets[lead].append(new)
        echelon.append(pivot)
        pivots.append(c)
    below: dict[int, dict[int, int]] = {}  # pivot column -> its reduced row, for the rows done
    for r in range(len(echelon) - 1, -1, -1):
        row = echelon[r]
        for j in [j for j in row if j in below]:  # reduced rows bring in no other pivot column
            g = math.gcd(below[j][j], row[j])
            row = _combine(below[j][j] // g, row, row[j] // g, below[j])
        echelon[r] = below[pivots[r]] = row
    return echelon, pivots


def solve(a: Matrix | tuple[int, Iterable[dict[int, int]]],
          b: Vector | None = None) -> tuple[Vector | None, list[Vector]]:
    """(particular, kernel) of a x = b, b = None meaning zero and its entries ints or
    Fractions, both read off one elimination of [a | b]: the solution whose free
    variables are zero (None when inconsistent) and the kernel basis of a, one
    vector per free column, equal to those dense Gauss-Jordan elimination gives.
    The system may also come as (n, rows), with no b: n unknowns and the integer
    rows {column: nonzero value} of [a | b], b's entry in column n."""
    n, rows = (a.cols, (dict(pairs) for _, pairs in a.nz if pairs)) if isinstance(a, Matrix) else a
    if b is not None:
        if a.rows != len(b):
            raise DimensionMismatch("right-hand side length does not match row count")
        # row / den = y is the integer row q * row = p * den for y = p / q, an int y being y / 1
        rows = ({k: y.denominator * v for k, v in pairs} | {n: y.numerator * den} if y else dict(pairs)
                for (den, pairs), y in zip(a.nz, b))
    rows, pivots = _bareiss_echelon(_primitive_rows(rows))
    particular = [ZERO] * n
    if pivots and pivots[-1] == n:  # a pivot in the right-hand column: its row reads 0 = 1
        particular = None  # and back-substitution cleared that column from every other row
        rows, pivots = rows[:-1], pivots[:-1]
    pivot_set = set(pivots)
    kernel = {fc: [ZERO] * fc + [ONE] + [ZERO] * (n - fc - 1) for fc in range(n) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        for j, v in row.items():
            if j in kernel:
                kernel[j][pc] = Fraction(-v, row[pc])
            elif j == n:
                particular[pc] = Fraction(v, row[pc])
    return None if particular is None else tuple(particular), [tuple(x) for x in kernel.values()]


def invert(m: Matrix) -> Matrix:
    """Exact inverse: the identity itself, a diagonal entry by entry, else from one elimination of [m | I]; raises
    SingularMatrix."""
    if not m.is_square():
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    if m.is_identity():
        return m
    n = m.rows
    if m.diag is not None:  # entry by entry: v / d inverts to d / v, already in lowest terms
        if not all(pairs for _, pairs in m.nz):
            raise SingularMatrix("matrix is singular")
        return Matrix(n, n, tuple((abs(v), ((i, d if v > 0 else -d),)) for i, (d, ((_, v),)) in enumerate(m.nz)))
    aug = (dict(pairs + ((n + i, den),)) for i, (den, pairs) in enumerate(m.nz))
    rows, pivots = _bareiss_echelon(_primitive_rows(aug))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    # row i of the inverse is the right half of pivot row i over its pivot entry
    return Matrix(n, n, tuple(_reduced(abs(row[pc]), tuple((j - n, v if row[pc] > 0 else -v)
                                                           for j, v in sorted(row.items()) if j >= n))
                              for row, pc in zip(rows, pivots)))
