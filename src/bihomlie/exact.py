"""Exact rational linear algebra: scalars, sparse matrices, order-3 tensors.

Everything is arbitrary-precision rational arithmetic, so equality is
structural and every residual test is exact.  Each stored row is integers over
one denominator (``Row``); ``Fraction`` values are built only where a value
leaves the kernel (``entries``, ``row_values``, elimination read-off).  All
values are immutable after construction; every operation is a pure function.

Structure maps and operators are mostly the identity or diagonal, so a square
matrix knows its diagonal (``Matrix.diag``, None when it is not diagonal), and
the kernel takes a short path on it: contracting by the identity, multiplying
by it and transposing a diagonal matrix return an operand unchanged, and
contracting by another diagonal scales each row (or each column, on axis 2)
instead of running the sparse product.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrix(ValueError):
    """Raised when an inversion target has no inverse."""


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` / ``"p"`` string to a Fraction;
    a bool is refused, never read as 0 or 1."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def format_scalar(value: Fraction) -> str:
    """Lowest-terms string, ``"p"`` or ``"p/q"`` with positive denominator."""
    return str(value)


#: a row as (den, pairs): den > 0 and the (column, numerator) pairs of its nonzero
#: entries in increasing column order, in lowest terms, so the form is canonical
Row = tuple[int, tuple[tuple[int, int], ...]]
EMPTY: Row = (1, ())


def _reduced(den: int, pairs: tuple[tuple[int, int], ...]) -> Row:
    """The row of the nonzero (column, numerator) pairs over den > 0, in lowest terms."""
    if den == 1:
        return 1, pairs
    g = math.gcd(den, *[v for _, v in pairs])
    return (den, pairs) if g == 1 else (den // g, tuple((k, v // g) for k, v in pairs))


def _sorted_row(den: int, acc: dict[int, int]) -> Row:
    """The row of the numerators {column: value} over den, zeros dropped."""
    if not all(acc.values()):
        acc = {k: v for k, v in acc.items() if v}
    return _reduced(den, tuple(sorted(acc.items()))) if acc else EMPTY


def _row(values: Iterable[Fraction]) -> Row:
    """The row of dense values: over the lcm of their denominators, already in lowest terms."""
    nonzero = [(k, x) for k, x in enumerate(values) if x]
    den = math.lcm(*[x.denominator for _, x in nonzero])
    return den, tuple((k, x.numerator * (den // x.denominator)) for k, x in nonzero)


def row_values(row: Row) -> list[tuple[int, Fraction]]:
    """The (column, value) pairs of a row's nonzero entries, as Fractions."""
    den, pairs = row
    return [(k, Fraction(v, den)) for k, v in pairs]


def _dense(row: Row, width: int) -> Vector:
    out = [ZERO] * width
    for k, x in row_values(row):
        out[k] = x
    return tuple(out)


def _shifted(row: Row, offset: int) -> Row:
    """The row with every column moved up by offset."""
    return row[0], tuple((k + offset, v) for k, v in row[1])


def _sum(r1: Row, r2: Row, sign: int) -> Row:
    """r1 + r2, or r1 - r2 for a negative sign."""
    (d1, p1), (d2, p2) = r1, r2
    if not p2:
        return r1
    if not p1:
        return r2 if sign > 0 else (d2, tuple((k, -y) for k, y in p2))
    den = d1 if d1 == d2 else math.lcm(d1, d2)
    f1, f2 = den // d1, sign * (den // d2)
    acc = dict(p1) if f1 == 1 else {k: f1 * x for k, x in p1}
    for k, y in p2:
        acc[k] = acc.get(k, 0) + f2 * y
    return _sorted_row(den, acc)


def _scaled(row: Row, num: int, den: int) -> Row:
    """row * num / den for integers num != 0 and den > 0."""
    d, pairs = row
    return _reduced(d * den, tuple((k, num * v) for k, v in pairs)) if pairs else EMPTY


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


@dataclass(frozen=True)
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

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(_dense(row, self.cols) for row in self.nz)

    @cached_property
    def diag(self) -> tuple[tuple[int, int], ...] | None:
        """The diagonal as (numerator, denominator) pairs, a zero entry as
        (0, 1), if the matrix is square with no entry off it; else None."""
        if self.rows != self.cols:
            return None
        out = []
        for i, (den, pairs) in enumerate(self.nz):
            if not pairs:
                out.append((0, 1))
            elif len(pairs) == 1 and pairs[0][0] == i:
                out.append((pairs[0][1], den))
            else:
                return None
        return tuple(out)

    def is_identity(self) -> bool:
        d = self.diag
        return d is not None and d.count((1, 1)) == len(d)

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
        return Matrix.diagonal([ONE] * n)

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
        if self.diag is not None:
            return self
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
        return self.scale(-1)

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
        rows = other.nz
        return Matrix(self.rows, other.cols, tuple(_combination(((1, rows, row),)) if row[1] else EMPTY
                                                   for row in self.nz))

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to a vector of length {len(v)}")
        return tuple(sum((x * v[j] for j, x in pairs), ZERO) / den for den, pairs in self.nz)

    def is_zero(self) -> bool:
        return not any(pairs for _, pairs in self.nz)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def commutes_with(self, other: "Matrix") -> bool:
        return (self @ other).sub(other @ self).is_zero()

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal sum of two maps on a direct-sum space."""
    return Matrix(a.rows + b.rows, a.cols + b.cols, a.nz + tuple(_shifted(row, a.cols) for row in b.nz))


@dataclass(frozen=True)
class Tensor3:
    """Order-3 tensor of exact rationals, stored by the nonzeros of its rows:
    ``nz[i][j]`` is row t[i][j] as a ``Row``, as in ``Matrix``; ``entries`` is
    the dense view, in Fractions.

    A bracket is stored as ``c[i][j][k]`` with [e_i, e_j] = sum_k c[i][j][k] e_k;
    a comultiplication as ``t[k][i][j]`` with D(e_k) = sum_ij t[k][i][j] e_i (x) e_j.
    """

    shape: tuple[int, int, int]
    nz: tuple[tuple[Row, ...], ...]

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
        return not any(pairs for plane in self.nz for _, pairs in plane)

    def add(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(map(_sum, p1, p2, repeat(1))) for p1, p2 in zip(self.nz, other.nz)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(map(_sum, p1, p2, repeat(-1))) for p1, p2 in zip(self.nz, other.nz)))

    def scale(self, c: int | str | Fraction) -> "Tensor3":
        c = scalar(c)
        if not c:
            return Tensor3.zeros(self.shape)
        return Tensor3(self.shape, tuple(tuple(_scaled(row, c.numerator, c.denominator) for row in plane)
                                         for plane in self.nz))

    def transpose(self, axes: tuple[int, int, int]) -> "Tensor3":
        """Permute the axes: axis p of the result is axis axes[p] of self.
        Rows move whole when the last axis stays; otherwise, read in index
        order over one common denominator, every output row fills in
        increasing order."""
        shape = tuple(self.shape[a] for a in axes)
        a0, a1, a2 = axes
        if a2 == 2:
            return Tensor3(shape, self.nz if a0 == 0 else tuple(zip(*self.nz)))
        den = math.lcm(*[d for plane in self.nz for d, _ in plane])
        out: list[list[list[tuple[int, int]]]] = [[[] for _ in range(shape[1])] for _ in range(shape[0])]
        for i, plane in enumerate(self.nz):
            for j, (d, pairs) in enumerate(plane):
                f = den // d
                for k, v in pairs:
                    idx = (i, j, k)
                    out[idx[a0]][idx[a1]].append((idx[a2], f * v))
        return Tensor3(shape, tuple(tuple(_reduced(den, tuple(row)) for row in plane) for plane in out))

    def _same_shape(self, other: "Tensor3") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"tensor shape mismatch {self.shape} vs {other.shape}")


def contract(t: Tensor3, axis: int, m: Matrix) -> Tensor3:
    """Transform one axis of ``t`` by ``m``: new = sum_b m[a][b] * old at index b.

    The matrix acts covariantly on the chosen axis (``m[new][old]``); callers
    transforming an input slot of a bracket pass the transpose.  The identity
    returns ``t`` itself.  Another diagonal m scales row (a, j) by m[a][a] on
    axis 0, row (i, a) by m[a][a] on axis 1, and column k of every row by
    m[k][k] on axis 2.  For any other m, each output row is one
    ``_combination`` of rows of ``t`` (axes 0 and 1) or of m^T (axis 2), so
    zero entries of ``t`` and of ``m`` cost nothing; an output row whose
    coefficient row is empty is skipped.
    """
    if axis not in (0, 1, 2):
        raise DimensionMismatch(f"axis must be 0, 1 or 2, got {axis}")
    if m.cols != t.shape[axis]:
        raise DimensionMismatch(f"matrix {m.rows}x{m.cols} does not match axis {axis} of extent {t.shape[axis]}")
    d0, d1, d2 = t.shape
    diag = m.diag
    if diag is not None:
        if m.is_identity():
            return t
        if axis == 0:  # plane a times m[a][a]
            nz = tuple(tuple(_scaled(row, num, den) for row in plane) if num else (EMPTY,) * d1
                       for plane, (num, den) in zip(t.nz, diag))
        elif axis == 1:  # row (i, a) times m[a][a]
            nz = tuple(tuple(_scaled(row, num, den) if num else EMPTY for row, (num, den) in zip(plane, diag))
                       for plane in t.nz)
        else:  # column k times m[k][k], over the lcm of the diagonal's denominators
            lcm = math.lcm(*[den for _, den in diag])
            f = [num * (lcm // den) for num, den in diag]
            nz = tuple(tuple(_reduced(den * lcm, tuple((k, f[k] * v) for k, v in pairs if f[k])) if pairs else EMPTY
                             for den, pairs in plane) for plane in t.nz)
        return Tensor3(t.shape, nz)
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


# -- sparse integer elimination ------------------------------------------------
#
# Rows are scaled to primitive integers (zero and repeated rows dropped), held
# as dicts {column: value} of their nonzeros, and brought to reduced echelon
# form column by column, left to right, touching nonzeros only; rationals
# appear only when the results are read off.  The pivot columns are those of
# the reduced row echelon form, so every kernel basis vector, particular
# solution and inverse is the one dense Gauss-Jordan elimination gives.


def _integer_rows(rows: Iterable[tuple[tuple[int, int], ...]]) -> list[dict[int, int]]:
    """Each row of integer (column, value) pairs, in increasing column order,
    scaled to a primitive row with a positive leading entry; zero rows and
    repeats of an earlier row (up to a scalar) are dropped."""
    out: list[dict[int, int]] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for row in rows:
        if not row:
            continue
        cols, ints = zip(*row)
        g = math.gcd(*ints)
        if ints[0] < 0:
            g = -g
        key = (cols, tuple(v // g for v in ints) if g != 1 else ints)
        if key not in seen:
            seen.add(key)
            out.append(dict(zip(*key)))
    return out


def _combine(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a * row - b * other over the nonzeros, with its content divided out."""
    new = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in other.items():
        w = new.get(j, 0) - b * v
        if w:
            new[j] = w
        else:
            del new[j]
    content = math.gcd(*new.values()) if new else 1
    return {j: v // content for j, v in new.items()} if content != 1 else new


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


def nullspace(m: Matrix) -> list[Vector]:
    """Exact kernel basis (one vector per free column); empty iff injective."""
    rows, pivots = _bareiss_echelon(_integer_rows(pairs for _, pairs in m.nz))
    pivot_set = set(pivots)
    kernel = {fc: [ZERO] * m.cols for fc in range(m.cols) if fc not in pivot_set}
    for fc, x in kernel.items():
        x[fc] = ONE
    for row, pc in zip(rows, pivots):
        for j, v in row.items():
            if j != pc:
                kernel[j][pc] = Fraction(-v, row[pc])
    return [tuple(x) for x in kernel.values()]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to zero), or None."""
    if a.rows != len(b):
        raise DimensionMismatch("right-hand side length does not match row count")
    n = a.cols
    # row / den = y is the integer row q * row = p * den for y = p / q
    aug = (tuple((k, y.denominator * v) for k, v in pairs) + ((n, y.numerator * den),) if y else pairs
           for (den, pairs), y in zip(a.nz, b))
    rows, pivots = _bareiss_echelon(_integer_rows(aug))
    if pivots and pivots[-1] == n:
        return None  # a pivot in the augmented column: inconsistent
    x = [ZERO] * n
    for row, pc in zip(rows, pivots):
        if n in row:
            x[pc] = Fraction(row[n], row[pc])
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    """Exact inverse from one elimination of [m | I]; raises SingularMatrix."""
    if not m.is_square():
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = (pairs + ((n + i, den),) for i, (den, pairs) in enumerate(m.nz))
    rows, pivots = _bareiss_echelon(_integer_rows(aug))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    # row i of the inverse is the right half of pivot row i over its pivot entry
    return Matrix(n, n, tuple(_reduced(abs(row[pc]), tuple((j - n, v if row[pc] > 0 else -v)
                                                           for j, v in sorted(row.items()) if j >= n))
                              for row, pc in zip(rows, pivots)))
