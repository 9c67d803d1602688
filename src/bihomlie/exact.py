"""Exact rational linear algebra: scalars, dense matrices, order-3 tensors.

Everything is arbitrary-precision rational arithmetic (``fractions.Fraction``),
so equality is structural and every residual test is exact.  All values are
immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrix(ValueError):
    """Raised when an inversion target has no inverse."""


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` / ``"p"`` string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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


@dataclass(frozen=True)
class Matrix:
    """Dense matrix of exact rationals, row-major.

    Columns hold images of basis vectors: composition of linear maps is
    matrix product in the fixed basis.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> "Matrix":
        data = tuple(tuple(scalar(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise DimensionMismatch("ragged rows in matrix literal")
        return Matrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def diagonal(values: Sequence[int | str | Fraction]) -> "Matrix":
        d = [scalar(v) for v in values]
        n = len(d)
        return Matrix(n, n, tuple(tuple(d[i] if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        nrows = len(cols[0])
        return Matrix.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(nrows)])

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(tuple(a + b if b else a for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(tuple(a - b if b else a for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def neg(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int | str | Fraction) -> "Matrix":
        c = scalar(c)
        return Matrix(self.rows, self.cols, tuple(tuple(c * a if a and c else ZERO for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        product = _row_product(_nonzero_rows(zip(*self.entries)), _nonzero_rows(other.entries), self.rows, other.cols)
        return Matrix(self.rows, other.cols, tuple(map(tuple, product)))

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise DimensionMismatch(f"cannot apply {self.rows}x{self.cols} to a vector of length {len(v)}")
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), ZERO) for row in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def commutes_with(self, other: "Matrix") -> bool:
        return (self @ other).sub(other @ self).is_zero()

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """Block-diagonal sum of two maps on a direct-sum space."""
    rows = []
    for i in range(a.rows):
        rows.append(list(a.entries[i]) + [ZERO] * b.cols)
    for i in range(b.rows):
        rows.append([ZERO] * a.cols + list(b.entries[i]))
    return Matrix.from_rows(rows)


@dataclass(frozen=True)
class Tensor3:
    """Order-3 tensor of exact rationals.

    A bracket is stored as ``c[i][j][k]`` with [e_i, e_j] = sum_k c[i][j][k] e_k;
    a comultiplication as ``t[k][i][j]`` with D(e_k) = sum_ij t[k][i][j] e_i (x) e_j.
    """

    shape: tuple[int, int, int]
    entries: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @staticmethod
    def zeros(shape: tuple[int, int, int]) -> "Tensor3":
        d1, d2, d3 = shape
        return Tensor3(shape, tuple(tuple(tuple(ZERO for _ in range(d3)) for _ in range(d2)) for _ in range(d1)))

    @staticmethod
    def from_entries(entries: Sequence[Sequence[Sequence[int | str | Fraction]]]) -> "Tensor3":
        data = tuple(tuple(tuple(scalar(x) for x in row) for row in plane) for plane in entries)
        shape = (len(data), len(data[0]), len(data[0][0]))
        for plane in data:
            if len(plane) != shape[1] or any(len(row) != shape[2] for row in plane):
                raise DimensionMismatch("ragged tensor literal")
        return Tensor3(shape, data)

    def is_zero(self) -> bool:
        return all(a == 0 for plane in self.entries for row in plane for a in row)

    def add(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(tuple(a + b if b else a for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                                         for p1, p2 in zip(self.entries, other.entries)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(tuple(a - b if b else a for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                                         for p1, p2 in zip(self.entries, other.entries)))

    def scale(self, c: int | str | Fraction) -> "Tensor3":
        c = scalar(c)
        return Tensor3(self.shape, tuple(tuple(tuple(c * a if a and c else ZERO for a in row) for row in plane)
                                         for plane in self.entries))

    def transpose(self, axes: tuple[int, int, int]) -> "Tensor3":
        """Permute the axes: axis p of the result is axis axes[p] of self."""
        shape = tuple(self.shape[a] for a in axes)
        src = [axes.index(a) for a in range(3)]  # where each axis of self lands
        e = self.entries

        def at(idx: tuple[int, int, int]) -> Fraction:
            return e[idx[src[0]]][idx[src[1]]][idx[src[2]]]

        return Tensor3(shape, tuple(tuple(tuple(at((i, j, k)) for k in range(shape[2])) for j in range(shape[1]))
                                    for i in range(shape[0])))

    def _same_shape(self, other: "Tensor3") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"tensor shape mismatch {self.shape} vs {other.shape}")


def _nonzero_rows(t: Tensor3 | Iterable[Sequence[Fraction]]) -> list:
    """Rows, or the rows of each plane of a tensor, as lists of their nonzero
    (index, value) pairs: row i is [i], row (i, j) of a tensor [i][j]."""
    if isinstance(t, Tensor3):
        return [_nonzero_rows(plane) for plane in t.entries]
    return [[(k, x) for k, x in enumerate(row) if x] for row in t]


def _row_product(columns: Sequence[Sequence[tuple[int, Fraction]]], rows: Sequence[Sequence[tuple[int, Fraction]]],
                 height: int, width: int) -> list[list[Fraction]]:
    """The product of a height-row matrix, given by the nonzeros of its
    columns, and a width-column matrix, given by the nonzeros of its rows:
    zero entries of either factor cost nothing.  A cell still holding the
    ZERO it starts from takes its first term without an addition."""
    out = [[ZERO] * width for _ in range(height)]
    for column, row in zip(columns, rows):
        for a, x in column:
            target = out[a]
            for k, y in row:
                v = target[k]
                target[k] = x * y if v is ZERO else v + x * y
    return out


def contract(t: Tensor3, axis: int, m: Matrix) -> Tensor3:
    """Transform one axis of ``t`` by ``m``: new = sum_b m[a][b] * old at index b.

    The matrix acts covariantly on the chosen axis (``m[new][old]``); callers
    transforming an input slot of a bracket pass the transpose.  Zero entries
    of ``t`` and of ``m`` cost nothing.
    """
    if axis not in (0, 1, 2):
        raise DimensionMismatch(f"axis must be 0, 1 or 2, got {axis}")
    if m.cols != t.shape[axis]:
        raise DimensionMismatch(f"matrix {m.rows}x{m.cols} does not match axis {axis} of extent {t.shape[axis]}")
    d0, d1, d2 = t.shape
    cols = _nonzero_rows(zip(*m.entries))  # cols[b]: the nonzero (a, m[a][b])
    if axis == 0:  # m @ whole planes, flattened to rows
        flat = [[(j * d2 + k, x) for j, row in enumerate(plane) for k, x in row] for plane in _nonzero_rows(t)]
        entries = [[row[j * d2:(j + 1) * d2] for j in range(d1)] for row in _row_product(cols, flat, m.rows, d1 * d2)]
    elif axis == 1:  # m @ each plane
        entries = [_row_product(cols, plane, m.rows, d2) for plane in _nonzero_rows(t)]
    else:  # each plane @ m^T, the plane read by its columns
        entries = [_row_product(_nonzero_rows(zip(*plane)), cols, d1, m.rows) for plane in t.entries]
    shape = (m.rows, d1, d2) if axis == 0 else (d0, m.rows, d2) if axis == 1 else (d0, d1, m.rows)
    return Tensor3(shape, tuple(tuple(tuple(row) for row in plane) for plane in entries))


# -- sparse integer elimination ------------------------------------------------
#
# A row is a dict {column: value} of its nonzero entries.  Rows are cleared to
# primitive integers (zero and repeated rows dropped) and brought to reduced
# echelon form column by column, left to right, touching nonzeros only;
# rationals appear only when the results are read off.  The pivot columns are
# those of the reduced row echelon form, so every kernel basis vector,
# particular solution and inverse is the one dense Gauss-Jordan elimination
# gives.


@dataclass(frozen=True)
class SparseMatrix:
    """A matrix given by the nonzero entries of its rows, one {column: value} dict per row."""

    cols: int
    entries: Sequence[Mapping[int, Fraction]]


def _row_dicts(m: Matrix | SparseMatrix) -> Iterable[Mapping[int, Fraction]]:
    if isinstance(m, SparseMatrix):
        return m.entries
    return ({j: x for j, x in enumerate(row) if x} for row in m.entries)


def _integer_rows(rows: Iterable[Mapping[int, Fraction]]) -> list[dict[int, int]]:
    """Each row scaled to a primitive integer row with a positive leading entry,
    its columns in increasing order; zero rows and repeats of an earlier row
    (up to a scalar) are dropped."""
    out: list[dict[int, int]] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for row in rows:
        cols = sorted(j for j, x in row.items() if x) if row else ()
        if not cols:
            continue
        vals = [row[j] for j in cols]
        den = math.lcm(*[x.denominator for x in vals])
        ints = [x.numerator * (den // x.denominator) for x in vals]
        g = math.gcd(*ints)
        if ints[0] < 0:
            g = -g
        key = (tuple(cols), tuple(v // g for v in ints) if g != 1 else tuple(ints))
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


def nullspace(m: Matrix | SparseMatrix) -> list[Vector]:
    """Exact kernel basis (one vector per free column); empty iff injective."""
    rows, pivots = _bareiss_echelon(_integer_rows(_row_dicts(m)))
    pivot_set = set(pivots)
    kernel = {fc: [ZERO] * m.cols for fc in range(m.cols) if fc not in pivot_set}
    for fc, x in kernel.items():
        x[fc] = ONE
    for row, pc in zip(rows, pivots):
        for j, v in row.items():
            if j != pc:
                kernel[j][pc] = Fraction(-v, row[pc])
    return [tuple(x) for x in kernel.values()]


def solve(a: Matrix | SparseMatrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to zero), or None."""
    if len(a.entries) != len(b):
        raise DimensionMismatch("right-hand side length does not match row count")
    n = a.cols
    aug = ({**row, n: y} if y else row for row, y in zip(_row_dicts(a), b))
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
    aug = ({**row, n + i: ONE} for i, row in enumerate(_row_dicts(m)))
    rows, pivots = _bareiss_echelon(_integer_rows(aug))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    inv = [[ZERO] * n for _ in range(n)]
    for row, pc in zip(rows, pivots):
        for j, v in row.items():
            if j >= n:
                inv[pc][j - n] = Fraction(v, row[pc])
    return Matrix(n, n, tuple(map(tuple, inv)))
