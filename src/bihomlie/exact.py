"""Exact rational linear algebra: scalars, dense matrices, order-3 tensors.

Everything is arbitrary-precision rational arithmetic (``fractions.Fraction``),
so equality is structural and every residual test is exact.  All values are
immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
        return Fraction(value.strip())
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
        return Matrix(self.rows, self.cols, tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def neg(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int | str | Fraction) -> "Matrix":
        c = scalar(c)
        return Matrix(self.rows, self.cols, tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = range(other.cols)
        data = tuple(
            tuple(sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), ZERO) for j in cols)
            for i in range(self.rows)
        )
        return Matrix(self.rows, other.cols, data)

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
        return Tensor3(self.shape, tuple(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                                         for p1, p2 in zip(self.entries, other.entries)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        self._same_shape(other)
        return Tensor3(self.shape, tuple(tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                                         for p1, p2 in zip(self.entries, other.entries)))

    def scale(self, c: int | str | Fraction) -> "Tensor3":
        c = scalar(c)
        return Tensor3(self.shape, tuple(tuple(tuple(c * a for a in row) for row in plane) for plane in self.entries))

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
    images = [[(a, row[b]) for a, row in enumerate(m.entries) if row[b]] for b in range(m.cols)]

    def combine(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        """m @ rows, over the nonzero entries of rows only."""
        out = [[ZERO] * len(rows[0]) for _ in range(m.rows)]
        for b, row in enumerate(rows):
            targets = images[b]
            for k, v in enumerate(row):
                if v:
                    for a, coeff in targets:
                        out[a][k] += coeff * v
        return out

    d0, d1, d2 = t.shape
    if axis == 0:  # combine whole planes, flattened to rows
        flat = combine([[x for row in plane for x in row] for plane in t.entries])
        entries = [[row[j * d2:(j + 1) * d2] for j in range(d1)] for row in flat]
    elif axis == 1:
        entries = [combine(plane) for plane in t.entries]
    else:  # combine the columns of each plane
        entries = [list(zip(*combine(list(zip(*plane))))) for plane in t.entries]
    shape = (m.rows, d1, d2) if axis == 0 else (d0, m.rows, d2) if axis == 1 else (d0, d1, m.rows)
    return Tensor3(shape, tuple(tuple(tuple(row) for row in plane) for plane in entries))


# -- fraction-free elimination ------------------------------------------------
#
# Rows are cleared to integers, then reduced by one-step Bareiss elimination so
# intermediate entries stay determinant-sized; back-substitution reintroduces
# rationals only at the end.


def _integer_rows(m: Matrix) -> list[list[int]]:
    out = []
    for row in m.entries:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in row])
    return out


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            for j in range(ncols):
                rows[i][j] = (piv * rows[i][j] - f * rows[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m: Matrix) -> int:
    """Exact rank."""
    _, pivots = _bareiss_echelon(_integer_rows(m))
    return len(pivots)


def nullspace(m: Matrix) -> list[Vector]:
    """Exact kernel basis (one vector per free column); empty iff injective."""
    rows, pivots = _bareiss_echelon(_integer_rows(m))
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        x = [ZERO] * n
        x[fc] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((Fraction(rows[r][j]) * x[j] for j in range(pc + 1, n)), ZERO)
            x[pc] = -s / rows[r][pc]
        basis.append(tuple(x))
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to zero), or None."""
    if a.rows != len(b):
        raise DimensionMismatch("right-hand side length does not match row count")
    aug = Matrix.from_rows([list(a.entries[i]) + [b[i]] for i in range(a.rows)])
    rows, pivots = _bareiss_echelon(_integer_rows(aug))
    if a.cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    x = [ZERO] * a.cols
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = sum((Fraction(rows[r][j]) * x[j] for j in range(pc + 1, a.cols)), ZERO)
        x[pc] = (Fraction(rows[r][a.cols]) - s) / rows[r][pc]
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    """Exact inverse via fraction-free elimination; raises SingularMatrix."""
    if not m.is_square():
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = Matrix.from_rows([
        list(m.entries[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)
    ])
    rows, pivots = _bareiss_echelon(_integer_rows(aug))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    inv_cols: list[Vector] = []
    for col in range(n):
        x = [ZERO] * n
        for r in range(n - 1, -1, -1):
            s = sum((Fraction(rows[r][j]) * x[j] for j in range(r + 1, n)), ZERO)
            x[r] = (Fraction(rows[r][n + col]) - s) / rows[r][r]
        inv_cols.append(tuple(x))
    return Matrix.from_columns(inv_cols)
