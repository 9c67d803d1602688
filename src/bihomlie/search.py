"""Structure-finding solvers.

Identities linear in one unknown map are compiled into one exact linear
system over the map's entries and solved by one exact elimination; the
quadratic operator identity is searched by exhaustive enumeration over a
finite grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .bundles import AlgebraBundle, require
from .checks import _action, _commutator, _comul, _stack, check_nijenhuis_operator
from .exact import (
    ONE,
    Matrix,
    Row,
    Tensor3,
    Vector,
    ZERO,
    _sorted_row,
    solve,
)


class NonlinearKind(ValueError):
    """The requested identity is not linear in the unknown map."""


class BudgetExceeded(ValueError):
    """The projected enumeration size exceeds the configured budget."""


@dataclass(frozen=True)
class SolutionSpace:
    """All maps satisfying a (possibly inhomogeneous) linear identity.

    The solution set is ``particular + span(basis)``; ``particular`` is None
    when the system is inconsistent, and the zero map when the identity is
    homogeneous.
    """

    shape: tuple[int, int]
    particular: Vector | None
    basis: tuple[Vector, ...]
    homogeneous: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    def _reshape(self, flat: Vector) -> Matrix:
        r, c = self.shape
        return Matrix.from_rows([[flat[i * c + j] for j in range(c)] for i in range(r)])

    def particular_matrix(self) -> Matrix | None:
        return None if self.particular is None else self._reshape(self.particular)

    def basis_matrices(self) -> tuple[Matrix, ...]:
        return tuple(self._reshape(v) for v in self.basis)

    def sample(self, coeffs: tuple[Fraction, ...]) -> Matrix:
        """particular + sum coeffs[i] * basis[i], as a map."""
        if self.particular is None:
            raise ValueError("solution set is empty")
        flat = list(self.particular)
        for c, v in zip(coeffs, self.basis, strict=True):
            for k, x in enumerate(v):
                flat[k] += c * x
        return self._reshape(tuple(flat))


class _System:
    """Accumulates exact linear equations, each a matrix ``Row``, over the entries of one unknown map."""

    def __init__(self, rows_dim: int, cols_dim: int):
        self.shape = (rows_dim, cols_dim)
        self.nvars = rows_dim * cols_dim
        self.rows: list[Row] = []
        self.rhs: list[Fraction] = []

    def add(self, parts: Sequence[tuple[Row, int, int]], rhs: Fraction = ZERO) -> None:
        """Append sum row[k] * x[stride * k + offset] = rhs over the (row, stride, offset)
        parts, summed as integers over their common denominator."""
        den = math.lcm(*[row[0] for row, _, _ in parts])
        acc: dict[int, int] = {}
        for (d, pairs), stride, offset in parts:
            f = den // d
            for k, v in pairs:
                var = stride * k + offset
                acc[var] = acc.get(var, 0) + f * v
        self.rows.append(_sorted_row(den, acc))
        self.rhs.append(rhs)

    def solve(self) -> SolutionSpace:
        a = Matrix(len(self.rows), self.nvars, tuple(self.rows))
        homogeneous = not any(self.rhs)
        particular, basis = solve(a, None if homogeneous else tuple(self.rhs))
        return SolutionSpace(self.shape, particular, tuple(basis), homogeneous)


def _derivation_system(a: AlgebraBundle, weight: Fraction) -> _System:
    if weight != 0:
        raise NonlinearKind("the weighted rule is quadratic in the unknown map unless the weight is zero")
    n, c = a.dim, a.bracket
    # d([e_i, e_j])_k - [d e_i, e_j]_k - [e_i, d e_j]_k = 0, the unknown d[r][s] being variable r*n + s
    minus = c.scale(-ONE)
    w, left, right = c.nz, minus.transpose((1, 2, 0)).nz, minus.transpose((0, 2, 1)).nz
    sys = _System(n, n)
    for i, j, k in itertools.product(range(n), repeat=3):
        sys.add(((w[i][j], 1, k * n), (left[j][k], n, i), (right[i][k], n, j)))
    return sys


def _conijenhuis_system(comul: Tensor3, nmap: Matrix) -> _System:
    """(S x id) Delta N + (id x N^2) Delta = (S x N) Delta + (id x N) Delta N,
    linear in the unknown S."""
    n = comul.shape[0]
    # the coefficient of S: Delta N - (id x N) Delta; the right-hand side: (id x N) Delta N - (id x N^2) Delta
    coeff = _comul(comul, nmap).sub(_comul(comul, None, None, nmap)).transpose((0, 2, 1)).nz
    rhs = _comul(comul, nmap, None, nmap).sub(_comul(comul, None, None, nmap @ nmap)).entries
    sys = _System(n, n)
    for k, a_idx, b_idx in itertools.product(range(n), repeat=3):
        sys.add(((coeff[k][b_idx], 1, a_idx * n),), rhs[k][a_idx][b_idx])
    return sys


def _zeta_system(rho: Tensor3, a: AlgebraBundle, weight: Fraction | None) -> _System:
    """rho(x) zeta = rho(d(x)) + zeta rho(x) + w zeta rho(d(x)), linear in zeta, for the
    stacked action rho of a; pi is the adjoint case rho(e_i) = ad_{e_i}."""
    diff = require(a, "differential")
    d = diff.matrix
    weight = diff.weight if weight is None else weight
    n, v = a.dim, rho.shape[1]
    rho_d = _action(rho, d)  # rho(d(e_i))
    rows, cols = rho.nz, rho.add(rho_d.scale(weight)).scale(-ONE).transpose((0, 2, 1)).nz
    sys = _System(v, v)
    for i, a_idx, b_idx in itertools.product(range(n), range(v), range(v)):
        sys.add(((rows[i][a_idx], v, b_idx), (cols[i][b_idx], 1, a_idx * v)), rho_d.entries[i][a_idx][b_idx])
    return sys


def solve_linear_identity(kind: str, weight: Fraction | None = None, **data) -> SolutionSpace:
    """Exact solution space of an identity linear in one unknown map.

    kinds: "derivation" (weight must be zero there, its default),
    "conijenhuis" (unknown comultiplication-side operator given the
    algebra-side one; no weight), "zeta" (module-admissibility given the
    differential, whose weight is the default) and "pi" (zeta on the adjoint
    module).
    """
    if kind == "derivation":
        return _derivation_system(data["algebra"], ZERO if weight is None else weight).solve()
    if kind == "conijenhuis":
        return _conijenhuis_system(data["comul"], data["nmap"]).solve()
    if kind == "pi":
        a = data["algebra"]
        return _zeta_system(a.bracket.transpose((0, 2, 1)), a, weight).solve()
    if kind == "zeta":
        r = data["rep"]
        return _zeta_system(_stack(r.rho), r.algebra, weight).solve()
    raise ValueError(f"unknown linear identity kind {kind!r}")


def grid_search_nijenhuis(a: AlgebraBundle, grid: list[Fraction],
                          pattern: list[list[Fraction | None]] | None = None,
                          budget: int = 200_000) -> list[Matrix]:
    """All grid-pattern matrices commuting with alpha and beta that satisfy the
    operator deformation identity exactly.

    The pattern fixes some entries; None marks a free entry drawn from the
    grid.  Enumeration size k * |grid|^k beyond the budget raises
    BudgetExceeded.  Output is sorted canonically by entries.
    """
    n = a.dim
    if pattern is None:
        pattern = [[None] * n for _ in range(n)]
    if len(pattern) != n or any(len(row) != n for row in pattern):
        raise ValueError(f"pattern must be {n}x{n}")
    grid = sorted(set(grid))
    free = [(i, j) for i in range(n) for j in range(n) if pattern[i][j] is None]
    k = len(free)
    if k * len(grid) ** k > budget:
        raise BudgetExceeded(f"{k} free entries over a grid of {len(grid)} needs {k * len(grid) ** k} > budget {budget}")
    out: list[Matrix] = []
    for combo in itertools.product(grid, repeat=k):
        cells = [[pattern[i][j] if pattern[i][j] is not None else ZERO for j in range(n)] for i in range(n)]
        for (i, j), val in zip(free, combo):
            cells[i][j] = val
        m = Matrix.from_rows(cells)
        if not (_commutator(m, a.alpha).is_zero() and _commutator(m, a.beta).is_zero()):
            continue
        if check_nijenhuis_operator(replace(a, nijenhuis=m)).ok:
            out.append(m)
    out.sort(key=lambda m: m.entries)
    return out
