"""Structure-finding solvers.

Identities linear in one unknown map are compiled into one exact linear
system over the map's entries and solved by nullspace computation; the
quadratic operator identity is searched by exhaustive enumeration over a
finite grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .bundles import AlgebraBundle, CoalgebraBundle, RepresentationBundle
from .checks import check_nijenhuis_operator
from .exact import (
    Matrix,
    Tensor3,
    Vector,
    ZERO,
    apply_bilinear,
    apply_comul,
    basis_vector,
    lincomb,
    nullspace,
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
    """Accumulates exact linear equations over the entries of one unknown map."""

    def __init__(self, rows_dim: int, cols_dim: int):
        self.shape = (rows_dim, cols_dim)
        self.nvars = rows_dim * cols_dim
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []

    def new_row(self) -> tuple[list[Fraction], int]:
        row = [ZERO] * self.nvars
        self.rows.append(row)
        self.rhs.append(ZERO)
        return row, len(self.rows) - 1

    def var(self, r: int, c: int) -> int:
        return r * self.shape[1] + c

    def solve(self) -> SolutionSpace:
        a = Matrix.from_rows(self.rows) if self.rows else Matrix.zeros(1, self.nvars)
        rhs = tuple(self.rhs) if self.rows else (ZERO,)
        homogeneous = all(x == 0 for x in rhs)
        particular = tuple([ZERO] * self.nvars) if homogeneous else solve(a, rhs)
        basis = tuple(nullspace(a))
        return SolutionSpace(self.shape, particular, basis, homogeneous)


def _derivation_system(a: AlgebraBundle, weight: Fraction) -> _System:
    if weight != 0:
        raise NonlinearKind("the weighted rule is quadratic in the unknown map unless the weight is zero")
    n, c = a.dim, a.bracket
    sys = _System(n, n)
    for i in range(n):
        for j in range(n):
            w = a.bracket_basis(i, j)
            for k in range(n):
                row, _ = sys.new_row()
                for s in range(n):
                    row[sys.var(k, s)] += w[s]
                for r in range(n):
                    row[sys.var(r, i)] -= c.entries[r][j][k]
                    row[sys.var(r, j)] -= c.entries[i][r][k]
    return sys


def _conijenhuis_system(comul: Tensor3, nmap: Matrix) -> _System:
    n = comul.shape[0]
    n2 = nmap @ nmap
    sys = _System(n, n)
    for k in range(n):
        m0 = Matrix.from_rows(comul.entries[k])
        m1 = apply_comul(comul, nmap.column(k))
        const = (m0 @ n2.transpose()).sub(m1 @ nmap.transpose())
        sn = m0 @ nmap.transpose()
        for a_idx in range(n):
            for b_idx in range(n):
                row, ridx = sys.new_row()
                for i in range(n):
                    row[sys.var(a_idx, i)] += m1.entries[i][b_idx] - sn.entries[i][b_idx]
                sys.rhs[ridx] = -const.entries[a_idx][b_idx]
    return sys


def _pi_system(a: AlgebraBundle, weight: Fraction) -> _System:
    n, c = a.dim, a.bracket
    d = a.require_differential().matrix
    sys = _System(n, n)
    for i in range(n):
        for j in range(n):
            w = a.bracket_basis(i, j)
            u = apply_bilinear(c, d.column(i), basis_vector(n, j))
            for k in range(n):
                row, ridx = sys.new_row()
                for b in range(n):
                    row[sys.var(b, j)] += c.entries[i][b][k]
                for s in range(n):
                    row[sys.var(k, s)] -= w[s] + weight * u[s]
                sys.rhs[ridx] = u[k]
    return sys


def _zeta_system(r: RepresentationBundle, weight: Fraction) -> _System:
    d = r.algebra.require_differential().matrix
    n, v = r.algebra.dim, r.vdim
    sys = _System(v, v)
    for i in range(n):
        rx = r.rho[i]
        rdx = lincomb(r.rho, d.column(i))
        for a_idx in range(v):
            for b_idx in range(v):
                row, ridx = sys.new_row()
                for s in range(v):
                    row[sys.var(s, b_idx)] += rx.entries[a_idx][s]
                    row[sys.var(a_idx, s)] -= rx.entries[s][b_idx] + weight * rdx.entries[s][b_idx]
                sys.rhs[ridx] = rdx.entries[a_idx][b_idx]
    return sys


def solve_linear_identity(kind: str, weight: Fraction = ZERO, **data) -> SolutionSpace:
    """Exact solution space of an identity linear in one unknown map.

    kinds: "derivation" (weight must be zero there), "conijenhuis" (unknown
    comultiplication-side operator given the algebra-side one), "pi" and
    "zeta" (adjoint- and module-admissibility given the differential).
    """
    if kind == "derivation":
        return _derivation_system(data["algebra"], weight).solve()
    if kind == "conijenhuis":
        comul = data.get("comul")
        if comul is None:
            co: CoalgebraBundle = data["coalgebra"]
            comul = co.comul
        return _conijenhuis_system(comul, data["nmap"]).solve()
    if kind == "pi":
        return _pi_system(data["algebra"], weight).solve()
    if kind == "zeta":
        return _zeta_system(data["rep"], weight).solve()
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
        if not (m.commutes_with(a.alpha) and m.commutes_with(a.beta)):
            continue
        if check_nijenhuis_operator(replace(a, nijenhuis=m)).ok:
            out.append(m)
    out.sort(key=lambda m: m.entries)
    return out
