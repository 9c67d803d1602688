"""Structure-finding solvers.

An identity linear in one unknown map is the affine form its checker
evaluates (``checks.Affine``), compiled into one exact linear system over the
map's entries and solved by one exact elimination; the quadratic operator
identity is searched by exhaustive enumeration over a finite grid, its free
entries counted and held to the budget before any is listed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import checks
from .bundles import AlgebraBundle
from .checks import _commutator, _stack, check_nijenhuis_operator
from .exact import Matrix, Row, Vector, ZERO, _sorted_row, solve


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
    """The equations of an affine form in one unknown map x, x[r][s] being unknown r * cols + s: the form's
    residual at a cell, sum_u row[u] x_u + const = 0, for each cell a nonzero of a term or of the constant
    reaches (a cell whose coefficients cancel keeps its constant), on integers over one common denominator."""

    def __init__(self, form: checks.Affine):
        rows_dim, cols = self.shape = form.shape
        self.nvars = rows_dim * cols
        den = math.lcm(*[d for t in (form.const, *(term[1] for term in form.terms))
                         for plane in t.nz for d, pairs in plane if pairs])
        const = {(i, j, k): -v * (den // d) for i, plane in enumerate(form.const.nz)
                 for j, (d, pairs) in enumerate(plane) for k, v in pairs}
        equations: dict[tuple[int, int, int], dict[int, int]] = {cell: {} for cell in const}
        for sign, t, axis, transposed in form.terms:
            # t with the axis transformed by x is sum_b x[a][b] t[.. b ..] at index a on the axis: the rows of
            # t with the axis moved last, each spread over x's row a (or column a, transposed) for every a
            stride, step = (cols, 1) if transposed else (1, cols)
            for p, plane in enumerate(t.transpose(((1, 2, 0), (0, 2, 1), (0, 1, 2))[axis]).nz):
                for q, (d, pairs) in enumerate(plane):
                    f = sign * (den // d)
                    for a in range(form.const.shape[axis]) if pairs else ():
                        eq = equations.setdefault((a, p, q) if axis == 0 else (p, a, q) if axis == 1 else (p, q, a), {})
                        for b, v in pairs:
                            u = stride * b + step * a
                            eq[u] = eq.get(u, 0) + f * v
        self.rows: list[Row] = [_sorted_row(1, eq) for eq in equations.values()]
        # the right-hand sides, None when the form has no constant
        self.rhs = tuple(Fraction(const.get(cell, 0)) for cell in equations) if const else None

    def solve(self) -> SolutionSpace:
        particular, basis = solve(Matrix(len(self.rows), self.nvars, tuple(self.rows)), self.rhs)
        return SolutionSpace(self.shape, particular, tuple(basis), self.rhs is None)


def solve_linear_identity(kind: str, weight: Fraction | None = None, **data) -> SolutionSpace:
    """Exact solution space of an identity linear in one unknown map: the
    checker's affine form of that identity, solved for the map.

    kinds: "derivation" (weight must be zero there, its default),
    "conijenhuis" (unknown comultiplication-side operator given the
    algebra-side one; no weight), "zeta" (module-admissibility given the
    differential, whose weight is the default) and "pi" (zeta on the adjoint
    module).
    """
    forms = {
        "derivation": lambda algebra: checks._leibniz_form(algebra),
        "conijenhuis": checks._dual_admissible_form,
        "pi": lambda algebra: checks._pi_form(algebra, weight),
        "zeta": lambda rep: checks._zeta_form(_stack(rep.rho), rep.algebra, weight),
    }
    if kind not in forms:
        raise ValueError(f"unknown linear identity kind {kind!r}")
    if kind == "conijenhuis" and weight is not None:
        raise ValueError(f"the linear identity kind 'conijenhuis' has no weight, got {weight}")
    if kind == "derivation" and weight:
        raise NonlinearKind("the weighted rule is quadratic in the unknown map unless the weight is zero")
    return _System(forms[kind](**data)).solve()


def grid_search_nijenhuis(a: AlgebraBundle, grid: list[Fraction],
                          pattern: list[list[Fraction | None]] | None = None,
                          budget: int = 200_000) -> list[Matrix]:
    """All grid-pattern matrices commuting with alpha and beta that satisfy the
    operator deformation identity exactly.

    The pattern fixes some entries; None marks a free entry drawn from the
    grid.  Enumeration size k * |grid|^k beyond the budget raises
    BudgetExceeded before anything is built.  Output is sorted canonically.
    """
    n = a.dim
    if pattern is not None and (len(pattern) != n or any(len(row) != n for row in pattern)):
        raise ValueError(f"pattern must be {n}x{n}")
    grid = sorted(set(grid))
    k = n * n if pattern is None else sum(x is None for row in pattern for x in row)
    if grid and k > budget or k * len(grid) ** k > budget:  # k * g^k >= k for g >= 1: refused before the power
        raise BudgetExceeded(f"{k} free entries over a grid of {len(grid)} need {k} * {len(grid)}^{k} candidates"
                             f" > budget {budget}")
    if pattern is None:
        pattern = [[None] * n for _ in range(n)]
    free = [(i, j) for i in range(n) for j in range(n) if pattern[i][j] is None]
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
