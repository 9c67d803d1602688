"""Structure-finding solvers.

An identity linear in one unknown map is the term list its checker contracts,
with the marker ``checks.Unknown`` in the candidate's place, compiled into one
exact linear system over the map's entries and solved by one exact
elimination; the quadratic operator identity is searched by exhaustive
enumeration over a finite grid, its free entries counted and held to the
budget before any is listed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import checks
from .bundles import AlgebraBundle
from .checks import Unknown, _commutator, _stack, check_nijenhuis_operator
from .exact import EMPTY, Matrix, Row, Tensor3, Term, Vector, ZERO, contract_sum, solve


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
    """The equations of a linear identity in one unknown map x (x[r][s] is unknown r * cols + s), given as the
    ``contract_sum`` terms on t its checker contracts, the marker ``Unknown`` for x: sum_u row[u] x_u + const = 0 at
    each cell a nonzero of a group's sum reaches (cancelled coefficients keep the constant), in integers over one
    denominator.  Groups, by where the marker stands, the constant first, are each summed by one ``contract_sum``,
    and each sum is read once, in its own layout: every nonzero cell goes straight into the n equations and unknowns
    its index names."""

    def __init__(self, t: Tensor3, terms: list[Term]):
        groups: dict[tuple[int, bool] | None, list[Term]] = {None: []}  # the marker's (axis, transposed) -> terms
        for s, maps in terms:
            at = None
            for axis, m in enumerate(maps):
                if isinstance(m, Unknown):
                    if at is not None:
                        raise NonlinearKind("the weighted rule is quadratic in the unknown map"
                                            " unless the weight is zero")
                    at, n, maps = (axis, m.transposed), t.shape[axis], maps[:axis] + (None,) + maps[axis + 1:]
            if s:
                groups.setdefault(at, []).append((s, maps))
        self.shape, self.nvars = (n, n), n * n  # x is n x n
        parts = []  # (sign, the sum of a group, where its marker stands): a leading -1 is kept out of the sum
        for at, group in groups.items():
            sign = -1 if group and group[0][0] == -1 else 1
            group = group if sign > 0 else [(-s, maps) for s, maps in group]
            if group:  # a lone term of no map is t itself
                parts.append((sign, t if group == [(1, (None, None, None))] else contract_sum(t, group), at))
        den = math.lcm(*[d for _, u, _ in parts for plane in u.nz for d, pairs in plane if pairs])
        d0, d1, d2 = t.shape
        equations = [None] * (d0 * d1 * d2)  # cell (i, j, k) at (i d1 + j) d2 + k -> {unknown: coefficient}
        const = {}  # cell -> the constant there, if nonzero
        for sign, u, at in parts:
            if at is None:
                const = {(i * d1 + j) * d2 + k: -sign * v * (den // d) for i, plane in enumerate(u.nz)
                         for j, (d, pairs) in enumerate(plane) for k, v in pairs}
                continue
            # a cell (.. b ..), b on the axis, adds its value to the coefficient of x[a][b] (x[b][a] transposed) in
            # the equation of cell (.. a ..), for each a: from a = 0, the cell moves by the axis' stride and the
            # unknown by step
            axis, transposed = at
            scale, step = (n, 1) if transposed else (1, n)  # unknown = scale * b + step * a
            stride = (d1 * d2, d2, 1)[axis]
            for i, plane in enumerate(u.nz):
                for j, (d, pairs) in enumerate(plane):
                    f, base = sign * (den // d), (i * d1 + j) * d2
                    for k, v in pairs:
                        b = (i, j, k)[axis]
                        c, var, w = base + k - b * stride, scale * b, f * v
                        for a in range(n):
                            eq = equations[c]
                            if eq is None:
                                eq = equations[c] = {}
                            eq[var] = eq.get(var, 0) + w
                            c += stride
                            var += step
        self.rows: list[Row] = []  # each equation as its sorted nonzero (unknown, numerator) pairs over 1
        rhs = []
        for c, eq in enumerate(equations):
            if eq is not None or c in const:
                if eq and not all(eq.values()):
                    eq = {var: v for var, v in eq.items() if v}
                self.rows.append((1, tuple(sorted(eq.items()))) if eq else EMPTY)
                rhs.append(const.get(c, 0))
        self.rhs = tuple(rhs) if const else None  # None: homogeneous; integer constants otherwise

    def solve(self) -> SolutionSpace:
        particular, basis = solve(Matrix(len(self.rows), self.nvars, tuple(self.rows)), self.rhs)
        return SolutionSpace(self.shape, particular, tuple(basis), self.rhs is None)


def solve_linear_identity(kind: str, weight: Fraction | None = None, **data) -> SolutionSpace:
    """Exact solution space of an identity linear in one unknown map: the
    terms its checker contracts, solved for the marker ``checks.Unknown``
    standing in the candidate's place.

    kinds: "derivation" (the Leibniz rule; weight must be zero there, its
    default), "conijenhuis" (unknown comultiplication-side operator given the
    algebra-side one; no weight), "zeta" (module-admissibility given the
    differential, whose weight is the default) and "pi" (zeta on the adjoint
    module).
    """
    systems = {
        "derivation": lambda algebra: (algebra.bracket, checks._leibniz(Unknown(), weight or 0)),
        "conijenhuis": lambda comul, nmap: (comul, checks._dual_admissible(nmap, Unknown())),
        "pi": lambda algebra: (algebra.bracket.transpose((0, 2, 1)), checks._zeta(algebra, Unknown(), weight)),
        "zeta": lambda rep: (_stack(rep.rho), checks._zeta(rep.algebra, Unknown(), weight)),
    }
    if kind not in systems:
        raise ValueError(f"unknown linear identity kind {kind!r}")
    if kind == "conijenhuis" and weight is not None:
        raise ValueError(f"the linear identity kind 'conijenhuis' has no weight, got {weight}")
    return _System(*systems[kind](**data)).solve()


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
