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
from .exact import EMPTY, Matrix, Tensor3, Term, Vector, ZERO, contract_sum, solve


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


def _swap_symmetric(terms: list[Term]) -> bool:
    """Whether the terms, as a multiset, are unchanged by swapping the maps of axes 0 and 1."""
    for s, (m0, m1, m2) in terms:
        if m0 is not m1 and terms.count((s, (m1, m0, m2))) != terms.count((s, (m0, m1, m2))):
            return False
    return True


def _antisymmetric(t: Tensor3) -> bool:
    """Whether t[j][i] = -t[i][j] for all i, j (so t[i][i] = 0); rows are canonical, so a row's negative has its
    denominator and its columns."""
    for i, plane in enumerate(t.nz):
        if plane[i][1]:
            return False
        for j in range(i + 1, len(plane)):
            (d, pairs), (e, mirror) = plane[j], t.nz[j][i]
            if d != e or len(pairs) != len(mirror):
                return False
            for (k, v), (m, w) in zip(pairs, mirror):
                if k != m or v + w:
                    return False
    return True


class _System:
    """The equations of a linear identity in one unknown map x (x[r][s] is unknown r * cols + s), given as the
    ``contract_sum`` terms on t its checker contracts, the marker ``Unknown`` for x: sum_u row[u] x_u = row[nvars]
    at each cell a nonzero of a group's sum reaches (cancelled coefficients keep the constant), in integers over one
    denominator.  Groups, by where the marker stands, the constant first, are each summed by one ``contract_sum``,
    and each sum is read once, in its own layout: every nonzero cell goes straight into the integer rows of the n
    cells its index names, one dict {column: value} per reached cell, the constant negated in column nvars.

    The mirror rule: when t is antisymmetric in axes 0 and 1 (t[j][i] = -t[i][j], so t[i][i] = 0) and the terms,
    as a multiset of (scale, maps), are unchanged by swapping the maps of those two axes (an ``Unknown`` compared
    with its ``transposed`` flag), the residual is antisymmetric too: the equation of cell (j, i, k) is -1 times
    that of (i, j, k), which ``exact.solve`` reads as one row, and (i, i, k) has none.  Only the cells i < j are
    written then.  The Leibniz terms meet the condition on every untwisted Lie bracket.  The tests run cheapest
    first, and a system with no nonzero to write never scans t."""

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
        dens = [d for _, u, _ in parts for plane in u.nz for d, pairs in plane if pairs]
        den, (d0, d1, d2) = math.lcm(*dens), t.shape
        if not dens:  # every sum is zero: no cell is reached
            parts = []
        # the mirror rule's tests, cheapest first: some nonzero to write, the marker on axis 0 under the same flags
        # as on axis 1, the terms, then t
        half = (bool(parts) and d0 == d1 and ((0, False) in groups) == ((1, False) in groups)
                and ((0, True) in groups) == ((1, True) in groups) and _swap_symmetric(terms) and _antisymmetric(t))
        every = [[range(n)] * d1] * d0  # each row writes every a
        rows: dict[int, dict[int, int]] = {}  # cell (i d1 + j) d2 + k -> its row {unknown: coefficient, nvars: -c}
        self.homogeneous = True
        for sign, u, at in parts:
            nz = u.nz
            if half and (at is None or at[0] == 2):  # a cell (i, j, k) writes cell (i, j, k) alone: keep i < j
                nz = [(EMPTY,) * (i + 1) + plane[i + 1:] for i, plane in enumerate(nz)]
            if at is None:  # the constant comes first, so it starts the row of each cell it reaches
                for i, plane in enumerate(nz):
                    for j, (d, pairs) in enumerate(plane):
                        f, base = -sign * (den // d), (i * d1 + j) * d2
                        for k, v in pairs:
                            rows[base + k] = {self.nvars: f * v}
                self.homogeneous = not rows
                continue
            # a cell (.. b ..), b on the axis, adds its value to the coefficient of x[a][b] (x[b][a] transposed) in
            # the equation of cell (.. a ..), for each a its row (i, j) writes, spans[i][j] of them: from a = 0, the
            # cell moves by the axis' stride and the unknown by step.  The spans are chosen once per group: every a,
            # or on the mirror rule a < j on axis 0 and a > i on axis 1, that one walked down from a = n - 1
            axis, transposed = at
            scale, step = (n, 1) if transposed else (1, n)  # unknown = scale * b + step * a
            stride = (d1 * d2, d2, 1)[axis]
            spans, cell, var0, dc, dv = every, 0, 0, stride, step  # the first a's cell and unknown offsets, the steps
            if half and axis == 0:
                spans = [list(map(range, range(d1)))] * d0
            elif half and axis == 1:
                spans = [[range(n - 1 - i)] * d1 for i in range(d0)]
                cell, var0, dc, dv = (n - 1) * stride, (n - 1) * step, -stride, -step
            for i, plane in enumerate(nz):
                reaches = spans[i]
                for j, (d, pairs) in enumerate(plane):
                    if not pairs:
                        continue
                    f, base, reach = sign * (den // d), (i * d1 + j) * d2 + cell, reaches[j]
                    for k, v in pairs:
                        b = (i, j, k)[axis]
                        c, var, w = base + k - b * stride, scale * b + var0, f * v
                        for _ in reach:
                            row = rows.get(c)
                            if row is None:
                                row = rows[c] = {}
                            if x := row.get(var, 0) + w:
                                row[var] = x
                            else:
                                del row[var]
                            c += dc
                            var += dv
        self.rows = list(rows.values())  # one per reached cell, empty where every coefficient cancels

    def solve(self) -> SolutionSpace:
        particular, basis = solve((self.nvars, self.rows))
        return SolutionSpace(self.shape, particular, tuple(basis), self.homogeneous)


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
