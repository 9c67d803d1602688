"""Identity checkers.

Every checker evaluates its identities on all basis tuples (multilinearity
makes that exhaustive) and returns a Report of exact residuals; pass iff the
residual is identically zero.  Hypotheses a result states without the checker
being able to gate on usefully (involutivity, invertibility) are reported as
notes while the identity is still evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CheckEntry,
    CoalgebraBundle,
    FormBundle,
    MatchedPairBundle,
    Report,
    RepresentationBundle,
    Residual,
    entry,
)
from .exact import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    Vector,
    ZERO,
    apply_bilinear,
    apply_comul,
    basis_vector,
    invert,
    lincomb,
    nullspace,
    vec_add,
    vec_sub,
)


class WeightMismatch(DimensionMismatch):
    """Differential structures combined with different weights."""


#: identity id -> the identity it checks, embedded in every report document.
#: Filled by the ``@declares`` decorator next to each evaluator, here and in
#: ``constructions``; "shared_maps" has no evaluator, BialgebraBundle refuses
#: unshared maps when it is built.
IDENTITY_FORMULAS: dict[str, str] = {
    "shared_maps": "algebra and coalgebra carry the same structure maps",
}


def declares(**formulas: str):
    """Record the formula of each identity the decorated evaluator checks."""
    def register(fn):
        IDENTITY_FORMULAS.update(formulas)
        return fn
    return register


def ad_matrix(bracket: Tensor3, z: Vector) -> Matrix:
    """Matrix of ad_z: column k holds the coordinates of [z, e_k]."""
    n = bracket.shape[0]
    cols = [apply_bilinear(bracket, z, basis_vector(n, k)) for k in range(n)]
    return Matrix.from_columns(cols)


def _matrix_entry(identity: str, case: str, m: Matrix) -> CheckEntry:
    return entry(identity, case, Residual.from_matrix(m))


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    return (a @ b).sub(b @ a)


def _kernel_residual(m: Matrix) -> Residual:
    """A kernel basis of m, one column per basis vector: zero iff m is injective."""
    kernel = nullspace(m)
    return Residual.tabulate((m.cols, len(kernel)), lambda i, j: kernel[j][i])


_SQUARES = " (alpha^2 or beta^2 differs from id)"


def _involution_note(a: AlgebraBundle, subject: str = "algebra", detail: str = "") -> tuple[str, ...]:
    """The note a result stated for involutive algebras carries when a is not."""
    return () if is_involutive(a) else (f"hypothesis not met: {subject} is not involutive{detail}",)


def _multiplicativity(c: Tensor3, m: Matrix) -> Residual:
    """phi([x,y]) - [phi(x),phi(y)] on basis pairs."""
    n = c.shape[0]
    return Residual.tabulate(
        (n, n), lambda i, j: vec_sub(m.apply(c.entries[i][j]), apply_bilinear(c, m.column(i), m.column(j))))


def _comultiplicativity(t: Tensor3, m: Matrix) -> Residual:
    """Delta phi - (phi x phi) Delta on basis vectors."""
    return Residual.tabulate(
        (t.shape[0],), lambda k: apply_comul(t, m.column(k)).sub(m @ Matrix.from_rows(t.entries[k]) @ m.transpose()))


# -- elements of the triple tensor power, stored as nested coefficient lists ----


def _t3_zero(n: int) -> list[list[list[Fraction]]]:
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def _t3_addto(acc: list[list[list[Fraction]]], other: list[list[list[Fraction]]]) -> None:
    n = len(acc)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc[a][b][c] += other[a][b][c]


def _t3_apply(f: Matrix, g: Matrix, h: Matrix, t: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    n = len(t)
    out = _t3_zero(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = t[a][b][c]
                if v == 0:
                    continue
                for i in range(n):
                    fa = f.entries[i][a]
                    if fa == 0:
                        continue
                    for j in range(n):
                        gb = g.entries[j][b]
                        if gb == 0:
                            continue
                        for k in range(n):
                            hc = h.entries[k][c]
                            if hc != 0:
                                out[i][j][k] += v * fa * gb * hc
    return out


def _t3_cycle(t: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    """u (x) v (x) w  ->  w (x) u (x) v on coefficient arrays."""
    n = len(t)
    out = _t3_zero(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                out[c][a][b] = t[a][b][c]
    return out


# -- algebra-side checkers -------------------------------------------------------


@declares(
    bihom_multiplicativity="phi([x,y]) = [phi(x),phi(y)] for phi in {alpha,beta}; alpha beta = beta alpha",
    bihom_antisymmetry="[beta(x),alpha(y)] + [beta(y),alpha(x)] = 0",
    bihom_jacobi="[beta^2(x),[beta(y),alpha(z)]] + [beta^2(y),[beta(z),alpha(x)]] + [beta^2(z),[beta(x),alpha(y)]] = 0",
)
def check_bihom_lie(a: AlgebraBundle) -> Report:
    """Multiplicativity of alpha and beta, twisted antisymmetry, twisted Jacobi."""
    n, c, A, B = a.dim, a.bracket, a.alpha, a.beta
    B2 = B @ B

    def antisymmetry(i: int, j: int) -> Vector:
        return vec_add(apply_bilinear(c, B.column(i), A.column(j)), apply_bilinear(c, B.column(j), A.column(i)))

    def jacobi(i: int, j: int, k: int) -> Vector:
        t1 = apply_bilinear(c, B2.column(i), apply_bilinear(c, B.column(j), A.column(k)))
        t2 = apply_bilinear(c, B2.column(j), apply_bilinear(c, B.column(k), A.column(i)))
        t3 = apply_bilinear(c, B2.column(k), apply_bilinear(c, B.column(i), A.column(j)))
        return vec_add(vec_add(t1, t2), t3)

    return Report((
        entry("bihom_multiplicativity", "alpha", _multiplicativity(c, A)),
        entry("bihom_multiplicativity", "beta", _multiplicativity(c, B)),
        _matrix_entry("bihom_multiplicativity", "alpha-beta-commute", _commutator(A, B)),
        entry("bihom_antisymmetry", "", Residual.tabulate((n, n), antisymmetry)),
        entry("bihom_jacobi", "", Residual.tabulate((n, n, n), jacobi)),
    ))


@declares(involution="alpha^2 = id and beta^2 = id")
def check_involution(a: AlgebraBundle) -> Report:
    """alpha^2 = beta^2 = id; gates several duality hypotheses."""
    ident = Matrix.identity(a.dim)
    return Report((
        _matrix_entry("involution", "alpha", (a.alpha @ a.alpha).sub(ident)),
        _matrix_entry("involution", "beta", (a.beta @ a.beta).sub(ident)),
    ))


def is_involutive(a: AlgebraBundle) -> bool:
    return check_involution(a).ok


@declares(
    nijenhuis_commute="N alpha = alpha N and N beta = beta N",
    nijenhuis_identity="[N(x),N(y)] = N([N(x),y] + [x,N(y)]) - N^2([x,y])",
)
def check_nijenhuis_operator(a: AlgebraBundle) -> Report:
    """Commutation with the structure maps plus the deformation identity."""
    N = a.require_nijenhuis()
    n, c = a.dim, a.bracket
    N2 = N @ N

    def deformation(i: int, j: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        lhs = apply_bilinear(c, N.column(i), N.column(j))
        inner = vec_add(apply_bilinear(c, N.column(i), ej), apply_bilinear(c, ei, N.column(j)))
        return vec_sub(lhs, vec_sub(N.apply(inner), N2.apply(c.entries[i][j])))

    return Report((
        _matrix_entry("nijenhuis_commute", "alpha", _commutator(a.alpha, N)),
        _matrix_entry("nijenhuis_commute", "beta", _commutator(a.beta, N)),
        entry("nijenhuis_identity", "", Residual.tabulate((n, n), deformation)),
    ))


# -- coalgebra-side checkers -----------------------------------------------------


@declares(
    co_comultiplicativity="Delta phi = (phi x phi) Delta for phi in {alpha,beta}; alpha beta = beta alpha",
    co_antisymmetry="(beta x alpha) Delta + tau (beta x alpha) Delta = 0",
    co_jacobi="(id + c + c^2) (id x beta x alpha) (beta^2 x Delta) Delta = 0 with c the cyclic factor rotation",
)
def check_bihom_coalgebra(co: CoalgebraBundle) -> Report:
    """Comultiplicativity, twisted co-antisymmetry, twisted co-Jacobi."""
    n, t, A, B = co.dim, co.comul, co.alpha, co.beta
    B2 = B @ B
    ident = Matrix.identity(n)

    def antisymmetry(k: int) -> Matrix:
        term = B @ Matrix.from_rows(t.entries[k]) @ A.transpose()
        return term.add(term.transpose())

    def jacobi(k: int) -> list[list[list[Fraction]]]:
        # (beta^2 x Delta) Delta(e_k), then (id x beta x alpha), then cyclic sum
        w = _t3_zero(n)
        plane = t.entries[k]
        for a_idx in range(n):
            for b_idx in range(n):
                coeff = plane[a_idx][b_idx]
                if coeff == 0:
                    continue
                left = B2.column(a_idx)
                inner = t.entries[b_idx]
                for i in range(n):
                    if left[i] == 0:
                        continue
                    for b2 in range(n):
                        for c2 in range(n):
                            v = inner[b2][c2]
                            if v != 0:
                                w[i][b2][c2] += coeff * left[i] * v
        w = _t3_apply(ident, B, A, w)
        total = [[list(row) for row in plane2] for plane2 in w]
        cyc = _t3_cycle(w)
        _t3_addto(total, cyc)
        _t3_addto(total, _t3_cycle(cyc))
        return total

    return Report((
        entry("co_comultiplicativity", "alpha", _comultiplicativity(t, A)),
        entry("co_comultiplicativity", "beta", _comultiplicativity(t, B)),
        _matrix_entry("co_comultiplicativity", "alpha-beta-commute", _commutator(A, B)),
        entry("co_antisymmetry", "", Residual.tabulate((n,), antisymmetry)),
        entry("co_jacobi", "", Residual.tabulate((n,), jacobi)),
    ))


@declares(co_nijenhuis="(S x S) Delta + Delta S^2 = (S x id) Delta S + (id x S) Delta S; S commutes with alpha, beta")
def check_nijenhuis_coalgebra(co: CoalgebraBundle) -> Report:
    """Comultiplication-side deformation identity for the operator S.

    Commutation of S with alpha and beta is included so that the verdict
    matches the dual algebra-side check exactly.
    """
    S = co.require_conijenhuis()
    t = co.comul
    S2 = S @ S

    def deformation(k: int) -> Matrix:
        plane = Matrix.from_rows(t.entries[k])
        d_sk = apply_comul(t, S.column(k))
        lhs = (S @ plane @ S.transpose()).add(apply_comul(t, S2.column(k)))
        return lhs.sub((S @ d_sk).add(d_sk @ S.transpose()))

    return Report((
        _matrix_entry("co_nijenhuis", "commute-alpha", _commutator(co.alpha, S)),
        _matrix_entry("co_nijenhuis", "commute-beta", _commutator(co.beta, S)),
        entry("co_nijenhuis", "", Residual.tabulate((co.dim,), deformation)),
    ))


# -- bialgebra cocycle ------------------------------------------------------------


@declares(bialgebra_cocycle="Delta([alpha^-1 beta(x), y]) = (ad_beta(x) x beta + beta x ad_{alpha^-1 beta^2(x)}) Delta(y) - (x <-> y)")
def check_bialgebra_cocycle(b: BialgebraBundle) -> Report:
    """Compatibility of bracket and comultiplication.

    Two stated expansions of the twisted adjoint double action exist; both are
    evaluated (they coincide whenever alpha is invertible and the maps
    commute) and both residuals are reported.
    """
    alg, co = b.algebra, b.coalgebra
    n, c, t = alg.dim, alg.bracket, co.comul
    A, B = alg.alpha, alg.beta
    Ainv = invert(A)  # SingularMatrix signals the violated hypothesis
    AinvB = Ainv @ B
    B2 = B @ B
    AinvB2 = Ainv @ B2
    Ainv2B2 = Ainv @ Ainv @ B2

    def op_remark(z: Vector, e: Matrix) -> Matrix:
        first = ad_matrix(c, B.apply(z)) @ e @ B.transpose()
        second = B @ e @ ad_matrix(c, AinvB2.apply(z)).transpose()
        return first.add(second)

    def op_def(z: Vector, e: Matrix) -> Matrix:
        first = ad_matrix(c, AinvB.apply(z)) @ e @ B.transpose()
        second = B @ e @ ad_matrix(c, Ainv2B2.apply(z)).transpose()
        return first.add(second)

    cases = []
    for label, op, arg in (("", op_remark, None), ("twisted-argument-form", op_def, A)):
        def cocycle(i: int, j: int) -> Matrix:
            ei, ej = basis_vector(n, i), basis_vector(n, j)
            zi = ei if arg is None else arg.column(i)
            zj = ej if arg is None else arg.column(j)
            lhs = apply_comul(t, apply_bilinear(c, AinvB.column(i), ej))
            return lhs.sub(op(zi, apply_comul(t, ej)).sub(op(zj, apply_comul(t, ei))))

        res = Residual.tabulate((n, n), cocycle)
        # the second expansion is reported for comparison, never resolved into
        # the verdict; the two coincide whenever the maps commute
        cases.append(CheckEntry("bialgebra_cocycle", label, res, res.is_zero, advisory=bool(label)))
    return Report(tuple(cases))


# -- representation checkers -------------------------------------------------------


@declares(
    rep_p_compat="p rho(x) = rho(alpha(x)) p; p q = q p",
    rep_q_compat="q rho(x) = rho(beta(x)) q",
    rep_bracket="rho([beta(x),y]) q = rho(alpha beta(x)) rho(y) - rho(beta(y)) rho(alpha(x))",
)
def check_representation(r: RepresentationBundle) -> Report:
    """Module compatibility with p, q and the twisted action identity."""
    alg = r.algebra
    n = alg.dim
    A, B = alg.alpha, alg.beta
    AB = A @ B

    def act(x: Vector) -> Matrix:
        return lincomb(r.rho, x)

    def bracket(i: int, j: int) -> Matrix:
        lhs = act(apply_bilinear(alg.bracket, B.column(i), basis_vector(n, j))) @ r.q
        return lhs.sub((act(AB.column(i)) @ r.rho[j]).sub(act(B.column(j)) @ act(A.column(i))))

    return Report((
        entry("rep_p_compat", "", Residual.tabulate((n,), lambda i: (r.p @ r.rho[i]).sub(act(A.column(i)) @ r.p))),
        _matrix_entry("rep_p_compat", "p-q-commute", _commutator(r.p, r.q)),
        entry("rep_q_compat", "", Residual.tabulate((n,), lambda i: (r.q @ r.rho[i]).sub(act(B.column(i)) @ r.q))),
        entry("rep_bracket", "", Residual.tabulate((n, n), bracket)),
    ))


@declares(rep_nijenhuis="rho(N(x)) eta = eta rho(N(x)) + eta rho(x) eta - eta^2 rho(x); eta commutes with p, q")
def check_nijenhuis_representation(r: RepresentationBundle) -> Report:
    """Operator compatibility of eta with the module and the algebra operator."""
    eta = r.require_eta()
    N = r.algebra.require_nijenhuis()

    def deformation(i: int) -> Matrix:
        rN, rx = lincomb(r.rho, N.column(i)), r.rho[i]
        return (rN @ eta).sub(eta @ rN).sub(eta @ rx @ eta).add(eta @ eta @ rx)

    return Report((
        _matrix_entry("rep_nijenhuis", "eta-p-commute", _commutator(eta, r.p)),
        _matrix_entry("rep_nijenhuis", "eta-q-commute", _commutator(eta, r.q)),
        entry("rep_nijenhuis", "", Residual.tabulate((r.algebra.dim,), deformation)),
    ))


# -- admissibility checkers ---------------------------------------------------------


@declares(admissible_eta="eta(rho(N(x)) u) + rho(x)(eta^2(u)) = rho(N(x)) eta(u) + eta(rho(x) eta(u))")
def check_eta_admissible(r: RepresentationBundle) -> Report:
    """Dual-module admissibility of eta."""
    eta = r.require_eta()
    N = r.algebra.require_nijenhuis()
    notes = _involution_note(r.algebra, detail=_SQUARES)

    def admissible(i: int) -> Matrix:
        rN, rx = lincomb(r.rho, N.column(i)), r.rho[i]
        return (eta @ rN).add(rx @ eta @ eta).sub(rN @ eta).sub(eta @ rx @ eta)

    return Report((entry("admissible_eta", "", Residual.tabulate((r.algebra.dim,), admissible)),), notes)


@declares(admissible_adjoint="S([N(x),y]) + [x,S^2(y)] = [N(x),S(y)] + S([x,S(y)])")
def check_adjoint_admissible(a: AlgebraBundle, smap: Matrix) -> Report:
    """Adjoint admissibility of a candidate map S against the bundle operator N."""
    N = a.require_nijenhuis()
    if (smap.rows, smap.cols) != (a.dim, a.dim):
        raise DimensionMismatch("candidate map size does not match the algebra")
    notes = _involution_note(a, detail=_SQUARES)
    n, c = a.dim, a.bracket
    S2 = smap @ smap

    def admissible(i: int, j: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        lhs = vec_add(smap.apply(apply_bilinear(c, N.column(i), ej)), apply_bilinear(c, ei, S2.column(j)))
        rhs = vec_add(apply_bilinear(c, N.column(i), smap.column(j)), smap.apply(apply_bilinear(c, ei, smap.column(j))))
        return vec_sub(lhs, rhs)

    return Report((entry("admissible_adjoint", "", Residual.tabulate((n, n), admissible)),), notes)


@declares(admissible_dual="(S x id) Delta N + (id x N^2) Delta = (S x N) Delta + (id x N) Delta N")
def check_dual_admissible(comul: Tensor3, nmap: Matrix, smap: Matrix) -> Report:
    """Comultiplication-side admissibility tying S, N and Delta together."""
    n = comul.shape[0]
    for m in (nmap, smap):
        if (m.rows, m.cols) != (n, n):
            raise DimensionMismatch("operator size does not match the comultiplication")
    N2 = nmap @ nmap

    def admissible(k: int) -> Matrix:
        d_k = Matrix.from_rows(comul.entries[k])
        d_nk = apply_comul(comul, nmap.column(k))
        lhs = (smap @ d_nk).add(d_k @ N2.transpose())
        return lhs.sub((smap @ d_k @ nmap.transpose()).add(d_nk @ nmap.transpose()))

    return Report((entry("admissible_dual", "", Residual.tabulate((n,), admissible)),))


# -- bilinear forms -------------------------------------------------------------------


@declares(
    form_symmetric="B(x,y) = B(y,x)",
    form_nondegenerate="gram matrix is invertible (residual lists a kernel basis)",
)
def check_gram(f: FormBundle) -> Report:
    """Symmetry and nondegeneracy of a form on its own."""
    G = f.gram
    return Report((
        _matrix_entry("form_symmetric", "", G.sub(G.transpose())),
        entry("form_nondegenerate", "", _kernel_residual(G)),
    ))


@declares(form_invariance="B([x,y],z) = B(x,[y,z]); B(phi(x),y) = B(x,phi(y)) for phi in {alpha,beta}")
def check_form(a: AlgebraBundle, f: FormBundle) -> Report:
    """Symmetry, nondegeneracy, self-adjointness of the maps, invariance."""
    if f.dim != a.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    G = f.gram
    n, c = a.dim, a.bracket.entries

    def invariance(i: int, j: int, k: int) -> Fraction:
        lhs = sum((c[i][j][l] * G.entries[l][k] for l in range(n)), ZERO)
        return lhs - sum((c[j][k][l] * G.entries[i][l] for l in range(n)), ZERO)

    return check_gram(f).merged(Report((
        _matrix_entry("form_invariance", "alpha-selfadjoint", (a.alpha.transpose() @ G).sub(G @ a.alpha)),
        _matrix_entry("form_invariance", "beta-selfadjoint", (a.beta.transpose() @ G).sub(G @ a.beta)),
        entry("form_invariance", "bracket", Residual.tabulate((n, n, n), invariance)),
    )))


# -- differential checkers --------------------------------------------------------------


@declares(diff_leibniz="d([x,y]) = [d(x),y] + [x,d(y)] + w [d(x),d(y)]")
def check_diff_leibniz(a: AlgebraBundle, op: Matrix | None = None, weight: Fraction | None = None) -> Report:
    """Weighted Leibniz rule for the bundle differential (or a candidate map)."""
    if op is None or weight is None:
        diff = a.require_differential()
        op = op if op is not None else diff.matrix
        weight = weight if weight is not None else diff.weight
    n, c = a.dim, a.bracket

    def leibniz(i: int, j: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        rhs = vec_add(apply_bilinear(c, op.column(i), ej), apply_bilinear(c, ei, op.column(j)))
        rhs = vec_add(rhs, tuple(weight * x for x in apply_bilinear(c, op.column(i), op.column(j))))
        return vec_sub(op.apply(apply_bilinear(c, ei, ej)), rhs)

    return Report((entry("diff_leibniz", "", Residual.tabulate((n, n), leibniz)),))


@declares(diff_rep="xi rho(x) = rho(d(x)) + rho(x) xi + w rho(d(x)) xi")
def check_diff_rep(r: RepresentationBundle, weight: Fraction | None = None) -> Report:
    """Module operator compatibility for a differential representation."""
    xi = r.require_xi()
    diff = r.algebra.require_differential()
    w = weight if weight is not None else diff.weight

    def compat(i: int) -> Matrix:
        rdx, rx = lincomb(r.rho, diff.matrix.column(i)), r.rho[i]
        return (xi @ rx).sub(rdx).sub(rx @ xi).sub((rdx @ xi).scale(w))

    return Report((entry("diff_rep", "", Residual.tabulate((r.algebra.dim,), compat)),))


@declares(diff_coalgebra="delta D = (D x id) delta + (id x D) delta + w (D x D) delta")
def check_diff_coalgebra(co: CoalgebraBundle, op: Matrix | None = None, weight: Fraction | None = None) -> Report:
    """Weighted co-Leibniz rule for the codifferential."""
    if op is None or weight is None:
        codiff = co.require_codiff()
        op = op if op is not None else codiff.matrix
        weight = weight if weight is not None else codiff.weight
    t = co.comul

    def leibniz(k: int) -> Matrix:
        plane = Matrix.from_rows(t.entries[k])
        rhs = (op @ plane).add(plane @ op.transpose()).add((op @ plane @ op.transpose()).scale(weight))
        return apply_comul(t, op.column(k)).sub(rhs)

    return Report((entry("diff_coalgebra", "", Residual.tabulate((co.dim,), leibniz)),))


@declares(diff_admissible_zeta="rho(x) zeta = rho(d(x)) + zeta rho(x) + w zeta rho(d(x))")
def check_diff_zeta(r: RepresentationBundle, zeta: Matrix, weight: Fraction | None = None) -> Report:
    """Dual-module admissibility of a candidate zeta."""
    diff = r.algebra.require_differential()
    w = weight if weight is not None else diff.weight

    def admissible(i: int) -> Matrix:
        rdx, rx = lincomb(r.rho, diff.matrix.column(i)), r.rho[i]
        return (rx @ zeta).sub(rdx).sub(zeta @ rx).sub((zeta @ rdx).scale(w))

    return Report((entry("diff_admissible_zeta", "", Residual.tabulate((r.algebra.dim,), admissible)),))


@declares(diff_admissible_pi="[x,pi(y)] = [d(x),y] + pi([x,y]) + w pi([d(x),y])")
def check_diff_pi(a: AlgebraBundle, pi: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of a candidate pi against the bundle differential."""
    diff = a.require_differential()
    w = weight if weight is not None else diff.weight
    d = diff.matrix
    n, c = a.dim, a.bracket

    def admissible(i: int, j: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        dxy = apply_bilinear(c, d.column(i), ej)
        rhs = vec_add(dxy, pi.apply(apply_bilinear(c, ei, ej)))
        rhs = vec_add(rhs, tuple(w * x for x in pi.apply(dxy)))
        return vec_sub(apply_bilinear(c, ei, pi.column(j)), rhs)

    return Report((entry("diff_admissible_pi", "", Residual.tabulate((n, n), admissible)),))


@declares(diff_dual_admissible="delta d + (D x id - id x d) delta + w (D x id) delta d = 0")
def check_diff_dual_admissible(co: CoalgebraBundle, d: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of the dual of d against the codifferential side."""
    codiff = co.require_codiff()
    w = weight if weight is not None else codiff.weight
    D = codiff.matrix
    t = co.comul

    def admissible(k: int) -> Matrix:
        plane = Matrix.from_rows(t.entries[k])
        d_dk = apply_comul(t, d.column(k))
        return d_dk.add(D @ plane).sub(plane @ d.transpose()).add((D @ d_dk).scale(w))

    return Report((entry("diff_dual_admissible", "", Residual.tabulate((co.dim,), admissible)),))


# -- matched pairs ----------------------------------------------------------------------


@declares(
    mp_left="[y,h(q(c))alpha(x)] - [x,h(q(c))alpha(y)] - h(rho(alpha(y))q(c)) alpha beta(x) + h(rho(alpha(x))q(c)) alpha beta(y) + h(c)([beta(x),alpha(y)]) = 0",
    mp_right="[b,rho(beta(z))p(a)]_V - [a,rho(beta(z))p(b)]_V - rho(h(p(b))beta(z)) pq(a) + rho(h(p(a))beta(z)) pq(b) + rho(z)([q(a),p(b)]_V) = 0",
)
def _mp_mixed_bihom(mp: MatchedPairBundle) -> tuple[CheckEntry, CheckEntry]:
    L, V = mp.left, mp.right
    n, m = L.dim, V.dim
    A, B = L.alpha, L.beta
    P, Q = V.alpha, V.beta
    AB = A @ B
    PQ = P @ Q

    def rho(x: Vector) -> Matrix:
        return lincomb(mp.rho, x)

    def h(a: Vector) -> Matrix:
        return lincomb(mp.h, a)

    def left(i: int, j: int, cdx: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        qc = Q.column(cdx)
        hqc = h(qc)
        t1 = apply_bilinear(L.bracket, ej, hqc.apply(A.column(i)))
        t2 = apply_bilinear(L.bracket, ei, hqc.apply(A.column(j)))
        t3 = h(rho(A.column(j)).apply(qc)).apply(AB.column(i))
        t4 = h(rho(A.column(i)).apply(qc)).apply(AB.column(j))
        t5 = mp.h[cdx].apply(apply_bilinear(L.bracket, B.column(i), A.column(j)))
        return vec_add(vec_sub(vec_sub(t1, t2), t3), vec_add(t4, t5))

    def right(adx: int, bdx: int, k: int) -> Vector:
        fa, fb = basis_vector(m, adx), basis_vector(m, bdx)
        rbz = rho(B.column(k))
        u1 = apply_bilinear(V.bracket, fb, rbz.apply(P.column(adx)))
        u2 = apply_bilinear(V.bracket, fa, rbz.apply(P.column(bdx)))
        u3 = rho(h(P.column(bdx)).apply(B.column(k))).apply(PQ.column(adx))
        u4 = rho(h(P.column(adx)).apply(B.column(k))).apply(PQ.column(bdx))
        u5 = mp.rho[k].apply(apply_bilinear(V.bracket, Q.column(adx), P.column(bdx)))
        return vec_add(vec_sub(vec_sub(u1, u2), u3), vec_add(u4, u5))

    return (entry("mp_left", "", Residual.tabulate((n, n, m), left)),
            entry("mp_right", "", Residual.tabulate((m, m, n), right)))


@declares(
    diff_mp_left="[y,h(c)x] - [x,h(c)y] - h(rho(y)c)(x) + h(rho(x)c)(y) + h(c)([x,y]) = 0",
    diff_mp_right="[b,rho(z)a]_V - [a,rho(z)b]_V - rho(h(b)z)(a) + rho(h(a)z)(b) + rho(z)([a,b]_V) = 0 (symmetrized); the as-printed variant replaces -rho(h(b)z)(a) + rho(h(a)z)(b) by -rho(h(b)z)(b)",
)
def _mp_mixed_differential(mp: MatchedPairBundle, symmetrized: bool) -> tuple[CheckEntry, CheckEntry, CheckEntry]:
    L, V = mp.left, mp.right
    n, m = L.dim, V.dim

    def left(i: int, j: int, cdx: int) -> Vector:
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        fc = basis_vector(m, cdx)
        hc = mp.h[cdx]
        t1 = apply_bilinear(L.bracket, ej, hc.column(i))
        t2 = apply_bilinear(L.bracket, ei, hc.column(j))
        t3 = lincomb(mp.h, mp.rho[j].apply(fc)).apply(ei)
        t4 = lincomb(mp.h, mp.rho[i].apply(fc)).apply(ej)
        t5 = hc.apply(apply_bilinear(L.bracket, ei, ej))
        return vec_add(vec_sub(vec_sub(t1, t2), t3), vec_add(t4, t5))

    def right(adx: int, bdx: int, k: int) -> tuple[Vector, Vector]:
        """(symmetrized, as-printed) residual vectors."""
        fa, fb = basis_vector(m, adx), basis_vector(m, bdx)
        rz = mp.rho[k]
        u1 = apply_bilinear(V.bracket, fb, rz.apply(fa))
        u2 = apply_bilinear(V.bracket, fa, rz.apply(fb))
        u5 = rz.apply(apply_bilinear(V.bracket, fa, fb))
        h_rb = lincomb(mp.rho, mp.h[bdx].column(k))
        h_ra = lincomb(mp.rho, mp.h[adx].column(k))
        sym = vec_add(vec_sub(vec_sub(u1, u2), h_rb.apply(fa)), vec_add(h_ra.apply(fb), u5))
        verb = vec_add(vec_sub(vec_sub(u1, u2), h_rb.apply(fb)), u5)
        return sym, verb

    shape = (m, m, n)
    pairs = {idx: right(*idx) for idx in itertools.product(*map(range, shape))}
    sym_res = Residual.tabulate(shape, lambda *idx: pairs[idx][0])
    verb_res = Residual.tabulate(shape, lambda *idx: pairs[idx][1])
    if symmetrized:
        verdict = entry("diff_mp_right", "symmetrized", sym_res)
        advisory = CheckEntry("diff_mp_right", "as-printed", verb_res, verb_res.is_zero, advisory=True)
    else:
        verdict = entry("diff_mp_right", "as-printed", verb_res)
        advisory = CheckEntry("diff_mp_right", "symmetrized", sym_res, sym_res.is_zero, advisory=True)
    return entry("diff_mp_left", "", Residual.tabulate((n, n, m), left)), verdict, advisory


def check_matched_pair(mp: MatchedPairBundle, flavor: str, symmetrized: bool = True) -> Report:
    """Constituent axioms, cross representations, and the two mixed identities.

    flavor in {"bihom", "nijenhuis", "differential"}.  For the differential
    flavor the report carries both readings of the second mixed identity; only
    the selected one (symmetrized by default) contributes to the verdict, the
    other is advisory.
    """
    if flavor not in ("bihom", "nijenhuis", "differential"):
        raise ValueError(f"unknown matched pair flavor {flavor!r}")
    L, V = mp.left, mp.right
    reports = [
        check_bihom_lie(L).prefixed("left"),
        check_bihom_lie(V).prefixed("right"),
    ]
    rep_on_right = RepresentationBundle(L, V.dim, mp.rho, V.alpha, V.beta,
                                        eta=V.nijenhuis, xi=V.differential.matrix if V.differential else None)
    rep_on_left = RepresentationBundle(V, L.dim, mp.h, L.alpha, L.beta,
                                       eta=L.nijenhuis, xi=L.differential.matrix if L.differential else None)
    reports.append(check_representation(rep_on_right).prefixed("rho"))
    reports.append(check_representation(rep_on_left).prefixed("h"))

    if flavor == "nijenhuis":
        reports.append(check_nijenhuis_operator(L).prefixed("left"))
        reports.append(check_nijenhuis_operator(V).prefixed("right"))
        reports.append(check_nijenhuis_representation(rep_on_right).prefixed("rho"))
        reports.append(check_nijenhuis_representation(rep_on_left).prefixed("h"))
    if flavor == "differential":
        dl = L.require_differential()
        dv = V.require_differential()
        if dl.weight != dv.weight:
            raise WeightMismatch(f"weights differ: {dl.weight} vs {dv.weight}")
        reports.append(check_diff_leibniz(L).prefixed("left"))
        reports.append(check_diff_leibniz(V).prefixed("right"))
        reports.append(check_diff_rep(rep_on_right).prefixed("rho"))
        reports.append(check_diff_rep(rep_on_left).prefixed("h"))
        mixed = _mp_mixed_differential(mp, symmetrized)
    else:
        mixed = _mp_mixed_bihom(mp)
    return Report(mixed).merged(*reports)


# -- suites ---------------------------------------------------------------------------------


class Step(NamedTuple):
    """One checker call of a suite.

    ``check`` names a checker of this module; it is looked up when the suite
    runs, so wrappers installed on the module apply.  ``args`` are the bundle
    fields it is called with ("" is the bundle itself, dots reach into
    sub-bundles).  The step is skipped when a field in ``needs`` is unset, and
    a ``weighted`` step receives the caller's weight override.
    """

    check: str
    args: tuple[str, ...] = ("",)
    needs: tuple[str, ...] = ()
    weighted: bool = False


def _field(bundle: Any, path: str) -> Any:
    for name in path.split(".") if path else ():
        bundle = getattr(bundle, name)
    return bundle


@dataclass(frozen=True)
class Suite:
    """An ordered list of checker steps, run on one bundle into one Report."""

    steps: tuple[Step, ...]

    def run(self, bundle: Any, weight: Fraction | None = None) -> Report:
        reports = []
        for step in self.steps:
            if all(_field(bundle, f) is not None for f in step.needs):
                kwargs = {"weight": weight} if step.weighted else {}
                reports.append(globals()[step.check](*(_field(bundle, f) for f in step.args), **kwargs))
        return Report(()).merged(*reports)


def _on(field: str, steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The steps of a sub-bundle's suite, run from the enclosing bundle."""
    def at(path: str) -> str:
        return f"{field}.{path}" if path else field
    return tuple(s._replace(args=tuple(map(at, s.args)), needs=tuple(map(at, s.needs))) for s in steps)


_LIE, _COALG = Step("check_bihom_lie"), Step("check_bihom_coalgebra")
_ALGEBRA_AUTO = (_LIE, Step("check_nijenhuis_operator", needs=("nijenhuis",)),
                 Step("check_diff_leibniz", needs=("differential",)))
_COALGEBRA_AUTO = (_COALG, Step("check_nijenhuis_coalgebra", needs=("conijenhuis",)),
                   Step("check_diff_coalgebra", needs=("codiff",)))
_OPERATOR_PAIR = ("algebra.nijenhuis", "coalgebra.conijenhuis")
_DIFFERENTIAL_PAIR = ("algebra.differential", "coalgebra.codiff")
_ADJOINT = Step("check_adjoint_admissible", ("algebra", "coalgebra.conijenhuis"), _OPERATOR_PAIR)
_DUAL = Step("check_dual_admissible", ("coalgebra.comul", "algebra.nijenhuis", "coalgebra.conijenhuis"), _OPERATOR_PAIR)
_PI = Step("check_diff_pi", ("algebra", "coalgebra.codiff.matrix"), _DIFFERENTIAL_PAIR)
_DIFF_DUAL = Step("check_diff_dual_admissible", ("coalgebra", "algebra.differential.matrix"), _DIFFERENTIAL_PAIR)
_COCYCLE = Step("check_bialgebra_cocycle")
_REP_NIJENHUIS = Step("check_nijenhuis_representation", needs=("eta", "algebra.nijenhuis"))
_REP_DIFFERENTIAL = Step("check_diff_rep", needs=("xi", "algebra.differential"), weighted=True)
_BIALGEBRA_SIDE = (Step("check_bihom_lie", ("algebra",)), Step("check_bihom_coalgebra", ("coalgebra",)), _COCYCLE)

#: (bundle kind, suite name) -> the checkers that suite runs, in report order.
#: "auto" runs every checker whose operators the bundle carries; the
#: "bialgebra" nijenhuis/differential suites are the bialgebra side of the
#: triads, "double" suites run on a DoubleBundle.
SUITES: dict[tuple[str, str], Suite] = {key: Suite(steps) for key, steps in {
    ("algebra", "auto"): _ALGEBRA_AUTO,
    ("algebra", "bihom"): (_LIE,),
    ("algebra", "nijenhuis"): (_LIE, Step("check_nijenhuis_operator")),
    ("algebra", "differential"): (_LIE, Step("check_diff_leibniz", weighted=True)),
    ("algebra", "involution"): (Step("check_involution"),),
    ("coalgebra", "auto"): _COALGEBRA_AUTO,
    ("coalgebra", "bihom"): (_COALG,),
    ("coalgebra", "nijenhuis"): (_COALG, Step("check_nijenhuis_coalgebra")),
    ("coalgebra", "differential"): (_COALG, Step("check_diff_coalgebra", weighted=True)),
    ("representation", "auto"): (Step("check_representation"), _REP_NIJENHUIS, _REP_DIFFERENTIAL),
    ("representation", "bihom"): (Step("check_representation"),),
    ("representation", "nijenhuis"): (Step("check_representation"), _REP_NIJENHUIS),
    ("representation", "differential"): (Step("check_representation"), _REP_DIFFERENTIAL),
    ("bialgebra", "auto"): (_on("algebra", _ALGEBRA_AUTO) + _on("coalgebra", _COALGEBRA_AUTO)
                            + (_COCYCLE, _ADJOINT, _DUAL, _PI, _DIFF_DUAL)),
    ("bialgebra", "nijenhuis"): _BIALGEBRA_SIDE + (
        Step("check_nijenhuis_operator", ("algebra",)), Step("check_nijenhuis_coalgebra", ("coalgebra",)),
        _ADJOINT, _DUAL),
    ("bialgebra", "differential"): _BIALGEBRA_SIDE + (
        Step("check_diff_leibniz", ("algebra",)), Step("check_diff_coalgebra", ("coalgebra",)),
        _PI, _DIFF_DUAL),
    ("double", "nijenhuis"): (Step("check_bihom_lie", ("total",)), Step("check_nijenhuis_operator", ("total",)),
                              Step("check_form", ("total", "form"))),
    ("double", "differential"): (Step("check_bihom_lie", ("total",)), Step("check_diff_leibniz", ("total",)),
                                 Step("check_form", ("total", "form"))),
}.items()}


def full_algebra_suite(a: AlgebraBundle) -> Report:
    """Everything claimable from the fields an algebra bundle carries."""
    return SUITES["algebra", "auto"].run(a)


def full_coalgebra_suite(co: CoalgebraBundle) -> Report:
    return SUITES["coalgebra", "auto"].run(co)
