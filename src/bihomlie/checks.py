"""Identity checkers.

Every checker evaluates its identities on all basis tuples (multilinearity
makes that exhaustive) and returns a Report of exact residuals; pass iff the
residual is identically zero.  Each twisted bracket, comultiplication or
action an identity reads is built once, as a whole tensor, by ``contract``;
three-index identities are differences of such tensors, four-index ones are
tabulated per basis tuple over their rows, so no n^4 array is ever built.
Hypotheses a result states without the checker being able to gate on
usefully (involutivity, invertibility) are reported as notes while the
identity is still evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

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
    EMPTY,
    DimensionMismatch,
    Matrix,
    Tensor3,
    Row,
    _combination,
    contract,
    invert,
    nullspace,
    row_values,
)


class WeightMismatch(DimensionMismatch):
    """Differential structures combined with different weights."""


class PreconditionFailed(ValueError):
    """A construction's stated hypothesis fails; carries the failing report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


def _require_identity_maps(message: str, *maps: Matrix) -> None:
    if not all(m.is_identity() for m in maps):
        raise PreconditionFailed(message)


#: flavour -> the operator field it reads on an algebra, in the order ``check``
#: tries them on a matched pair that names none
FLAVORS: dict[str, str | None] = {"nijenhuis": "nijenhuis", "differential": "differential", "bihom": None}


def flavor_operators(flavor: str, what: str, *algebras: AlgebraBundle) -> tuple[tuple[Matrix, ...], Fraction | None]:
    """The operator matrices a flavour reads on the algebras it combines into
    ``what``, and their common weight (None unless differential).

    Raises ValueError for an unknown flavour, MissingField for an absent
    operator, WeightMismatch for unequal weights and PreconditionFailed for a
    differential algebra whose structure maps are not identities.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r} for {what}")
    field = FLAVORS[flavor]
    ops = tuple(getattr(a, f"require_{field}")() for a in algebras) if field else ()
    if field != "differential":
        return ops, None
    if len({d.weight for d in ops}) > 1:
        raise WeightMismatch("weights differ: " + " vs ".join(str(d.weight) for d in ops))
    _require_identity_maps(f"differential {what} need identity structure maps",
                           *(m for a in algebras for m in (a.alpha, a.beta)))
    return tuple(d.matrix for d in ops), ops[0].weight


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


# -- whole tensors -----------------------------------------------------------------


def _contracted(t: Tensor3, *maps: Matrix | None) -> Tensor3:
    """t with axis i transformed by maps[i]; None leaves the axis as it is."""
    for axis, m in enumerate(maps):
        if m is not None:
            t = contract(t, axis, m)
    return t


def _tr(m: Matrix | None) -> Matrix | None:
    return None if m is None else m.transpose()


def _bracket(c: Tensor3, x: Matrix | None = None, y: Matrix | None = None, out: Matrix | None = None) -> Tensor3:
    """The bracket tensor of (u, v) -> out([x(u), y(v)]); an omitted map is the identity."""
    return _contracted(c, _tr(x), _tr(y), out)


def _comul(t: Tensor3, x: Matrix | None = None, left: Matrix | None = None, right: Matrix | None = None) -> Tensor3:
    """The comultiplication tensor of u -> (left (x) right) Delta(x(u))."""
    return _contracted(t, _tr(x), left, right)


def _action(r: Tensor3, x: Matrix | None = None, left: Matrix | None = None, right: Matrix | None = None) -> Tensor3:
    """The action matrices u -> left rho(x(u)) right of a stacked action r."""
    return _contracted(r, _tr(x), left, _tr(right))


def _stack(mats: Sequence[Matrix]) -> Tensor3:
    """Action matrices rho(e_i) as one tensor, plane i holding rho(e_i)."""
    return Tensor3((len(mats), mats[0].rows, mats[0].cols), tuple(m.nz for m in mats))


def _planes(t: Tensor3) -> list[Matrix]:
    return [Matrix(t.shape[1], t.shape[2], plane) for plane in t.nz]


def _minus_weighted(t: Tensor3, w: Fraction, term) -> Tensor3:
    """t - w * term(); the term is not built at weight zero."""
    return t.sub(term().scale(w)) if w else t


def _array_entry(identity: str, case: str, m: Matrix | Tensor3) -> CheckEntry:
    return entry(identity, case, Residual.from_matrix(m))


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    return (a @ b).sub(b @ a)


def _kernel_residual(m: Matrix) -> Residual:
    """A kernel basis of m, one column per basis vector: zero iff m is injective."""
    kernel = nullspace(m)
    return Residual.collect((m.cols, len(kernel)), (((i, j), x) for j, v in enumerate(kernel) for i, x in enumerate(v)))


_SQUARES = " (alpha^2 or beta^2 differs from id)"


def _involution_note(a: AlgebraBundle, subject: str = "algebra", detail: str = "") -> tuple[str, ...]:
    """The note a result stated for involutive algebras carries when a is not."""
    return () if is_involutive(a) else (f"hypothesis not met: {subject} is not involutive{detail}",)


def _multiplicativity(c: Tensor3, m: Matrix) -> Residual:
    """phi([x,y]) - [phi(x),phi(y)] on basis pairs."""
    return Residual.from_matrix(_bracket(c, out=m).sub(_bracket(c, m, m)))


def _comultiplicativity(t: Tensor3, m: Matrix) -> Residual:
    """Delta phi - (phi x phi) Delta on basis vectors."""
    return Residual.from_matrix(_comul(t, m).sub(_comul(t, None, m, m)))


# -- algebra-side checkers -------------------------------------------------------


@declares(
    bihom_multiplicativity="phi([x,y]) = [phi(x),phi(y)] for phi in {alpha,beta}; alpha beta = beta alpha",
    bihom_antisymmetry="[beta(x),alpha(y)] + [beta(y),alpha(x)] = 0",
    bihom_jacobi="[beta^2(x),[beta(y),alpha(z)]] + [beta^2(y),[beta(z),alpha(x)]] + [beta^2(z),[beta(x),alpha(y)]] = 0",
)
def check_bihom_lie(a: AlgebraBundle) -> Report:
    """Multiplicativity of alpha and beta, twisted antisymmetry, twisted Jacobi."""
    n, c, A, B = a.dim, a.bracket, a.alpha, a.beta
    twisted = _bracket(c, B, A)
    p, q = twisted.nz, _bracket(c, B @ B).nz  # [beta(x), alpha(y)] and [beta^2(x), y]

    def jacobi(i: int, j: int, k: int) -> Row:
        jk, ki, ij = p[j][k], p[k][i], p[i][j]
        if not (jk[1] or ki[1] or ij[1]):
            return EMPTY
        return _combination(((1, q[i], jk), (1, q[j], ki), (1, q[k], ij)))

    return Report((
        entry("bihom_multiplicativity", "alpha", _multiplicativity(c, A)),
        entry("bihom_multiplicativity", "beta", _multiplicativity(c, B)),
        _array_entry("bihom_multiplicativity", "alpha-beta-commute", _commutator(A, B)),
        _array_entry("bihom_antisymmetry", "", twisted.add(twisted.transpose((1, 0, 2)))),
        entry("bihom_jacobi", "", Residual.tabulate((n, n, n), n, jacobi)),
    ))


@declares(involution="alpha^2 = id and beta^2 = id")
def check_involution(a: AlgebraBundle) -> Report:
    """alpha^2 = beta^2 = id; gates several duality hypotheses."""
    ident = Matrix.identity(a.dim)
    return Report((
        _array_entry("involution", "alpha", (a.alpha @ a.alpha).sub(ident)),
        _array_entry("involution", "beta", (a.beta @ a.beta).sub(ident)),
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
    c = a.bracket
    deformation = (_bracket(c, N, N).sub(_bracket(c, N, None, N)).sub(_bracket(c, None, N, N))
                   .add(_bracket(c, out=N @ N)))
    return Report((
        _array_entry("nijenhuis_commute", "alpha", _commutator(a.alpha, N)),
        _array_entry("nijenhuis_commute", "beta", _commutator(a.beta, N)),
        _array_entry("nijenhuis_identity", "", deformation),
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
    twisted = _comul(t, None, B, A)
    outer = _planes(_comul(t, None, B @ B))  # (beta^2 x id) Delta

    def jacobi(k: int) -> Tensor3:
        # (id x beta x alpha)(beta^2 x Delta) Delta(e_k), then the cyclic sum
        w = contract(twisted, 0, outer[k])
        return w.add(w.transpose((2, 0, 1))).add(w.transpose((1, 2, 0)))

    cells = (((k, i, j, l), x) for k in range(n) for i, plane in enumerate(jacobi(k).nz)
             for j, row in enumerate(plane) for l, x in row_values(row))
    return Report((
        entry("co_comultiplicativity", "alpha", _comultiplicativity(t, A)),
        entry("co_comultiplicativity", "beta", _comultiplicativity(t, B)),
        _array_entry("co_comultiplicativity", "alpha-beta-commute", _commutator(A, B)),
        _array_entry("co_antisymmetry", "", twisted.add(twisted.transpose((0, 2, 1)))),
        entry("co_jacobi", "", Residual.collect((n,) * 4, cells)),
    ))


@declares(co_nijenhuis="(S x S) Delta + Delta S^2 = (S x id) Delta S + (id x S) Delta S; S commutes with alpha, beta")
def check_nijenhuis_coalgebra(co: CoalgebraBundle) -> Report:
    """Comultiplication-side deformation identity for the operator S.

    Commutation of S with alpha and beta is included so that the verdict
    matches the dual algebra-side check exactly.
    """
    S = co.require_conijenhuis()
    t = co.comul
    deformation = _comul(t, None, S, S).add(_comul(t, S @ S)).sub(_comul(t, S, S)).sub(_comul(t, S, None, S))
    return Report((
        _array_entry("co_nijenhuis", "commute-alpha", _commutator(co.alpha, S)),
        _array_entry("co_nijenhuis", "commute-beta", _commutator(co.beta, S)),
        _array_entry("co_nijenhuis", "", deformation),
    ))


# -- bialgebra cocycle ------------------------------------------------------------


@declares(bialgebra_cocycle="Delta([alpha^-1 beta(x), y]) = (ad_beta(x) x beta + beta x ad_{alpha^-1 beta^2(x)}) Delta(y) - (x <-> y)")
def check_bialgebra_cocycle(b: BialgebraBundle) -> Report:
    """Compatibility of bracket and comultiplication.

    Two stated expansions of the twisted adjoint double action exist; both are
    evaluated (they coincide whenever alpha is invertible and the maps
    commute) and both residuals are reported.
    """
    alg, t = b.algebra, b.coalgebra.comul
    n, c = alg.dim, alg.bracket
    A, B = alg.alpha, alg.beta
    Ainv = invert(A)  # SingularMatrix signals the violated hypothesis
    AinvB = Ainv @ B
    B2 = B @ B
    inner = _bracket(c, AinvB).nz           # [i][j]: [alpha^-1 beta(e_i), e_j]
    delta_rows = t.transpose((1, 0, 2)).nz  # [a][l]: row a of Delta(e_l)
    delta_b = _comul(t, None, None, B).nz   # [j][r]: row r of (id x beta) Delta(e_j)
    b_delta = _comul(t, None, B).nz         # [j][a]: row a of (beta x id) Delta(e_j)

    cases = []
    # (ad_{x1(e_i)} (x) beta + beta (x) ad_{x2(e_i)}) Delta(e_j), with x = e_i or, in
    # the twisted-argument form, x = alpha(e_i), read row a at a time
    for label, x1, x2 in (("", B, Ainv @ B2), ("twisted-argument-form", AinvB @ A, Ainv @ Ainv @ B2 @ A)):
        ad1 = _bracket(c, x1).transpose((0, 2, 1)).nz  # [i][a]: row a of ad_{x1(e_i)}
        ad2t = _bracket(c, x2).nz                       # [i][r]: row r of ad_{x2(e_i)}^T

        def cocycle(i: int, j: int, a: int) -> Row:
            return _combination(((1, delta_rows[a], inner[i][j]),
                                 (-1, delta_b[j], ad1[i][a]), (-1, ad2t[i], b_delta[j][a]),
                                 (1, delta_b[i], ad1[j][a]), (1, ad2t[j], b_delta[i][a])))

        res = Residual.tabulate((n, n, n), n, cocycle)
        # the second expansion is reported for comparison, never resolved into
        # the verdict; the two coincide whenever the maps commute
        cases.append(CheckEntry("bialgebra_cocycle", label, res, advisory=bool(label)))
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
    rho = _stack(r.rho)
    inner = _bracket(alg.bracket, B).nz                      # [i][j]: [beta(e_i), e_j]
    rho_q = _action(rho, right=r.q).transpose((1, 0, 2)).nz  # [a][l]: row a of rho(e_l) q
    r_a, r_b, r_ab = (_action(rho, x).nz for x in (A, B, A @ B))  # [i][a]: row a of rho(x(e_i))
    rho_rows = rho.nz

    def bracket(i: int, j: int, a: int) -> Row:
        return _combination(((1, rho_q[a], inner[i][j]), (-1, rho_rows[j], r_ab[i][a]),
                             (1, r_a[i], r_b[j][a])))

    return Report((
        _array_entry("rep_p_compat", "", _action(rho, left=r.p).sub(_action(rho, A, right=r.p))),
        _array_entry("rep_p_compat", "p-q-commute", _commutator(r.p, r.q)),
        _array_entry("rep_q_compat", "", _action(rho, left=r.q).sub(_action(rho, B, right=r.q))),
        entry("rep_bracket", "", Residual.tabulate((n, n, r.vdim), r.vdim, bracket)),
    ))


@declares(rep_nijenhuis="rho(N(x)) eta = eta rho(N(x)) + eta rho(x) eta - eta^2 rho(x); eta commutes with p, q")
def check_nijenhuis_representation(r: RepresentationBundle) -> Report:
    """Operator compatibility of eta with the module and the algebra operator."""
    eta = r.require_eta()
    N = r.algebra.require_nijenhuis()
    rho = _stack(r.rho)
    deformation = (_action(rho, N, right=eta).sub(_action(rho, N, left=eta))
                   .sub(_action(rho, None, eta, eta)).add(_action(rho, left=eta @ eta)))
    return Report((
        _array_entry("rep_nijenhuis", "eta-p-commute", _commutator(eta, r.p)),
        _array_entry("rep_nijenhuis", "eta-q-commute", _commutator(eta, r.q)),
        _array_entry("rep_nijenhuis", "", deformation),
    ))


# -- admissibility checkers ---------------------------------------------------------


@declares(admissible_adjoint="S([N(x),y]) + [x,S^2(y)] = [N(x),S(y)] + S([x,S(y)])")
def check_adjoint_admissible(a: AlgebraBundle, smap: Matrix) -> Report:
    """Adjoint admissibility of a candidate map S against the bundle operator N."""
    N = a.require_nijenhuis()
    if (smap.rows, smap.cols) != (a.dim, a.dim):
        raise DimensionMismatch("candidate map size does not match the algebra")
    notes = _involution_note(a, detail=_SQUARES)
    c, S = a.bracket, smap
    admissible = (_bracket(c, N, None, S).add(_bracket(c, None, S @ S))
                  .sub(_bracket(c, N, S)).sub(_bracket(c, None, S, S)))
    return Report((_array_entry("admissible_adjoint", "", admissible),), notes)


@declares(admissible_dual="(S x id) Delta N + (id x N^2) Delta = (S x N) Delta + (id x N) Delta N")
def check_dual_admissible(comul: Tensor3, nmap: Matrix, smap: Matrix) -> Report:
    """Comultiplication-side admissibility tying S, N and Delta together."""
    n = comul.shape[0]
    for m in (nmap, smap):
        if (m.rows, m.cols) != (n, n):
            raise DimensionMismatch("operator size does not match the comultiplication")
    t, N, S = comul, nmap, smap
    admissible = _comul(t, N, S).add(_comul(t, None, None, N @ N)).sub(_comul(t, None, S, N)).sub(_comul(t, N, None, N))
    return Report((_array_entry("admissible_dual", "", admissible),))


# -- bilinear forms -------------------------------------------------------------------


@declares(
    form_symmetric="B(x,y) = B(y,x)",
    form_nondegenerate="gram matrix is invertible (residual lists a kernel basis)",
)
def check_gram(f: FormBundle) -> Report:
    """Symmetry and nondegeneracy of a form on its own."""
    G = f.gram
    return Report((
        _array_entry("form_symmetric", "", G.sub(G.transpose())),
        entry("form_nondegenerate", "", _kernel_residual(G)),
    ))


@declares(form_invariance="B([x,y],z) = B(x,[y,z]); B(phi(x),y) = B(x,phi(y)) for phi in {alpha,beta}")
def check_form(a: AlgebraBundle, f: FormBundle) -> Report:
    """Symmetry, nondegeneracy, self-adjointness of the maps, invariance."""
    if f.dim != a.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    G = f.gram
    # B([e_i,e_j],e_k) minus B(e_i,[e_j,e_k]), the latter read off (j, k, i)
    invariance = _bracket(a.bracket, out=G.transpose()).sub(_bracket(a.bracket, out=G).transpose((2, 0, 1)))
    return check_gram(f).merged(Report((
        _array_entry("form_invariance", "alpha-selfadjoint", (a.alpha.transpose() @ G).sub(G @ a.alpha)),
        _array_entry("form_invariance", "beta-selfadjoint", (a.beta.transpose() @ G).sub(G @ a.beta)),
        _array_entry("form_invariance", "bracket", invariance),
    )))


# -- differential checkers --------------------------------------------------------------


@declares(diff_leibniz="d([x,y]) = [d(x),y] + [x,d(y)] + w [d(x),d(y)]")
def check_diff_leibniz(a: AlgebraBundle, op: Matrix | None = None, weight: Fraction | None = None) -> Report:
    """Weighted Leibniz rule for the bundle differential (or a candidate map)."""
    if op is None or weight is None:
        diff = a.require_differential()
        op = op if op is not None else diff.matrix
        weight = weight if weight is not None else diff.weight
    c = a.bracket
    leibniz = _minus_weighted(_bracket(c, out=op).sub(_bracket(c, op)).sub(_bracket(c, None, op)),
                              weight, lambda: _bracket(c, op, op))
    return Report((_array_entry("diff_leibniz", "", leibniz),))


@declares(diff_rep="xi rho(x) = rho(d(x)) + rho(x) xi + w rho(d(x)) xi")
def check_diff_rep(r: RepresentationBundle, weight: Fraction | None = None) -> Report:
    """Module operator compatibility for a differential representation."""
    xi = r.require_xi()
    diff = r.algebra.require_differential()
    w = weight if weight is not None else diff.weight
    rho, d = _stack(r.rho), diff.matrix
    compat = _minus_weighted(_action(rho, left=xi).sub(_action(rho, d)).sub(_action(rho, right=xi)),
                             w, lambda: _action(rho, d, right=xi))
    return Report((_array_entry("diff_rep", "", compat),))


@declares(diff_coalgebra="delta D = (D x id) delta + (id x D) delta + w (D x D) delta")
def check_diff_coalgebra(co: CoalgebraBundle, weight: Fraction | None = None) -> Report:
    """Weighted co-Leibniz rule for the codifferential."""
    codiff = co.require_codiff()
    op, weight = codiff.matrix, codiff.weight if weight is None else weight
    t = co.comul
    leibniz = _minus_weighted(_comul(t, op).sub(_comul(t, None, op)).sub(_comul(t, None, None, op)),
                              weight, lambda: _comul(t, None, op, op))
    return Report((_array_entry("diff_coalgebra", "", leibniz),))


@declares(diff_admissible_zeta="rho(x) zeta = rho(d(x)) + zeta rho(x) + w zeta rho(d(x))")
def check_diff_zeta(r: RepresentationBundle, zeta: Matrix, weight: Fraction | None = None) -> Report:
    """Dual-module admissibility of a candidate zeta."""
    diff = r.algebra.require_differential()
    w = weight if weight is not None else diff.weight
    rho, d = _stack(r.rho), diff.matrix
    admissible = _minus_weighted(_action(rho, right=zeta).sub(_action(rho, d)).sub(_action(rho, left=zeta)),
                                 w, lambda: _action(rho, d, left=zeta))
    return Report((_array_entry("diff_admissible_zeta", "", admissible),))


@declares(diff_admissible_pi="[x,pi(y)] = [d(x),y] + pi([x,y]) + w pi([d(x),y])")
def check_diff_pi(a: AlgebraBundle, pi: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of a candidate pi against the bundle differential."""
    diff = a.require_differential()
    w = weight if weight is not None else diff.weight
    c, d = a.bracket, diff.matrix
    admissible = _minus_weighted(_bracket(c, None, pi).sub(_bracket(c, d)).sub(_bracket(c, out=pi)),
                                 w, lambda: _bracket(c, d, None, pi))
    return Report((_array_entry("diff_admissible_pi", "", admissible),))


@declares(diff_dual_admissible="delta d + (D x id - id x d) delta + w (D x id) delta d = 0")
def check_diff_dual_admissible(co: CoalgebraBundle, d: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of the dual of d against the codifferential side."""
    codiff = co.require_codiff()
    w = weight if weight is not None else codiff.weight
    D, t = codiff.matrix, co.comul
    admissible = _minus_weighted(_comul(t, d).add(_comul(t, None, D)).sub(_comul(t, None, None, d)),
                                 -w, lambda: _comul(t, d, D))
    return Report((_array_entry("diff_dual_admissible", "", admissible),))


# -- matched pairs ----------------------------------------------------------------------


@declares(
    mp_left="[y,h(q(c))alpha(x)] - [x,h(q(c))alpha(y)] - h(rho(alpha(y))q(c)) alpha beta(x) + h(rho(alpha(x))q(c)) alpha beta(y) + h(c)([beta(x),alpha(y)]) = 0",
    mp_right="[b,rho(beta(z))p(a)]_V - [a,rho(beta(z))p(b)]_V - rho(h(p(b))beta(z)) pq(a) + rho(h(p(a))beta(z)) pq(b) + rho(z)([q(a),p(b)]_V) = 0",
    diff_mp_left="[y,h(c)x] - [x,h(c)y] - h(rho(y)c)(x) + h(rho(x)c)(y) + h(c)([x,y]) = 0",
    diff_mp_right="[b,rho(z)a]_V - [a,rho(z)b]_V - rho(h(b)z)(a) + rho(h(a)z)(b) + rho(z)([a,b]_V) = 0 (symmetrized); the as-printed variant replaces -rho(h(b)z)(a) + rho(h(a)z)(b) by -rho(h(b)z)(b)",
)
def _mp_mixed(mp: MatchedPairBundle, flavor: str) -> tuple[CheckEntry, ...]:
    """The two mixed identities of a matched pair, on x, y, z in L and a, b, c in V.

    The differential flavour, whose maps are identities, reads the same
    identities under its own names and adds the as-printed reading of the
    second one as an advisory entry.
    """
    L, V = mp.left, mp.right
    n, m = L.dim, V.dim
    A, B, P, Q = L.alpha, L.beta, V.alpha, V.beta
    rho, h = _stack(mp.rho), _stack(mp.h)
    # rows indexed [first][second]: the value at basis vectors e_* of L, f_* of V
    cl, cv = L.bracket.nz, V.bracket.nz
    h_qa = _action(h, Q, right=A).transpose((0, 2, 1)).nz       # [c][i]: h(q(f_c)) alpha(e_i)
    h_ab = _action(h, right=A @ B).transpose((2, 0, 1)).nz      # [i][l]: h(f_l) alpha beta(e_i)
    rho_aq = _action(rho, A, right=Q).transpose((0, 2, 1)).nz   # [j][c]: rho(alpha(e_j)) q(f_c)
    h_cols = h.transpose((0, 2, 1)).nz                          # [c][r]: h(f_c) e_r
    l_twisted = _bracket(L.bracket, B, A).nz                    # [i][j]: [beta(e_i), alpha(e_j)]
    rho_bp = _action(rho, B, right=P).transpose((0, 2, 1)).nz   # [k][a]: rho(beta(e_k)) p(f_a)
    rho_pq = _action(rho, right=P @ Q).transpose((2, 0, 1)).nz  # [a][l]: rho(e_l) pq(f_a)
    h_pb = _action(h, P, right=B).transpose((0, 2, 1)).nz       # [b][k]: h(p(f_b)) beta(e_k)
    rho_cols = rho.transpose((0, 2, 1)).nz                      # [k][r]: rho(e_k) f_r
    v_twisted = _bracket(V.bracket, Q, P).nz                    # [a][b]: [q(f_a), p(f_b)]_V

    def left(i: int, j: int, c: int) -> Row:
        return _combination(((1, cl[j], h_qa[c][i]), (-1, cl[i], h_qa[c][j]), (-1, h_ab[i], rho_aq[j][c]),
                             (1, h_ab[j], rho_aq[i][c]), (1, h_cols[c], l_twisted[i][j])))

    def right(a: int, b: int, k: int, printed: bool = False) -> Row:
        swapped = (((-1, rho_pq[b], h_pb[b][k]),) if printed
                   else ((-1, rho_pq[a], h_pb[b][k]), (1, rho_pq[b], h_pb[a][k])))
        return _combination(((1, cv[b], rho_bp[k][a]), (-1, cv[a], rho_bp[k][b]), *swapped,
                             (1, rho_cols[k], v_twisted[a][b])))

    if flavor != "differential":
        return (entry("mp_left", "", Residual.tabulate((n, n, m), n, left)),
                entry("mp_right", "", Residual.tabulate((m, m, n), m, right)))
    printed = Residual.tabulate((m, m, n), m, lambda a, b, k: right(a, b, k, printed=True))
    return (entry("diff_mp_left", "", Residual.tabulate((n, n, m), n, left)),
            entry("diff_mp_right", "symmetrized", Residual.tabulate((m, m, n), m, right)),
            CheckEntry("diff_mp_right", "as-printed", printed, advisory=True))


def check_matched_pair(mp: MatchedPairBundle, flavor: str) -> Report:
    """Constituent axioms, cross representations, and the two mixed identities.

    flavor is a key of FLAVORS; the checkers besides the mixed identities are
    the ("matched_pair", flavor) suite.  The differential flavour needs
    identity structure maps; its report also carries the as-printed reading
    of the second mixed identity, as an advisory entry.
    """
    flavor_operators(flavor, "matched pairs", mp.left, mp.right)
    return Report(_mp_mixed(mp, flavor)).merged(SUITES["matched_pair", flavor].run(mp))


# -- suites ---------------------------------------------------------------------------------


class Step(NamedTuple):
    """One checker call of a suite.

    ``check`` names a checker of this module; it is looked up when the suite
    runs, so wrappers installed on the module apply.  ``args`` are the bundle
    fields it is called with ("" is the bundle itself, dots reach into
    sub-bundles).  The step is skipped when a field in ``needs`` is unset, a
    ``weighted`` step receives the caller's weight override, and a ``prefix``
    labels the cases of its report.
    """

    check: str
    args: tuple[str, ...] = ("",)
    needs: tuple[str, ...] = ()
    weighted: bool = False
    prefix: str = ""


def _field(bundle: Any, path: str) -> Any:
    for name in path.split(".") if path else ():
        bundle = getattr(bundle, name)
    return bundle


@dataclass(frozen=True)
class Suite:
    """An ordered list of checker steps, run on one bundle into one Report."""

    steps: tuple[Step, ...]

    def steps_on(self, bundle: Any) -> list[Step]:
        """The steps that run on the bundle: those whose needed fields are all set."""
        return [s for s in self.steps if all(_field(bundle, f) is not None for f in s.needs)]

    def run(self, bundle: Any, weight: Fraction | None = None) -> Report:
        reports = []
        for step in self.steps_on(bundle):
            report = globals()[step.check](*(_field(bundle, f) for f in step.args),
                                           **({"weight": weight} if step.weighted else {}))
            reports.append(report.prefixed(step.prefix) if step.prefix else report)
        return Report(()).merged(*reports)


def _on(field: str, steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The steps of a sub-bundle's suite, run from the enclosing bundle."""
    def at(path: str) -> str:
        return f"{field}.{path}" if path else field
    return tuple(s._replace(args=tuple(map(at, s.args)), needs=tuple(map(at, s.needs))) for s in steps)


_LIE, _COALG = Step("check_bihom_lie"), Step("check_bihom_coalgebra")
_LEIBNIZ, _CO_LEIBNIZ = Step("check_diff_leibniz", weighted=True), Step("check_diff_coalgebra", weighted=True)
_ALGEBRA_AUTO = (_LIE, Step("check_nijenhuis_operator", needs=("nijenhuis",)), _LEIBNIZ._replace(needs=("differential",)))
_COALGEBRA_AUTO = (_COALG, Step("check_nijenhuis_coalgebra", needs=("conijenhuis",)),
                   _CO_LEIBNIZ._replace(needs=("codiff",)))
_OPERATOR_PAIR = ("algebra.nijenhuis", "coalgebra.conijenhuis")
_DIFFERENTIAL_PAIR = ("algebra.differential", "coalgebra.codiff")
_ADJOINT = Step("check_adjoint_admissible", ("algebra", "coalgebra.conijenhuis"), _OPERATOR_PAIR)
_DUAL = Step("check_dual_admissible", ("coalgebra.comul", "algebra.nijenhuis", "coalgebra.conijenhuis"), _OPERATOR_PAIR)
_PI = Step("check_diff_pi", ("algebra", "coalgebra.codiff.matrix"), _DIFFERENTIAL_PAIR, weighted=True)
_DIFF_DUAL = Step("check_diff_dual_admissible", ("coalgebra", "algebra.differential.matrix"), _DIFFERENTIAL_PAIR,
                  weighted=True)
_COCYCLE = Step("check_bialgebra_cocycle")
_REP_NIJENHUIS = Step("check_nijenhuis_representation", needs=("eta", "algebra.nijenhuis"))
_REP_DIFFERENTIAL = Step("check_diff_rep", needs=("xi", "algebra.differential"), weighted=True)
_BIALGEBRA_SIDE = (Step("check_bihom_lie", ("algebra",)), Step("check_bihom_coalgebra", ("coalgebra",)), _COCYCLE)


#: (field, case prefix) of the two algebras and of the two modules of a matched pair
_ALGEBRAS, _MODULES = (("left", "left"), ("right", "right")), (("rho_module", "rho"), ("h_module", "h"))


def _each(check: str, factors: tuple[tuple[str, str], ...], weighted: bool = False) -> tuple[Step, ...]:
    return tuple(Step(check, (field,), weighted=weighted, prefix=prefix) for field, prefix in factors)


_MATCHED_PAIR = _each("check_bihom_lie", _ALGEBRAS) + _each("check_representation", _MODULES)

#: (bundle kind, suite name) -> the checkers that suite runs, in report order.
#: "auto" runs every checker whose operators the bundle carries; the
#: "bialgebra" nijenhuis/differential suites are the bialgebra side of the
#: triads, "double" suites run on a DoubleBundle, "matched_pair" suites are
#: what check_matched_pair runs besides the mixed identities.
SUITES: dict[tuple[str, str], Suite] = {key: Suite(steps) for key, steps in {
    ("algebra", "auto"): _ALGEBRA_AUTO,
    ("algebra", "bihom"): (_LIE,),
    ("algebra", "nijenhuis"): (_LIE, Step("check_nijenhuis_operator")),
    ("algebra", "differential"): (_LIE, _LEIBNIZ),
    ("algebra", "involution"): (Step("check_involution"),),
    ("coalgebra", "auto"): _COALGEBRA_AUTO,
    ("coalgebra", "bihom"): (_COALG,),
    ("coalgebra", "nijenhuis"): (_COALG, Step("check_nijenhuis_coalgebra")),
    ("coalgebra", "differential"): (_COALG, _CO_LEIBNIZ),
    ("representation", "auto"): (Step("check_representation"), _REP_NIJENHUIS, _REP_DIFFERENTIAL),
    ("representation", "bihom"): (Step("check_representation"),),
    ("representation", "nijenhuis"): (Step("check_representation"), _REP_NIJENHUIS),
    ("representation", "differential"): (Step("check_representation"), _REP_DIFFERENTIAL),
    ("bialgebra", "auto"): (_on("algebra", _ALGEBRA_AUTO) + _on("coalgebra", _COALGEBRA_AUTO)
                            + (_COCYCLE, _ADJOINT, _DUAL, _PI, _DIFF_DUAL)),
    ("bialgebra", "nijenhuis"): _BIALGEBRA_SIDE + (
        Step("check_nijenhuis_operator", ("algebra",)), Step("check_nijenhuis_coalgebra", ("coalgebra",)),
        _ADJOINT, _DUAL),
    ("bialgebra", "differential"): (_BIALGEBRA_SIDE + _on("algebra", (_LEIBNIZ,)) + _on("coalgebra", (_CO_LEIBNIZ,))
                                    + (_PI, _DIFF_DUAL)),
    ("matched_pair", "bihom"): _MATCHED_PAIR,
    ("matched_pair", "nijenhuis"): (_MATCHED_PAIR + _each("check_nijenhuis_operator", _ALGEBRAS)
                                    + _each("check_nijenhuis_representation", _MODULES)),
    ("matched_pair", "differential"): (_MATCHED_PAIR + _each("check_diff_leibniz", _ALGEBRAS, True)
                                       + _each("check_diff_rep", _MODULES, True)),
    ("double", "nijenhuis"): (Step("check_bihom_lie", ("total",)), Step("check_nijenhuis_operator", ("total",)),
                              Step("check_form", ("total", "form"))),
    ("double", "differential"): (Step("check_bihom_lie", ("total",)), *_on("total", (_LEIBNIZ,)),
                                 Step("check_form", ("total", "form"))),
}.items()}


def full_algebra_suite(a: AlgebraBundle) -> Report:
    """Everything claimable from the fields an algebra bundle carries."""
    return SUITES["algebra", "auto"].run(a)
