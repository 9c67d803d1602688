"""Identity checkers.

Every checker evaluates its identities on all basis tuples (multilinearity
makes that exhaustive) and returns a Report of exact residuals; pass iff the
residual is identically zero.  A three-index identity, a signed sum of
contractions of one tensor, is one ``contract_sum`` call over ``_bracket``,
``_comul`` or ``_action`` terms; four-index ones are tabulated by rows, no n^4
array built: per basis tuple, or, for the one cyclic sum of Jacobi and
co-Jacobi, per orbit under rotation (S3 under antisymmetry).  Twisted
(co-)antisymmetry is read off the twisted rows once per unordered pair of
them (``_pair_sum``), and co-Jacobi's rows are those of Delta transposed once,
so a passing check adds no whole tensor.
Each formula is written once: the second mixed identity is the first read on
the swapped pair (``MatchedPairBundle.swapped``), and pi-admissibility is
zeta-admissibility on the adjoint action.  An identity linear in one unknown
map (the Leibniz rule at weight zero, dual, zeta- and pi-admissibility) is one
term list (``_leibniz``, ``_dual_admissible``, ``_zeta``): its checker
contracts it at the candidate, and ``search`` solves it for the marker
``Unknown`` standing in the candidate's place.
Hypotheses a result states without the checker being able to gate on
usefully (involutivity, invertibility) are reported as notes while the
identity is still evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Any, Callable, NamedTuple, Sequence

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
    require,
)
from .exact import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    Row,
    Term,
    _combination,
    _sum,
    contract_sum,
    invert,
    solve,
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
    ops = tuple(require(a, field) for a in algebras) if field else ()
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


def _tr(m: Matrix | None) -> Matrix | None:
    return None if m is None else m.transpose()


def _bracket(scale, x: Matrix | None = None, y: Matrix | None = None, out: Matrix | None = None) -> Term:
    """The ``contract_sum`` term of (u, v) -> scale out([x(u), y(v)]) on a bracket; an omitted map is the identity,
    and at scale zero no transpose is built."""
    return scale, (_tr(x), _tr(y), out) if scale else (None, None, None)


def _comul(scale, x: Matrix | None = None, left: Matrix | None = None, right: Matrix | None = None) -> Term:
    """The term of u -> scale (left (x) right) Delta(x(u)) on a comultiplication."""
    return scale, (_tr(x), left, right) if scale else (None, None, None)


def _action(scale, x: Matrix | None = None, left: Matrix | None = None, right: Matrix | None = None) -> Term:
    """The term of u -> scale left rho(x(u)) right on a stacked action."""
    return scale, (_tr(x), left, _tr(right)) if scale else (None, None, None)


def _stack(mats: Sequence[Matrix]) -> Tensor3:
    """Action matrices rho(e_i) as one tensor, plane i holding rho(e_i)."""
    return Tensor3((len(mats), mats[0].rows, mats[0].cols), tuple(m.nz for m in mats))


class Unknown(NamedTuple):
    """The unknown map of a linear identity in a term's slot, or its transpose; ``transpose`` flips the flag, so
    the term builders write one list for a candidate map and for the unknown, which ``search`` solves for."""

    transposed: bool = False

    def transpose(self) -> Unknown:
        return Unknown(not self.transposed)


def _array_entry(identity: str, case: str, m: Matrix | Tensor3) -> CheckEntry:
    return CheckEntry(identity, case, Residual.from_matrix(m))


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    if a.diag is not None and b.diag is not None and a.rows == b.rows:  # diagonal maps commute
        return Matrix.zeros(a.rows, a.cols)
    return (a @ b).sub(b @ a)


def _kernel_residual(m: Matrix) -> Residual:
    """A kernel basis of m, one column per basis vector: zero iff m is injective."""
    kernel = solve(m)[1]
    return Residual.collect((m.cols, len(kernel)), (((i, j), x) for j, v in enumerate(kernel) for i, x in enumerate(v)))


_SQUARES = " (alpha^2 or beta^2 differs from id)"


def _involution_note(a: AlgebraBundle, subject: str = "algebra", detail: str = "") -> tuple[str, ...]:
    """The note a result stated for involutive algebras carries when a is not."""
    return () if is_involutive(a) else (f"hypothesis not met: {subject} is not involutive{detail}",)


def _multiplicativity(c: Tensor3, m: Matrix) -> Residual:
    """phi([x,y]) - [phi(x),phi(y)] on basis pairs."""
    return Residual.from_matrix(contract_sum(c, [_bracket(1, out=m), _bracket(-1, m, m)]))


def _comultiplicativity(t: Tensor3, m: Matrix) -> Residual:
    """Delta phi - (phi x phi) Delta on basis vectors."""
    return Residual.from_matrix(contract_sum(t, [_comul(1, m), _comul(-1, None, m, m)]))


def _pair_sum(p: Sequence[Sequence[Row]], row_first: bool = False) -> Residual:
    """The residual of p[i][j] + p[j][i] at (i, j, k), or (k, i, j) if row_first: one ``_sum`` per unordered pair
    {i, j} with a nonempty row, and cells made only for the pairs that do not cancel."""
    n, failing = len(p), []  # (i, j, p[i][j] + p[j][i]) for each failing pair, i <= j
    for i, plane in enumerate(p):
        for j in range(i, n):
            x, y = plane[j], p[j][i]
            if x[1] or y[1]:
                row = _sum(x, y, 1)
                if row[1]:
                    failing.append((i, j, row))
    cells = [((r, *idx) if row_first else (*idx, r), Fraction(v, den)) for i, j, (den, pairs) in failing
             for idx in (((i, j), (j, i)) if i != j else ((i, i),)) for r, v in pairs]
    return Residual.collect((n,) * 3, cells)


def _cyclic_sum(q: Sequence, p: Sequence, alternating: bool, row_first: bool = False) -> Residual:
    """The residual of q[i].p[j][k] + q[j].p[k][i] + q[k].p[i][j] at (i, j, k, r), or (r, i, j, k) if row_first, x.y
    being the row sum_b y_b x[b]; evaluated once per orbit under rotation, or under S3 when alternating (meaning that
    p[i][j] = -p[j][i]: odd permutations negate the row, a repeated index gives zero), and zero where the three rows
    of p are empty; no orbit is walked when every row of p is."""
    n, cells = len(p), []
    if not any(row[1] for plane in p for row in plane):
        return Residual((n,) * 4, ())
    reps = combinations(range(n), 3) if alternating else (  # the least rotation
        (i, j, k) for i in range(n) for j in range(i, n) for k in range(i + (j > i), n))
    for i, j, k in reps:
        if not (p[j][k][1] or p[k][i][1] or p[i][j][1]):
            continue
        den, pairs = _combination(((1, q[i], p[j][k]), (1, q[j], p[k][i]), (1, q[k], p[i][j])))
        if pairs:  # permutations lists (i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)
            orbit = (zip(permutations((i, j, k)), (1, -1, -1, 1, 1, -1)) if alternating
                     else {(i, j, k): 1, (j, k, i): 1, (k, i, j): 1}.items())
            for idx, sign in orbit:
                cells += [((r, *idx) if row_first else (*idx, r), Fraction(sign * v, den)) for r, v in pairs]
    return Residual.collect((n,) * 4, cells)


# -- algebra-side checkers -------------------------------------------------------


@declares(
    bihom_multiplicativity="phi([x,y]) = [phi(x),phi(y)] for phi in {alpha,beta}; alpha beta = beta alpha",
    bihom_antisymmetry="[beta(x),alpha(y)] + [beta(y),alpha(x)] = 0",
    bihom_jacobi="[beta^2(x),[beta(y),alpha(z)]] + [beta^2(y),[beta(z),alpha(x)]] + [beta^2(z),[beta(x),alpha(y)]] = 0",
)
def check_bihom_lie(a: AlgebraBundle) -> Report:
    """Multiplicativity of alpha and beta, twisted antisymmetry, twisted Jacobi."""
    c, A, B = a.bracket, a.alpha, a.beta
    twisted = contract_sum(c, [_bracket(1, B, A)]).nz  # [beta(x), alpha(y)]
    antisymmetry = _pair_sum(twisted)
    return Report((
        CheckEntry("bihom_multiplicativity", "alpha", _multiplicativity(c, A)),
        CheckEntry("bihom_multiplicativity", "beta", _multiplicativity(c, B)),
        _array_entry("bihom_multiplicativity", "alpha-beta-commute", _commutator(A, B)),
        CheckEntry("bihom_antisymmetry", "", antisymmetry),
        CheckEntry("bihom_jacobi", "", _cyclic_sum(contract_sum(c, [_bracket(1, B @ B)]).nz, twisted,
                                                   antisymmetry.is_zero)),
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
    """alpha^2 = beta^2 = id, as ``check_involution`` decides it, without its report."""
    return (a.alpha @ a.alpha).is_identity() and (a.beta @ a.beta).is_identity()


@declares(
    nijenhuis_commute="N alpha = alpha N and N beta = beta N",
    nijenhuis_identity="[N(x),N(y)] = N([N(x),y] + [x,N(y)]) - N^2([x,y])",
)
def check_nijenhuis_operator(a: AlgebraBundle) -> Report:
    """Commutation with the structure maps plus the deformation identity."""
    N = require(a, "nijenhuis")
    c = a.bracket
    deformation = contract_sum(c, [_bracket(1, N, N), _bracket(-1, N, None, N), _bracket(-1, None, N, N),
                                   _bracket(1, out=N @ N)])
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
    t, A, B = co.comul, co.alpha, co.beta
    # (beta x alpha) Delta and (beta^2 x id) Delta on tt[i][j][k] = Delta[k][i][j], by rows (i, j) over k; the
    # transpose of a dualized bracket is that bracket itself
    tt = t.transpose((1, 2, 0))
    twisted, outer = contract_sum(tt, [(1, (B, A, None))]).nz, contract_sum(tt, [(1, (B @ B, None, None))]).nz
    antisymmetry = _pair_sum(twisted, True)
    # (id x beta x alpha)(beta^2 x Delta) Delta(e_k) at e_a (x) e_i (x) e_j is sum_b outer[a][b][k] twisted[i][j][b]
    return Report((
        CheckEntry("co_comultiplicativity", "alpha", _comultiplicativity(t, A)),
        CheckEntry("co_comultiplicativity", "beta", _comultiplicativity(t, B)),
        _array_entry("co_comultiplicativity", "alpha-beta-commute", _commutator(A, B)),
        CheckEntry("co_antisymmetry", "", antisymmetry),
        CheckEntry("co_jacobi", "", _cyclic_sum(outer, twisted, antisymmetry.is_zero, True)),
    ))


@declares(co_nijenhuis="(S x S) Delta + Delta S^2 = (S x id) Delta S + (id x S) Delta S; S commutes with alpha, beta")
def check_nijenhuis_coalgebra(co: CoalgebraBundle) -> Report:
    """Comultiplication-side deformation identity for the operator S.

    Commutation of S with alpha and beta is included so that the verdict
    matches the dual algebra-side check exactly.
    """
    S = require(co, "conijenhuis")
    t = co.comul
    deformation = contract_sum(t, [_comul(1, None, S, S), _comul(1, S @ S), _comul(-1, S, S), _comul(-1, S, None, S)])
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
    inner = contract_sum(c, [_bracket(1, AinvB)]).nz       # [i][j]: [alpha^-1 beta(e_i), e_j]
    delta_rows = t.transpose((1, 0, 2)).nz                 # [a][l]: row a of Delta(e_l)
    delta_b = contract_sum(t, [_comul(1, None, None, B)]).nz  # [j][r]: row r of (id x beta) Delta(e_j)
    b_delta = contract_sum(t, [_comul(1, None, B)]).nz        # [j][a]: row a of (beta x id) Delta(e_j)

    cases = []
    # (ad_{x1(e_i)} (x) beta + beta (x) ad_{x2(e_i)}) Delta(e_j), with x = e_i or, in
    # the twisted-argument form, x = alpha(e_i), read row a at a time
    for label, x1, x2 in (("", B, Ainv @ B2), ("twisted-argument-form", AinvB @ A, Ainv @ Ainv @ B2 @ A)):
        ad1 = contract_sum(c, [_bracket(1, x1)]).transpose((0, 2, 1)).nz  # [i][a]: row a of ad_{x1(e_i)}
        ad2t = contract_sum(c, [_bracket(1, x2)]).nz                       # [i][r]: row r of ad_{x2(e_i)}^T

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
    inner = contract_sum(alg.bracket, [_bracket(1, B)]).nz                      # [i][j]: [beta(e_i), e_j]
    rho_q = contract_sum(rho, [_action(1, right=r.q)]).transpose((1, 0, 2)).nz  # [a][l]: row a of rho(e_l) q
    r_a, r_b, r_ab = (contract_sum(rho, [_action(1, x)]).nz for x in (A, B, A @ B))  # [i][a]: row a of rho(x(e_i))
    rho_rows = rho.nz

    def bracket(i: int, j: int, a: int) -> Row:
        return _combination(((1, rho_q[a], inner[i][j]), (-1, rho_rows[j], r_ab[i][a]),
                             (1, r_a[i], r_b[j][a])))

    return Report((
        _array_entry("rep_p_compat", "", contract_sum(rho, [_action(1, left=r.p), _action(-1, A, right=r.p)])),
        _array_entry("rep_p_compat", "p-q-commute", _commutator(r.p, r.q)),
        _array_entry("rep_q_compat", "", contract_sum(rho, [_action(1, left=r.q), _action(-1, B, right=r.q)])),
        CheckEntry("rep_bracket", "", Residual.tabulate((n, n, r.vdim), r.vdim, bracket)),
    ))


@declares(rep_nijenhuis="rho(N(x)) eta = eta rho(N(x)) + eta rho(x) eta - eta^2 rho(x); eta commutes with p, q")
def check_nijenhuis_representation(r: RepresentationBundle) -> Report:
    """Operator compatibility of eta with the module and the algebra operator."""
    eta = require(r, "eta")
    N = require(r.algebra, "nijenhuis")
    rho = _stack(r.rho)
    deformation = contract_sum(rho, [_action(1, N, right=eta), _action(-1, N, left=eta), _action(-1, None, eta, eta),
                                     _action(1, left=eta @ eta)])
    return Report((
        _array_entry("rep_nijenhuis", "eta-p-commute", _commutator(eta, r.p)),
        _array_entry("rep_nijenhuis", "eta-q-commute", _commutator(eta, r.q)),
        _array_entry("rep_nijenhuis", "", deformation),
    ))


# -- admissibility checkers ---------------------------------------------------------


@declares(admissible_adjoint="S([N(x),y]) + [x,S^2(y)] = [N(x),S(y)] + S([x,S(y)])")
def check_adjoint_admissible(a: AlgebraBundle, smap: Matrix) -> Report:
    """Adjoint admissibility of a candidate map S against the bundle operator N."""
    N = require(a, "nijenhuis")
    if (smap.rows, smap.cols) != (a.dim, a.dim):
        raise DimensionMismatch("candidate map size does not match the algebra")
    notes = _involution_note(a, detail=_SQUARES)
    c, S = a.bracket, smap
    admissible = contract_sum(c, [_bracket(1, N, None, S), _bracket(1, None, S @ S), _bracket(-1, N, S),
                                  _bracket(-1, None, S, S)])
    return Report((_array_entry("admissible_adjoint", "", admissible),), notes)


def _dual_admissible(N: Matrix, S: Matrix | Unknown) -> list[Term]:
    """(S x id) Delta N - (S x N) Delta + (id x N^2) Delta - (id x N) Delta N, linear in S."""
    return [_comul(1, N, S), _comul(-1, None, S, N), _comul(1, None, None, N @ N), _comul(-1, N, None, N)]


@declares(admissible_dual="(S x id) Delta N + (id x N^2) Delta = (S x N) Delta + (id x N) Delta N")
def check_dual_admissible(comul: Tensor3, nmap: Matrix, smap: Matrix) -> Report:
    """Comultiplication-side admissibility tying S, N and Delta together."""
    n = comul.shape[0]
    for m in (nmap, smap):
        if (m.rows, m.cols) != (n, n):
            raise DimensionMismatch("operator size does not match the comultiplication")
    return Report((_array_entry("admissible_dual", "", contract_sum(comul, _dual_admissible(nmap, smap))),))


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
        CheckEntry("form_nondegenerate", "", _kernel_residual(G)),
    ))


@declares(form_invariance="B([x,y],z) = B(x,[y,z]); B(phi(x),y) = B(x,phi(y)) for phi in {alpha,beta}")
def check_form(a: AlgebraBundle, f: FormBundle) -> Report:
    """Symmetry, nondegeneracy, self-adjointness of the maps, invariance."""
    if f.dim != a.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    G = f.gram
    # B([e_i,e_j],e_k) minus B(e_i,[e_j,e_k]), the latter read off (j, k, i)
    invariance = (contract_sum(a.bracket, [_bracket(1, out=G.transpose())])
                  .sub(contract_sum(a.bracket, [_bracket(1, out=G)]).transpose((2, 0, 1))))
    return check_gram(f).merged(Report((
        _array_entry("form_invariance", "alpha-selfadjoint", (a.alpha.transpose() @ G).sub(G @ a.alpha)),
        _array_entry("form_invariance", "beta-selfadjoint", (a.beta.transpose() @ G).sub(G @ a.beta)),
        _array_entry("form_invariance", "bracket", invariance),
    )))


# -- differential checkers --------------------------------------------------------------


def _leibniz(d: Matrix | Unknown, w: Fraction) -> list[Term]:
    """d([x,y]) - [d(x),y] - [x,d(y)] - w [d(x),d(y)] on a bracket, linear in d at w = 0, which drops the last term."""
    return [_bracket(1, out=d), _bracket(-1, d), _bracket(-1, None, d), _bracket(-w, d, d)]


@declares(diff_leibniz="d([x,y]) = [d(x),y] + [x,d(y)] + w [d(x),d(y)]")
def check_diff_leibniz(a: AlgebraBundle, op: Matrix | None = None, weight: Fraction | None = None) -> Report:
    """Weighted Leibniz rule for the bundle differential (or a candidate map)."""
    if op is None or weight is None:
        diff = require(a, "differential")
        op = op if op is not None else diff.matrix
        weight = weight if weight is not None else diff.weight
    return Report((_array_entry("diff_leibniz", "", contract_sum(a.bracket, _leibniz(op, weight))),))


@declares(diff_rep="xi rho(x) = rho(d(x)) + rho(x) xi + w rho(d(x)) xi")
def check_diff_rep(r: RepresentationBundle, weight: Fraction | None = None) -> Report:
    """Module operator compatibility for a differential representation."""
    xi = require(r, "xi")
    diff = require(r.algebra, "differential")
    w = weight if weight is not None else diff.weight
    rho, d = _stack(r.rho), diff.matrix
    compat = contract_sum(rho, [_action(1, left=xi), _action(-1, d), _action(-1, right=xi), _action(-w, d, right=xi)])
    return Report((_array_entry("diff_rep", "", compat),))


@declares(diff_coalgebra="delta D = (D x id) delta + (id x D) delta + w (D x D) delta")
def check_diff_coalgebra(co: CoalgebraBundle, weight: Fraction | None = None) -> Report:
    """Weighted co-Leibniz rule for the codifferential."""
    codiff = require(co, "codiff")
    op, weight = codiff.matrix, codiff.weight if weight is None else weight
    t = co.comul
    leibniz = contract_sum(t, [_comul(1, op), _comul(-1, None, op), _comul(-1, None, None, op),
                               _comul(-weight, None, op, op)])
    return Report((_array_entry("diff_coalgebra", "", leibniz),))


def _zeta(a: AlgebraBundle, zeta: Matrix | Unknown, weight: Fraction | None) -> list[Term]:
    """rho(x) zeta - rho(d(x)) - zeta rho(x) - w zeta rho(d(x)) on a stacked action rho of a, linear in zeta;
    d = a.differential, whose weight w is the default."""
    diff = require(a, "differential")
    w, d = weight if weight is not None else diff.weight, diff.matrix
    return [_action(1, right=zeta), _action(-1, d), _action(-1, left=zeta), _action(-w, d, left=zeta)]


@declares(diff_admissible_zeta="rho(x) zeta = rho(d(x)) + zeta rho(x) + w zeta rho(d(x))")
def check_diff_zeta(r: RepresentationBundle, zeta: Matrix, weight: Fraction | None = None) -> Report:
    """Dual-module admissibility of a candidate zeta."""
    admissible = contract_sum(_stack(r.rho), _zeta(r.algebra, zeta, weight))
    return Report((_array_entry("diff_admissible_zeta", "", admissible),))


@declares(diff_admissible_pi="[x,pi(y)] = [d(x),y] + pi([x,y]) + w pi([d(x),y])")
def check_diff_pi(a: AlgebraBundle, pi: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of pi: the zeta terms on the action ad_{e_i}, cell (i, k, j), read at (i, j, k)."""
    admissible = contract_sum(a.bracket.transpose((0, 2, 1)), _zeta(a, pi, weight)).transpose((0, 2, 1))
    return Report((_array_entry("diff_admissible_pi", "", admissible),))


@declares(diff_dual_admissible="delta d + (D x id - id x d) delta + w (D x id) delta d = 0")
def check_diff_dual_admissible(co: CoalgebraBundle, d: Matrix, weight: Fraction | None = None) -> Report:
    """Adjoint admissibility of the dual of d against the codifferential side."""
    codiff = require(co, "codiff")
    w = weight if weight is not None else codiff.weight
    D, t = codiff.matrix, co.comul
    admissible = contract_sum(t, [_comul(1, d), _comul(1, None, D), _comul(-1, None, None, d), _comul(w, d, D)])
    return Report((_array_entry("diff_dual_admissible", "", admissible),))


# -- matched pairs ----------------------------------------------------------------------


@declares(
    mp_left="[y,h(q(c))alpha(x)] - [x,h(q(c))alpha(y)] - h(rho(alpha(y))q(c)) alpha beta(x) + h(rho(alpha(x))q(c)) alpha beta(y) + h(c)([beta(x),alpha(y)]) = 0",
    mp_right="[b,rho(beta(z))p(a)]_V - [a,rho(beta(z))p(b)]_V - rho(h(p(b))beta(z)) pq(a) + rho(h(p(a))beta(z)) pq(b) + rho(z)([q(a),p(b)]_V) = 0",
    diff_mp_left="[y,h(c)x] - [x,h(c)y] - h(rho(y)c)(x) + h(rho(x)c)(y) + h(c)([x,y]) = 0",
    diff_mp_right="[b,rho(z)a]_V - [a,rho(z)b]_V - rho(h(b)z)(a) + rho(h(a)z)(b) + rho(z)([a,b]_V) = 0 (symmetrized); the as-printed variant replaces -rho(h(b)z)(a) + rho(h(a)z)(b) by -rho(h(b)z)(b)",
)
def _mp_mixed(mp: MatchedPairBundle, flavor: str) -> tuple[CheckEntry, ...]:
    """The two mixed identities of a matched pair: the second is the first read
    on the swapped pair (V, L, h, rho), where alpha, beta and p, q trade places.

    The differential flavour, whose maps are identities, reads the same
    identities under its own names and adds the as-printed reading of the
    second one as an advisory entry.
    """
    n, m = mp.left.dim, mp.right.dim
    left, right = _mixed(mp), _mixed(mp.swapped)
    if flavor != "differential":
        return (CheckEntry("mp_left", "", Residual.tabulate((n, n, m), n, left)),
                CheckEntry("mp_right", "", Residual.tabulate((m, m, n), m, right)))
    printed = Residual.tabulate((m, m, n), m, lambda a, b, k: right(a, b, k, printed=True))
    return (CheckEntry("diff_mp_left", "", Residual.tabulate((n, n, m), n, left)),
            CheckEntry("diff_mp_right", "symmetrized", Residual.tabulate((m, m, n), m, right)),
            CheckEntry("diff_mp_right", "as-printed", printed, advisory=True))


def _mixed(mp: MatchedPairBundle) -> Callable[..., Row]:
    """The row function of the first mixed identity on x = e_i, y = e_j in L and c = f_c in V; with printed
    set, of the as-printed second identity of the pair mp is the swap of, one middle term in place of two."""
    L, Q = mp.left, mp.right.beta
    A, B, cl = L.alpha, L.beta, L.bracket.nz
    rho, h = _stack(mp.rho), _stack(mp.h)
    # rows indexed [first][second]: the value at basis vectors e_* of L, f_* of V
    h_qa = contract_sum(h, [_action(1, Q, right=A)]).transpose((0, 2, 1)).nz      # [c][i]: h(q(f_c)) alpha(e_i)
    h_ab = contract_sum(h, [_action(1, right=A @ B)]).transpose((2, 0, 1)).nz     # [i][l]: h(f_l) alpha beta(e_i)
    rho_aq = contract_sum(rho, [_action(1, A, right=Q)]).transpose((0, 2, 1)).nz  # [j][c]: rho(alpha(e_j)) q(f_c)
    h_cols = h.transpose((0, 2, 1)).nz                                           # [c][r]: h(f_c) e_r
    l_twisted = contract_sum(L.bracket, [_bracket(1, B, A)]).nz                  # [i][j]: [beta(e_i), alpha(e_j)]

    def mixed(i: int, j: int, c: int, printed: bool = False) -> Row:
        middle = (((-1, h_ab[j], rho_aq[j][c]),) if printed
                  else ((-1, h_ab[i], rho_aq[j][c]), (1, h_ab[j], rho_aq[i][c])))
        return _combination(((1, cl[j], h_qa[c][i]), (-1, cl[i], h_qa[c][j]), *middle,
                             (1, h_cols[c], l_twisted[i][j])))

    return mixed


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
