"""Identity checkers.

Every checker evaluates its identities on all basis tuples (multilinearity
makes that exhaustive) and returns a Report of exact residuals; pass iff the
residual is identically zero.  A three-index identity, a signed sum of
contractions of one tensor, is one ``contract_sum`` call over ``_bracket``,
``_comul`` or ``_action`` terms.  A four-index one composes two tensors
(Jacobi, co-Jacobi, the representation identity, the mixed matched-pair
identities, the cocycle): it is one list of (sign, q, a, p, b, c) terms, which
``_composed`` evaluates by rows, no n^4 array built: per free tuple, or, for
the cyclic sum of Jacobi and co-Jacobi (``_cyclic``), per orbit under rotation
(S3 under antisymmetry).  Twisted (co-)antisymmetry is read off the twisted
rows once per unordered pair of them (``_pair_sum``), and co-Jacobi's rows are
those of Delta transposed once, so a passing check adds no whole tensor.
Each identity is evaluated by one formula: the second mixed identity is the
first read on the swapped pair (``MatchedPairBundle.swapped``),
pi-admissibility is zeta-admissibility on the adjoint action, the cocycle is
its declared expansion alone, and involutivity is ``check_involution``.  An
identity linear in one unknown map (the Leibniz rule at weight zero, dual,
zeta- and pi-admissibility) is one term list (``_leibniz``,
``_dual_admissible``, ``_zeta``): its checker contracts it at the candidate,
and ``search`` solves it for the marker ``Unknown`` in the candidate's place.
Involutivity, a hypothesis a result states and no checker gates on, is a
note beside the evaluated identity; a singular map that must be inverted
raises SingularMatrix naming the map and why (``_inverse``).  ``SUITES``
lists each suite's checkers in order; a triad's sides are three of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import attrgetter
from typing import Any, NamedTuple, Sequence

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CheckEntry,
    CoalgebraBundle,
    Differential,
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
    SingularMatrix,
    Tensor3,
    Row,
    Term,
    _combination,
    _row,
    _shifted,
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


def _inverse(m: Matrix, why: str, error: type[ValueError] = SingularMatrix) -> Matrix:
    """The inverse of m; a singular m raises error, its message why followed by invert's own."""
    try:
        return invert(m)
    except SingularMatrix as exc:
        raise error(f"{why}: {exc}") from exc


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
#: Filled by the ``@declares`` decorator next to each evaluator; "shared_maps"
#: has no evaluator, BialgebraBundle refuses unshared maps when it is built.
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
    return Residual.from_rows((m.cols, len(kernel)), (((i,), _row([v[i] for v in kernel])) for i in range(m.cols)))


_SQUARES = " (alpha^2 or beta^2 differs from id)"


def _involution_note(a: AlgebraBundle, subject: str = "algebra", detail: str = "") -> tuple[str, ...]:
    """The note a result stated for involutive algebras carries when a is not."""
    return () if check_involution(a).ok else (f"hypothesis not met: {subject} is not involutive{detail}",)


def _multiplicativity(c: Tensor3, m: Matrix) -> Residual:
    """phi([x,y]) - [phi(x),phi(y)] on basis pairs."""
    return Residual.from_matrix(contract_sum(c, [_bracket(1, out=m), _bracket(-1, m, m)]))


def _comultiplicativity(t: Tensor3, m: Matrix) -> Residual:
    """Delta phi - (phi x phi) Delta on basis vectors."""
    return Residual.from_matrix(contract_sum(t, [_comul(1, m), _comul(-1, None, m, m)]))


def _pair_sum(p: Sequence[Sequence[Row]], row_first: bool = False) -> Residual:
    """The residual of p[i][j] + p[j][i] at (i, j, k), or (k, i, j) if row_first: one ``_sum`` per unordered pair
    {i, j} with a nonempty row, and rows read only for the pairs that do not cancel."""
    n, failing = len(p), []  # ((i, j), p[i][j] + p[j][i]), and (j, i) with it, for each failing pair, i <= j
    for i, plane in enumerate(p):
        for j in range(i, n):
            x, y = plane[j], p[j][i]
            if x[1] or y[1]:
                row = _sum(x, y, 1)
                if row[1]:
                    failing += [((i, j), row), ((j, i), row)] if i != j else [((i, i), row)]
    return Residual.from_rows((n,) * 3, failing, row_first)


#: (sign, q, a, p, b, c): the row sign q[idx[a]].p[idx[b]][idx[c]] at a free index tuple idx, x.y being the row
#: sum_b y_b x[b]; a quadratic identity is a list of them
Composed = tuple[int, Tensor3, int, Tensor3, int, int]


def _composed(terms: Sequence[Composed], orbits: str | None = None, row_first: bool = False) -> Residual:
    """The residual of the sum of the terms at (*idx, r), or (r, *idx) if row_first, over the free tuples idx, whose
    ranges and row width are read off the tensors.  A tuple combines only the terms whose row of p is nonempty and is
    skipped when none is, and no tuple is walked when every p is empty.  With orbits "C3" (the sum is invariant under
    rotating idx) or "S3" (alternating: odd permutations negate the row, a repeated index gives zero) one tuple is
    evaluated per orbit, and the orbit's members are listed only when its row is nonzero."""
    ranges, rows, distinct = [0, 0, 0], [], {}  # distinct: each p once, by identity
    for s, q, a, p, b, c in terms:
        ranges[a], ranges[b], ranges[c] = q.shape[0], p.shape[0], p.shape[1]
        rows.append((s, q.nz, a, p.nz, b, c))
        distinct[id(p)] = p.nz
    shape = (terms[0][1].shape[2], *ranges) if row_first else (*ranges, terms[0][1].shape[2])
    if not any(row[1] for p in distinct.values() for plane in p for row in plane):
        return Residual.from_rows(shape, ())
    n, found = ranges[0], []  # (member, row) for each member of each nonzero orbit
    walk = (product(*map(range, ranges)) if orbits is None else combinations(range(n), 3) if orbits == "S3"
            else ((i, j, k) for i in range(n) for j in range(i, n) for k in range(i + (j > i), n)))  # least rotation
    for idx in walk:
        live = []  # a loop, not a comprehension: no frame per tuple
        for s, q, a, p, b, c in rows:
            row = p[idx[b]][idx[c]]
            if row[1]:
                live.append((s, q[idx[a]], row))
        if not live:
            continue
        row = _combination(live)
        if row[1]:  # permutations lists (i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)
            neg = (row[0], tuple((r, -v) for r, v in row[1])) if orbits == "S3" else row
            found += (((idx, row),) if orbits is None else zip(permutations(idx), (row, neg, neg, row, row, neg))
                      if orbits == "S3" else [(member, row) for member in {idx, idx[1:] + idx[:1], idx[2:] + idx[:2]}])
    return Residual.from_rows(shape, found, row_first)


def _cyclic(q: Tensor3, p: Tensor3) -> list[Composed]:
    """q[i].p[j][k] + q[j].p[k][i] + q[k].p[i][j]: Jacobi and co-Jacobi."""
    return [(1, q, 0, p, 1, 2), (1, q, 1, p, 2, 0), (1, q, 2, p, 0, 1)]


# -- algebra-side checkers -------------------------------------------------------


@declares(
    bihom_multiplicativity="phi([x,y]) = [phi(x),phi(y)] for phi in {alpha,beta}; alpha beta = beta alpha",
    bihom_antisymmetry="[beta(x),alpha(y)] + [beta(y),alpha(x)] = 0",
    bihom_jacobi="[beta^2(x),[beta(y),alpha(z)]] + [beta^2(y),[beta(z),alpha(x)]] + [beta^2(z),[beta(x),alpha(y)]] = 0",
)
def check_bihom_lie(a: AlgebraBundle) -> Report:
    """Multiplicativity of alpha and beta, twisted antisymmetry, twisted Jacobi."""
    c, A, B = a.bracket, a.alpha, a.beta
    twisted = contract_sum(c, [_bracket(1, B, A)])  # [beta(x), alpha(y)]
    antisymmetry = _pair_sum(twisted.nz)
    return Report((
        CheckEntry("bihom_multiplicativity", "alpha", _multiplicativity(c, A)),
        CheckEntry("bihom_multiplicativity", "beta", _multiplicativity(c, B)),
        _array_entry("bihom_multiplicativity", "alpha-beta-commute", _commutator(A, B)),
        CheckEntry("bihom_antisymmetry", "", antisymmetry),
        CheckEntry("bihom_jacobi", "", _composed(_cyclic(contract_sum(c, [_bracket(1, B @ B)]), twisted),
                                                 "S3" if antisymmetry.is_zero else "C3")),
    ))


@declares(involution="alpha^2 = id and beta^2 = id")
def check_involution(a: AlgebraBundle) -> Report:
    """alpha^2 = beta^2 = id; gates several duality hypotheses."""
    ident = Matrix.identity(a.dim)
    return Report((
        _array_entry("involution", "alpha", (a.alpha @ a.alpha).sub(ident)),
        _array_entry("involution", "beta", (a.beta @ a.beta).sub(ident)),
    ))


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
    twisted, outer = contract_sum(tt, [(1, (B, A, None))]), contract_sum(tt, [(1, (B @ B, None, None))])
    antisymmetry = _pair_sum(twisted.nz, True)
    # (id x beta x alpha)(beta^2 x Delta) Delta(e_k) at e_a (x) e_i (x) e_j is sum_b outer[a][b][k] twisted[i][j][b]
    return Report((
        CheckEntry("co_comultiplicativity", "alpha", _comultiplicativity(t, A)),
        CheckEntry("co_comultiplicativity", "beta", _comultiplicativity(t, B)),
        _array_entry("co_comultiplicativity", "alpha-beta-commute", _commutator(A, B)),
        CheckEntry("co_antisymmetry", "", antisymmetry),
        CheckEntry("co_jacobi", "", _composed(_cyclic(outer, twisted), "S3" if antisymmetry.is_zero else "C3", True)),
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
    """Compatibility of bracket and comultiplication, as declared.

    Reading the twisted adjoint double action at x = alpha(e_i) gives the maps
    alpha^-1 beta alpha and alpha^-2 beta^2 alpha in place of beta and
    alpha^-1 beta^2: the same maps whenever alpha beta = beta alpha, which
    ``check_bihom_lie`` decides beside this checker in every suite that runs it.
    """
    alg, t = b.algebra, b.coalgebra.comul
    c, A, B = alg.bracket, alg.alpha, alg.beta
    Ainv = _inverse(A, "alpha must be invertible to check the bialgebra cocycle")
    inner = contract_sum(c, [_bracket(1, Ainv @ B)])                # [i][j]: [alpha^-1 beta(e_i), e_j]
    delta_rows = t.transpose((1, 0, 2))                             # [a][l]: row a of Delta(e_l)
    delta_b = contract_sum(t, [_comul(1, None, None, B)])           # [j][r]: row r of (id x beta) Delta(e_j)
    b_delta = contract_sum(t, [_comul(1, None, B)])                 # [j][a]: row a of (beta x id) Delta(e_j)
    ad1 = contract_sum(c, [_bracket(1, B)]).transpose((0, 2, 1))    # [i][a]: row a of ad_{beta(e_i)}
    ad2t = contract_sum(c, [_bracket(1, Ainv @ (B @ B))])           # [i][r]: row r of ad_{alpha^-1 beta^2(e_i)}^T
    # (ad_{beta(e_i)} (x) beta + beta (x) ad_{alpha^-1 beta^2(e_i)}) Delta(e_j), read row a at a time at (i, j, a)
    cocycle = [(1, delta_rows, 2, inner, 0, 1), (-1, delta_b, 1, ad1, 0, 2), (-1, ad2t, 0, b_delta, 1, 2),
               (1, delta_b, 0, ad1, 1, 2), (1, ad2t, 1, b_delta, 0, 2)]
    return Report((CheckEntry("bialgebra_cocycle", "", _composed(cocycle)),))


# -- representation checkers -------------------------------------------------------


@declares(
    rep_p_compat="p rho(x) = rho(alpha(x)) p; p q = q p",
    rep_q_compat="q rho(x) = rho(beta(x)) q",
    rep_bracket="rho([beta(x),y]) q = rho(alpha beta(x)) rho(y) - rho(beta(y)) rho(alpha(x))",
)
def check_representation(r: RepresentationBundle) -> Report:
    """Module compatibility with p, q and the twisted action identity."""
    alg = r.algebra
    A, B = alg.alpha, alg.beta
    rho = _stack(r.rho)
    inner = contract_sum(alg.bracket, [_bracket(1, B)])                      # [i][j]: [beta(e_i), e_j]
    rho_q = contract_sum(rho, [_action(1, right=r.q)]).transpose((1, 0, 2))  # [a][l]: row a of rho(e_l) q
    r_a, r_b, r_ab = (contract_sum(rho, [_action(1, x)]) for x in (A, B, A @ B))  # [i][a]: row a of rho(x(e_i))
    bracket = [(1, rho_q, 2, inner, 0, 1), (-1, rho, 1, r_ab, 0, 2), (1, r_a, 0, r_b, 1, 2)]  # at (i, j, a)
    return Report((
        _array_entry("rep_p_compat", "", contract_sum(rho, [_action(1, left=r.p), _action(-1, A, right=r.p)])),
        _array_entry("rep_p_compat", "p-q-commute", _commutator(r.p, r.q)),
        _array_entry("rep_q_compat", "", contract_sum(rho, [_action(1, left=r.q), _action(-1, B, right=r.q)])),
        CheckEntry("rep_bracket", "", _composed(bracket)),
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


@declares(subalgebra="the combined bracket restricted to either factor is that factor's bracket")
def check_restriction(total: AlgebraBundle, left: AlgebraBundle, right: AlgebraBundle) -> Report:
    """The bracket of an algebra on L + L' restricted to each factor (both of dim n) minus that factor's bracket."""
    n, nz = left.dim, total.bracket.nz
    rows = (((side, i, j), _sum(nz[side * n + i][side * n + j], _shifted(f.bracket.nz[i][j], side * n), -1))
            for side, f in enumerate((left, right)) for i in range(n) for j in range(n))
    return Report((CheckEntry("subalgebra", "bracket", Residual.from_rows((2, n, n, 2 * n), rows)),))


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
def check_diff_rep(r: RepresentationBundle) -> Report:
    """Module operator compatibility for a differential representation."""
    xi, diff = require(r, "xi"), require(r.algebra, "differential")
    rho, d, w = _stack(r.rho), diff.matrix, diff.weight
    compat = contract_sum(rho, [_action(1, left=xi), _action(-1, d), _action(-1, right=xi), _action(-w, d, right=xi)])
    return Report((_array_entry("diff_rep", "", compat),))


@declares(diff_coalgebra="delta D = (D x id) delta + (id x D) delta + w (D x D) delta")
def check_diff_coalgebra(co: CoalgebraBundle) -> Report:
    """Weighted co-Leibniz rule for the codifferential."""
    codiff = require(co, "codiff")
    op, weight, t = codiff.matrix, codiff.weight, co.comul
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
def check_diff_dual_admissible(co: CoalgebraBundle, d: Matrix) -> Report:
    """Adjoint admissibility of the dual of d against the codifferential side."""
    codiff = require(co, "codiff")
    D, w, t = codiff.matrix, codiff.weight, co.comul
    admissible = contract_sum(t, [_comul(1, d), _comul(1, None, D), _comul(-1, None, None, d), _comul(w, d, D)])
    return Report((_array_entry("diff_dual_admissible", "", admissible),))


# -- matched pairs ----------------------------------------------------------------------


@declares(
    mp_left="[beta^2(y),h(q(c))alpha(x)] - [beta^2(x),h(q(c))alpha(y)] - h(q^2 rho(alpha^-1(y)) q^-1(c)) alpha beta(x) + h(q^2 rho(alpha^-1(x)) q^-1(c)) alpha beta(y) + h(q^2(c))([beta(x),alpha(y)]) = 0",
    mp_right="[q^2(b),rho(beta(z))p(a)]_V - [q^2(a),rho(beta(z))p(b)]_V - rho(beta^2 h(p^-1(b)) beta^-1(z)) pq(a) + rho(beta^2 h(p^-1(a)) beta^-1(z)) pq(b) + rho(beta^2(z))([q(a),p(b)]_V) = 0",
    diff_mp_left="[y,h(c)x] - [x,h(c)y] - h(rho(y)c)(x) + h(rho(x)c)(y) + h(c)([x,y]) = 0",
    diff_mp_right="[b,rho(z)a]_V - [a,rho(z)b]_V - rho(h(b)z)(a) + rho(h(a)z)(b) + rho(z)([a,b]_V) = 0 (symmetrized); the as-printed variant replaces -rho(h(b)z)(a) + rho(h(a)z)(b) by -rho(h(b)z)(b)",
)
def _mixed(mp: MatchedPairBundle, swapped: bool = False) -> tuple[list[Composed], list[Composed]]:
    """The terms of the first mixed identity of mp, or of mp.swapped, at x = e_i, y = e_j in L and c = f_c in V, cell
    (i, j, c), and those of the as-printed reading of the second identity of the pair it is the swap of: one middle
    term in place of two.  The first identity is the L-part of the bicrossed product's Jacobi identity at (x, y, c),
    its rho term moved by the module axioms q rho(x) = rho(beta(x)) q and p rho(x) = rho(alpha(x)) p."""
    pair = mp.swapped if swapped else mp
    L, Q = pair.left, pair.right.beta
    A, B, cl = L.alpha, L.beta, L.bracket
    rho, h = _stack(pair.rho), _stack(pair.h)
    why = "must be invertible to check the mixed matched-pair identities"
    a_name, q_name = (("alpha of the right factor (p)", "beta of the left factor") if swapped else
                      ("alpha of the left factor", "beta of the right factor (q)"))
    QQ = Q @ Q
    # rows indexed [first][second]: the value at basis vectors e_* of L, f_* of V
    h_qa = contract_sum(h, [_action(1, Q, right=A)]).transpose((0, 2, 1))      # [c][i]: h(q(f_c)) alpha(e_i)
    h_ab = contract_sum(h, [_action(1, right=A @ B)]).transpose((2, 0, 1))     # [i][l]: h(f_l) alpha beta(e_i)
    # [j][c]: q^2 rho(alpha^-1(e_j)) q^-1(f_c)
    rho_aq = contract_sum(rho, [_action(1, _inverse(A, f"{a_name} {why}"), left=QQ,
                                        right=_inverse(Q, f"{q_name} {why}"))]).transpose((0, 2, 1))
    h_cols = contract_sum(h, [_action(1, QQ)]).transpose((0, 2, 1))          # [c][r]: h(q^2(f_c)) e_r
    l_twisted = contract_sum(cl, [_bracket(1, B, A)])                         # [i][j]: [beta(e_i), alpha(e_j)]
    l_outer = contract_sum(cl, [_bracket(1, B @ B)])                          # [j][r]: [beta^2(e_j), e_r]
    mixed = [(1, l_outer, 1, h_qa, 2, 0), (-1, l_outer, 0, h_qa, 2, 1), (-1, h_ab, 0, rho_aq, 1, 2),
             (1, h_ab, 1, rho_aq, 0, 2), (1, h_cols, 2, l_twisted, 0, 1)]
    return mixed, [*mixed[:2], (-1, h_ab, 1, rho_aq, 1, 2), mixed[4]]


def check_mixed(mp: MatchedPairBundle) -> Report:
    """The two mixed identities, the second being the first read on the swapped pair (V, L, h, rho), where alpha,
    beta and p, q trade places."""
    return Report((CheckEntry("mp_left", "", _composed(_mixed(mp)[0])),
                   CheckEntry("mp_right", "", _composed(_mixed(mp, True)[0]))))


def check_diff_mixed(mp: MatchedPairBundle) -> Report:
    """``check_mixed`` under the differential names, with the as-printed reading of the second identity as advisory."""
    (left, _), (right, printed) = _mixed(mp), _mixed(mp, True)
    return Report((CheckEntry("diff_mp_left", "", _composed(left)),
                   CheckEntry("diff_mp_right", "symmetrized", _composed(right)),
                   CheckEntry("diff_mp_right", "as-printed", _composed(printed), advisory=True)))


def check_matched_pair(mp: MatchedPairBundle, flavor: str, results: Results | None = None) -> Report:
    """The ("matched_pair", flavor) suite (flavor a key of FLAVORS) on a pair ``flavor_operators`` accepts, run through
    results (``Suite.run``): the mixed identities, the constituent axioms and the cross representations."""
    flavor_operators(flavor, "matched pairs", mp.left, mp.right)
    return SUITES["matched_pair", flavor].run(mp, results=results)


# -- suites ---------------------------------------------------------------------------------


class Step(NamedTuple):
    """One checker call of a suite.

    ``check`` names a checker of this module; it is looked up when the suite
    runs, so wrappers installed on the module apply.  ``args`` are the bundle
    fields it is called with ("" is the bundle itself, dots reach into
    sub-bundles).  The step is skipped when a field in ``needs`` is unset, a
    ``weighted`` step reads a differential's weight (``check --weight`` is
    refused unless one runs), and a ``prefix`` labels the cases of its report.
    """

    check: str
    args: tuple[str, ...] = ("",)
    needs: tuple[str, ...] = ()
    weighted: bool = False
    prefix: str = ""


#: checker reports computed once within one call: (checker, id of each argument) -> (report, the arguments), the
#: arguments kept so that no id is reused while the dict lives
Results = dict[tuple, tuple[Report, list]]


def _field(bundle: Any, path: str) -> Any:
    return attrgetter(path)(bundle) if path else bundle


def _at_weight(x: Any, weight: Fraction) -> Any:
    """x rebuilt with every Differential in it, and in every bundle among its fields, at the weight."""
    if isinstance(x, Differential):
        return Differential(x.matrix, weight)
    bundle = is_dataclass(x) and not isinstance(x, (Matrix, Tensor3))
    return replace(x, **{f.name: _at_weight(getattr(x, f.name), weight) for f in fields(x)}) if bundle else x


@dataclass(frozen=True)
class Suite:
    """An ordered list of checker steps, run on one bundle into one Report."""

    steps: tuple[Step, ...]

    def steps_on(self, bundle: Any) -> list[Step]:
        """The steps that run on the bundle: those whose needed fields are all set."""
        return [s for s in self.steps if not s.needs or all(_field(bundle, f) is not None for f in s.needs)]

    def run(self, bundle: Any, weight: Fraction | None = None, results: Results | None = None) -> Report:
        """The steps' reports, merged in order, on the bundle rebuilt once with every differential at weight if one is
        given.  Each step calls its checker, unless a results dict is passed: then a key of its checker and argument ids
        reuses its report or stores a new one, and no key crosses weights, a rebuilt bundle being a new object."""
        bundle = bundle if weight is None else _at_weight(bundle, weight)
        reports = []
        for step in self.steps_on(bundle):
            args = [_field(bundle, f) for f in step.args]
            if results is None:
                report = globals()[step.check](*args)
            else:
                key = (step.check, *map(id, args))
                done = results.get(key)
                if done is None:
                    done = results[key] = globals()[step.check](*args), args
                report = done[0]
            reports.append(report.prefixed(step.prefix) if step.prefix else report)
        return Report(()).merged(*reports)


def _on(field: str, steps: tuple[Step, ...], prefix: str = "") -> tuple[Step, ...]:
    """The steps of a sub-bundle's suite, run from the enclosing bundle, their cases labelled by prefix."""
    def at(path: str) -> str:
        return f"{field}.{path}" if path else field
    return tuple(s._replace(args=tuple(map(at, s.args)), needs=tuple(map(at, s.needs)), prefix=prefix) for s in steps)


_LIE, _COALG, _NIJENHUIS = Step("check_bihom_lie"), Step("check_bihom_coalgebra"), Step("check_nijenhuis_operator")
_LEIBNIZ, _CO_LEIBNIZ = Step("check_diff_leibniz", weighted=True), Step("check_diff_coalgebra", weighted=True)
_ALGEBRA_AUTO = (_LIE, _NIJENHUIS._replace(needs=("nijenhuis",)), _LEIBNIZ._replace(needs=("differential",)))
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
_REP, _REP_NIJENHUIS = Step("check_representation"), Step("check_nijenhuis_representation")
_REP_DIFFERENTIAL = Step("check_diff_rep", weighted=True)
_BIALGEBRA_SIDE = (Step("check_bihom_lie", ("algebra",)), Step("check_bihom_coalgebra", ("coalgebra",)), _COCYCLE)
#: flavour -> the ("algebra", flavour) steps, which a ("double", flavour) row runs on each factor and on the double
_FACTOR = {"bihom": (_LIE,), "nijenhuis": (_LIE, _NIJENHUIS), "differential": (_LIE, _LEIBNIZ)}


#: (field, case prefix) of the two algebras and of the two modules of a matched pair
_ALGEBRAS, _MODULES = (("left", "left"), ("right", "right")), (("rho_module", "rho"), ("h_module", "h"))


def _each(step: Step, factors: tuple[tuple[str, str], ...]) -> tuple[Step, ...]:
    return tuple(s for field, prefix in factors for s in _on(field, (step,), prefix))


_MATCHED_PAIR = _each(_LIE, _ALGEBRAS) + _each(_REP, _MODULES)

#: (bundle kind, suite name) -> the checkers that suite runs, in report order.
#: "auto" runs every checker whose operators the bundle carries.  The three
#: sides of a triad are three rows: "double" (the Manin side, run on a
#: DoubleBundle: each factor, the restriction, the double and its form),
#: "bialgebra" and "matched_pair" (what check_matched_pair runs).
SUITES: dict[tuple[str, str], Suite] = {key: Suite(steps) for key, steps in {
    ("algebra", "auto"): _ALGEBRA_AUTO,
    **{("algebra", flavor): steps for flavor, steps in _FACTOR.items()},
    ("algebra", "involution"): (Step("check_involution"),),
    ("coalgebra", "auto"): _COALGEBRA_AUTO,
    ("coalgebra", "bihom"): (_COALG,),
    ("coalgebra", "nijenhuis"): (_COALG, Step("check_nijenhuis_coalgebra")),
    ("coalgebra", "differential"): (_COALG, _CO_LEIBNIZ),
    ("representation", "auto"): (_REP, _REP_NIJENHUIS._replace(needs=("eta", "algebra.nijenhuis")),
                                 _REP_DIFFERENTIAL._replace(needs=("xi", "algebra.differential"))),
    ("representation", "bihom"): (_REP,),
    ("representation", "nijenhuis"): (_REP, _REP_NIJENHUIS),
    ("representation", "differential"): (_REP, _REP_DIFFERENTIAL),
    ("bialgebra", "auto"): (_on("algebra", _ALGEBRA_AUTO) + _on("coalgebra", _COALGEBRA_AUTO)
                            + (_COCYCLE, _ADJOINT, _DUAL, _PI, _DIFF_DUAL)),
    ("bialgebra", "nijenhuis"): _BIALGEBRA_SIDE + (
        Step("check_nijenhuis_operator", ("algebra",)), Step("check_nijenhuis_coalgebra", ("coalgebra",)),
        _ADJOINT, _DUAL),
    ("bialgebra", "differential"): (_BIALGEBRA_SIDE + _on("algebra", (_LEIBNIZ,)) + _on("coalgebra", (_CO_LEIBNIZ,))
                                    + (_PI, _DIFF_DUAL)),
    ("matched_pair", "bihom"): (Step("check_mixed"), *_MATCHED_PAIR),
    ("matched_pair", "nijenhuis"): (Step("check_mixed"), *_MATCHED_PAIR, *_each(_NIJENHUIS, _ALGEBRAS),
                                    *_each(_REP_NIJENHUIS, _MODULES)),
    ("matched_pair", "differential"): (Step("check_diff_mixed"), *_MATCHED_PAIR, *_each(_LEIBNIZ, _ALGEBRAS),
                                       *_each(_REP_DIFFERENTIAL, _MODULES)),
    **{("double", flavor): (_on("pair.left", steps, "left") + _on("pair.right", steps, "right")
                            + (Step("check_restriction", ("total", "pair.left", "pair.right")),)
                            + _on("total", steps, "double") + (Step("check_form", ("total", "form"), prefix="double"),))
       for flavor, steps in _FACTOR.items() if flavor != "bihom"},
}.items()}


def full_algebra_suite(a: AlgebraBundle) -> Report:
    """Everything claimable from the fields an algebra bundle carries."""
    return SUITES["algebra", "auto"].run(a)
