"""Constructive maps between bundles: duals, twists, semidirect products,
coadjoint doubles, bicrossed products, and adjoint maps of forms.

Constructions never silently validate: the ones with stated hypotheses return
their bundle together with the Report of those hypotheses.  Sign convention
for coadjoint actions: both actions use the representation convention
< rho*(u) w, v > = - < w, rho(u) v >; the variant with the plus sign (which
fails to be a representation on non-abelian inputs) stays available through
the ``convention`` argument for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    Differential,
    FormBundle,
    MatchedPairBundle,
    Report,
    RepresentationBundle,
    Residual,
    entry,
)
from .checks import (
    _SQUARES,
    WeightMismatch,
    _comultiplicativity,
    _commutator,
    _involution_note,
    _kernel_residual,
    _multiplicativity,
    check_diff_rep,
    check_matched_pair,
    check_nijenhuis_representation,
    check_representation,
    declares,
)
from .exact import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    Vector,
    ZERO,
    block_diag,
    contract,
    invert,
    lincomb,
    vec_sub,
)


class PreconditionFailed(ValueError):
    """A construction's stated hypothesis fails; carries the failing report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DoubleBundle:
    """An algebra on L + L* with the canonical pairing form and provenance."""

    total: AlgebraBundle
    form: FormBundle
    left: AlgebraBundle
    right: AlgebraBundle


# -- duals ---------------------------------------------------------------------


def dualize(x: AlgebraBundle | CoalgebraBundle) -> CoalgebraBundle | AlgebraBundle:
    """Transpose a structure across the canonical pairing.

    An algebra bundle read on the dual space becomes the coalgebra it is the
    dual of, and conversely; structure constants move by pure index
    transposition and every map becomes its dual-basis transpose.  Involution:
    dualize(dualize(x)) == x.
    """
    if isinstance(x, AlgebraBundle):
        n = x.dim
        cells = [[[x.bracket.entries[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)]
        codiff = Differential(x.differential.matrix.transpose(), x.differential.weight) if x.differential else None
        return CoalgebraBundle(
            n,
            Tensor3.from_entries(cells),
            x.alpha.transpose(),
            x.beta.transpose(),
            conijenhuis=x.nijenhuis.transpose() if x.nijenhuis is not None else None,
            codiff=codiff,
        )
    if isinstance(x, CoalgebraBundle):
        n = x.dim
        cells = [[[x.comul.entries[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
        alpha = x.alpha.transpose()
        beta = x.beta.transpose()
        diff = Differential(x.codiff.matrix.transpose(), x.codiff.weight) if x.codiff else None
        ident = Matrix.identity(n)
        kind = "lie" if alpha == ident and beta == ident else "bihom-lie"
        return AlgebraBundle(
            n,
            Tensor3.from_entries(cells),
            alpha,
            beta,
            nijenhuis=x.conijenhuis.transpose() if x.conijenhuis is not None else None,
            differential=diff,
            kind=kind,
        )
    raise TypeError(f"cannot dualize {type(x).__name__}")


def dual_representation(r: RepresentationBundle) -> RepresentationBundle:
    """Module structure on the dual space: actions negated-transposed, the
    auxiliary maps transposed."""
    return RepresentationBundle(
        r.algebra,
        r.vdim,
        tuple(m.transpose().neg() for m in r.rho),
        r.p.transpose(),
        r.q.transpose(),
        eta=r.eta.transpose() if r.eta is not None else None,
        xi=r.xi.transpose() if r.xi is not None else None,
    )


def coadjoint_rep(a: AlgebraBundle) -> tuple[Matrix, ...]:
    """Action of the algebra on its dual space: x acts by minus the transpose
    of ad_x, so < x . w, v > = - < w, [x, v] >."""
    n = a.dim
    out = []
    for i in range(n):
        ad = Matrix.from_columns([a.bracket_basis(i, k) for k in range(n)])
        out.append(ad.transpose().neg())
    return tuple(out)


def dual_action_on_primal(dual_algebra: AlgebraBundle, convention: str = "representation") -> tuple[Matrix, ...]:
    """Action of an algebra living on the dual space back on the primal space.

    With the default representation convention the pairing identity reads
    < f . x, g > = - < x, [f, g] >.  convention="plus" keeps the opposite
    sign; it satisfies < f . x, g > = < x, [f, g] > but is only an
    anti-representation and breaks the double bracket on non-abelian inputs.
    """
    n = dual_algebra.dim
    sign = -1 if convention == "representation" else 1
    if convention not in ("representation", "plus"):
        raise ValueError(f"unknown convention {convention!r}")
    out = []
    for i in range(n):
        # entry [k][j] of the action of the i-th dual basis vector
        rows = [[sign * dual_algebra.bracket.entries[i][k][j] for j in range(n)] for k in range(n)]
        out.append(Matrix.from_rows(rows))
    return tuple(out)


# -- twists --------------------------------------------------------------------


def _endomorphism_report(bracket: Tensor3 | None, comul: Tensor3 | None,
                         alpha: Matrix, beta: Matrix) -> Report:
    maps = (("alpha", alpha), ("beta", beta))
    entries = [entry("bihom_multiplicativity", "alpha-beta-commute", Residual.from_matrix(_commutator(alpha, beta)))]
    if bracket is not None:
        entries += [entry("bihom_multiplicativity", f"{label}-endomorphism", _multiplicativity(bracket, m))
                    for label, m in maps]
    if comul is not None:
        entries += [entry("co_comultiplicativity", f"{label}-endomorphism", _comultiplicativity(comul, m))
                    for label, m in maps]
    return Report(tuple(entries))


def _require_untwisted(alpha: Matrix, beta: Matrix, what: str) -> None:
    ident = Matrix.identity(alpha.rows)
    if alpha != ident or beta != ident:
        raise PreconditionFailed(f"{what} must carry identity structure maps before twisting")


def _twist_bracket(bracket: Tensor3, alpha: Matrix, beta: Matrix) -> Tensor3:
    out = contract(bracket, 0, alpha.transpose())
    return contract(out, 1, beta.transpose())


def _twist_comul(comul: Tensor3, alpha: Matrix, beta: Matrix) -> Tensor3:
    out = contract(comul, 1, alpha)
    return contract(out, 2, beta)


def yau_twist(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle,
              alpha: Matrix, beta: Matrix) -> tuple[AlgebraBundle | CoalgebraBundle | BialgebraBundle, Report]:
    """Twist a plain Lie structure by two commuting endomorphisms.

    The bracket becomes {x,y} = [alpha(x), beta(y)], the comultiplication
    (alpha (x) beta) Delta; the supplied maps become the structure maps of the
    result.  Raises PreconditionFailed with the violated residual if the maps
    do not commute or are not endomorphisms (or, for a bialgebra input, if
    alpha is singular).
    """
    if isinstance(b, BialgebraBundle):
        _require_untwisted(b.algebra.alpha, b.algebra.beta, "bialgebra")
        report = _endomorphism_report(b.algebra.bracket, b.coalgebra.comul, alpha, beta)
        if not report.ok:
            raise PreconditionFailed("supplied maps are not commuting bialgebra endomorphisms", report)
        try:
            invert(alpha)
        except Exception as exc:
            raise PreconditionFailed(f"alpha must be invertible to twist a bialgebra: {exc}") from exc
        alg = AlgebraBundle(b.dim, _twist_bracket(b.algebra.bracket, alpha, beta), alpha, beta,
                            nijenhuis=b.algebra.nijenhuis, differential=b.algebra.differential, kind="bihom-lie")
        co = CoalgebraBundle(b.dim, _twist_comul(b.coalgebra.comul, alpha, beta), alpha, beta,
                             conijenhuis=b.coalgebra.conijenhuis, codiff=b.coalgebra.codiff)
        return BialgebraBundle(alg, co), report
    if isinstance(b, AlgebraBundle):
        _require_untwisted(b.alpha, b.beta, "algebra")
        report = _endomorphism_report(b.bracket, None, alpha, beta)
        if not report.ok:
            raise PreconditionFailed("supplied maps are not commuting bracket endomorphisms", report)
        return AlgebraBundle(b.dim, _twist_bracket(b.bracket, alpha, beta), alpha, beta,
                             nijenhuis=b.nijenhuis, differential=b.differential, kind="bihom-lie"), report
    if isinstance(b, CoalgebraBundle):
        _require_untwisted(b.alpha, b.beta, "coalgebra")
        report = _endomorphism_report(None, b.comul, alpha, beta)
        if not report.ok:
            raise PreconditionFailed("supplied maps are not commuting comultiplication endomorphisms", report)
        return CoalgebraBundle(b.dim, _twist_comul(b.comul, alpha, beta), alpha, beta,
                               conijenhuis=b.conijenhuis, codiff=b.codiff), report
    raise TypeError(f"cannot twist {type(b).__name__}")


def untwist(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle) -> AlgebraBundle | CoalgebraBundle | BialgebraBundle:
    """Undo a twist: compose with the inverses and reset the maps to identity."""
    if isinstance(b, BialgebraBundle):
        return BialgebraBundle(untwist(b.algebra), untwist(b.coalgebra))
    if isinstance(b, AlgebraBundle):
        ainv, binv = invert(b.alpha), invert(b.beta)
        ident = Matrix.identity(b.dim)
        return AlgebraBundle(b.dim, _twist_bracket(b.bracket, ainv, binv), ident, ident,
                             nijenhuis=b.nijenhuis, differential=b.differential, kind="lie")
    if isinstance(b, CoalgebraBundle):
        ainv, binv = invert(b.alpha), invert(b.beta)
        ident = Matrix.identity(b.dim)
        return CoalgebraBundle(b.dim, _twist_comul(b.comul, ainv, binv), ident, ident,
                               conijenhuis=b.conijenhuis, codiff=b.codiff)
    raise TypeError(f"cannot untwist {type(b).__name__}")


def hom_specialize(b: BialgebraBundle, alpha: Matrix) -> tuple[BialgebraBundle, Report]:
    """One-map specialization: bracket postcomposed with alpha, comultiplication
    precomposed, both structure maps set to alpha."""
    _require_untwisted(b.algebra.alpha, b.algebra.beta, "bialgebra")
    report = _endomorphism_report(b.algebra.bracket, b.coalgebra.comul, alpha, alpha)
    if not report.ok:
        raise PreconditionFailed("supplied map is not a bialgebra endomorphism", report)
    bracket = contract(b.algebra.bracket, 2, alpha)
    comul = contract(b.coalgebra.comul, 0, alpha.transpose())
    alg = AlgebraBundle(b.dim, bracket, alpha, alpha,
                        nijenhuis=b.algebra.nijenhuis, differential=b.algebra.differential, kind="bihom-lie")
    co = CoalgebraBundle(b.dim, comul, alpha, alpha,
                         conijenhuis=b.coalgebra.conijenhuis, codiff=b.coalgebra.codiff)
    return BialgebraBundle(alg, co), report


# -- products --------------------------------------------------------------------

_FLAVORS = ("bihom", "nijenhuis", "differential")


def _assemble_bracket(n: int, m: int, ll, lv, vl, vv) -> Tensor3:
    """Structure constants on a direct sum from the four block evaluators."""
    total = n + m
    cells = [[[ZERO] * total for _ in range(total)] for _ in range(total)]

    def put(i: int, j: int, head: Vector, tail: Vector) -> None:
        cells[i][j] = list(head) + list(tail)

    zl, zv = tuple([ZERO] * n), tuple([ZERO] * m)
    for i in range(n):
        for j in range(n):
            put(i, j, ll(i, j), zv)
    for i in range(n):
        for b in range(m):
            head, tail = lv(i, b)
            put(i, n + b, head, tail)
    for a in range(m):
        for j in range(n):
            head, tail = vl(a, j)
            put(n + a, j, head, tail)
    for a in range(m):
        for b in range(m):
            put(n + a, n + b, zl, vv(a, b))
    return Tensor3.from_entries(cells)


def _neg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def _require_identity_maps(what: str, *maps: Matrix) -> None:
    if any(m != Matrix.identity(m.rows) for m in maps):
        raise PreconditionFailed(f"differential {what} need identity structure maps")


def _sum_algebra(bracket: Tensor3, alphas: tuple[Matrix, Matrix], betas: tuple[Matrix, Matrix],
                 flavor: str, ops: tuple[Matrix, Matrix] | None, weight: Fraction | None = None) -> AlgebraBundle:
    """The algebra on a direct sum with block-diagonal maps and, per flavour,
    the block-diagonal operator (none for "bihom")."""
    n, alpha, beta = bracket.shape[0], block_diag(*alphas), block_diag(*betas)
    if flavor == "differential":
        return AlgebraBundle(n, bracket, alpha, beta, differential=Differential(block_diag(*ops), weight), kind="lie")
    return AlgebraBundle(n, bracket, alpha, beta, nijenhuis=block_diag(*ops) if ops else None, kind="bihom-lie")


def semidirect_product(a: AlgebraBundle, r: RepresentationBundle, flavor: str) -> tuple[AlgebraBundle, Report]:
    """Algebra on L + V from a module candidate; the result passes the full
    suite exactly when the module axioms hold.

    flavor "nijenhuis" needs alpha and q invertible plus the operators N and
    eta; flavor "differential" needs xi and identity structure maps.
    """
    if r.algebra != a:
        raise DimensionMismatch("representation bundle does not belong to the given algebra")
    weight = None
    if flavor == "nijenhuis":
        ops = (a.require_nijenhuis(), r.require_eta())
        report = check_representation(r).merged(check_nijenhuis_representation(r))
    elif flavor == "differential":
        d = a.require_differential()
        ops, weight = (d.matrix, r.require_xi()), d.weight
        _require_identity_maps("semidirect products", a.alpha, a.beta, r.p, r.q)
        report = check_representation(r).merged(check_diff_rep(r))
    else:
        raise ValueError(f"unknown semidirect flavor {flavor!r}")
    n, m = a.dim, r.vdim
    ainv_b = invert(a.alpha) @ a.beta
    pq_inv = r.p @ invert(r.q)
    rho_of = [lincomb(r.rho, ainv_b.column(j)) for j in range(n)]  # rho(alpha^-1 beta e_j)
    zero_l, zero_v = tuple([ZERO] * n), tuple([ZERO] * m)
    bracket = _assemble_bracket(
        n, m, a.bracket_basis,
        lambda i, b: (zero_l, r.rho[i].column(b)),
        lambda av, j: (zero_l, _neg(rho_of[j].apply(pq_inv.column(av)))),
        lambda x, y: zero_v)
    return _sum_algebra(bracket, (a.alpha, r.p), (a.beta, r.q), flavor, ops, weight), report


def _bicrossed_algebra(mp: MatchedPairBundle, flavor: str, what: str) -> AlgebraBundle:
    """The algebra on L + V of a matched pair (L, V, rho, h) with maps
    (alpha, beta) on L and (p, q) on V:

        [x, u] = -h(p q^-1 u)(alpha^-1 beta x) + rho(x) u
        [u, x] = h(u) x - rho(alpha beta^-1 x)(p^-1 q u)

    With identity maps these are the untwisted matched-pair brackets, so one
    formula serves every flavour; the flavours differ in the operator block
    and its preconditions only.
    """
    L, V = mp.left, mp.right
    n, m = L.dim, V.dim
    weight = None
    if flavor == "nijenhuis":
        ops = (L.require_nijenhuis(), V.require_nijenhuis())
    elif flavor == "differential":
        dl, dv = L.require_differential(), V.require_differential()
        if dl.weight != dv.weight:
            raise WeightMismatch(f"weights differ: {dl.weight} vs {dv.weight}")
        _require_identity_maps(what, L.alpha, L.beta, V.alpha, V.beta)
        ops, weight = (dl.matrix, dv.matrix), dl.weight
    else:
        ops = None
    ainv_b = invert(L.alpha) @ L.beta
    a_binv = L.alpha @ invert(L.beta)
    pq_inv = V.alpha @ invert(V.beta)
    pinv_q = invert(V.alpha) @ V.beta
    h_of = [lincomb(mp.h, pq_inv.column(b)) for b in range(m)]  # h(p q^-1 f_b)
    rho_of = [lincomb(mp.rho, a_binv.column(j)) for j in range(n)]  # rho(alpha beta^-1 e_j)
    bracket = _assemble_bracket(
        n, m, L.bracket_basis,
        lambda i, b: (_neg(h_of[b].apply(ainv_b.column(i))), mp.rho[i].column(b)),
        lambda a, j: (mp.h[a].column(j), _neg(rho_of[j].apply(pinv_q.column(a)))),
        V.bracket_basis)
    return _sum_algebra(bracket, (L.alpha, V.alpha), (L.beta, V.beta), flavor, ops, weight)


def bicrossed_product(mp: MatchedPairBundle, flavor: str, symmetrized: bool = True) -> tuple[AlgebraBundle, Report]:
    """Algebra on L + V from a matched pair of mutually acting algebras.

    flavor in {"bihom", "nijenhuis", "differential"}.  The hypothesis report
    is the full matched-pair check; the construction is still carried out
    when it fails so that both directions of the equivalence can be exercised.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown bicrossed flavor {flavor!r}")
    return _bicrossed_algebra(mp, flavor, "bicrossed products"), check_matched_pair(mp, flavor, symmetrized)


def coadjoint_matched_pair(left: AlgebraBundle, right: AlgebraBundle,
                           convention: str = "representation") -> MatchedPairBundle:
    """The matched-pair candidate built from the two coadjoint actions."""
    if left.dim != right.dim:
        raise DimensionMismatch("coadjoint matched pair needs equal dimensions")
    return MatchedPairBundle(left, right, coadjoint_rep(left), dual_action_on_primal(right, convention))


def standard_double_form(n: int) -> FormBundle:
    """Canonical pairing on L + L*: the block-antidiagonal identity Gram."""
    cells = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        cells[i][n + i] = Fraction(1)
        cells[n + i][i] = Fraction(1)
    return FormBundle(Matrix.from_rows(cells))


def double_construction(left: AlgebraBundle, right: AlgebraBundle, flavor: str,
                        convention: str = "representation") -> tuple[DoubleBundle, Report]:
    """Algebra on L + L* from a base algebra and an algebra on its dual: the
    bicrossed product of their coadjoint matched pair, with the canonical
    pairing form.

    flavor in {"bihom", "nijenhuis", "differential"}.
    """
    mp = coadjoint_matched_pair(left, right, convention)
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown double flavor {flavor!r}")
    total = _bicrossed_algebra(mp, flavor, "doubles")
    return DoubleBundle(total, standard_double_form(left.dim), left, right), _restriction_report(total, left, right)


@declares(subalgebra="the combined bracket and operators restrict to the two factors")
def _restriction_report(total: AlgebraBundle, left: AlgebraBundle, right: AlgebraBundle) -> Report:
    """Verify the combined bracket restricts to the two factors (of equal dimension n)."""
    n = left.dim
    zero = tuple([ZERO] * n)

    def restriction(side: int, i: int, j: int) -> Vector:
        got = total.bracket.entries[side * n + i][side * n + j]
        want = left.bracket.entries[i][j] + zero if side == 0 else zero + right.bracket.entries[i][j]
        return vec_sub(got, want)

    return Report((entry("subalgebra", "bracket", Residual.tabulate((2, n, n), restriction)),))


# -- adjoint maps of forms ------------------------------------------------------------


def adjoint_map_wrt_form(n: Matrix, f: FormBundle) -> Matrix:
    """The adjoint of a map with respect to a nondegenerate form:
    gram^-1 . n^T . gram."""
    if (n.rows, n.cols) != (f.dim, f.dim):
        raise DimensionMismatch("map and form dimensions differ")
    g = f.gram
    return invert(g) @ n.transpose() @ g


@declares(rep_hom="phi rho1(x) = rho2(x) phi; phi eta1 = eta2 phi; phi p1 = p2 phi; phi q1 = q2 phi; phi bijective")
def rep_equivalence_iso(a: AlgebraBundle, f: FormBundle) -> tuple[Matrix, Report]:
    """The pairing map x -> B(x, -) as an intertwiner between the adjoint
    module and the dual module carrying the adjoint of the operator.

    Returns the matrix of the map together with the report of the
    intertwining identities and bijectivity.
    """
    N = a.require_nijenhuis()
    if f.dim != a.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    ntilde = adjoint_map_wrt_form(N, f)  # raises SingularMatrix on degenerate gram
    n = a.dim
    phi = f.gram.transpose()  # column i holds the pairing functional of e_i
    rho = coadjoint_rep(a)

    def intertwines(i: int) -> Matrix:
        ad = Matrix.from_columns([a.bracket_basis(i, k) for k in range(n)])
        return (phi @ ad).sub(rho[i] @ phi)

    return phi, Report((
        entry("rep_hom", "bracket", Residual.tabulate((n,), intertwines)),
        entry("rep_hom", "operator", Residual.from_matrix((phi @ N).sub(ntilde.transpose() @ phi))),
        entry("rep_hom", "alpha", Residual.from_matrix((phi @ a.alpha).sub(a.alpha.transpose() @ phi))),
        entry("rep_hom", "beta", Residual.from_matrix((phi @ a.beta).sub(a.beta.transpose() @ phi))),
        entry("rep_hom", "bijective", _kernel_residual(phi)),
    ), _involution_note(a, detail=_SQUARES))
