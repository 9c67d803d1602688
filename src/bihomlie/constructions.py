"""Constructive maps between bundles: duals, twists, products, doubles, and
adjoint maps of forms.

Constructions never silently validate: the ones with stated hypotheses return
their bundle together with the Report of those hypotheses.  Every product is
built by one bicrossed bracket (``_bicrossed_algebra``): the semidirect
product is its h = 0 case, and the double is the bicrossed product of the
coadjoint matched pair, whose two actions both use the representation sign
< x . w, v > = - < w, [x, v] >.  ``coadjoint_double`` is the one double
builder and checks nothing: its hypothesis, that the bracket restricts to the
two factors, is ``checks.check_restriction``, which the "double" suite runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CheckEntry,
    CoalgebraBundle,
    Differential,
    FormBundle,
    KINDS,
    MatchedPairBundle,
    Report,
    RepresentationBundle,
    Residual,
    require,
)
from .checks import (
    SUITES,
    PreconditionFailed,
    _action,
    _bracket,
    _comul,
    _comultiplicativity,
    _commutator,
    _inverse,
    _multiplicativity,
    _require_identity_maps,
    _stack,
    _tr,
    check_matched_pair,
    flavor_operators,
)
from .exact import (
    DimensionMismatch,
    Matrix,
    Row,
    Tensor3,
    Term,
    _shifted,
    _sum,
    block_diag,
    contract_sum,
)


@dataclass(frozen=True)
class DoubleBundle:
    """An algebra on L + L* with the canonical pairing form and provenance: the coadjoint matched pair of L and L*
    it is the bicrossed product of."""

    total: AlgebraBundle
    form: FormBundle
    pair: MatchedPairBundle


# -- duals ---------------------------------------------------------------------


def dualize(x: AlgebraBundle | CoalgebraBundle) -> CoalgebraBundle | AlgebraBundle:
    """Transpose a structure across the canonical pairing.

    An algebra bundle read on the dual space becomes the coalgebra it is the
    dual of, and conversely; structure constants move by pure index
    transposition and every map becomes its dual-basis transpose.  Involution:
    dualize(dualize(x)) == x.
    """
    if isinstance(x, AlgebraBundle):
        codiff = Differential(x.differential.matrix.transpose(), x.differential.weight) if x.differential else None
        return CoalgebraBundle(x.dim, x.bracket.transpose((2, 0, 1)), x.alpha.transpose(), x.beta.transpose(),
                               conijenhuis=_tr(x.nijenhuis), codiff=codiff)
    if isinstance(x, CoalgebraBundle):
        alpha, beta = x.alpha.transpose(), x.beta.transpose()
        diff = Differential(x.codiff.matrix.transpose(), x.codiff.weight) if x.codiff else None
        kind = "lie" if alpha.is_identity() and beta.is_identity() else "bihom-lie"
        return AlgebraBundle(x.dim, x.comul.transpose((1, 2, 0)), alpha, beta, nijenhuis=_tr(x.conijenhuis),
                             differential=diff, kind=kind)
    raise TypeError(f"cannot dualize {type(x).__name__}")


def dual_representation(r: RepresentationBundle) -> RepresentationBundle:
    """Module structure on the dual space: actions negated-transposed, the
    auxiliary maps transposed."""
    return RepresentationBundle(r.algebra, r.vdim, tuple(m.transpose().neg() for m in r.rho), r.p.transpose(),
                                r.q.transpose(), eta=_tr(r.eta), xi=_tr(r.xi))


def coadjoint_rep(a: AlgebraBundle) -> tuple[Matrix, ...]:
    """Action of the algebra on its dual space: x acts by minus the transpose
    of ad_x, so < x . w, v > = - < w, [x, v] >."""
    return tuple(Matrix(a.dim, a.dim, ad_t).neg() for ad_t in a.bracket.nz)  # plane i of the bracket is ad_{e_i}^T


# -- twists --------------------------------------------------------------------


def _parts(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle) -> tuple[AlgebraBundle | CoalgebraBundle, ...]:
    """(algebra, coalgebra) of a bialgebra, (b,) of an algebra or a coalgebra."""
    if isinstance(b, BialgebraBundle):
        return b.algebra, b.coalgebra
    if isinstance(b, (AlgebraBundle, CoalgebraBundle)):
        return (b,)
    raise TypeError(f"cannot twist {type(b).__name__}")


def _endomorphism_report(parts: tuple[AlgebraBundle | CoalgebraBundle, ...], alpha: Matrix, beta: Matrix) -> Report:
    entries = [CheckEntry("bihom_multiplicativity", "alpha-beta-commute", Residual.from_matrix(_commutator(alpha, beta)))]
    for part in parts:
        entries += [CheckEntry("bihom_multiplicativity", f"{label}-endomorphism", _multiplicativity(part.bracket, m))
                    if isinstance(part, AlgebraBundle) else
                    CheckEntry("co_comultiplicativity", f"{label}-endomorphism", _comultiplicativity(part.comul, m))
                    for label, m in (("alpha", alpha), ("beta", beta))]
    return Report(tuple(entries))


def _twistable(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle, alpha: Matrix, beta: Matrix,
               message: str) -> tuple[tuple[AlgebraBundle | CoalgebraBundle, ...], Report]:
    """The parts of b and the report that alpha and beta are commuting endomorphisms
    of them.  PreconditionFailed if b carries other than identity maps, or with
    message if the report fails."""
    parts = _parts(b)
    _require_identity_maps(f"{KINDS[type(b)]} must carry identity structure maps before twisting",
                           parts[0].alpha, parts[0].beta)
    report = _endomorphism_report(parts, alpha, beta)
    if not report.ok:
        raise PreconditionFailed(message, report)
    return parts, report


def _rebuilt(parts: tuple[AlgebraBundle | CoalgebraBundle, ...], bracket: Term, comul: Term,
             alpha: Matrix, beta: Matrix, kind: str = "bihom-lie") -> AlgebraBundle | CoalgebraBundle | BialgebraBundle:
    """The bundle of parts, brackets composed by the ``contract_sum`` term bracket, comultiplications by the
    term comul, with structure maps alpha, beta; every operator field is kept."""
    out = [replace(p, bracket=contract_sum(p.bracket, [bracket]), alpha=alpha, beta=beta, kind=kind)
           if isinstance(p, AlgebraBundle) else replace(p, comul=contract_sum(p.comul, [comul]), alpha=alpha, beta=beta)
           for p in parts]
    return BialgebraBundle(*out) if len(out) == 2 else out[0]


def yau_twist(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle,
              alpha: Matrix, beta: Matrix) -> tuple[AlgebraBundle | CoalgebraBundle | BialgebraBundle, Report]:
    """Twist a plain Lie structure by two commuting endomorphisms.

    The bracket becomes {x,y} = [alpha(x), beta(y)], the comultiplication
    (alpha (x) beta) Delta; the supplied maps become the structure maps of the
    result.  Raises PreconditionFailed with the violated residual if the maps
    do not commute or are not endomorphisms (or, for a bialgebra input, if
    alpha is singular).
    """
    structure = {AlgebraBundle: "bracket", CoalgebraBundle: "comultiplication"}.get(type(b), "bialgebra")
    parts, report = _twistable(b, alpha, beta, f"supplied maps are not commuting {structure} endomorphisms")
    if len(parts) == 2:
        _inverse(alpha, "alpha must be invertible to twist a bialgebra", PreconditionFailed)
    return _rebuilt(parts, _bracket(1, alpha, beta), _comul(1, None, alpha, beta), alpha, beta), report


def untwist(b: AlgebraBundle | CoalgebraBundle | BialgebraBundle) -> AlgebraBundle | CoalgebraBundle | BialgebraBundle:
    """Undo a twist: compose with the inverses and reset the maps to identity."""
    parts = _parts(b)
    ainv, binv = (_inverse(getattr(parts[0], m), f"{m} must be invertible to untwist") for m in ("alpha", "beta"))
    ident = Matrix.identity(b.dim)
    return _rebuilt(parts, _bracket(1, ainv, binv), _comul(1, None, ainv, binv), ident, ident, "lie")


def hom_specialize(b: BialgebraBundle, alpha: Matrix) -> tuple[BialgebraBundle, Report]:
    """One-map specialization: bracket postcomposed with alpha, comultiplication
    precomposed, both structure maps set to alpha."""
    parts, report = _twistable(b, alpha, alpha, "supplied map is not a bialgebra endomorphism")
    return _rebuilt(parts, _bracket(1, out=alpha), _comul(1, alpha), alpha, alpha), report


# -- products --------------------------------------------------------------------


def semidirect_product(a: AlgebraBundle, r: RepresentationBundle, flavor: str) -> tuple[AlgebraBundle, Report]:
    """Algebra on L + V from a module candidate: the bicrossed product of L
    and the abelian algebra on V with maps (p, q), acting by rho, with h = 0.
    The result passes the full suite exactly when the module axioms hold.

    flavor is a key of ``checks.FLAVORS``: "nijenhuis" needs alpha and q
    invertible plus the operators N and eta, "differential" needs xi and
    identity structure maps.  The hypothesis report is the
    ("representation", flavor) suite.
    """
    if r.algebra != a:
        raise DimensionMismatch("representation bundle does not belong to the given algebra")
    m = r.vdim
    eta = require(r, "eta") if flavor == "nijenhuis" else r.eta
    weight = require(a, "differential").weight if flavor == "differential" else None
    v = AlgebraBundle(m, Tensor3.zeros((m, m, m)), r.p, r.q, nijenhuis=eta,
                      differential=None if weight is None else Differential(require(r, "xi"), weight))
    zero_h = tuple(Matrix.zeros(a.dim, a.dim) for _ in range(m))
    product = _bicrossed_algebra(MatchedPairBundle(a, v, r.rho, zero_h), flavor, "semidirect products")
    return product, SUITES["representation", flavor].run(r)


def _bicrossed_algebra(mp: MatchedPairBundle, flavor: str, what: str) -> AlgebraBundle:
    """The algebra on L + V of a matched pair (L, V, rho, h) with maps
    (alpha, beta) on L and (p, q) on V:

        [x, u] = -h(p^-1 q u)(alpha beta^-1 x) + rho(x) u
        [u, x] = h(u) x - rho(alpha^-1 beta x)(p q^-1 u)

    Both follow from twisted antisymmetry [a, b] = -[beta alpha^-1 b,
    alpha beta^-1 a].  With identity maps these are the untwisted
    matched-pair brackets, so one formula serves every flavour, the double
    and (h = 0, V abelian) the semidirect product; the flavours differ in the
    operator block and its preconditions (``flavor_operators``) only.  The h
    term of [x, u], the only one that needs p^-1 and beta^-1, is built only
    when h is nonzero.
    """
    L, V = mp.left, mp.right
    ops, weight = flavor_operators(flavor, what, L, V)
    n, m = L.dim, V.dim
    rho, h = _stack(mp.rho), _stack(mp.h)
    # the L and V parts of [e_i, f_b] (rows [i][b]) and of [f_a, e_j] (rows [a][j])
    rho_xu, h_ux = rho.transpose((0, 2, 1)).nz, h.transpose((0, 2, 1)).nz  # rho(e_i) f_b, h(f_a) e_j
    why = f"must be invertible to build {what}"
    ainv_b = _inverse(L.alpha, f"alpha of the left factor {why}") @ L.beta
    pq_inv = V.alpha @ _inverse(V.beta, f"beta of the right factor (q) {why}")
    # -rho(alpha^-1 beta e_j) p q^-1 f_a, and -h(p^-1 q f_b) alpha beta^-1 e_i
    rho_ux = contract_sum(rho, [_action(-1, ainv_b, right=pq_inv)]).transpose((2, 0, 1)).nz
    h_xu = Tensor3.zeros((n, m, n)).nz
    if not h.is_zero():
        term = _action(-1, _inverse(V.alpha, f"alpha of the right factor (p) {why}") @ V.beta,
                       right=L.alpha @ _inverse(L.beta, f"beta of the left factor {why}"))
        h_xu = contract_sum(h, [term]).transpose((2, 0, 1)).nz

    def cell(left: Row, right: Row) -> Row:  # [g_i, g_j] on the basis (e_1..e_n, f_1..f_m)
        return _sum(left, _shifted(right, n), 1)

    rows = [L.bracket.nz[i] + tuple(cell(h_xu[i][b], rho_xu[i][b]) for b in range(m)) for i in range(n)]
    rows += [tuple(cell(h_ux[a][j], rho_ux[a][j]) for j in range(n)) + tuple(_shifted(r, n) for r in V.bracket.nz[a])
             for a in range(m)]
    bracket = Tensor3((n + m,) * 3, tuple(rows))
    alpha, beta = block_diag(L.alpha, V.alpha), block_diag(L.beta, V.beta)
    if weight is not None:
        return AlgebraBundle(n + m, bracket, alpha, beta, differential=Differential(block_diag(*ops), weight),
                             kind="lie")
    return AlgebraBundle(n + m, bracket, alpha, beta, nijenhuis=block_diag(*ops) if ops else None, kind="bihom-lie")


def bicrossed_product(mp: MatchedPairBundle, flavor: str) -> tuple[AlgebraBundle, Report]:
    """Algebra on L + V from a matched pair of mutually acting algebras.

    flavor is a key of ``checks.FLAVORS``.  The hypothesis report is the full
    matched-pair check; the construction is still carried out when it fails
    so that both directions of the equivalence can be exercised.
    """
    return _bicrossed_algebra(mp, flavor, "bicrossed products"), check_matched_pair(mp, flavor)


def coadjoint_matched_pair(left: AlgebraBundle, right: AlgebraBundle) -> MatchedPairBundle:
    """The matched-pair candidate built from the two coadjoint actions."""
    if left.dim != right.dim:
        raise DimensionMismatch("coadjoint matched pair needs equal dimensions")
    return MatchedPairBundle(left, right, coadjoint_rep(left), coadjoint_rep(right))


def standard_double_form(n: int) -> FormBundle:
    """Canonical pairing on L + L*: the block-antidiagonal identity Gram."""
    return FormBundle(Matrix(2 * n, 2 * n, tuple((1, (((i + n) % (2 * n), 1),)) for i in range(2 * n))))


def coadjoint_double(left: AlgebraBundle, right: AlgebraBundle, flavor: str) -> DoubleBundle:
    """Algebra on L + L* from a base algebra and an algebra on its dual, no hypothesis checked: the bicrossed product
    of their coadjoint matched pair, with the canonical pairing form.  flavor is a key of ``checks.FLAVORS``."""
    pair = coadjoint_matched_pair(left, right)
    return DoubleBundle(_bicrossed_algebra(pair, flavor, "doubles"), standard_double_form(left.dim), pair)


# -- adjoint maps of forms ------------------------------------------------------------


def adjoint_map_wrt_form(n: Matrix, f: FormBundle) -> Matrix:
    """The adjoint of a map with respect to a nondegenerate form:
    gram^-1 . n^T . gram."""
    if (n.rows, n.cols) != (f.dim, f.dim):
        raise DimensionMismatch("map and form dimensions differ")
    g = f.gram
    return _inverse(g, "gram must be invertible to take the adjoint of a map") @ n.transpose() @ g
