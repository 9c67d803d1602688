"""Deterministic corpus builders shared by the harness and acceptance tests.

All randomness flows through seeded ``random.Random`` instances so repeated
runs exercise identical instances.
"""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

from bihomlie import bundles
from bihomlie.bundles import (AlgebraBundle, BialgebraBundle, CoalgebraBundle, Differential, MatchedPairBundle,
                              Report, RepresentationBundle)
from bihomlie.checks import SUITES, _bracket, _comul, check_form, check_matched_pair, check_restriction
from bihomlie.constructions import coadjoint_double, coadjoint_matched_pair, dualize
from bihomlie.exact import Matrix, SingularMatrix, Tensor3, contract_sum, invert, scalar

#: diagonal tori (t, s) of aff2-shaped twists, alpha = diag(1, t) and beta = diag(1, s); the first three are
#: involutive, each its own transpose and inverse
TORI = [(-1, 1), (1, -1), (-1, -1),
        (2, 3), (2, 1), (1, 3), ("1/2", -2), (3, 3)]
INVOLUTIVE_TORI = TORI[:3]

SCALARS = [scalar(x) for x in ("0", "1", "-1", "2", "1/2", "-3/2", "3", "2/3", "-1/3", "5/2", "-2", "4", "1/4")]


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rational(r: random.Random) -> Fraction:
    return Fraction(r.randint(-3, 3), r.randint(1, 3))


def nonzero_rational(r: random.Random) -> Fraction:
    while True:
        x = rational(r)
        if x != 0:
            return x


def scalar_op(b: AlgebraBundle, c) -> AlgebraBundle:
    return dataclasses.replace(b, nijenhuis=Matrix.identity(b.dim).scale(scalar(c)))


def with_diff(b: AlgebraBundle, m: Matrix, w) -> AlgebraBundle:
    return dataclasses.replace(b, differential=Differential(m, scalar(w)))


def contract(t: Tensor3, axis: int, m: Matrix) -> Tensor3:
    """t with one axis transformed by m: the one-term ``contract_sum``."""
    return contract_sum(t, [(1, tuple(m if a == axis else None for a in range(3)))])


def perturb_matrix(m: Matrix, r: random.Random) -> Matrix:
    i = r.randrange(m.rows)
    j = r.randrange(m.cols)
    rows = [list(row) for row in m.entries]
    rows[i][j] += nonzero_rational(r)
    return Matrix.from_rows(rows)


def perturb_tensor3(t: Tensor3, r: random.Random) -> Tensor3:
    i = r.randrange(t.shape[0])
    j = r.randrange(t.shape[1])
    k = r.randrange(t.shape[2])
    cells = [[list(row) for row in plane] for plane in t.entries]
    cells[i][j][k] += nonzero_rational(r)
    return Tensor3.from_entries(cells)


def perturb_algebra(b: AlgebraBundle, r: random.Random) -> AlgebraBundle:
    """Perturb one entry of the bracket or an operator (never the alpha/beta
    maps, so dual coherence preconditions stay intact)."""
    targets = ["bracket"]
    if b.nijenhuis is not None:
        targets.append("nijenhuis")
    if b.differential is not None:
        targets.append("differential")
    choice = r.choice(targets)
    b = dataclasses.replace(b, kind="bihom-lie")
    if choice == "bracket":
        return dataclasses.replace(b, bracket=perturb_tensor3(b.bracket, r))
    if choice == "nijenhuis":
        return dataclasses.replace(b, nijenhuis=perturb_matrix(b.nijenhuis, r))
    return dataclasses.replace(b, differential=Differential(perturb_matrix(b.differential.matrix, r), b.differential.weight))


def twisted(a: AlgebraBundle, alpha, beta) -> AlgebraBundle:
    """Yau twist by diagonal maps: {e_i, e_j} = alpha_i beta_j [e_i, e_j]."""
    alpha, beta = [scalar(x) for x in alpha], [scalar(x) for x in beta]
    n = a.dim
    cells = [[[alpha[i] * beta[j] * x for x in a.bracket.entries[i][j]] for j in range(n)] for i in range(n)]
    return dataclasses.replace(a, bracket=Tensor3.from_entries(cells), alpha=Matrix.diagonal(alpha),
                               beta=Matrix.diagonal(beta), kind="bihom-lie")


def gl(n: int) -> AlgebraBundle:
    """gl(n) on the basis E_ij (index i*n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    dim = n * n
    cells = [[[scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out = cells[i * n + j][k * n + l]
        if j == k:
            out[i * n + l] += 1
        if l == i:
            out[k * n + j] -= 1
    ident = Matrix.identity(dim)
    return AlgebraBundle(dim, Tensor3.from_entries(cells), ident, ident, kind="lie")


def dense_matrix(n: int, seed: int) -> Matrix:
    """An n x n matrix of entries p / q, -3 <= p <= 3 and q in {1, 2}, drawn from the seed; invertible at n = seed
    = 16."""
    r = random.Random(seed)
    return Matrix.from_rows([[Fraction(r.randint(-3, 3), r.randint(1, 2)) for _ in range(n)] for _ in range(n)])


def gl_torus(n: int, t, s) -> AlgebraBundle:
    """gl(n) twisted by the torus automorphisms E_ij -> (t_i/t_j) E_ij and (s_i/s_j) E_ij."""
    t, s = [scalar(x) for x in t], [scalar(x) for x in s]
    ratios = [(t[i] / t[j], s[i] / s[j]) for i in range(n) for j in range(n)]
    return twisted(gl(n), [a for a, _ in ratios], [b for _, b in ratios])


# -- basis change: an instance carried to an isomorphic one whose maps are dense ---------------


def change_of_basis(n: int, r: random.Random) -> Matrix:
    """A seeded invertible integer matrix with entries in [-2, 2] and more than n + 1 nonzeros, so that it is no
    permuted diagonal."""
    while True:
        p = Matrix.from_rows([[r.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if sum(len(pairs) for _, pairs in p.nz) > n + 1:
            try:
                invert(p)
                return p
            except SingularMatrix:
                pass


def _conjugated(m: Matrix | None, p: Matrix, p_inv: Matrix) -> Matrix | None:
    return None if m is None else p_inv @ m @ p


def transported(a: AlgebraBundle, p: Matrix) -> AlgebraBundle:
    """The algebra carried by the change of basis p: [x, y]' = p^-1 [px, py], through ``contract_sum``, and every
    map m, the differential's included, becomes p^-1 m p."""
    p_inv = invert(p)
    d = a.differential
    return dataclasses.replace(
        a, bracket=contract_sum(a.bracket, [_bracket(1, p, p, p_inv)]), alpha=_conjugated(a.alpha, p, p_inv),
        beta=_conjugated(a.beta, p, p_inv), nijenhuis=_conjugated(a.nijenhuis, p, p_inv),
        differential=d and Differential(_conjugated(d.matrix, p, p_inv), d.weight))


def transported_coalgebra(c: CoalgebraBundle, q: Matrix) -> CoalgebraBundle:
    """The coalgebra carried by the change of basis q: D'(x) = (q^-1 (x) q^-1) D(qx), and every map m becomes
    q^-1 m q.  The dual of an algebra carried by p is carried by q = p^-T."""
    q_inv = invert(q)
    d = c.codiff
    return dataclasses.replace(
        c, comul=contract_sum(c.comul, [_comul(1, q, q_inv, q_inv)]), alpha=_conjugated(c.alpha, q, q_inv),
        beta=_conjugated(c.beta, q, q_inv), conijenhuis=_conjugated(c.conijenhuis, q, q_inv),
        codiff=d and Differential(_conjugated(d.matrix, q, q_inv), d.weight))


def _pre_post(act: tuple[Matrix, ...], pre: Matrix, post: Matrix) -> tuple[Matrix, ...]:
    """The action e_i -> act(pre e_i) post, summed over the basis."""
    n = len(act)
    return tuple(functools.reduce(Matrix.add, [act[k].scale(pre.entries[k][i]) for k in range(n)]) @ post
                 for i in range(n))


def twisted_pair(mp: MatchedPairBundle, a: Matrix, b: Matrix, p: Matrix, q: Matrix) -> MatchedPairBundle:
    """The pair (L_ab, V_pq, rho(a -) q, h(p -) b): L and V Yau-twisted by commuting automorphisms a, b and p, q."""
    from bihomlie.constructions import yau_twist

    left, _ = yau_twist(mp.left, a, b)
    right, _ = yau_twist(mp.right, p, q)
    return MatchedPairBundle(left, right, _pre_post(mp.rho, a, q), _pre_post(mp.h, p, b))


def sl2_standard_bialgebra() -> BialgebraBundle:
    """The standard Lie bialgebra on sl2 (basis h, e, f): Delta(h) = 0, Delta(e) = e ^ h, Delta(f) = f ^ h, the
    coboundary of r = e ^ f."""
    cells = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cells[1][1][0] = cells[2][2][0] = 1
    cells[1][0][1] = cells[2][0][2] = -1
    ident = Matrix.identity(3)
    return BialgebraBundle(bundles.sl2(), CoalgebraBundle(3, Tensor3.from_entries(cells), ident, ident))


def antisym_dual2(u, v) -> AlgebraBundle:
    """Dimension-2 algebra on the dual space with bracket [f1,f2] = u f1 + v f2."""
    u, v = scalar(u), scalar(v)
    cells = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cells[0][1] = [u, v]
    cells[1][0] = [-u, -v]
    kind = "lie"
    return AlgebraBundle(2, Tensor3.from_entries(cells), Matrix.identity(2), Matrix.identity(2), kind=kind)


def adjoint_rep(b: AlgebraBundle, eta: Matrix | None = None, xi: Matrix | None = None) -> RepresentationBundle:
    """rho = ad, p = alpha, q = beta."""
    n = b.dim
    rho = tuple(Matrix.from_columns(b.bracket.entries[i]) for i in range(n))
    return RepresentationBundle(b, n, rho, b.alpha, b.beta, eta=eta, xi=xi)


def zero_rep(b: AlgebraBundle, vdim: int, p: Matrix | None = None, q: Matrix | None = None,
             eta: Matrix | None = None, xi: Matrix | None = None) -> RepresentationBundle:
    rho = tuple(Matrix.zeros(vdim, vdim) for _ in range(b.dim))
    return RepresentationBundle(b, vdim, rho, p or Matrix.identity(vdim), q or Matrix.identity(vdim), eta=eta, xi=xi)


def reproducer_pair(c) -> MatchedPairBundle:
    """Twisted non-involutive sl2 acting by ad on an abelian V with p = alpha,
    q = beta and h = 0: a valid matched pair whose bicrossed product failed
    while the twisted bracket applied alpha beta^-1 where alpha^-1 beta
    belongs (and p^-1 q where p q^-1 belongs)."""
    left = twisted(scalar_op(bundles.sl2(), c), [1, 2, "1/2"], [1, 3, "1/3"])
    right = dataclasses.replace(scalar_op(bundles.abelian(3), c), alpha=left.alpha, beta=left.beta,
                                kind="bihom-lie")
    zero = tuple(Matrix.zeros(3, 3) for _ in range(3))
    return MatchedPairBundle(left, right, adjoint_rep(left).rho, zero)


def aff2_derivation(a21, a22) -> Matrix:
    """The general derivation of aff2 (first column free in the e2 slot)."""
    return Matrix.from_rows([[0, 0], [scalar(a21), scalar(a22)]])


# -- triad families ---------------------------------------------------------------


def nijenhuis_triad_family() -> list[tuple[AlgebraBundle, AlgebraBundle]]:
    """The base-family instances: all should be all-true."""
    aff = bundles.aff2()
    out = []
    for n_op in ("0", "1", "2", "-3/2"):
        for s_op in ("0", "1", "1/2"):
            out.append((scalar_op(aff, n_op), scalar_op(bundles.abelian(2), s_op)))
    # non-abelian duals stay compatible with scalar operators
    for u, v in (("0", "1"), ("1", "0"), ("2", "-1/2")):
        out.append((scalar_op(aff, "1"), scalar_op(antisym_dual2(u, v), "1")))
        out.append((scalar_op(aff, "-2"), scalar_op(antisym_dual2(u, v), "1/3")))
    out.append((scalar_op(bundles.abelian(2), "0"), scalar_op(bundles.abelian(2), "0")))
    return out


def unshared_triad(left: AlgebraBundle, right: AlgebraBundle, flavor: str) -> tuple[Report, Report, Report]:
    """The (manin, bialgebra, matched pair) reports of a triad, each side computed on its own, with a fresh double
    and a fresh coadjoint pair: the oracle for the triads' shared results.  The Manin side is assembled by hand from
    the factor suites, ``check_restriction`` and ``check_form``, not read off its row."""
    factor = SUITES["algebra", flavor]
    double = coadjoint_double(left, right, flavor)
    restrict = check_restriction(double.total, left, right)
    manin = Report(()).merged(factor.run(left).prefixed("left"), factor.run(right).prefixed("right"), restrict,
                              factor.run(double.total).merged(check_form(double.total, double.form)).prefixed("double"))
    bialgebra = SUITES["bialgebra", flavor].run(BialgebraBundle(left, dualize(right)))
    return manin, bialgebra, check_matched_pair(coadjoint_matched_pair(left, right), flavor)


def differential_triad_family() -> list[tuple[AlgebraBundle, AlgebraBundle]]:
    aff = bundles.aff2()
    ab = bundles.abelian(2)
    out = []
    zero = Matrix.zeros(2, 2)
    for w in ("0", "1", "-2", "1/2"):
        for s in ("0", "1", "-1/2"):
            out.append((with_diff(aff, zero, w), with_diff(ab, Matrix.identity(2).scale(scalar(s)), w)))
    for u, v in (("0", "1"), ("1", "-1")):
        out.append((with_diff(aff, zero, "3"), with_diff(antisym_dual2(u, v), zero, "3")))
    r = rng(1202)
    for w in ("0", "2", "-1/3"):
        d = Matrix.from_rows([[rational(r) for _ in range(2)] for _ in range(2)])
        dd = Matrix.from_rows([[rational(r) for _ in range(2)] for _ in range(2)])
        out.append((with_diff(ab, d, w), with_diff(bundles.abelian(2), dd, w)))
    return out


# -- representation corpora ----------------------------------------------------------


def semidirect_valid(count: int) -> list[tuple[AlgebraBundle, RepresentationBundle]]:
    out = []
    algebras = [bundles.aff2(), bundles.sl2(), bundles.abelian(2), bundles.abelian(3)]
    for base in algebras:
        for c in SCALARS[:7]:
            alg = scalar_op(base, c)
            eta = Matrix.identity(alg.dim).scale(c) if c != 0 else Matrix.zeros(alg.dim, alg.dim)
            out.append((alg, adjoint_rep(alg, eta=eta)))
            if len(out) >= count:
                return out
    r = rng(77)
    while len(out) < count:
        base = algebras[r.randrange(len(algebras))]
        alg = scalar_op(base, SCALARS[r.randrange(len(SCALARS))])
        vdim = r.choice([1, 2, 3])
        diag = Matrix.diagonal([nonzero_rational(r) for _ in range(vdim)])
        eta = Matrix.diagonal([rational(r) for _ in range(vdim)])
        out.append((alg, zero_rep(alg, vdim, p=diag, q=Matrix.identity(vdim), eta=eta)))
    return out


def _rep_is_valid(rep: RepresentationBundle, flavor: str) -> bool:
    from bihomlie import checks

    ok = checks.check_representation(rep).ok
    if flavor == "nijenhuis":
        ok = ok and checks.check_nijenhuis_representation(rep).ok
    if flavor == "differential":
        ok = ok and checks.check_diff_rep(rep).ok
    return ok


def _perturb_rep(rep: RepresentationBundle, r: random.Random, fields: list[str]) -> RepresentationBundle:
    which = r.choice(fields)
    if which == "rho":
        idx = r.randrange(len(rep.rho))
        rho = list(rep.rho)
        rho[idx] = perturb_matrix(rho[idx], r)
        return dataclasses.replace(rep, rho=tuple(rho))
    return dataclasses.replace(rep, **{which: perturb_matrix(getattr(rep, which), r)})


def semidirect_broken(count: int) -> list[tuple[AlgebraBundle, RepresentationBundle]]:
    """Verified-broken instances: at least one module axiom fails."""
    out = []
    r = rng(78)
    valid = semidirect_valid(max(count, 20))
    while len(out) < count:
        alg, rep = valid[r.randrange(len(valid))]
        cand = _perturb_rep(rep, r, ["rho", "eta", "p"])
        if not _rep_is_valid(cand, "nijenhuis"):
            out.append((alg, cand))
    return out


def semidirect_diff_valid(count: int) -> list[tuple[AlgebraBundle, RepresentationBundle]]:
    out = []
    r = rng(79)
    for a21 in ("0", "1", "-2"):
        for a22 in ("0", "1/2", "3"):
            alg = with_diff(bundles.aff2(), aff2_derivation(a21, a22), 0)
            out.append((alg, adjoint_rep(alg, xi=alg.differential.matrix)))
    while len(out) < count:
        dim = r.choice([2, 3])
        w = rational(r)
        d = Matrix.from_rows([[rational(r) for _ in range(dim)] for _ in range(dim)])
        alg = with_diff(bundles.abelian(dim), d, w)
        vdim = r.choice([1, 2])
        xi = Matrix.from_rows([[rational(r) for _ in range(vdim)] for _ in range(vdim)])
        out.append((alg, zero_rep(alg, vdim, xi=xi)))
    return out[:count]


def semidirect_diff_broken(count: int) -> list[tuple[AlgebraBundle, RepresentationBundle]]:
    out = []
    r = rng(80)
    valid = semidirect_diff_valid(max(count, 20))
    while len(out) < count:
        alg, rep = valid[r.randrange(len(valid))]
        cand = _perturb_rep(rep, r, ["rho", "xi"])
        if not _rep_is_valid(cand, "differential"):
            out.append((alg, cand))
    return out


def _zero_actions(left: AlgebraBundle, right: AlgebraBundle) -> MatchedPairBundle:
    rho = tuple(Matrix.zeros(right.dim, right.dim) for _ in range(left.dim))
    h = tuple(Matrix.zeros(left.dim, left.dim) for _ in range(right.dim))
    return MatchedPairBundle(left, right, rho, h)


def bicrossed_valid(count: int) -> list[MatchedPairBundle]:
    from bihomlie.constructions import coadjoint_matched_pair

    out = []
    for u, v in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "-1"), ("2", "1/2"), ("-1", "1/3")):
        for n_op, s_op in (("0", "0"), ("1", "1"), ("2", "1/2"), ("-3/2", "1"), ("1", "0")):
            left = scalar_op(bundles.aff2(), n_op)
            right = scalar_op(antisym_dual2(u, v), s_op)
            out.append(coadjoint_matched_pair(left, right))
    pairs = [(bundles.sl2(), bundles.aff2()), (bundles.aff2(), bundles.abelian(3)), (bundles.abelian(2), bundles.aff2())]
    for base_l, base_r in pairs:
        for c in SCALARS[:8]:
            out.append(_zero_actions(scalar_op(base_l, c), scalar_op(base_r, c)))
    return out[:count]


def _perturb_mp(mp: MatchedPairBundle, r: random.Random, allow_algebras: bool) -> MatchedPairBundle:
    choices = ["rho", "h"] + (["left", "right"] if allow_algebras else ["left_diff"])
    which = r.choice(choices)
    if which == "rho":
        idx = r.randrange(len(mp.rho))
        rho = list(mp.rho)
        rho[idx] = perturb_matrix(rho[idx], r)
        return dataclasses.replace(mp, rho=tuple(rho))
    if which == "h":
        idx = r.randrange(len(mp.h))
        h = list(mp.h)
        h[idx] = perturb_matrix(h[idx], r)
        return dataclasses.replace(mp, h=tuple(h))
    if which == "left":
        return dataclasses.replace(mp, left=perturb_algebra(mp.left, r))
    if which == "right":
        return dataclasses.replace(mp, right=perturb_algebra(mp.right, r))
    left = dataclasses.replace(
        mp.left, differential=Differential(perturb_matrix(mp.left.differential.matrix, r), mp.left.differential.weight))
    return dataclasses.replace(mp, left=left)


def bicrossed_broken(count: int) -> list[MatchedPairBundle]:
    from bihomlie import checks

    out = []
    r = rng(81)
    valid = bicrossed_valid(max(count, 20))
    while len(out) < count:
        cand = _perturb_mp(valid[r.randrange(len(valid))], r, allow_algebras=True)
        if not checks.check_matched_pair(cand, "nijenhuis").ok:
            out.append(cand)
    return out


def bicrossed_diff_valid(count: int) -> list[MatchedPairBundle]:
    from bihomlie.constructions import coadjoint_matched_pair

    out = []
    zero = Matrix.zeros(2, 2)
    for w in ("0", "1", "-1/2"):
        for s in ("0", "1", "2", "-1/3"):
            left = with_diff(bundles.aff2(), zero, w)
            right = with_diff(bundles.abelian(2), Matrix.identity(2).scale(scalar(s)), w)
            out.append(coadjoint_matched_pair(left, right))
    for u, v in (("0", "1"), ("1", "-1")):
        left = with_diff(bundles.aff2(), zero, "2")
        right = with_diff(antisym_dual2(u, v), zero, "2")
        out.append(coadjoint_matched_pair(left, right))
    r = rng(82)
    while len(out) < count:
        dim = r.choice([2, 3])
        w = rational(r)
        d = Matrix.from_rows([[rational(r) for _ in range(dim)] for _ in range(dim)])
        dd = Matrix.from_rows([[rational(r) for _ in range(dim)] for _ in range(dim)])
        out.append(_zero_actions(with_diff(bundles.abelian(dim), d, w), with_diff(bundles.abelian(dim), dd, w)))
    return out[:count]


def bicrossed_diff_broken(count: int) -> list[MatchedPairBundle]:
    from bihomlie import checks

    out = []
    r = rng(83)
    valid = bicrossed_diff_valid(max(count, 20))
    while len(out) < count:
        cand = _perturb_mp(valid[r.randrange(len(valid))], r, allow_algebras=False)
        if not checks.check_matched_pair(cand, "differential").ok:
            out.append(cand)
    return out
