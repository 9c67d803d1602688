"""Identity checkers: trivial cases, fixture claims, and cross-validation
against the independent brute-force evaluators."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive
import support
from bihomlie import bundles, checks, exact
from bihomlie.bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    Differential,
    FormBundle,
    MissingField,
    RepresentationBundle,
)
from bihomlie.constructions import coadjoint_matched_pair, dualize
from bihomlie.exact import Matrix, SingularMatrix, Tensor3, _contract, scalar

FIXTURES = [bundles.aff2(), bundles.sl2(), bundles.abelian(2), bundles.abelian(3), bundles.bihom2(2, 3)]


# -- algebra suite ------------------------------------------------------------------


def test_bihom_lie_abelian_with_commuting_maps():
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([2, 3]),
                            beta=Matrix.diagonal([5, 7]), kind="bihom-lie")
    assert checks.check_bihom_lie(b).ok


def test_bihom_lie_golden_fixture_all_parameters():
    for m, n in ((2, 3), (3, 5), (-1, 2), (Fraction(1, 2), Fraction(1, 3))):
        assert checks.check_bihom_lie(bundles.bihom2(m, n)).ok


def test_golden_fixture_family_sampled_parameters():
    r = support.rng(14)
    seen = 0
    while seen < 20:
        m, n = support.rational(r), support.rational(r)
        if m == 0 or n == 0 or n == 1:
            continue
        b = bundles.bihom2(m, n)
        assert checks.check_bihom_lie(b).ok and checks.check_nijenhuis_operator(b).ok, f"(m, n) = ({m}, {n})"
        seen += 1


def test_bihom_lie_sl2_cross_validated_by_direct_expansion():
    b = bundles.sl2()
    assert checks.check_bihom_lie(b).ok
    anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
    assert anti and jac


def test_identity_maps_reduce_to_classical_checks():
    # verdict equality with the independent evaluator, incl. broken instances
    r = support.rng(11)
    cases = [bundles.aff2(), bundles.sl2(), bundles.abelian(3)]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(10)]
    for b in cases:
        anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
        assert checks.check_bihom_lie(b).ok == (anti and jac)


def test_nijenhuis_identity_on_trivial_operators():
    for base in FIXTURES:
        if not checks.check_bihom_lie(base).ok:
            continue
        assert checks.check_nijenhuis_operator(dataclasses.replace(base, nijenhuis=Matrix.identity(base.dim))).ok


def test_nijenhuis_scalar_operators_always_pass():
    r = support.rng(12)
    for base in FIXTURES:
        for _ in range(20):
            c = support.rational(r)
            b = dataclasses.replace(base, nijenhuis=Matrix.identity(base.dim).scale(c))
            assert checks.check_nijenhuis_operator(b).ok


def test_nijenhuis_golden_fixture():
    assert checks.check_nijenhuis_operator(bundles.bihom2(2, 3)).ok


def test_nijenhuis_missing_field():
    with pytest.raises(MissingField):
        checks.check_nijenhuis_operator(bundles.aff2())


def test_corpus_operators_are_nijenhuis_iff_they_deform_the_bracket():
    # N passes iff the deformed bracket [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] (naive.deformed_bracket) is
    # BiHom-Lie with the same maps and N is Nijenhuis for it.  The corpora's operators are scalar; two
    # diagonal ones on a gl(3) torus, N(E_ij) = t_i E_ij (Nijenhuis) and N(E_ij) = (i + j) E_ij (not), join them
    torus = support.gl_torus(3, [1, 2, "1/3"], [1, 3, "-1/2"])
    t = [1, 2, "-1/2"]
    algebras = [a for pair in support.nijenhuis_triad_family() for a in pair]
    algebras += [a for a, _ in support.semidirect_valid(40)]
    algebras += [dataclasses.replace(torus, nijenhuis=Matrix.diagonal([t[i] for i in range(3) for _ in range(3)])),
                 dataclasses.replace(torus, nijenhuis=Matrix.diagonal([i + j for i in range(3) for j in range(3)]))]
    verdicts = []
    for a in algebras:
        c = naive.deformed_bracket(naive.as_cells(a.bracket), naive.mat_cells(a.nijenhuis))
        deformed = dataclasses.replace(a, bracket=Tensor3.from_entries(c))
        verdicts.append(checks.check_nijenhuis_operator(a).ok)
        assert verdicts[-1] == (checks.check_bihom_lie(deformed).ok and checks.check_nijenhuis_operator(deformed).ok)
    assert all(verdicts[:-1]) and not verdicts[-1]


def test_nijenhuis_commute_short_cuts_only_two_diagonal_maps():
    # N = I + e_01 sends E_01 to E_00 + E_01: not diagonal, and it does not commute with alpha or beta, whose
    # entries at E_00 and E_01 differ (1 and t_0/t_1 = 1/2, 1 and s_0/s_1 = 1/3); each residual is the
    # naive commutator, cell for cell
    a = support.gl_torus(3, [1, 2, "1/3"], [1, 3, "-1/2"])
    cells = [[Fraction(int(i == j or (i, j) == (0, 1))) for j in range(9)] for i in range(9)]
    a = dataclasses.replace(a, nijenhuis=Matrix.from_rows(cells))
    got = {e.case: list(e.residual.nonzeros) for e in checks.check_nijenhuis_operator(a).entries
           if e.identity == "nijenhuis_commute"}
    for case, m in (("alpha", a.alpha), ("beta", a.beta)):
        commutator = naive.commutator(naive.mat_cells(m), cells)
        want = [((i, j), v) for i, row in enumerate(commutator) for j, v in enumerate(row) if v]
        assert want != [] and got[case] == want


def test_involution():
    assert checks.check_involution(bundles.aff2()).ok
    diag = dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([1, -1]), kind="bihom-lie")
    assert checks.check_involution(diag).ok
    b = bundles.bihom2(2, 3)
    alpha2 = b.alpha @ b.alpha  # squared by hand: not the identity
    assert alpha2 != Matrix.identity(2)
    assert not checks.check_involution(b).ok


def test_involution_note_agrees_with_check_involution():
    # identity maps, a diag(1, -1) twist, a non-involutive torus twist, and a swap that is no diagonal
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    cases = [(bundles.aff2(), True),
             (dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([1, -1]), kind="bihom-lie"), True),
             (bundles.bihom2(2, 3), False),
             (dataclasses.replace(bundles.abelian(2), beta=swap, kind="bihom-lie"), True),
             (dataclasses.replace(bundles.abelian(2), alpha=swap, beta=Matrix.from_rows([[0, 2], [1, 0]]),
                                  kind="bihom-lie"), False)]
    for a, involutive in cases:
        assert (checks._involution_note(a) == ()) == checks.check_involution(a).ok == involutive


# -- coalgebra suite -------------------------------------------------------------------


def test_coalgebra_zero_comultiplication():
    co = CoalgebraBundle(3, Tensor3.zeros((3, 3, 3)), Matrix.identity(3), Matrix.identity(3))
    assert checks.check_bihom_coalgebra(co).ok


def test_coalgebra_dual_of_aff2():
    co = dualize(bundles.aff2())
    assert co.comul.entries[1][0][1] == 1 and co.comul.entries[1][1][0] == -1
    assert checks.check_bihom_coalgebra(co).ok


def test_coalgebra_symmetric_comultiplication_fails_antisymmetry():
    t = Tensor3.from_entries([[[0, 0], [0, 0]], [[0, 1], [1, 0]]])  # D(e2) = e1 x e2 + e2 x e1
    co = CoalgebraBundle(2, t, Matrix.identity(2), Matrix.identity(2))
    rep = checks.check_bihom_coalgebra(co)
    assert not rep.ok
    anti = [e for e in rep.entries if e.identity == "co_antisymmetry"][0]
    # residual is 2 (e1 x e2 + e2 x e1) at the source vector e2
    assert ((1, 0, 1), scalar(2)) in anti.residual.nonzeros
    assert ((1, 1, 0), scalar(2)) in anti.residual.nonzeros


def test_coalgebra_duality_verdicts_match_algebra_side():
    r = support.rng(13)
    cases = [bundles.aff2(), bundles.sl2(), bundles.bihom2(2, 3), bundles.abelian(2)]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(10)]
    for b in cases:
        assert checks.check_bihom_coalgebra(dualize(b)).ok == checks.check_bihom_lie(b).ok


_small = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def _twisted_coalgebra(draw):
    """A coalgebra of dim 1-4 with sparse random comultiplication and arbitrary,
    usually non-diagonal and non-commuting, structure maps."""
    n = draw(st.integers(1, 4))

    def cells(*shape):
        return st.lists(cells(*shape[1:]) if len(shape) > 1 else _small, min_size=shape[0], max_size=shape[0])

    t, alpha, beta = draw(cells(n, n, n)), draw(cells(n, n)), draw(cells(n, n))
    return CoalgebraBundle(n, Tensor3.from_entries(t), Matrix.from_rows(alpha), Matrix.from_rows(beta))


@settings(max_examples=60, deadline=None)
@given(_twisted_coalgebra())
def test_co_jacobi_matches_the_dense_definition(co):
    want = naive.co_jacobi(naive.as_cells(co.comul), naive.mat_cells(co.alpha), naive.mat_cells(co.beta))
    n = co.dim
    cells = {(k, x, y, z): want[k][x][y][z] for k in range(n) for x in range(n) for y in range(n) for z in range(n)
             if want[k][x][y][z]}
    jacobi = [e for e in checks.check_bihom_coalgebra(co).entries if e.identity == "co_jacobi"][0].residual
    assert jacobi.shape == (n,) * 4
    assert dict(jacobi.nonzeros) == cells


@st.composite
def _jacobi_instance(draw):
    """An algebra and a coalgebra of dim 1-5 from one of three families: arbitrary cells and maps (Jacobi is
    evaluated per rotation orbit); cells antisymmetric in the two twisted slots under alpha = beta = M, M
    non-diagonal (per S3 orbit, with signs); or a torus twist of gl(1) or gl(2) and its dual."""
    family = draw(st.sampled_from(["arbitrary", "antisymmetric", "torus"]))
    if family == "torus":
        m = draw(st.integers(1, 2))
        units = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool), min_size=m, max_size=m)
        a = support.gl_torus(m, draw(units), draw(units))
        return a, dualize(a)
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)
    cells = draw(st.lists(square, min_size=n, max_size=n))  # cells[x][y][z], x and y the twisted slots
    alpha, beta = draw(square), draw(square)
    if family == "antisymmetric":
        cells = [[[cells[x][y][z] - cells[y][x][z] for z in range(n)] for y in range(n)] for x in range(n)]
        alpha[0][n - 1] = alpha[0][n - 1] or Fraction(1)  # off the diagonal once n > 1
        beta = alpha
    return _algebra_and_coalgebra(cells, alpha, beta)


def _algebra_and_coalgebra(cells, alpha, beta):
    """The algebra of bracket cells[x][y][z] and the coalgebra of comultiplication cells[y][z][x], with these maps."""
    c, maps = Tensor3.from_entries(cells), (Matrix.from_rows(alpha), Matrix.from_rows(beta))
    return AlgebraBundle(len(cells), c, *maps), CoalgebraBundle(len(cells), c.transpose((2, 0, 1)), *maps)


# [e0,e1] = e0, [e1,e2] = e0 + e2 under alpha = beta = e_i -> e_i + e_{i-1}: antisymmetric, not Jacobi
_SHEARED = _algebra_and_coalgebra([[[0, 0, 0], [1, 0, 0], [0, 0, 0]], [[-1, 0, 0], [0, 0, 0], [1, 0, 1]],
                                   [[0, 0, 0], [-1, 0, -1], [0, 0, 0]]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                                  [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
# [e0,e0] = e1 under identity maps: not antisymmetric, so Jacobi runs per rotation orbit whatever the draws hold
_SQUARING = _algebra_and_coalgebra([[[0, 1], [0, 0]], [[0, 0], [0, 0]]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_orbit_evaluation_matches_the_dense_oracles():
    """Every Jacobi and co-Jacobi cell, and every twisted (co-)antisymmetry cell, equals the brute-force value, in
    index order.  Both orbit groups are drawn, and the S3 one with nonzero rows, whose signs it sets; antisymmetry
    fails both on the diagonal of the two twisted slots and at pairs whose (i, j) and (j, i) cells are both made."""
    groups, failures = set(), set()

    @settings(max_examples=25, deadline=None)
    @given(_jacobi_instance())
    @example(_SHEARED)
    @example(_SQUARING)
    def check(instance):
        a, co = instance
        n = a.dim
        c, alpha, beta = naive.as_cells(a.bracket), naive.mat_cells(a.alpha), naive.mat_cells(a.beta)
        want = {(i, j, k, r): x for i, j, k in itertools.product(range(n), repeat=3)
                for r, x in enumerate(naive.bihom_jacobi(c, alpha, beta, i, j, k)) if x}
        co_args = naive.as_cells(co.comul), naive.mat_cells(co.alpha), naive.mat_cells(co.beta)
        co_cells = naive.co_jacobi(*co_args)
        co_want = {idx: co_cells[idx[0]][idx[1]][idx[2]][idx[3]] for idx in itertools.product(range(n), repeat=4)}
        pairs, co_pairs = naive.bihom_antisymmetry(c, alpha, beta), naive.co_antisymmetry(*co_args)
        for report, jacobi, antisymmetry, cells, pair_cells, slots in (
                (checks.check_bihom_lie(a), "bihom_jacobi", "bihom_antisymmetry", want, pairs, slice(0, 2)),
                (checks.check_bihom_coalgebra(co), "co_jacobi", "co_antisymmetry", co_want, co_pairs, slice(1, 3))):
            entries = {e.identity: e for e in report.entries}
            assert entries[jacobi].residual.shape == (n,) * 4
            assert list(entries[jacobi].residual.nonzeros) == sorted((idx, x) for idx, x in cells.items() if x)
            groups.add((jacobi, "S3" if entries[antisymmetry].ok else "C3", entries[jacobi].ok))
            got = entries[antisymmetry].residual
            assert got.shape == (n,) * 3
            assert list(got.nonzeros) == [(idx, pair_cells[idx[0]][idx[1]][idx[2]])
                                          for idx in itertools.product(range(n), repeat=3)
                                          if pair_cells[idx[0]][idx[1]][idx[2]]]
            made = {idx[slots] for idx, _ in got.nonzeros}
            failures.update((antisymmetry, "diagonal" if i == j else "pair") for i, j in made if (j, i) in made)

    check()
    assert {g[:2] for g in groups} == {(jacobi, g) for jacobi in ("bihom_jacobi", "co_jacobi") for g in ("S3", "C3")}
    assert {("bihom_jacobi", "S3", False), ("co_jacobi", "S3", False)} <= groups
    assert failures == {(a, f) for a in ("bihom_antisymmetry", "co_antisymmetry") for f in ("diagonal", "pair")}


def test_the_bihom_checks_build_no_whole_antisymmetry_tensor(monkeypatch):
    """check_bihom_lie adds no tensors, passing or failing.  check_bihom_coalgebra regroups the cells of Delta
    once, to tt[i][j][k] = Delta[k][i][j], when Delta was read from its document, and never when it is a dualized
    bracket: transposing that back returns the bracket."""
    def refuse(*args):
        raise AssertionError("a whole tensor was added")

    regroup, regrouped = exact._regrouped, []
    monkeypatch.setattr(Tensor3, "add", refuse)
    monkeypatch.setattr(exact, "_regrouped", lambda nz, axes, shape: regrouped.append(axes) or regroup(nz, axes, shape))
    a = support.gl_torus(2, [1, 2], [3, "1/2"])
    perturbed = support.perturb_algebra(a, support.rng(2))
    assert checks.check_bihom_lie(a).ok and not checks.check_bihom_lie(perturbed).ok
    for alg in (a, perturbed):
        co = dualize(alg)
        regrouped.clear()
        assert checks.check_bihom_coalgebra(co).ok == (alg is a) and regrouped == []
        read = bundles.load(bundles.dumps(co))
        assert read == co and read.comul.back is None
        assert checks.check_bihom_coalgebra(read) == checks.check_bihom_coalgebra(co) and regrouped == [(1, 2, 0)]


@pytest.mark.parametrize("kind", ["algebra", "coalgebra"])
def test_an_empty_bracket_walks_no_jacobi_orbit(monkeypatch, kind):
    """When every row of the twisted bracket (or comultiplication) is empty, Jacobi (co-Jacobi) is zero before any
    orbit representative is listed: one emptiness test per orbit took 15 s on a dim-1000 document."""
    def refuse(*args):
        raise AssertionError("an orbit walk was started")

    monkeypatch.setattr(checks, "combinations", refuse)
    bundle = bundles.load(json.dumps({"kind": kind, "dim": 60}))
    report = checks.check_bihom_lie(bundle) if kind == "algebra" else checks.check_bihom_coalgebra(bundle)
    assert report.ok and report.entries[-1].residual.shape == (60,) * 4


def _dense_composed(terms, ranges, row_first):
    """The nonzero cells of sum sign q[idx[a]].p[idx[b]][idx[c]] over dense (sign, q, a, p, b, c) terms, summed at
    every tuple idx of the ranges, x.y being the row sum_m y[m] x[m]."""
    want = {}
    for idx in itertools.product(*map(range, ranges)):
        for sign, q, a, p, b, c in terms:
            for m, y in enumerate(p[idx[b]][idx[c]]):
                for s, v in enumerate(q[idx[a]][m]):
                    cell = (s, *idx) if row_first else (*idx, s)
                    want[cell] = want.get(cell, 0) + sign * y * v
    return sorted((cell, Fraction(v)) for cell, v in want.items() if v)


@pytest.mark.parametrize("n", range(1, 8))
def test_cyclic_sum_walk_matches_a_dense_loop(n, monkeypatch):
    """_composed against its terms summed at every free tuple, on seeded integer rows, about half of them empty: the
    cyclic sum of Jacobi and co-Jacobi walked per orbit of both groups (p = -p^T with a zero diagonal under S3), and
    random wirings of one to five terms over ranges of 1..n, walked tuple by tuple, with the row last; both layouts
    each time.  _combination runs only at the tuples walked where some row of p is nonempty, on those terms only."""
    calls = []
    monkeypatch.setattr(checks, "_combination", lambda terms: calls.append(terms) or exact._combination(terms))
    r = random.Random(n)

    def tensor(d0, d1, d2):
        return [[[r.randint(-2, 2) if r.random() < 0.5 else 0 for _ in range(d2)] if r.random() < 0.5 else [0] * d2
                 for _ in range(d1)] for _ in range(d0)]

    cases = []  # (orbits, dense terms, ranges)
    for group in ("C3", "S3"):
        q, p = tensor(n, n, n), tensor(n, n, n)
        if group == "S3":
            p = [[[0] * n if j == k else p[j][k] if j < k else [-x for x in p[k][j]] for k in range(n)]
                 for j in range(n)]
        cases.append((group, [(1, q, 0, p, 1, 2), (1, q, 1, p, 2, 0), (1, q, 2, p, 0, 1)], (n, n, n)))
    for _ in range(3):
        ranges, width, terms = [r.randint(1, n) for _ in range(3)], r.randint(1, n), []
        for t in range(r.randint(1, 5)):
            a, b, c = r.sample(range(3), 3) if t == 0 else [r.randrange(3) for _ in range(3)]
            m = r.randint(1, n)
            terms.append((r.choice((1, -1)), tensor(ranges[a], m, width), a, tensor(ranges[b], ranges[c], m), b, c))
        cases.append((None, terms, tuple(ranges)))
    for (orbits, dense, ranges), row_first in itertools.product(cases, (False, True)):
        terms = [(s, Tensor3.from_entries(q), a, Tensor3.from_entries(p), b, c) for s, q, a, p, b, c in dense]
        if orbits:
            terms = checks._cyclic(terms[0][1], terms[0][3])
        calls.clear()
        got = checks._composed(terms, orbits, row_first)
        width = len(dense[0][1][0][0])
        assert got.shape == ((width, *ranges) if row_first else (*ranges, width))
        assert list(got.nonzeros) == _dense_composed(dense, ranges, row_first)
        walked = (itertools.product(*map(range, ranges)) if orbits is None
                  else itertools.combinations(range(n), 3) if orbits == "S3"
                  else (t for t in itertools.product(range(n), repeat=3) if t == min(t, t[1:] + t[:1], t[2:] + t[:2])))
        live = [sum(any(p[idx[b]][idx[c]]) for _, _, _, p, b, c in dense) for idx in walked]
        assert [len(terms) for terms in calls] == [k for k in live if k]
        assert all(coeffs[1] for terms in calls for _, _, coeffs in terms)


def test_nijenhuis_coalgebra_trivial_operators():
    co = dualize(bundles.aff2())
    for s in (Matrix.identity(2), Matrix.identity(2).scale(scalar("-5/3"))):
        assert checks.check_nijenhuis_coalgebra(dataclasses.replace(co, conijenhuis=s)).ok


def test_nijenhuis_coalgebra_dual_of_golden_fixture():
    co = dualize(bundles.bihom2(2, 3))
    assert co.conijenhuis == bundles.bihom2(2, 3).nijenhuis.transpose()
    assert checks.check_nijenhuis_coalgebra(co).ok


def test_nijenhuis_coalgebra_missing_field():
    with pytest.raises(MissingField):
        checks.check_nijenhuis_coalgebra(dualize(bundles.aff2()))


# -- bialgebra cocycle ----------------------------------------------------------------


def _aff2_bialgebra(comul_cells):
    return BialgebraBundle(bundles.aff2(),
                           CoalgebraBundle(2, Tensor3.from_entries(comul_cells), Matrix.identity(2), Matrix.identity(2)))


def test_cocycle_zero_comultiplication():
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert checks.check_bialgebra_cocycle(b).ok


def test_cocycle_dual_bracket_comultiplication_passes():
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[0, 1], [-1, 0]]])
    rep = checks.check_bialgebra_cocycle(b)
    assert rep.ok
    # cross-validation: the classical compatibility residual vanishes entrywise
    c = naive.as_cells(b.algebra.bracket)
    t = naive.as_cells(b.coalgebra.comul)
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for row in naive.cocycle_residual(c, t, i, j) for x in row)


def test_cocycle_swapped_comultiplication_is_a_coboundary_and_passes():
    # direct expansion shows this comultiplication is compatible as well
    b = _aff2_bialgebra([[[0, 1], [-1, 0]], [[0, 0], [0, 0]]])
    c = naive.as_cells(b.algebra.bracket)
    t = naive.as_cells(b.coalgebra.comul)
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for row in naive.cocycle_residual(c, t, i, j) for x in row)
    assert checks.check_bialgebra_cocycle(b).ok


def test_cocycle_failure_cases():
    # e1 x e1 on the source e2 breaks compatibility over the nonabelian bracket
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    assert not checks.check_bialgebra_cocycle(b).ok
    # antisymmetric failing instance in dimension 3
    cells = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cells[0][1][2] = 1
    cells[0][2][1] = -1
    b3 = BialgebraBundle(bundles.sl2(),
                         CoalgebraBundle(3, Tensor3.from_entries(cells), Matrix.identity(3), Matrix.identity(3)))
    assert not checks.check_bialgebra_cocycle(b3).ok


def _commuting_maps(n):
    """Commuting invertible maps (alpha, beta) on dim n: two diagonal tori, or two polynomials c0 + c1 M + c2 M^2 in
    one invertible M, which are diagonal only by chance."""
    nonzero = st.sampled_from([Fraction(v) for v in (1, -1, 2, -3, "1/2", "-2/3")])
    tori = st.tuples(*[st.lists(nonzero, min_size=n, max_size=n).map(Matrix.diagonal)] * 2)

    def polynomials(m, c, d):
        ident, m2 = Matrix.identity(n), m @ m
        return tuple(ident.scale(x0).add(m.scale(x1)).add(m2.scale(x2)) for x0, x1, x2 in (c, d))

    coefficients = st.tuples(*[st.sampled_from([-1, 0, 1, 2, Fraction(1, 3)])] * 3)
    matrices = _sparse_tensor(n).map(lambda cells: Matrix.from_rows(cells[0]))
    return st.one_of(tori, st.builds(polynomials, matrices, coefficients, coefficients))


def _sparse_tensor(n):
    """Dense cells [i][j][k] with a few small nonzero entries."""
    cells = st.dictionaries(st.tuples(*[st.integers(0, n - 1)] * 3), st.sampled_from([1, -1, 2, Fraction(-1, 2)]),
                            min_size=1, max_size=2 * n)
    return cells.map(lambda nz: [[[nz.get((i, j, k), 0) for k in range(n)] for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_cocycle_equals_the_twisted_argument_form_when_the_maps_commute(data, n):
    # the twisted-argument form reads alpha^-1 beta alpha and alpha^-2 beta^2 alpha where the declared form reads
    # beta and alpha^-1 beta^2: equal maps once alpha beta = beta alpha, so the one entry is both residuals
    alpha, beta = data.draw(_commuting_maps(n))
    try:
        exact.invert(alpha)
        exact.invert(beta)
    except SingularMatrix:
        assume(False)
    assert alpha @ beta == beta @ alpha
    c, t = data.draw(_sparse_tensor(n)), data.draw(_sparse_tensor(n))
    b = BialgebraBundle(AlgebraBundle(n, Tensor3.from_entries(c), alpha, beta),
                        CoalgebraBundle(n, Tensor3.from_entries(t), alpha, beta))
    entry, = checks.check_bialgebra_cocycle(b).entries
    assume(not entry.ok)  # a nonzero residual, compared cell for cell
    maps = naive.mat_cells(alpha), naive.mat_cells(beta)
    assert entry.case == "" and not entry.advisory
    twisted = naive.bihom_cocycle(c, t, *maps, twisted_argument=True)
    assert dict(entry.residual.nonzeros) == naive.nonzero_cells(twisted)


def test_cocycle_expansions_differ_when_the_maps_do_not_commute():
    # the standard sl2 bialgebra under a torus alpha and a shear beta: the declared form alone is evaluated, and the
    # suite that runs the cocycle fails the commutation of the maps
    b = support.sl2_standard_bialgebra()
    alpha, beta = Matrix.diagonal([1, 2, Fraction(1, 2)]), Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = BialgebraBundle(dataclasses.replace(b.algebra, alpha=alpha, beta=beta, kind="bihom-lie"),
                        dataclasses.replace(b.coalgebra, alpha=alpha, beta=beta))
    c, t = naive.as_cells(b.algebra.bracket), naive.as_cells(b.coalgebra.comul)
    maps = naive.mat_cells(alpha), naive.mat_cells(beta)
    declared, twisted = (naive.nonzero_cells(naive.bihom_cocycle(c, t, *maps, twisted_argument=x))
                         for x in (False, True))
    entry, = checks.check_bialgebra_cocycle(b).entries
    assert dict(entry.residual.nonzeros) == declared != twisted
    report = checks.SUITES["bialgebra", "auto"].run(b)
    failing = {(e.identity, e.case) for e in report.entries if not e.ok}
    assert ("bihom_multiplicativity", "alpha-beta-commute") in failing and not report.ok


def test_cocycle_requires_invertible_alpha():
    alg = dataclasses.replace(bundles.abelian(2), alpha=Matrix.zeros(2, 2), kind="bihom-lie")
    co = CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.zeros(2, 2), Matrix.identity(2))
    message = "^alpha must be invertible to check the bialgebra cocycle: matrix is singular$"
    with pytest.raises(SingularMatrix, match=message):
        checks.check_bialgebra_cocycle(BialgebraBundle(alg, co))


# -- representations ------------------------------------------------------------------


def test_representation_trivial():
    rep = support.zero_rep(bundles.sl2(), 2)
    assert checks.check_representation(rep).ok


def test_representation_adjoint_sl2():
    assert checks.check_representation(support.adjoint_rep(bundles.sl2())).ok


def test_representation_adjoint_golden_fixture():
    b = bundles.bihom2(2, 3)
    rep = support.adjoint_rep(b)  # p = alpha, q = beta
    assert checks.check_representation(rep).ok


def test_representation_broken_entry_detected():
    rep = support.adjoint_rep(bundles.sl2())
    r = support.rng(21)
    rho = list(rep.rho)
    rho[0] = support.perturb_matrix(rho[0], r)
    assert not checks.check_representation(dataclasses.replace(rep, rho=tuple(rho))).ok


def test_nijenhuis_representation_identity_eta():
    b = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.diagonal([1, 2, 3]))
    if not checks.check_nijenhuis_operator(b).ok:
        b = dataclasses.replace(b, nijenhuis=Matrix.identity(3))
    rep = support.adjoint_rep(b, eta=Matrix.identity(3))
    assert checks.check_nijenhuis_representation(rep).ok


def test_nijenhuis_representation_eta_equals_operator_on_golden_fixture():
    b = bundles.bihom2(2, 3)
    rep = support.adjoint_rep(b, eta=b.nijenhuis)
    assert checks.check_nijenhuis_representation(rep).ok


def test_nijenhuis_representation_zero_eta():
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    rep = support.adjoint_rep(b, eta=Matrix.zeros(2, 2))
    assert checks.check_nijenhuis_representation(rep).ok


# -- admissibility ---------------------------------------------------------------------


def test_admissible_eta_identity():
    # eta-admissibility to the adjoint module is adjoint admissibility of S = eta
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.from_rows([[1, 1], [0, 2]]))
    assert checks.check_adjoint_admissible(b, Matrix.identity(2)).ok


def test_admissible_adjoint_s_equals_n_on_identity_operator():
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    assert checks.check_adjoint_admissible(b, b.nijenhuis).ok


def test_admissible_adjoint_s_equals_n_is_not_automatic():
    # a genuine operator for which taking S = N fails the admissibility identity
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.diagonal([1, 0]))
    assert checks.check_nijenhuis_operator(b).ok
    assert not checks.check_adjoint_admissible(b, b.nijenhuis).ok
    g = bundles.bihom2(2, 3)
    assert checks.check_nijenhuis_operator(g).ok
    assert not checks.check_adjoint_admissible(g, g.nijenhuis).ok


def test_admissible_dual_zero_comultiplication():
    z = Tensor3.zeros((2, 2, 2))
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert checks.check_dual_admissible(z, m, m.transpose()).ok


def test_admissibility_involution_note():
    b = bundles.bihom2(2, 3)
    rep = checks.check_adjoint_admissible(b, Matrix.identity(2))
    assert any("involutive" in n for n in rep.notes)


# -- forms ------------------------------------------------------------------------------


def test_form_standard_double_gram():
    from bihomlie.constructions import coadjoint_double, standard_double_form

    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    dbl = coadjoint_double(left, right, "nijenhuis")
    rep = checks.check_form(dbl.total, dbl.form)
    assert rep.ok
    assert standard_double_form(2).gram == Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_form_killing_invariance_on_sl2():
    b = bundles.sl2()
    gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(b.bracket)))
    assert gram == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert checks.check_form(b, FormBundle(gram)).ok


def test_form_identity_gram_on_aff2_fails_invariance():
    rep = checks.check_form(bundles.aff2(), FormBundle(Matrix.identity(2)))
    assert not rep.ok
    bracket_entry = [e for e in rep.entries if e.case == "bracket"][0]
    # B([e1,e2],e2) = 1 while B(e1,[e2,e2]) = 0
    assert ((0, 1, 1), scalar(1)) in bracket_entry.residual.nonzeros


# -- differential checkers ----------------------------------------------------------------


def test_diff_leibniz_zero_map():
    b = support.with_diff(bundles.sl2(), Matrix.zeros(3, 3), "7/3")
    assert checks.check_diff_leibniz(b).ok


def test_diff_leibniz_identity_weight_minus_one():
    b = support.with_diff(bundles.aff2(), Matrix.identity(2), -1)
    assert checks.check_diff_leibniz(b).ok


def test_diff_leibniz_inner_derivation_sl2():
    b = bundles.sl2()
    ad_h = Matrix.from_columns(b.bracket.entries[0])
    assert checks.check_diff_leibniz(support.with_diff(b, ad_h, 0)).ok
    anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
    assert anti and jac  # the direct expansion backing the inner-derivation rule


def test_diff_leibniz_weight_sensitivity():
    b = support.with_diff(bundles.aff2(), Matrix.identity(2), 0)  # identity needs weight -1
    assert not checks.check_diff_leibniz(b).ok


def test_diff_rep_adjoint():
    d = support.aff2_derivation(1, 2)
    alg = support.with_diff(bundles.aff2(), d, 0)
    rep = support.adjoint_rep(alg, xi=d)
    assert checks.check_diff_rep(rep).ok


def test_diff_coalgebra_and_dual_admissible_trivial():
    co = dualize(support.with_diff(bundles.abelian(2), Matrix.from_rows([[1, 2], [3, 4]]), 2))
    assert checks.check_diff_coalgebra(co).ok
    assert checks.check_diff_dual_admissible(co, Matrix.from_rows([[5, 0], [1, 1]])).ok


def test_a_zero_weight_contracts_no_weight_term(monkeypatch):
    # with maps that are not diagonal, every term is contracted map by map: one contraction for each of the
    # three unweighted terms, and two for the weight term, which a zero weight on the bundle drops
    d = Matrix.from_rows([[1, 2], [0, 1]])
    made, counts = [], {}
    monkeypatch.setattr(exact, "_contract", lambda *args: made.append(args) or _contract(*args))
    for w in (0, 1):
        alg = support.with_diff(bundles.aff2(), d, w)
        rep, co = support.adjoint_rep(alg, xi=d), dualize(support.with_diff(bundles.abelian(2), d, w))
        for name, run in (("rep", lambda: checks.check_diff_rep(rep)), ("co", lambda: checks.check_diff_coalgebra(co)),
                          ("dual", lambda: checks.check_diff_dual_admissible(co, d)),
                          ("leibniz", lambda: checks.check_diff_leibniz(alg))):
            made.clear()
            run()
            counts.setdefault(name, []).append(len(made))
    assert counts == dict.fromkeys(("rep", "co", "dual", "leibniz"), [3, 5])


def test_diff_zeta_and_pi_trivial():
    alg = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 3)
    rep = support.adjoint_rep(alg)
    assert checks.check_diff_zeta(rep, Matrix.zeros(2, 2)).ok
    assert checks.check_diff_pi(alg, Matrix.identity(2).scale(scalar("5/2"))).ok
    assert not checks.check_diff_pi(alg, Matrix.from_rows([[1, 1], [0, 1]])).ok


# -- matched pairs ---------------------------------------------------------------------


def test_matched_pair_direct_product():
    left = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.identity(3))
    right = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    mp = support._zero_actions(left, right)
    assert checks.check_matched_pair(mp, "nijenhuis").ok
    assert checks.check_matched_pair(mp, "bihom").ok


def test_matched_pair_coadjoint_on_abelian_dual():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    mp = coadjoint_matched_pair(left, right)
    assert checks.check_matched_pair(mp, "nijenhuis").ok


def test_matched_pair_perturbed_action_fails():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    mp = coadjoint_matched_pair(left, right)
    rho = list(mp.rho)
    # a diagonal shift of rho(e1) breaks rho([e1,e2]) = [rho(e1), rho(e2)]
    rho[0] = rho[0].add(Matrix.from_rows([[1, 0], [0, 0]]))
    assert not checks.check_matched_pair(dataclasses.replace(mp, rho=tuple(rho)), "nijenhuis").ok


def test_matched_pair_differential_verbatim_variant_reported():
    left = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    right = support.with_diff(support.antisym_dual2(0, 1), Matrix.zeros(2, 2), 0)
    mp = coadjoint_matched_pair(left, right)
    rep = checks.check_matched_pair(mp, "differential")
    assert rep.ok  # symmetrized reading counts
    advisory = [e for e in rep.entries if e.advisory and e.identity == "diff_mp_right"][0]
    assert not advisory.ok  # the as-printed reading fails on this valid pair


def test_matched_pair_weight_mismatch():
    left = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    right = support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 1)
    mp = coadjoint_matched_pair(left, right)
    with pytest.raises(checks.WeightMismatch):
        checks.check_matched_pair(mp, "differential")


def test_matched_pair_differential_needs_identity_maps():
    # the differential identities are untwisted; a twisted pair is refused as
    # bicrossed_product refuses it, not read as if its maps were identities
    from bihomlie.constructions import PreconditionFailed, bicrossed_product

    left = dataclasses.replace(support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0),
                               alpha=Matrix.diagonal([1, 2]), kind="bihom-lie")
    right = support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 0)
    mp = coadjoint_matched_pair(left, right)
    with pytest.raises(PreconditionFailed, match="identity structure maps"):
        checks.check_matched_pair(mp, "differential")
    with pytest.raises(PreconditionFailed, match="identity structure maps"):
        bicrossed_product(mp, "differential")
    assert checks.check_matched_pair(mp, "bihom").entries[0].identity == "mp_left"


# -- suites with and without a shared results dict -------------------------------------------------


def _suite_fixture(kind: str, name: str, d: Matrix = Matrix.zeros(2, 2), weight="1"):
    """A bundle of the kind that carries every operator some suite of it reads, so each suite runs every step; every
    differential in it is d at the weight."""
    from bihomlie.constructions import coadjoint_double

    left = support.with_diff(support.scalar_op(bundles.aff2(), "2"), d, weight)
    right = support.with_diff(support.scalar_op(bundles.aff2(), "1/2"), d, weight)
    return {
        "algebra": lambda: left,
        "coalgebra": lambda: dualize(right),
        "representation": lambda: support.adjoint_rep(left, eta=left.nijenhuis, xi=d),
        "bialgebra": lambda: BialgebraBundle(left, dualize(right)),
        "matched_pair": lambda: coadjoint_matched_pair(left, right),
        "double": lambda: coadjoint_double(left, right, name),
    }[kind]()


@pytest.mark.parametrize("key", sorted(checks.SUITES), ids="-".join)
def test_suite_runs_alike_with_and_without_a_results_dict(monkeypatch, key):
    # both paths call each step's checker once and merge the same report; a second run through the same dict calls none
    bundle, suite = _suite_fixture(*key), checks.SUITES[key]
    calls = []
    for name in {s.check for s in suite.steps}:
        def counted(*args, _check=getattr(checks, name), _name=name, **kwargs):
            calls.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setattr(checks, name, counted)
    expected = sorted(s.check for s in suite.steps_on(bundle))
    assert len(expected) == len(suite.steps)
    unshared = suite.run(bundle)
    assert sorted(calls) == expected
    calls.clear()
    results = {}
    assert suite.run(bundle, results=results) == unshared
    assert sorted(calls) == expected and len(results) == len(expected)
    calls.clear()
    assert suite.run(bundle, results=results) == unshared and calls == []


#: the suites that hold a step reading a differential's weight
_WEIGHTED = sorted(key for key, suite in checks.SUITES.items() if any(s.weighted for s in suite.steps))


@pytest.mark.parametrize("key", _WEIGHTED, ids="-".join)
def test_a_weight_runs_the_suite_on_the_bundle_with_every_differential_at_it(key):
    # the identity is a differential of weight -1 on any bracket, so every weighted identity holds at the bundle's own
    # weight and fails at 1, where each weighted step's entries change and no other step's do
    suite, ident, w = checks.SUITES[key], Matrix.identity(2), Fraction(1)
    bundle = _suite_fixture(*key, ident, -1)
    assert suite.run(bundle, w) == suite.run(_suite_fixture(*key, ident, w))
    assert any(s.weighted for s in suite.steps_on(bundle))
    for step in suite.steps_on(bundle):
        one = checks.Suite((step,))
        own, weighted = one.run(bundle), one.run(bundle, w)
        assert (own != weighted) == step.weighted, step
        assert own.ok and weighted.ok != step.weighted, step


@pytest.mark.parametrize("key", _WEIGHTED, ids="-".join)
def test_one_results_dict_shares_no_report_across_weights(key):
    suite, results = checks.SUITES[key], {}
    bundle = _suite_fixture(*key, Matrix.identity(2), -1)
    for w in (Fraction(1), Fraction(2), None):
        assert suite.run(bundle, w, results) == suite.run(bundle, w)


#: (bundle kind, flavour) -> the operator fields, one stripped at a time, whose absence a flavour row refuses
_FLAVOUR_FIELDS = {
    ("algebra", "nijenhuis"): ("nijenhuis",),
    ("algebra", "differential"): ("differential",),
    ("coalgebra", "nijenhuis"): ("conijenhuis",),
    ("coalgebra", "differential"): ("codiff",),
    ("representation", "nijenhuis"): ("eta", "algebra.nijenhuis"),
    ("representation", "differential"): ("xi", "algebra.differential"),
    ("bialgebra", "nijenhuis"): ("algebra.nijenhuis", "coalgebra.conijenhuis"),
    ("bialgebra", "differential"): ("algebra.differential", "coalgebra.codiff"),
}


def _without(bundle, path: str):
    """The bundle with the field at a dotted path unset."""
    head, _, rest = path.partition(".")
    return dataclasses.replace(bundle, **{head: _without(getattr(bundle, head), rest) if rest else None})


@pytest.mark.parametrize("key, field", [(k, f) for k, fields in _FLAVOUR_FIELDS.items() for f in fields],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_a_flavour_suite_refuses_a_missing_operator_that_auto_skips(key, field):
    kind, flavor = key
    bundle = _without(_suite_fixture(kind, flavor), field)
    with pytest.raises(MissingField):
        checks.SUITES[key].run(bundle)
    auto = checks.SUITES[kind, "auto"]
    reading = [s for s in auto.steps if field in s.needs]
    assert reading and not set(reading) & set(auto.steps_on(bundle))
    assert auto.run(bundle).entries
