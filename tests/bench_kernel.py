"""Timings of the exact kernel (matmul, one-term ``contract_sum``; the product, inverse
and commutator of the diagonal torus maps of gl(4), taken entry by entry; the
``yau_twist`` + ``untwist`` roundtrip of gl(4) by them, each row scaled by one factor),
of the checkers' signed sums of contractions (``contract_sum``:
multiplicativity and the Nijenhuis identity on torus-twisted gl(4), whose
maps are all diagonal, and the per-call overhead of small instances:
torus-twisted sl2 and aff2 with N = 2 I), of the Jacobi and co-Jacobi checkers, on dense
brackets, on a coalgebra read from its document and on the zero bracket of
abelian(60), and of the other identities that compose two tensors: the mixed
matched-pair identities, the representation identity and the bialgebra
cocycle, on twisted instances, of the two triads over the support
families, and of the fixed cost a small check pays per report entry:
``check_bihom_lie`` on aff2 and the (matched_pair, nijenhuis) suite on a dim
2 + 2 coadjoint pair (pytest-benchmark; not part of the test suite).

Run from the repository root with

    python -m pytest tests/bench_kernel.py --benchmark-only

Each benchmark times one call on operands built beforehand and checks its
result against tests/naive.py, an exact inverse or, for a triad, its three
sides computed unshared (``support.unshared_triad``), so a fast wrong answer
fails.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import naive
import pytest
import support
from bihomlie import bundles, checks
from bihomlie.bundles import Report
from bihomlie.checks import (
    SUITES,
    _commutator,
    check_bialgebra_cocycle,
    check_bihom_coalgebra,
    check_bihom_lie,
    check_matched_pair,
    check_nijenhuis_operator,
    check_representation,
)
from bihomlie.constructions import coadjoint_matched_pair, dualize, untwist, yau_twist
from bihomlie.equivalence import triad_differential, triad_nijenhuis_bihom
from bihomlie.exact import Matrix, invert
from support import contract


def _dense(n: int, seed: int) -> Matrix:
    r = random.Random(seed)
    return Matrix.from_rows([[Fraction(r.randint(-3, 3), r.randint(1, 2)) for _ in range(n)] for _ in range(n)])


def _diagonal(n: int, seed: int) -> Matrix:
    r = random.Random(seed)
    return Matrix.diagonal([Fraction(r.randint(1, 5), r.randint(1, 3)) for _ in range(n)])


def test_matmul_diagonal_dense_dim16(benchmark):
    a, b = _diagonal(16, 1), _dense(16, 2)
    expected = naive.mat_mul(naive.mat_cells(a), naive.mat_cells(b))
    assert naive.mat_cells(benchmark(a.__matmul__, b)) == expected


def test_matmul_dense_dense_dim16(benchmark):
    a, b = _dense(16, 3), _dense(16, 4)
    expected = naive.mat_mul(naive.mat_cells(a), naive.mat_cells(b))
    assert naive.mat_cells(benchmark(a.__matmul__, b)) == expected


def test_contract_gl4_bracket(benchmark):
    c = support.gl(4).bracket
    m = _dense(16, 16)  # invertible, so its inverse undoes the contraction
    back = invert(m)
    assert contract(benchmark(contract, c, 1, m), 1, back) == c


def test_contract_gl4_bracket_fractional_map(benchmark):
    c = support.gl(4).bracket
    m = _diagonal(16, 5) @ _dense(16, 6)  # fractional entries over several denominators
    expected = naive.contract(naive.as_cells(c), 2, naive.mat_cells(m))
    assert naive.as_cells(benchmark(contract, c, 2, m)) == expected


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("kind", ["identity", "torus"])
def test_contract_gl4_bracket_diagonal_map(benchmark, kind, axis):
    c = support.gl(4).bracket
    m = Matrix.identity(16) if kind == "identity" else _diagonal(16, 7)
    expected = naive.contract(naive.as_cells(c), axis, naive.mat_cells(m))
    assert naive.as_cells(benchmark(contract, c, axis, m)) == expected


def test_check_bihom_lie_gl4(benchmark):
    a = support.gl(4)
    assert benchmark(check_bihom_lie, a).ok


def test_check_bihom_lie_gl5(benchmark):
    a = support.gl(5)
    assert benchmark(check_bihom_lie, a).ok


def test_check_bihom_lie_abelian60(benchmark):
    # a zero bracket: every Jacobi orbit is skipped before a row is combined
    assert benchmark(check_bihom_lie, bundles.abelian(60)).ok


def test_check_bihom_coalgebra_abelian60_dual(benchmark):
    assert benchmark(check_bihom_coalgebra, dualize(bundles.abelian(60))).ok


def _gl4_torus():
    return support.gl_torus(4, [1, 2, 5, "1/3"], [1, 3, "1/2", 7])  # non-involutive maps, real denominators


def _roundtrip(base, alpha, beta):
    twisted, hypothesis = yau_twist(base, alpha, beta)
    return twisted, hypothesis, untwist(twisted)


def test_yau_twist_roundtrip_gl4_torus(benchmark):
    # the ladder workload's roundtrip op: both contractions are folded one-term sums, so each nonempty row of the
    # bracket is scaled by one factor, and the torus maps share their primes with the twisted rows
    a, base = _gl4_torus(), support.gl(4)
    twisted, hypothesis, back = benchmark(_roundtrip, base, a.alpha, a.beta)
    assert hypothesis.ok and twisted == a and back == base


def test_commutator_gl4_torus_maps(benchmark):
    a = _gl4_torus()
    want = naive.commutator(naive.mat_cells(a.alpha), naive.mat_cells(a.beta))
    assert naive.mat_cells(benchmark(_commutator, a.alpha, a.beta)) == want


def test_invert_gl4_torus_map(benchmark):
    alpha = _gl4_torus().alpha
    assert benchmark(invert, alpha) @ alpha == Matrix.identity(16)


def test_matmul_gl4_torus_map_squared(benchmark):
    beta = _gl4_torus().beta
    cells = naive.mat_cells(beta)
    assert naive.mat_cells(benchmark(beta.__matmul__, beta)) == naive.mat_mul(cells, cells)


def _naive_bihom_lie(a):
    """The nonzero residual cells of check_bihom_lie's multiplicativity (alpha, beta), antisymmetry and
    Jacobi entries, from the printed identities; the brackets [beta(e_j), alpha(e_k)] are made once."""
    c, n = naive.as_cells(a.bracket), a.dim
    A, B = naive.mat_cells(a.alpha), naive.mat_cells(a.beta)
    e = [naive.basis(n, i) for i in range(n)]
    twisted = [[naive.bracket_eval(c, naive.mat_vec(B, e[i]), naive.mat_vec(A, e[j])) for j in range(n)]
               for i in range(n)]
    b2 = [naive.mat_vec(B, naive.mat_vec(B, x)) for x in e]

    def nonzero(cells):
        return [(idx, v) for idx, v in cells if v]

    out = [nonzero(((i, j, k), v) for i, j in itertools.product(range(n), repeat=2) for k, v in enumerate(
        [p - q for p, q in zip(naive.mat_vec(m, naive.bracket_eval(c, e[i], e[j])),
                               naive.bracket_eval(c, naive.mat_vec(m, e[i]), naive.mat_vec(m, e[j])))]))
           for m in (A, B)]
    out.append(nonzero(((i, j, k), twisted[i][j][k] + twisted[j][i][k])
                       for i, j, k in itertools.product(range(n), repeat=3)))
    jacobi = []
    for i, j, k in itertools.product(range(n), repeat=3):
        terms = [naive.bracket_eval(c, b2[x], twisted[y][z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
        jacobi += [((i, j, k, r), v) for r, v in enumerate(map(sum, zip(*terms)))]
    return out + [nonzero(jacobi)]


def _agrees_with_naive_bihom_lie(report, a):
    cases = [("bihom_multiplicativity", "alpha"), ("bihom_multiplicativity", "beta"), ("bihom_antisymmetry", ""),
             ("bihom_jacobi", "")]
    got = {(e.identity, e.case): list(e.residual.nonzeros) for e in report.entries}
    return [got[case] for case in cases] == _naive_bihom_lie(a)


def test_check_bihom_lie_gl4_torus_twisted(benchmark):
    a = _gl4_torus()
    report = benchmark(check_bihom_lie, a)
    assert _agrees_with_naive_bihom_lie(report, a) and report.ok


def test_check_bihom_lie_aff2(benchmark):
    # identity maps on dim 2: the fixed cost of the checker's five entries (terms, reports, zero residuals) sets it
    a = bundles.aff2()
    report = benchmark(check_bihom_lie, a)
    assert _agrees_with_naive_bihom_lie(report, a) and report.ok


def test_suite_matched_pair_nijenhuis_coadjoint_dim2(benchmark):
    # nine checker steps on the coadjoint pair of aff2 (N = 2 I) and abelian(2) (N = 1/2 I), the mixed identities
    # read on the pair itself: the suite's own bookkeeping (fields, prefixed reports, one merge) is a visible share
    # of its time
    mp = coadjoint_matched_pair(support.scalar_op(bundles.aff2(), 2), support.scalar_op(bundles.abelian(2), "1/2"))
    suite = SUITES["matched_pair", "nijenhuis"]
    report = benchmark(suite.run, mp)
    steps = [getattr(checks, s.check)(getattr(mp, s.args[0]) if s.args[0] else mp) for s in suite.steps]
    steps = [r.prefixed(s.prefix) if s.prefix else r for r, s in zip(steps, suite.steps)]
    assert report == Report(()).merged(*steps) and report.ok and len(steps) == 9


@pytest.mark.parametrize("kind", ["scalar", "diagonal"])
def test_check_nijenhuis_operator_gl4_torus_twisted(benchmark, kind):
    # N = 3 I passes; N(E_ij) = (i + 2j) E_ij commutes with the torus maps but is not Nijenhuis, so the
    # identity's residual is compared cell by cell with [Nx,Ny] - N([x,y]_N) from naive.deformed_bracket.
    # check_bihom_lie reads no operator: its benchmark above serves both.
    entries = [3] * 16 if kind == "scalar" else [i + 2 * j for i in range(4) for j in range(4)]
    a = dataclasses.replace(_gl4_torus(), nijenhuis=Matrix.diagonal(entries))
    c, N = naive.as_cells(a.bracket), naive.mat_cells(a.nijenhuis)
    deformed, e = naive.deformed_bracket(c, N), [naive.basis(16, i) for i in range(16)]
    want = [((i, j, k), v) for i, j in itertools.product(range(16), repeat=2) for k, v in enumerate(
        [p - q for p, q in zip(naive.bracket_eval(c, naive.mat_vec(N, e[i]), naive.mat_vec(N, e[j])),
                               naive.mat_vec(N, deformed[i][j]))]) if v]
    report = benchmark(check_nijenhuis_operator, a)
    assert list(_entry(report, "nijenhuis_identity").nonzeros) == want
    assert report.ok == (kind == "scalar") and (want == []) == (kind == "scalar")


def test_check_bihom_coalgebra_gl4_dual(benchmark):
    co = dualize(support.gl(4))
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_coalgebra_gl5_dual(benchmark):
    co = dualize(support.gl(5))
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_coalgebra_gl4_torus_twisted_dual(benchmark):
    co = dualize(support.gl_torus(4, [1, 2, 5, "1/3"], [1, 3, "1/2", 7]))
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_coalgebra_gl4_torus_twisted_document(benchmark):
    # read from its document, Delta is no transpose of a bracket: the check regroups its cells once
    co = bundles.load(bundles.dumps(dualize(_gl4_torus())))
    assert co.comul.back is None
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_lie_sl2_torus_twisted(benchmark):
    # a small instance: the per-call overhead of contract_sum and the checker, not arithmetic, sets its time
    a = support.twisted(bundles.sl2(), [1, 2, "1/2"], [1, 3, "1/3"])
    assert benchmark(check_bihom_lie, a).ok


def test_check_nijenhuis_operator_aff2_scalar(benchmark):
    # N = 2 I: every map of the Nijenhuis identity folds into one multiple of the bracket, which cancels
    a = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2).scale(2))
    assert benchmark(check_nijenhuis_operator, a).ok


def _perturbed_gl4():
    """gl(4) with one bracket entry moved: twisted antisymmetry fails, so Jacobi runs per rotation orbit."""
    return support.perturb_algebra(support.gl(4), support.rng(4))


def _entry(report, identity):
    return [e for e in report.entries if e.identity == identity][0].residual


def test_check_bihom_lie_gl4_perturbed(benchmark):
    a = _perturbed_gl4()
    assert a.alpha.is_identity() and a.beta.is_identity()
    # naive.bihom_jacobi at alpha = beta = id, with the brackets [e_j, e_k] made once: the full oracle
    # re-multiplies the 16 x 16 maps for each of the 4096 tuples
    c, n = naive.as_cells(a.bracket), a.dim
    e = [naive.basis(n, i) for i in range(n)]
    inner = [[naive.bracket_eval(c, e[j], e[k]) for k in range(n)] for j in range(n)]
    want = []
    for i, j, k in itertools.product(range(n), repeat=3):
        terms = (naive.bracket_eval(c, e[x], inner[y][z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j)))
        want += [((i, j, k, r), v) for r, v in enumerate(map(sum, zip(*terms))) if v]
    assert list(_entry(benchmark(check_bihom_lie, a), "bihom_jacobi").nonzeros) == want != []


def test_check_bihom_coalgebra_gl4_perturbed_dual(benchmark):
    co = dualize(_perturbed_gl4())
    cells = naive.co_jacobi(naive.as_cells(co.comul), naive.mat_cells(co.alpha), naive.mat_cells(co.beta))
    want = [(idx, cells[idx[0]][idx[1]][idx[2]][idx[3]]) for idx in itertools.product(range(co.dim), repeat=4)]
    assert list(_entry(benchmark(check_bihom_coalgebra, co), "co_jacobi").nonzeros) == [c for c in want if c[1]] != []


def _residuals(report):
    return [dict(e.residual.nonzeros) for e in report.entries]


def test_check_matched_pair_twisted_coadjoint(benchmark):
    # aff2 on antisym_dual2(0, 2) under the coadjoint actions, twisted by the tori (diag(1, 2), diag(1, 3)) on L and
    # the contragredient ones on L*, with one entry of rho(e_1) moved: beta is no involution, and both mixed
    # identities have nonzero residuals
    mp = support.twisted_pair(coadjoint_matched_pair(bundles.aff2(), support.antisym_dual2(0, 2)),
                              *(Matrix.diagonal([1, x]) for x in (2, 3, Fraction(1, 2), Fraction(1, 3))))
    mp = dataclasses.replace(mp, rho=(mp.rho[0].add(Matrix.from_rows([[1, 0], [0, 0]])), mp.rho[1]))
    L, V = mp.left, mp.right
    first, second, _ = naive.mixed(naive.as_cells(L.bracket), naive.as_cells(V.bracket),
                                   [naive.mat_cells(m) for m in mp.rho], [naive.mat_cells(m) for m in mp.h],
                                   *(naive.mat_cells(m) for m in (L.alpha, L.beta, V.alpha, V.beta)))
    want = [naive.nonzero_cells(first), naive.nonzero_cells(second)]
    assert _residuals(benchmark(check_matched_pair, mp, "bihom"))[:2] == want and want[0] and want[1]


def test_check_representation_gl4_torus_adjoint(benchmark):
    rep = support.adjoint_rep(_gl4_torus())  # p = alpha, q = beta
    a = rep.algebra
    want = naive.rep_bracket(naive.as_cells(a.bracket), [naive.mat_cells(m) for m in rep.rho],
                             naive.mat_cells(a.alpha), naive.mat_cells(a.beta), naive.mat_cells(rep.q))
    report = benchmark(check_representation, rep)
    assert _residuals(report)[-1] == naive.nonzero_cells(want) == {} and report.ok


def test_check_bialgebra_cocycle_sl2_twisted(benchmark):
    # the standard sl2 bialgebra twisted by the tori (1, 2, 1/2) and (1, 3, 1/3): the cocycle vanishes
    b, _ = yau_twist(support.sl2_standard_bialgebra(), Matrix.diagonal([1, 2, Fraction(1, 2)]),
                     Matrix.diagonal([1, 3, Fraction(1, 3)]))
    c, t = naive.as_cells(b.algebra.bracket), naive.as_cells(b.coalgebra.comul)
    maps = naive.mat_cells(b.algebra.alpha), naive.mat_cells(b.algebra.beta)
    want = [naive.nonzero_cells(naive.bihom_cocycle(c, t, *maps))]
    assert _residuals(benchmark(check_bialgebra_cocycle, b)) == want


def _triads(triad, family):
    return [(t.manin_report, t.bialgebra_report, t.matched_pair_report) for t in itertools.starmap(triad, family)]


def test_triad_nijenhuis_bihom_family(benchmark):
    family = support.nijenhuis_triad_family()
    want = [support.unshared_triad(left, right, "nijenhuis") for left, right in family]
    assert benchmark(_triads, triad_nijenhuis_bihom, family) == want


def test_triad_differential_family(benchmark):
    family = support.differential_triad_family()
    want = [support.unshared_triad(left, right, "differential") for left, right in family]
    assert benchmark(_triads, triad_differential, family) == want
