"""Structure-finding solvers: linear systems and grid enumeration."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import support
from bihomlie import bundles, checks, exact, search
from bihomlie.bundles import AlgebraBundle, Differential, RepresentationBundle
from bihomlie.cli import main
from bihomlie.exact import Matrix, Tensor3, scalar


def test_derivation_dimensions_match_independent_elimination():
    for fixture, expected in ((bundles.abelian(2), 4), (bundles.abelian(3), 9),
                              (bundles.aff2(), 2), (bundles.sl2(), 3)):
        sol = search.solve_linear_identity("derivation", algebra=fixture)
        assert sol.dimension == expected
        rows = naive.derivation_rows(naive.as_cells(fixture.bracket))
        assert naive.gauss_nullity(rows, fixture.dim ** 2) == expected


@pytest.mark.parametrize("make, expected", [
    (lambda: support.gl(4), 16),
    (lambda: support.gl(5), 25),
    (lambda: support.gl_torus(3, [1, 2, 5], [1, 3, "1/2"]), None),
], ids=["gl4", "gl5", "gl3-twisted"])
def test_large_derivation_spaces_reverify_through_checker(make, expected):
    # Der(gl(n)) is ad(sl(n)) plus the maps into the centre: dimension n^2
    a = make()
    sol = search.solve_linear_identity("derivation", algebra=a)
    if expected is None:
        expected = naive.gauss_nullity(naive.derivation_rows(naive.as_cells(a.bracket)), a.dim ** 2)
    assert sol.homogeneous and sol.dimension == expected
    base = support.with_diff(a, Matrix.zeros(a.dim, a.dim), 0)
    for m in sol.basis_matrices():
        assert checks.check_diff_leibniz(dataclasses.replace(base, differential=Differential(m, scalar(0)))).ok


def test_derivation_weight_must_be_zero():
    with pytest.raises(search.NonlinearKind):
        search.solve_linear_identity("derivation", scalar(1), algebra=bundles.aff2())


def test_derivations_contain_zero_and_all_inner_derivations():
    for fixture in (bundles.aff2(), bundles.sl2(), bundles.abelian(3)):
        sol = search.solve_linear_identity("derivation", algebra=fixture)
        assert sol.homogeneous and sol.particular_matrix().is_zero()
        base = support.with_diff(fixture, Matrix.zeros(fixture.dim, fixture.dim), 0)
        span = sol.basis_matrices()
        for i in range(fixture.dim):
            ad = Matrix.from_columns(fixture.bracket.entries[i])
            # ad_x solves the rule, and lies in the solution span
            assert checks.check_diff_leibniz(dataclasses.replace(base, differential=Differential(ad, scalar(0)))).ok
            flat = tuple(x for row in ad.entries for x in row)
            cols = [tuple(x for row in m.entries for x in row) for m in span]
            if cols:
                system = Matrix.from_columns(cols)
                from bihomlie.exact import solve

                assert solve(system, flat)[0] is not None


def test_derivation_solutions_reverify_through_checker():
    for fixture in (bundles.aff2(), bundles.sl2()):
        sol = search.solve_linear_identity("derivation", algebra=fixture)
        base = support.with_diff(fixture, Matrix.zeros(fixture.dim, fixture.dim), 0)
        for m in sol.basis_matrices():
            assert checks.check_diff_leibniz(dataclasses.replace(base, differential=Differential(m, scalar(0)))).ok
        combo = sol.sample(tuple(scalar(k + 1) for k in range(sol.dimension)))
        assert checks.check_diff_leibniz(dataclasses.replace(base, differential=Differential(combo, scalar(0)))).ok


def test_conijenhuis_solutions_reverify():
    from bihomlie.constructions import dualize

    b = bundles.bihom2(2, 3)
    co = dualize(b)
    sol = search.solve_linear_identity("conijenhuis", comul=co.comul, nmap=co.conijenhuis)
    assert not sol.is_empty
    # the transported operator of the dual bundle is one of the solutions
    for coeffs in itertools.product([scalar(0), scalar(1)], repeat=sol.dimension):
        m = sol.sample(coeffs)
        assert checks.check_dual_admissible(co.comul, co.conijenhuis, m).ok


@pytest.mark.parametrize("weight", [Fraction(5), Fraction(0)])
def test_conijenhuis_refuses_a_weight(weight):
    # the identity has no weight: one that is passed is refused, never ignored
    from bihomlie.constructions import dualize

    co = dualize(bundles.bihom2(2, 3))
    with pytest.raises(ValueError, match="'conijenhuis' has no weight"):
        search.solve_linear_identity("conijenhuis", weight, comul=co.comul, nmap=co.conijenhuis)


def test_pi_solver_inhomogeneous_with_nonzero_differential():
    d = support.aff2_derivation(0, 1)
    alg = support.with_diff(bundles.aff2(), d, 0)
    sol = search.solve_linear_identity("pi", scalar(0), algebra=alg)
    assert not sol.homogeneous
    if not sol.is_empty:
        for coeffs in itertools.product([scalar(0), scalar(2)], repeat=sol.dimension):
            pi = sol.sample(coeffs)
            assert checks.check_diff_pi(alg, pi).ok


def test_inhomogeneous_system_is_eliminated_once(monkeypatch):
    # the particular solution and the kernel are read off one elimination of [a | b]
    calls = []
    echelon = exact._bareiss_echelon
    monkeypatch.setattr(exact, "_bareiss_echelon", lambda rows: calls.append(len(rows)) or echelon(rows))
    alg = support.with_diff(bundles.aff2(), support.aff2_derivation(0, 1), 0)
    sol = search.solve_linear_identity("pi", scalar(0), algebra=alg)
    assert not sol.homogeneous and len(calls) == 1


def test_zeta_solver_reverifies():
    alg = support.with_diff(bundles.abelian(2), Matrix.from_rows([[1, 2], [0, 1]]), "1/2")
    rep = support.zero_rep(alg, 2)
    sol = search.solve_linear_identity("zeta", scalar("1/2"), rep=rep)
    assert not sol.is_empty
    for coeffs in itertools.product([scalar(0), scalar(-1)], repeat=min(sol.dimension, 3)):
        padded = coeffs + tuple(scalar(0) for _ in range(sol.dimension - len(coeffs)))
        zeta = sol.sample(padded)
        assert checks.check_diff_zeta(rep, zeta).ok


def _identity_rep_over_abelian1() -> RepresentationBundle:
    # rho(e_1) zeta - rho(d(e_1)) - zeta rho(e_1) = zeta - I - zeta = -I for every zeta
    alg = support.with_diff(bundles.abelian(1), Matrix.identity(1), 0)
    return RepresentationBundle(alg, 2, (Matrix.identity(2),), Matrix.identity(2), Matrix.identity(2))


def test_zeta_system_whose_coefficients_cancel_is_inconsistent(tmp_path, capsys):
    # every coefficient cancels, and each diagonal cell is still the equation 0 = 1
    rep = _identity_rep_over_abelian1()
    sol = search.solve_linear_identity("zeta", rep=rep)
    assert sol.is_empty and not sol.homogeneous
    path, out = tmp_path / "rep.json", tmp_path / "zeta.json"
    path.write_text(bundles.dumps(rep), encoding="utf-8")
    assert main(["search", str(path), "--mode", "zeta", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("(inconsistent)\n")
    assert json.loads(out.read_text())["empty"] is True


_ENTRY = st.sampled_from([Fraction(x) for x in (0, 0, 0, 1, -1, 2)] + [Fraction(1, 2)])


def _cells(*shape):
    if not shape:
        return _ENTRY
    return st.lists(_cells(*shape[1:]), min_size=shape[0], max_size=shape[0])


def _algebra(c, d, w) -> AlgebraBundle:
    n = len(c)
    return AlgebraBundle(n, Tensor3.from_entries(c), Matrix.identity(n), Matrix.identity(n),
                         differential=Differential(Matrix.from_rows(d), w))


@st.composite
def _linear_instance(draw, conijenhuis_floor=1):
    """(kind, weight, data, unknowns, rows, right-hand sides): a small random instance of one linear
    identity, with the rows of its system built by tests/naive.py from the printed identity; a
    dual-admissibility instance has dimension at least conijenhuis_floor."""
    kind = draw(st.sampled_from(["derivation", "conijenhuis", "pi", "zeta"]))
    n = draw(st.integers(conijenhuis_floor if kind == "conijenhuis" else 1, 3))
    c, d, w = draw(_cells(n, n, n)), draw(_cells(n, n)), draw(_ENTRY)
    if kind == "derivation":
        rows = naive.derivation_rows(c)
        return kind, None, {"algebra": _algebra(c, d, w)}, n * n, rows, [Fraction(0)] * len(rows)
    if kind == "conijenhuis":
        rows, rhs = naive.conijenhuis_rows(c, d)
        return kind, None, {"comul": Tensor3.from_entries(c), "nmap": Matrix.from_rows(d)}, n * n, rows, rhs
    if kind == "pi":
        rows, rhs = naive.zeta_rows([naive.ad_of(c, i) for i in range(n)], d, w)
        return kind, w, {"algebra": _algebra(c, d, w)}, n * n, rows, rhs
    v = draw(st.integers(1, 3))
    rhos = draw(_cells(n, v, v))
    rep = RepresentationBundle(_algebra(c, d, w), v, tuple(map(Matrix.from_rows, rhos)),
                               Matrix.identity(v), Matrix.identity(v))
    rows, rhs = naive.zeta_rows(rhos, d, w)
    return kind, w, {"rep": rep}, v * v, rows, rhs


@settings(max_examples=120, deadline=None)
@given(_linear_instance(conijenhuis_floor=2))
def test_linear_solutions_match_the_naive_systems(instance):
    # the naive rows are written from the printed identities, not from the checkers' forms; in dimension 1 both
    # slots of S in (S x id) Delta N read the same scalar, so the dual-admissibility systems start at dimension 2
    kind, weight, data, nvars, rows, rhs = instance
    sol = search.solve_linear_identity(kind, weight, **data)
    assert [list(v) for v in sol.basis] == naive.rref_nullspace(rows, nvars)
    particular = naive.rref_solve(rows, rhs, nvars)
    assert (None if sol.particular is None else list(sol.particular)) == particular
    assert sol.homogeneous == (not any(rhs))


_SIZED = [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]


def _diff_algebra(n: int, abelian_base: bool) -> AlgebraBundle:
    """A differential algebra of dimension n as the solve benchmark draws them, with fixed scalars: abelian(n) with
    a general map and weight, or aff2 plus an abelian summand with a derivation of weight zero."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    if abelian_base:
        return _algebra(c, [[_SIZED[(i + 2 * j) % 4] for j in range(n)] for i in range(n)], _SIZED[n % 4])
    c[0][1][1], c[1][0][1] = 1, -1
    d = [[0] * n for _ in range(n)]
    d[1][0], d[1][1] = _SIZED[n % 4], _SIZED[(n + 1) % 4]
    for k in range(2, n):
        d[k][k] = _SIZED[k % 4]
    return _algebra(c, d, 0)


_WORKLOAD_SYSTEMS = [
    ("derivation", "gl3", lambda: support.gl(3)),
    ("derivation", "gl2-twisted", lambda: support.gl_torus(2, [1, 3], [1, -5])),
    ("derivation", "sl2", bundles.sl2),
    *[(kind, f"{base}{n}", lambda n=n, base=base: _diff_algebra(n, base == "abelian"))
      for kind in ("pi", "zeta") for base in ("aff2+abelian", "abelian") for n in range(2, 7)],
]


@pytest.mark.parametrize("kind, name, make", _WORKLOAD_SYSTEMS, ids=[f"{k}-{n}" for k, n, _ in _WORKLOAD_SYSTEMS])
def test_workload_systems_match_the_naive_systems(kind, name, make):
    # the systems of the solve benchmark at its own sizes (gl(3): 729 equations in 81 unknowns), each solution space
    # equal to the one read off the reduced row echelon form of the rows tests/naive.py writes from the identity
    alg = make()
    c = naive.as_cells(alg.bracket)
    if kind == "derivation":
        weight, data, rows = None, {"algebra": alg}, naive.derivation_rows(c)
        rhs = [Fraction(0)] * len(rows)
    else:
        weight, rep = alg.differential.weight, support.adjoint_rep(alg)
        data = {"algebra": alg} if kind == "pi" else {"rep": rep}
        rhos = [naive.ad_of(c, i) for i in range(alg.dim)] if kind == "pi" else list(map(naive.mat_cells, rep.rho))
        rows, rhs = naive.zeta_rows(rhos, naive.mat_cells(alg.differential.matrix), weight)
    sol = search.solve_linear_identity(kind, weight, **data)
    nvars = alg.dim ** 2
    assert [list(v) for v in sol.basis] == naive.rref_nullspace(rows, nvars)
    particular = naive.rref_solve(rows, rhs, nvars)
    assert particular is not None and list(sol.particular) == particular
    assert sol.homogeneous == (not any(rhs))


def _term_equations(t: Tensor3, terms, n: int):
    """The rows . vec(x) = rhs of sum_terms s * (t with axis i transformed by maps[i]) = 0 at every cell of t,
    written term by term from ``contract_sum``'s definition: the entry at index a on an axis takes
    sum_b m[a][b] * (the entry at index b), and the unknown x (x^T for a transposed marker) stands in for m."""
    cells, rows, rhs = naive.as_cells(t), [], []
    for a in itertools.product(*map(range, t.shape)):
        row, const = [Fraction(0)] * (n * n), Fraction(0)
        for sign, maps in terms:
            for b in itertools.product(*map(range, t.shape)):
                value, unknown = sign * cells[b[0]][b[1]][b[2]], None
                for m, ai, bi in zip(maps, a, b):
                    if isinstance(m, checks.Unknown):
                        unknown = bi * n + ai if m.transposed else ai * n + bi
                    else:
                        value *= (ai == bi) if m is None else m.entries[ai][bi]
                if unknown is None:
                    const += value
                else:
                    row[unknown] += value
        rows.append(row)
        rhs.append(-const)
    return rows, rhs


_U, _UT = checks.Unknown(), checks.Unknown(True)
_SYSTEMS = {  # name -> (t's entries, its terms, whether the system is consistent, whether it is homogeneous)
    # the constant, moved from k = 0 to k = 1, lands on a cell that no unknown reaches: 0 = -1
    "constant on an unreached cell": (
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [(1, (_U, None, None)), (1, (None, None, Matrix.from_rows([[0, 0], [1, 0]])))], False, False),
    # x[i][j] - x[j][i] + 2 t[i][j]: the coefficients cancel on the diagonal cells, which hold the constant 2
    "cancelled coefficients on a constant": (
        [[[1], [0]], [[0], [1]]], [(2, (None, None, None)), (1, (_U, None, None)), (-1, (None, _U, None))],
        False, False),
    # the constant group t - t sums to zero: the system stays homogeneous, its particular solution zero
    "constant group summing to zero": (
        [[[1, 2], [0, 1]], [[0, 1], [3, 0]]],
        [(1, (None, None, None)), (1, (_UT, None, None)), (-1, (None, None, None))], True, True),
    # 2 x = 1: content 2 over the unknown's column, 1 with the constant's
    "a fractional solution": ([[[1]]], [(2, (_U, None, None)), (-1, (None, None, None))], True, False),
    # x + 1 = 0 and x + 2 = 0: one row of coefficients, two constants
    "one row of coefficients, two constants": (
        [[[1, 1]]], [(1, (_U, None, None)), (1, (None, None, Matrix.diagonal([1, 2])))], False, False),
}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_hand_built_systems_match_the_naive_systems(name):
    entries, terms, consistent, homogeneous = _SYSTEMS[name]
    t = Tensor3.from_entries(entries)
    n = next(t.shape[i] for _, maps in terms for i, m in enumerate(maps) if isinstance(m, checks.Unknown))
    rows, rhs = _term_equations(t, terms, n)
    sol = search._System(t, terms).solve()
    assert [list(v) for v in sol.basis] == naive.rref_nullspace(rows, n * n)
    particular = naive.rref_solve(rows, rhs, n * n)
    assert (None if sol.particular is None else list(sol.particular)) == particular
    assert (particular is not None, sol.homogeneous, not any(rhs)) == (consistent, homogeneous, homogeneous)


def test_two_unknowns_in_one_term_are_refused():
    t = Tensor3.from_entries([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    with pytest.raises(search.NonlinearKind):
        search._System(t, [(1, (_U, _UT, None)), (1, (None, None, None))])


@st.composite
def _candidate(draw, k):
    """A k x k candidate map: general, diagonal, c I or zero, the shapes the checkers' contractions tell apart."""
    shape = draw(st.sampled_from(["general", "diagonal", "scalar", "zero"]))
    if shape == "general":
        return Matrix.from_rows(draw(_cells(k, k)))
    if shape == "diagonal":
        return Matrix.diagonal(draw(_cells(k)))
    return Matrix.identity(k).scale(draw(_ENTRY.filter(bool)) if shape == "scalar" else 0)


@settings(max_examples=120, deadline=None)
@given(_linear_instance(), st.data())
def test_linear_checkers_match_the_naive_systems(instance, data):
    # each checker's residual at a candidate x is the naive system's rows . vec(x) - rhs, cell by cell; the Leibniz
    # rows are the rule at weight zero, and its checker subtracts w [d(e_i), d(e_j)] as well
    kind, weight, inputs, nvars, rows, rhs = instance
    k = math.isqrt(nvars)
    x = data.draw(_candidate(k))
    flat = [v for row in x.entries for v in row]
    cols = [[x.entries[r][j] for r in range(k)] for j in range(k)]  # d(e_j), for Leibniz
    expected = {}
    for q, (row, b) in enumerate(zip(rows, rhs)):
        cell = (q // nvars, q // k % k, q % k)
        value = sum((r * v for r, v in zip(row, flat)), Fraction(0)) - b
        if kind == "derivation":
            alg = inputs["algebra"]
            value -= alg.differential.weight * naive.bracket_eval(naive.as_cells(alg.bracket), cols[cell[0]],
                                                                  cols[cell[1]])[cell[2]]
        expected[(cell[0], cell[2], cell[1]) if kind == "pi" else cell] = value
    report = {
        "derivation": lambda: checks.check_diff_leibniz(inputs["algebra"], x),
        "conijenhuis": lambda: checks.check_dual_admissible(inputs["comul"], inputs["nmap"], x),
        "pi": lambda: checks.check_diff_pi(inputs["algebra"], x, weight),
        "zeta": lambda: checks.check_diff_zeta(inputs["rep"], x, weight),
    }[kind]()
    assert dict(report.entries[0].residual.nonzeros) == {idx: v for idx, v in expected.items() if v}


def test_grid_search_includes_printed_operator():
    b = bundles.bihom2(2, 3)
    grid = [scalar(x) for x in ("1", "0", "-3/2", "2")]
    out = search.grid_search_nijenhuis(b, grid)
    assert b.nijenhuis in out


def test_grid_search_abelian_returns_all_commuting_matrices():
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([1, 2]), kind="bihom-lie")
    grid = [scalar(0), scalar(1)]
    out = search.grid_search_nijenhuis(b, grid)
    # commuting with diag(1,2) forces off-diagonal zeros: 4 diagonal 0/1 matrices
    assert len(out) == 4
    assert all(m.entries[0][1] == 0 and m.entries[1][0] == 0 for m in out)


def test_grid_search_aff2_contains_scalar_operators():
    out = search.grid_search_nijenhuis(bundles.aff2(), [scalar(-1), scalar(0), scalar(1)])
    for m in (Matrix.identity(2), Matrix.identity(2).neg(), Matrix.zeros(2, 2)):
        assert m in out


def test_grid_search_matches_plain_enumeration():
    b = bundles.aff2()
    grid = [scalar(0), scalar(1)]
    expected = []
    for combo in itertools.product(grid, repeat=4):
        m = Matrix.from_rows([[combo[0], combo[1]], [combo[2], combo[3]]])
        if checks.check_nijenhuis_operator(dataclasses.replace(b, nijenhuis=m)).ok:
            expected.append(m)
    expected.sort(key=lambda m: m.entries)
    assert search.grid_search_nijenhuis(b, grid) == expected


def test_grid_search_pattern_and_budget():
    b = bundles.aff2()
    pattern = [[scalar(1), None], [None, scalar(1)]]
    out = search.grid_search_nijenhuis(b, [scalar(0), scalar(1)], pattern)
    assert all(m.entries[0][0] == 1 and m.entries[1][1] == 1 for m in out)
    with pytest.raises(search.BudgetExceeded):
        search.grid_search_nijenhuis(b, [scalar(k) for k in range(10)], budget=10)


@pytest.mark.parametrize("make, grid, count", [
    (bundles.aff2, (0, 1, -1, 2), 256),
    (lambda: support.twisted(bundles.sl2(), [1, 2, "1/2"], [1, 3, "1/3"]), (0, 1, -1), 15),
], ids=["aff2", "twisted-sl2"])
def test_grid_search_results_deform_the_bracket(make, grid, count):
    # a Nijenhuis N commuting with alpha and beta deforms the bracket into a
    # BiHom-Lie bracket with the same maps, for which N is again Nijenhuis
    a = make()
    out = search.grid_search_nijenhuis(a, [scalar(x) for x in grid])
    assert len(out) == count
    c = naive.as_cells(a.bracket)
    for n_map in out:
        bracket = Tensor3.from_entries(naive.deformed_bracket(c, naive.mat_cells(n_map)))
        deformed = dataclasses.replace(a, bracket=bracket, nijenhuis=n_map)
        assert checks.check_bihom_lie(deformed).ok and checks.check_nijenhuis_operator(deformed).ok


def test_grid_search_results_reverify_and_are_sorted():
    b = bundles.bihom2(2, 3)
    grid = [scalar(x) for x in ("0", "1", "2", "-3/2")]
    out = search.grid_search_nijenhuis(b, grid)
    assert out == sorted(out, key=lambda m: m.entries)
    for m in out:
        assert checks.check_nijenhuis_operator(dataclasses.replace(b, nijenhuis=m)).ok
