"""Arithmetic substrate: scalars, matrices, tensors, elimination."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import support
from support import contract
from bihomlie import bundles, exact
from bihomlie.checks import _commutator
from bihomlie.exact import (
    DimensionMismatch,
    Matrix,
    SingularMatrix,
    Tensor3,
    _bareiss_echelon,
    _combination,
    _combine,
    _content,
    _contract,
    contract_sum,
    invert,
    scalar,
    solve,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_scalar_parse_and_format():
    assert scalar("3/6") == Fraction(1, 2)
    assert scalar("-4/2") == Fraction(-2)
    with pytest.raises(TypeError):
        scalar(1.5)
    for flag in (True, False):  # a bool is an int subclass, but never a rational
        with pytest.raises(TypeError):
            scalar(flag)


@given(rationals, rationals, rationals)
def test_scalar_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(rationals)
def test_scalar_multiplicative_inverse(a):
    if a != 0:
        assert a * (1 / a) == 1


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2]]) @ Matrix.from_rows([[1, 2]])


def test_identity_and_scalar_multiples():
    for n in (1, 2, 7):
        ident = Matrix.identity(n)
        assert ident == Matrix.diagonal([1] * n) and ident.is_identity() and ident.scalar_multiple == (1, 1)
        assert Matrix.diagonal(["-2/3"] * n).scalar_multiple == (-2, 3) and not Matrix.diagonal([2] * n).is_identity()
        assert Matrix.zeros(n, n).scalar_multiple == (0, 1)
    assert Matrix.diagonal([1, 2]).scalar_multiple is None and Matrix.diagonal([1, 0]).scalar_multiple is None
    assert Matrix.from_rows([[1, 1], [0, 1]]).scalar_multiple is None and Matrix.zeros(2, 3).scalar_multiple is None


def _t3(cells):
    return Tensor3.from_entries(cells)


def test_contract_identity_is_noop():
    b = bundles.bihom2(2, 3)
    for axis in (0, 1, 2):
        assert contract(b.bracket, axis, Matrix.identity(2)) == b.bracket


def test_contract_zero_tensor():
    z = Tensor3.zeros((2, 3, 2))
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert contract(z, 1, m).is_zero()


def test_contract_dimension_mismatch():
    z = Tensor3.zeros((2, 2, 2))
    with pytest.raises(DimensionMismatch):
        contract(z, 0, Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_contract_output_axis_matches_direct_evaluation():
    # both sides assembled independently from the printed structure constants
    b = bundles.bihom2(2, 3)
    c = naive.as_cells(b.bracket)
    alpha = naive.mat_cells(b.alpha)
    lhs_direct = [[naive.mat_vec(alpha, naive.bracket_eval(c, naive.basis(2, i), naive.basis(2, j)))
                   for j in range(2)] for i in range(2)]
    rhs_direct = [[naive.bracket_eval(c, [alpha[r][i] for r in range(2)], [alpha[r][j] for r in range(2)])
                   for j in range(2)] for i in range(2)]
    assert lhs_direct == rhs_direct  # the maps are multiplicative on this fixture
    contracted = contract(b.bracket, 2, b.alpha)
    for i in range(2):
        for j in range(2):
            assert list(contracted.entries[i][j]) == lhs_direct[i][j]


def test_contract_along_two_axes_commutes():
    import random

    r = random.Random(5)
    cells = [[[Fraction(r.randint(-4, 4), r.randint(1, 3)) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    t = _t3(cells)
    m1 = Matrix.from_rows([[1, 2], [0, 1]])
    m2 = Matrix.from_rows([["1/2", 0], [5, 1]])
    assert contract(contract(t, 0, m1), 2, m2) == contract(contract(t, 2, m2), 0, m1)


def test_invert_identity():
    ident = Matrix.identity(4)
    assert invert(ident) is ident  # returned as it is: an identity map costs no inverse


def test_invert_frozen_value_and_2x2_formula():
    m = bundles.bihom2(2, 3).alpha
    inv = invert(m)
    assert inv == Matrix.from_rows([["1", "-3/4"], ["0", "3/2"]])
    a, b = m.entries[0]
    c, d = m.entries[1]
    det = a * d - b * c
    by_formula = Matrix.from_rows([[d / det, -b / det], [-c / det, a / det]])
    assert inv == by_formula


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=9, max_size=9))
def test_invert_times_original_is_identity(vals):
    # unit lower-triangular times diagonal: always invertible
    d = [v if v != 0 else Fraction(1) for v in vals[:3]]
    m = Matrix.from_rows([
        [d[0], 0, 0],
        [vals[3], d[1], 0],
        [vals[4], vals[5], d[2]],
    ])
    assert invert(m) @ m == Matrix.identity(3)


def test_nullspace_identity_empty():
    assert solve(Matrix.identity(3))[1] == []


def test_nullspace_zero_map():
    vecs = solve(Matrix.zeros(2, 4))[1]
    assert len(vecs) == 4


def test_nullspace_vectors_satisfy_system_and_rank_count():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    m = Matrix.from_rows(rows)
    vecs = solve(m)[1]
    for v in vecs:
        assert all(x == 0 for x in m.apply(v))
    _, pivots = naive.rref(rows, m.cols)  # the rank, by the independent elimination
    assert len(vecs) + len(pivots) == m.cols


def test_nullspace_derivation_system_of_aff2():
    # hand-derived system for maps d with d([e1,e2]) = [d(e1),e2] + [e1,d(e2)]:
    # forces d[0][0] = d[0][1] = 0, leaving the second row free
    c = naive.as_cells(bundles.aff2().bracket)
    rows = naive.derivation_rows(c)
    m = Matrix.from_rows(rows)
    vecs = solve(m)[1]
    assert len(vecs) == 2
    for v in vecs:
        assert v[0] == 0 and v[1] == 0  # flattened (0,0) and (0,1) entries vanish


def test_solve_consistent_and_inconsistent():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    assert solve(a, (scalar(3), scalar(1))) == ((scalar(2), scalar(1)), [])
    bad = Matrix.from_rows([[1, 1], [1, 1]])
    assert solve(bad, (scalar(0), scalar(1))) == (None, [(scalar(-1), scalar(1))])
    assert solve(bad) == ((scalar(0), scalar(0)), [(scalar(-1), scalar(1))])


def test_contract_bracket_evaluation_matches_naive():
    # [u, v] is the bracket contracted with the row u on its first slot and v on its second
    b = bundles.sl2()
    c = naive.as_cells(b.bracket)
    u = (scalar(1), scalar(-2), scalar("1/3"))
    v = (scalar(0), scalar(5), scalar(1))
    uv = contract(contract(b.bracket, 0, Matrix.from_rows([u])), 1, Matrix.from_rows([v]))
    assert list(uv.entries[0][0]) == naive.bracket_eval(c, list(u), list(v))


sparse_rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))
nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def _contraction(draw, axis):
    """A random tensor, one of its slices along the axis possibly all zero, and
    a map on that axis: rectangular, or a square identity, diagonal or
    diagonal with some zeros."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    cells = [[[draw(sparse_rationals) for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]
    zero = draw(st.one_of(st.none(), st.integers(0, shape[axis] - 1)))
    for i, j, k in itertools.product(*map(range, shape)):
        if (i, j, k)[axis] == zero:
            cells[i][j][k] = Fraction(0)
    n = shape[axis]
    kind = draw(st.sampled_from(["rectangular", "identity", "diagonal", "zero-diagonal"]))
    if kind == "rectangular":
        return cells, [[draw(sparse_rationals) for _ in range(n)] for _ in range(draw(st.integers(1, 4)))]
    entry = {"identity": st.just(Fraction(1)), "diagonal": nonzero_rationals, "zero-diagonal": sparse_rationals}[kind]
    diag = [draw(entry) for _ in range(n)]
    if kind == "zero-diagonal":
        diag[draw(st.integers(0, n - 1))] = Fraction(0)
    return cells, [[diag[a] if a == b else Fraction(0) for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("axis", [0, 1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contract_matches_naive_loop(axis, data):
    cells, m = data.draw(_contraction(axis))
    got = contract(Tensor3.from_entries(cells), axis, Matrix.from_rows(m))
    assert naive.as_cells(got) == naive.contract(cells, axis, m)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.lists(sparse_rationals, min_size=3, max_size=3), min_size=2, max_size=2),
                min_size=4, max_size=4),
       st.permutations([0, 1, 2]))
def test_tensor_transpose_moves_indices(cells, axes):
    t = Tensor3.from_entries(cells)
    moved = t.transpose(tuple(axes))
    assert moved.shape == tuple(t.shape[a] for a in axes)
    for idx in itertools.product(*map(range, t.shape)):
        assert moved.entries[idx[axes[0]]][idx[axes[1]]][idx[axes[2]]] == cells[idx[0]][idx[1]][idx[2]]


def _inverse(axes):
    """The inverse permutation of axes, written out: back[axes[p]] = p."""
    back = [None] * 3
    for p, a in enumerate(axes):
        back[a] = p
    return tuple(back)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.lists(sparse_rationals, min_size=3, max_size=3), min_size=2, max_size=2),
                min_size=4, max_size=4))
def test_a_transpose_transposed_back_is_its_source(cells):
    """The result of a transpose holds its source, so the inverse transpose returns it; the link is no part of
    the value (==, hash and repr are those of the plain tensor) and nothing is recorded on the operand, so two
    transposes of it are two objects.  A transpose by any other permutation is still computed."""
    t = Tensor3.from_entries(cells)
    for axes in itertools.permutations(range(3)):
        moved = t.transpose(axes)
        assert moved.transpose(_inverse(axes)) is t
        assert t.transpose(axes) is not moved and t.back is None
        plain = Tensor3(moved.shape, moved.nz)
        assert moved == plain and hash(moved) == hash(plain) and repr(moved) == repr(plain)
        for other in itertools.permutations(range(3)):
            if other != _inverse(axes):
                again = moved.transpose(other)
                assert again is not t
                assert naive.as_cells(again) == naive.as_cells(plain.transpose(other))


def _multiple(t, c):
    """c t, as the one-term signed sum of t."""
    return contract_sum(t, [(c, (None, None, None))])


def test_tensor_add_sub_scale():
    t = bundles.bihom2(2, 3).bracket
    assert t.add(t) == _multiple(t, 2)
    assert t.sub(t).is_zero()
    with pytest.raises(DimensionMismatch):
        t.add(Tensor3.zeros((2, 2, 3)))


# -- zero-skipping kernel against plain loops ----------------------------------------------


@st.composite
def _sparse_cells(draw, shape):
    """Sparse random rationals of the given shape (a matrix or a tensor), one row
    and one column possibly all zero; a square matrix may instead be the
    identity or a diagonal."""
    if len(shape) == 2 and shape[0] == shape[1]:
        kind = draw(st.sampled_from(["sparse", "identity", "diagonal"]))
        if kind != "sparse":
            diag = [Fraction(1) if kind == "identity" else draw(sparse_rationals) for _ in range(shape[0])]
            return [[diag[i] if i == j else Fraction(0) for j in range(shape[1])] for i in range(shape[0])]
    zero_row = draw(st.one_of(st.none(), st.integers(0, shape[-2] - 1)))
    zero_col = draw(st.one_of(st.none(), st.integers(0, shape[-1] - 1)))
    cells = []
    for idx in itertools.product(*map(range, shape)):
        zero = idx[-2] == zero_row or idx[-1] == zero_col
        cells.append(Fraction(0) if zero else draw(sparse_rationals))
    for extent in reversed(shape):  # nest the flat list, innermost axis first
        cells = [cells[i:i + extent] for i in range(0, len(cells), extent)]
    return cells[0]


dims = st.integers(1, 5)


@settings(max_examples=80, deadline=None)
@given(st.data(), dims, dims, dims)
def test_matmul_matches_naive_product(data, n, p, q):
    a, b = data.draw(_sparse_cells((n, p))), data.draw(_sparse_cells((p, q)))
    got = Matrix.from_rows(a) @ Matrix.from_rows(b)
    assert (got.rows, got.cols) == (n, q)
    assert naive.mat_cells(got) == naive.mat_mul(a, b)
    assert all(isinstance(x, Fraction) for row in got.entries for x in row)


@pytest.mark.parametrize("order", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_sub_scale_and_nonzero_rows_match_naive_loops(order, data):
    shape = data.draw(st.tuples(*[dims] * order))
    a, b = data.draw(_sparse_cells(shape)), data.draw(_sparse_cells(shape))
    c = data.draw(st.one_of(st.just(Fraction(0)), sparse_rationals))
    x, y = (Matrix.from_rows(a), Matrix.from_rows(b)) if order == 2 else (_t3(a), _t3(b))
    cells = naive.mat_cells if order == 2 else naive.as_cells
    assert cells(x.add(y)) == naive.cellwise(lambda u, v: u + v, a, b)
    assert cells(x.sub(y)) == naive.cellwise(lambda u, v: u - v, a, b)
    assert cells(x.scale(c) if order == 2 else _multiple(x, c)) == naive.cellwise(lambda u, _: c * u, a, a)
    rows = [naive.stored_row(r) for r in a] if order == 2 else [[naive.stored_row(r) for r in plane] for plane in a]
    assert (list(x.nz) if order == 2 else [list(plane) for plane in x.nz]) == rows


def _assert_canonical(x):
    """x is stored in its canonical form: every row is one positive integer
    denominator and nonzero integer numerators at strictly increasing in-range
    indices, with no common factor; its dense view holds Fractions only; and x
    equals, and hashes like, its dense round trip, which is stored alike."""
    if isinstance(x, Matrix):
        rows, width, dense = x.nz, x.cols, x.entries
        assert len(x.nz) == x.rows and len(dense) == x.rows
    else:
        rows, width = [r for plane in x.nz for r in plane], x.shape[2]
        dense = [r for plane in x.entries for r in plane]
        assert len(x.nz) == x.shape[0] and all(len(plane) == x.shape[1] for plane in x.nz)
    for row in rows:
        assert isinstance(row, tuple) and len(row) == 2
        den, pairs = row
        assert type(den) is int and den > 0
        assert isinstance(pairs, tuple) and all(isinstance(pair, tuple) and len(pair) == 2 for pair in pairs)
        cols = [k for k, _ in pairs]
        assert cols == sorted(set(cols)) and all(0 <= k < width for k in cols)
        assert all(type(v) is int and v != 0 for _, v in pairs)
        assert math.gcd(den, *[v for _, v in pairs]) == 1
    assert all(len(r) == width and all(type(v) is Fraction for v in r) for r in dense)
    rebuilt = Matrix.from_rows(x.entries) if isinstance(x, Matrix) else Tensor3.from_entries(x.entries)
    assert x == rebuilt and x.nz == rebuilt.nz and hash(x) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(st.data(), dims, dims)
def test_every_result_is_canonical(data, n, p):
    a = Matrix.from_rows(data.draw(_sparse_cells((n, p))))
    b = Matrix.from_rows(data.draw(_sparse_cells((p, n))))
    t = _t3(data.draw(_sparse_cells((n, p, 2))))
    c = data.draw(st.one_of(st.just(Fraction(0)), sparse_rationals))
    diagonals = [Matrix.diagonal(data.draw(st.lists(sparse_rationals, min_size=k, max_size=k))) for k in t.shape]
    results = [a, a.add(a), a.sub(a), a.add(a.neg()), a.add(a.scale(-1)), a.scale(c), a.scale(0), a @ b, b @ a,
               a.transpose(), t, t.add(t), t.sub(t), t.add(_multiple(t, -1)), _multiple(t, c), _multiple(t, 0),
               *[t.transpose(axes) for axes in itertools.permutations(range(3))],
               contract(t, 0, b), contract(t, 1, a), contract(t, 2, Matrix.from_rows(data.draw(_sparse_cells((3, 2))))),
               *[contract(t, axis, d) for axis, d in enumerate(diagonals)],
               Matrix.identity(n) @ a, a @ Matrix.identity(p), diagonals[0].transpose()]
    square = a @ b
    try:
        results.append(invert(square))
    except SingularMatrix:
        pass
    for x in results:
        _assert_canonical(x)
    assert a.sub(a) == Matrix.zeros(n, p) and a.scale(0) == Matrix.zeros(n, p)
    assert t.sub(t) == Tensor3.zeros(t.shape)


@settings(max_examples=80, deadline=None)
@given(st.data(), dims, dims)
def test_neg_is_scale_by_minus_one(data, n, p):
    # neg negates the numerators in place of scaling: the rows stay in lowest terms, so the two agree exactly
    m = Matrix.from_rows(data.draw(_sparse_cells((n, p))))
    assert m.neg() == m.scale(-1)
    _assert_canonical(m.neg())


@settings(max_examples=60, deadline=None)
@given(st.data(), dims, dims)
def test_transpose_is_built_once_per_matrix(data, n, p):
    cells = data.draw(_sparse_cells((n, p)))
    m = Matrix.from_rows(cells)
    assert m.transpose() is m.transpose()
    assert naive.mat_cells(m.transpose()) == [[cells[i][j] for i in range(n)] for j in range(p)]
    assert m.transpose().transpose() == m


# coprime denominators make the running denominator grow to their lcm
small_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def _combination_terms(draw):
    """(sign, dense rows, dense coeffs) terms and the row width.  The sum is
    free, or cancels to zero (every term also appears negated), or is an
    integer row over fractional terms (one more term makes up the difference)."""
    width, nrows = draw(dims), draw(dims)
    row = st.lists(small_rationals, min_size=width, max_size=width)
    terms = [(draw(st.sampled_from([1, -1])), [draw(row) for _ in range(nrows)],
              draw(st.lists(small_rationals, min_size=nrows, max_size=nrows))) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["free", "zero", "integral"]))
    if kind == "zero":
        terms += [(-sign, rows, coeffs) for sign, rows, coeffs in terms]
    elif kind == "integral":
        target = draw(st.lists(st.integers(-3, 3).map(Fraction), min_size=width, max_size=width))
        rest = [[t - p for t, p in zip(target, naive.combination(terms, width))]]
        terms += [(1, rest, [Fraction(1, 3)]), (1, rest, [Fraction(2, 3)])]
    return terms, width


@settings(max_examples=150, deadline=None)
@given(_combination_terms())
def test_combination_matches_naive_fraction_loop(case):
    terms, width = case
    stored = [(sign, Matrix.from_rows(rows).nz, Matrix.from_rows([coeffs]).nz[0]) for sign, rows, coeffs in terms]
    assert _combination(stored) == naive.stored_row(naive.combination(terms, width))


def test_kernel_products_build_no_fraction():
    a = Matrix.from_rows([["1/2", 0, "2/3"], [0, 0, 0], [3, "-1/5", 1]])
    t = Tensor3.from_entries([[["1/3", 0, 1], [0, 0, 0], [2, "5/7", 0]]] * 3)
    d, e, c = Matrix.diagonal(["1/2", 0, -3]), Matrix.diagonal([2, "-2/7", 1]), Matrix.identity(3).scale(2)
    # folded sums: one factor per cell, and a multiple of t
    sums = [[(1, (d, None, e)), (Fraction(-2, 3), (None, d, d)), (-1, (e, e, e)), (3, (None, None, d))],
            [(Fraction(5, 2), (None, None, None)), (-1, (c, None, None)), (0, (a, a, a))]]
    expected = [naive.mat_mul(naive.mat_cells(a), naive.mat_cells(a))] + \
        [naive.contract(naive.as_cells(t), axis, naive.mat_cells(a)) for axis in range(3)] + \
        [_naive_sum(naive.as_cells(t), terms) for terms in sums]
    made = []
    new = vars(Fraction)["__new__"].__func__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        results = [a @ a] + [contract(t, axis, a) for axis in range(3)] + [contract_sum(t, terms) for terms in sums]
    finally:
        Fraction.__new__ = staticmethod(new)
    assert made == []
    assert [naive.mat_cells(results[0])] + [naive.as_cells(x) for x in results[1:]] == expected


# -- signed sums of contractions against sums of naive contraction chains ----------------------


def _naive_sum(cells, terms):
    """sum scale * (cells with axis i transformed by maps[i]) over (scale, maps) terms, by naive.contract."""
    total = [[[Fraction(0)] * len(cells[0][0]) for _ in cells[0]] for _ in cells]
    for scale, maps in terms:
        term = cells
        for axis, m in enumerate(maps):
            if m is not None:
                term = naive.contract(term, axis, naive.mat_cells(m))
        total = naive.cellwise(lambda u, x, scale=scale: u + scale * x, total, term)
    return total


@st.composite
def _axis_map(draw, n, general):
    """A map on an axis of extent n: None, the identity, c I, a diagonal with zero, negative or
    fractional entries, or, if general, a sparse or a dense map."""
    kind = draw(st.sampled_from(["none", "identity", "scalar", "diagonal"] + ["sparse", "dense"] * general))
    if kind in ("none", "identity"):
        return None if kind == "none" else Matrix.identity(n)
    if kind in ("scalar", "diagonal"):
        return Matrix.diagonal([draw(nonzero_rationals)] * n if kind == "scalar" else
                               draw(st.lists(sparse_rationals, min_size=n, max_size=n)))
    entries = sparse_rationals if kind == "sparse" else nonzero_rationals
    return Matrix.from_rows([[draw(entries) for _ in range(n)] for _ in range(n)])


@st.composite
def _contract_sum_case(draw):
    """A tensor, square (n, n, n) or shaped like a stacked action (n, v, v) with v != n, and 1-4 terms
    of scale 1, -1, 0 or a fraction, whose maps are all diagonal or, half the time, may be general."""
    n = draw(st.integers(1, 4))
    v = draw(st.sampled_from([x for x in range(1, 5) if x != n])) if draw(st.booleans()) else n
    cells = draw(_sparse_cells((n, v, v)))
    general = draw(st.booleans())
    terms = [(draw(st.one_of(st.sampled_from([1, -1, 0]), nonzero_rationals)),
              tuple(draw(_axis_map(k, general)) for k in (n, v, v))) for _ in range(draw(st.integers(1, 4)))]
    return cells, terms


def test_contract_sum_matches_sums_of_naive_contractions(monkeypatch):
    made, paths = [], set()
    monkeypatch.setattr(exact, "_contract", lambda *args: made.append(args) or _contract(*args))

    @settings(max_examples=200, deadline=None)
    @given(_contract_sum_case())
    def check(case):
        cells, terms = case
        made.clear()
        got = contract_sum(_t3(cells), terms)
        assert naive.as_cells(got) == _naive_sum(cells, terms)
        _assert_canonical(got)
        # a general map anywhere sends the terms through _contract; the folded path contracts nothing
        general = any(m is not None and m.diag is None for scale, maps in terms if scale for m in maps)
        assert bool(made) == general
        paths.add("general" if general else "folded")

    check()
    assert paths == {"general", "folded"}


def test_contract_sum_cancels_the_multiplicativity_of_a_torus_automorphism():
    # phi [x, y] - [phi x, phi y] for phi = Ad diag(1, 2, 1/3) on gl(3): every cell cancels in the folded
    # sum; a diagonal that is no automorphism leaves the cells the naive sum gives
    c = support.gl(3).bracket
    for phi, zero in ((support.gl_torus(3, [1, 2, "1/3"], [1, 1, 1]).alpha, True),
                      (Matrix.diagonal([1, 2, 3, "1/2", 5, -1, 7, 1, "2/3"]), False)):
        terms = [(1, (None, None, phi)), (-1, (phi.transpose(), phi.transpose(), None))]
        got = contract_sum(c, terms)
        assert naive.as_cells(got) == _naive_sum(naive.as_cells(c), terms)
        assert got.is_zero() == zero


#: a product of at most four of the primes 2, 3 and 5, 1 among them
_smooth = st.lists(st.sampled_from([2, 3, 5]), max_size=4).map(math.prod)


@st.composite
def _row_and_factor(draw):
    """A canonical row and a nonzero factor p / q in lowest terms, all built from the primes 2, 3 and 5, so
    that the row's denominator shares primes with p and its numerators with q: p = +-1, q = 1 and p < 0 among
    them."""
    den, cols = draw(_smooth), sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)))
    nums = [draw(st.sampled_from([1, -1])) * draw(_smooth) for _ in cols]
    g = math.gcd(den, *nums)
    p, q = draw(st.sampled_from([1, -1])) * draw(_smooth), draw(_smooth)
    h = math.gcd(p, q)
    return (den // g, tuple((k, v // g) for k, v in zip(cols, nums))), p // h, q // h


@settings(max_examples=300, deadline=None)
@given(_row_and_factor())
def test_a_scaled_row_reaches_lowest_terms_from_two_gcds(case):
    # _scaled (the scalar path, a product of diagonals) and the folded path's one-factor row: both give the
    # row in lowest terms that reducing the plain product gives, and keep the row's own pairs when the factor
    # reduces to 1 over its denominator
    (den, pairs), p, q = case
    want = exact._reduced(den * q, tuple((k, v * p) for k, v in pairs))
    kept = p // math.gcd(den, p) == 1 and math.gcd(q, *[v for _, v in pairs]) == 1
    t = Tensor3((2, 1, 6), (((den, pairs),), ((den, pairs),)))
    factors = [Fraction(p, q), Fraction(p, q) + 1]  # two entries, so the map is no c I and the folded path runs
    terms = [(1, (Matrix.diagonal(factors), None, None))]
    got = contract_sum(t, terms)
    assert naive.as_cells(got) == _naive_sum(naive.as_cells(t), terms)
    _assert_canonical(got)
    for row in (exact._scaled((den, pairs), p, q), got.nz[0][0]):
        assert row == want and (row[1] is pairs) == kept
        _assert_canonical(Matrix(1, 6, (row,)))
    # a product of two diagonals, entry by entry: the first row's first entry times p / q
    first = Matrix.diagonal([Fraction(pairs[0][1], den), 1])
    (d, ((_, v),)), _ = first.nz
    assert (first @ Matrix.diagonal([Fraction(p, q), 1])).nz[0] == exact._reduced(d * q, ((0, v * p),))


def test_contract_sum_twists_and_untwists_rows_that_share_the_torus_primes():
    # the twisted bracket of gl(3) holds numerators and denominators of 2, 3 and 6, as the torus maps do: twisting
    # it again multiplies its rows by factors whose numerators share a prime with the rows' denominators, and
    # untwisting divides them by factors whose denominators share a prime with the rows' numerators
    a = support.gl_torus(3, [1, 2, "1/3"], [1, 3, "1/2"])
    for maps in ((a.alpha, a.beta, None), (invert(a.alpha), invert(a.beta), None)):
        terms = [(1, maps)]
        got = contract_sum(a.bracket, terms)
        assert naive.as_cells(got) == _naive_sum(naive.as_cells(a.bracket), terms)
        _assert_canonical(got)
    assert got == support.gl(3).bracket  # untwisted


def test_contract_sum_of_scalar_maps_is_one_multiple():
    # every map c I or None: factors totalling 1 return t itself, totalling 0 the zero tensor, others each row scaled
    t, ident = bundles.bihom2(2, 3).bracket, Matrix.identity(2)
    two, half = ident.scale(2), Matrix.diagonal(["1/2"] * 2)
    assert contract_sum(t, [(2, (ident, None, None)), (-1, (None, None, None))]) is t
    assert contract_sum(t, [(Fraction(1, 2), (two, None, None))]) is t
    assert contract_sum(t, [(1, (half, two, None)), (Fraction(-1, 3), (None, None, ident.scale(3)))]).is_zero()
    assert contract_sum(t, [(1, (Matrix.zeros(2, 2), None, None))]) == Tensor3.zeros(t.shape)
    c = support.gl(3).bracket
    frac = [Matrix.diagonal([x] * 9) for x in ("-2/3", "5/7", "3/4")]
    terms = [(Fraction(7, 5), tuple(frac)), (-1, (frac[1], None, frac[0]))]
    got = contract_sum(c, terms)
    assert naive.as_cells(got) == _naive_sum(naive.as_cells(c), terms)
    _assert_canonical(got)


def test_contract_sum_of_varying_diagonals_matches_naive():
    # on gl(3): two distinct axis-2 diagonals, two constant terms and a c I on axis 2 among them; rows whose
    # varying factors vanish (e has a zero entry) take one factor, others one varying factor or several
    c = support.gl(3).bracket
    d, e, g = (Matrix.diagonal(v) for v in ([1, 2, 3, "1/2", 5, -1, 7, 1, "2/3"], [2, 0, 1, 1, "-1/3", 4, 1, 1, 3],
                                             [3, 1, "1/5", 0, 2, 2, -2, 1, 1]))
    three = Matrix.identity(9).scale(3)
    terms = [(1, (d, None, None)), (Fraction(-2, 3), (None, e, d)), (3, (e, None, g)), (-1, (g, d, three)),
             (1, (None, None, d))]
    for some in (terms[:2], terms[1:3], terms):
        got = contract_sum(c, some)
        assert naive.as_cells(got) == _naive_sum(naive.as_cells(c), some)
        _assert_canonical(got)


def test_contract_sum_never_contracts_a_zero_scale_term(monkeypatch):
    t = bundles.sl2().bracket
    general = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    expected = _multiple(contract(t, 2, general), -1)
    made = []
    monkeypatch.setattr(exact, "_contract", lambda *args: made.append(args) or _contract(*args))
    assert contract_sum(t, [(1, (None, None, None))]) is t
    assert contract_sum(t, [(1, (None, None, None)), (0, (general, general, general))]) == t
    assert contract_sum(t, [(0, (general, None, None)), (Fraction(0), (None, general, None))]).is_zero()
    assert made == []
    assert contract_sum(t, [(-1, (None, None, general)), (0, (general, general, None))]) == expected
    assert [(axis, m) for _, axis, m in made] == [(2, general)]


def test_contract_sum_applies_each_map_once(monkeypatch):
    # a general map on one axis and a diagonal on another: one _contract call, the diagonal folded as its one-term sum
    t = bundles.sl2().bracket
    general, d = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]]), Matrix.diagonal([2, "-1/3", 5])
    made = []
    monkeypatch.setattr(exact, "_contract", lambda *args: made.append(args) or _contract(*args))
    for maps in itertools.permutations((general, d, None)):
        made.clear()
        terms = [(Fraction(3, 2), maps)]
        assert naive.as_cells(contract_sum(t, terms)) == _naive_sum(naive.as_cells(t), terms)
        assert [(axis, m) for _, axis, m in made] == [(maps.index(general), general)]


def test_contract_sum_checks_every_map_size(monkeypatch):
    # a wrong-size map on any axis of a kept term raises before anything is contracted, on the general path and
    # on the folded one, and a wrong-size identity raises in the one-term short-cut
    t = bundles.sl2().bracket
    general, d = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]]), Matrix.diagonal([2, 3, 5])
    made = []
    monkeypatch.setattr(exact, "_contract", lambda *args: made.append(args) or _contract(*args))
    wrong = [Matrix.from_rows([[1, 2], [3, 4]]), Matrix.from_rows([[1, 2], [3, 4], [5, 6]]), Matrix.diagonal([2, 3]),
             Matrix.identity(2), Matrix.identity(4)]
    for axis, m in itertools.product(range(3), wrong):
        bad = tuple(m if a == axis else None for a in range(3))
        other = tuple(None if a == axis else d for a in range(3))
        cases = [[(1, bad)], [(1, (general, None, None)), (-1, bad)]]
        if m.diag is not None:
            cases += [[(1, other), (Fraction(1, 2), bad)], [(1, tuple(x or y for x, y in zip(bad, other)))],
                      [(3, (None, None, None)), (-1, tuple(m.scale(5) if a == axis else None for a in range(3)))]]
        for terms in cases:
            with pytest.raises(DimensionMismatch, match="does not match an axis of extent 3"):
                contract_sum(t, terms)
    assert made == []
    # a dropped term is never read
    assert contract_sum(t, [(1, (d, None, None)), (0, (wrong[0], None, None))]) == contract(t, 0, d)


# -- elimination against independent oracles ---------------------------------------


@st.composite
def _linear_system(draw):
    """Sparse rational rows with zero rows, repeated and scaled-repeated rows and
    combinations of other rows (rank deficiency) mixed in, plus a right-hand
    side that is in the column span or drawn freely (often inconsistent)."""
    cols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    row = st.lists(sparse_rationals, min_size=cols, max_size=cols)
    rows = [draw(row)]
    while len(rows) < nrows:
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scaled", "combination"]))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s, t = draw(nonzero_rationals), draw(nonzero_rationals)
        if kind == "fresh":
            rows.append(draw(row))
        elif kind == "zero":
            rows.append([Fraction(0)] * cols)
        elif kind == "repeat":
            rows.append(list(rows[i]))
        elif kind == "scaled":
            rows.append([s * x for x in rows[i]])
        else:
            rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
    rows = [rows[k] for k in draw(st.permutations(range(nrows)))]
    if draw(st.booleans()):
        x0 = draw(st.lists(sparse_rationals, min_size=cols, max_size=cols))
        b = [sum((a * x for a, x in zip(r, x0)), Fraction(0)) for r in rows]
    else:
        b = draw(st.lists(sparse_rationals, min_size=nrows, max_size=nrows))
    return rows, b


def _sparse(rows):
    """The matrix built straight from its rows in the stored form, not via from_rows."""
    return Matrix(len(rows), len(rows[0]), tuple(map(naive.stored_row, rows)))


@settings(max_examples=100, deadline=None)
@given(_linear_system())
def test_nullspace_and_solve_equal_gauss_jordan_oracle(system):
    rows, b = system
    cols = len(rows[0])
    kernel = naive.rref_nullspace(rows, cols)
    particular = naive.rref_solve(rows, b, cols)
    for m in (Matrix.from_rows(rows), _sparse(rows)):
        assert [list(v) for v in solve(m)[1]] == kernel
        x, kernel_b = solve(m, tuple(b))
        assert (None if x is None else list(x)) == particular
        assert [list(v) for v in kernel_b] == kernel  # consistent or not, the same kernel


@st.composite
def _rearranged(draw, nrows):
    """(row index, nonzero integer scale) of each row of a rearranged system: every row at least once, some
    twice or more, in any order."""
    repeats = draw(st.lists(st.integers(0, nrows - 1), max_size=nrows))
    order = draw(st.permutations(list(range(nrows)) + repeats))
    return [(i, draw(st.integers(-4, 4).filter(bool))) for i in order]


@settings(max_examples=100, deadline=None)
@given(_linear_system(), st.sampled_from(["homogeneous", "fractions", "ints"]), st.data())
def test_solve_is_independent_of_row_order_repeats_and_scales(system, rhs, data):
    # the reduced row echelon form is unique, so the equations of [a | b] may come in any order, repeated and
    # scaled, and give one (particular, kernel); right-hand sides given as ints read as the same Fractions
    rows, b = system
    if rhs == "ints":  # each equation scaled by its right-hand side's denominator, which makes that side an int
        rows = [[y.denominator * x for x in row] for row, y in zip(rows, b)]
        b = [y.numerator for y in b]
        assert solve(Matrix.from_rows(rows), tuple(b)) == solve(Matrix.from_rows(rows), tuple(map(Fraction, b)))
    picks = data.draw(_rearranged(len(rows)))
    moved = Matrix.from_rows([[s * x for x in rows[i]] for i, s in picks])
    if rhs == "homogeneous":
        assert solve(moved) == solve(Matrix.from_rows(rows))
    else:
        assert solve(moved, tuple(s * b[i] for i, s in picks)) == solve(Matrix.from_rows(rows), tuple(b))


@st.composite
def _square_matrix(draw):
    """A sparse square rational matrix with a shifted diagonal, its rows
    shuffled; in about half the draws one row is a combination of two others."""
    n = draw(st.integers(1, 6))
    rows = [[x + 7 if i == j else x for j, x in enumerate(draw(st.lists(sparse_rationals, min_size=n, max_size=n)))]
            for i in range(n)]
    if n > 2 and draw(st.booleans()):
        s, t = draw(nonzero_rationals), draw(nonzero_rationals)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    return [rows[k] for k in draw(st.permutations(range(n)))]


@settings(max_examples=60, deadline=None)
@given(_square_matrix())
def test_invert_equals_gauss_jordan_oracle(rows):
    n = len(rows)
    m = Matrix.from_rows(rows)
    if naive.gauss_nullity(rows, n):
        with pytest.raises(SingularMatrix):
            invert(m)
        return
    inv = invert(m)
    for col in range(n):
        assert list(inv.transpose().entries[col]) == naive.rref_solve(rows, [Fraction(int(i == col)) for i in range(n)], n)


def test_elimination_drops_zero_and_repeated_rows():
    # 729 x 81 all-zero system: nothing to eliminate, every column free
    kernel = solve(Matrix.zeros(729, 81))[1]
    assert [list(v) for v in kernel] == naive.rref_nullspace([[0] * 81], 81)
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 0], [-1, -2, 0], [0, 3, 3]]
    assert [list(v) for v in solve(Matrix.from_rows(rows))[1]] == naive.rref_nullspace(rows, 3)


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _fractions(values):
    return [Fraction(int(x.p), int(x.q)) for x in values]


@settings(max_examples=60, deadline=None)
@given(_linear_system())
def test_nullspace_and_solve_equal_sympy(system):
    sympy = pytest.importorskip("sympy")
    rows, b = system
    cols = len(rows[0])
    a = _sympy_matrix(sympy, rows)
    m = Matrix.from_rows(rows)
    kernel = [_fractions(v) for v in a.nullspace()]
    assert [list(v) for v in solve(m)[1]] == kernel
    reduced, pivots = a.row_join(_sympy_matrix(sympy, [[y] for y in b])).rref()
    x, kernel_b = solve(m, tuple(b))
    assert [list(v) for v in kernel_b] == kernel  # consistent or not, the same kernel
    if cols in pivots:
        assert x is None
    else:
        expected = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            expected[p] = _fractions([reduced[r, cols]])[0]
        assert list(x) == expected


@settings(max_examples=40, deadline=None)
@given(_square_matrix())
def test_invert_equals_sympy(rows):
    sympy = pytest.importorskip("sympy")
    a = _sympy_matrix(sympy, rows)
    m = Matrix.from_rows(rows)
    if a.rank() < len(rows):
        with pytest.raises(SingularMatrix):
            invert(m)
    else:
        assert [list(r) for r in invert(m).entries] == [_fractions(a.inv().row(i)) for i in range(len(rows))]


# -- row content: the walk stops at the first gcd of 1, and no sooner ----------------------

#: _smooth of either sign: numerators whose content is often above 1
_signed_smooth = st.builds(lambda s, v: s * v, st.sampled_from([1, -1]), _smooth)


@settings(max_examples=300, deadline=None)
@given(_smooth, st.lists(_signed_smooth, max_size=6))
def test_row_content_is_the_gcd_of_every_numerator(g, numerators):
    assert _content(g, tuple(enumerate(numerators))) == math.gcd(g, *numerators)


def test_row_content_reads_past_a_shared_first_factor():
    assert _content(6, ((0, 2), (4, 3))) == 1  # the first numerator shares 2 with g, the second nothing
    assert _content(12, ((1, 6), (2, -4), (7, 9))) == 1
    assert _content(12, ((1, 6), (2, -18))) == 6
    assert _content(1, ((0, 4), (1, 6))) == 1  # g = 1 on entry
    assert _content(1, ()) == 1
    assert _content(7, ()) == 7  # no pairs: g itself
    assert _content(0, ((3, -4), (5, 6))) == 2  # elimination's start, 0: the gcd of the numerators alone


_integer_row = st.dictionaries(st.integers(0, 5), _signed_smooth, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_signed_smooth, _integer_row, _signed_smooth, _integer_row)
def test_combine_returns_the_primitive_part_of_the_combination(a, row, b, other):
    new = {j: a * row.get(j, 0) - b * other.get(j, 0) for j in row.keys() | other.keys()}
    new = {j: v for j, v in new.items() if v}
    content = math.gcd(*new.values()) if new else 1
    got = _combine(a, row, b, other)
    assert got == {j: v // content for j, v in new.items()}
    assert not got or math.gcd(*got.values()) == 1


def test_combine_divides_out_a_content_above_one():
    # 2 * (3, 5, 6) - 3 * (2, 2, 2) = (0, 4, 6), whose content is 2
    assert _combine(2, {0: 3, 1: 5, 2: 6}, 3, {0: 2, 1: 2, 2: 2}) == {1: 2, 2: 3}
    assert _combine(1, {0: 4, 3: 8}, 1, {0: 4}) == {3: 1}
    assert _combine(1, {0: 1}, 1, {0: 1}) == {}


# -- diagonal maps: products, inverses and commutators entry by entry ----------------------


@st.composite
def _diagonal_map(draw, n, nonzero=False):
    """A diagonal map of size n: c I, the identity or a diagonal with negative and fractional entries; unless
    nonzero, the diagonal may hold zeros and the zero map is drawn too."""
    kind = draw(st.sampled_from(["diagonal", "scalar", "identity"] + ["zero"] * (not nonzero)))
    if kind in ("identity", "zero"):
        return Matrix.identity(n) if kind == "identity" else Matrix.zeros(n, n)
    entries = nonzero_rationals if nonzero else sparse_rationals
    return Matrix.diagonal([draw(nonzero_rationals)] * n if kind == "scalar" else
                           draw(st.lists(entries, min_size=n, max_size=n)))


def test_a_product_of_diagonals_is_elementwise(monkeypatch):
    made = []
    monkeypatch.setattr(exact, "_combination", lambda terms: made.append(terms) or _combination(terms))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), dims)
    def check(data, n):
        a, b = data.draw(_diagonal_map(n)), data.draw(_diagonal_map(n))
        made.clear()
        got = a @ b
        assert made == []
        assert naive.mat_cells(got) == naive.mat_mul(naive.mat_cells(a), naive.mat_cells(b))
        _assert_canonical(got)

    check()
    Matrix.from_rows([[1, 1], [0, 1]]) @ Matrix.diagonal([2, 3])  # a general factor takes the row product
    assert made != []


def test_a_diagonal_inverts_entry_by_entry(monkeypatch):
    made = []
    monkeypatch.setattr(exact, "_bareiss_echelon", lambda rows: made.append(rows) or _bareiss_echelon(rows))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), dims)
    def check(data, n):
        m = data.draw(_diagonal_map(n, nonzero=True))
        made.clear()
        inv = invert(m)
        assert made == []
        rows = naive.mat_cells(m)
        for col in range(n):
            assert list(inv.transpose().entries[col]) == naive.rref_solve(rows, naive.basis(n, col), n)
        _assert_canonical(inv)

    check()
    for singular in (Matrix.diagonal([0]), Matrix.diagonal([2, 0, "-1/3"]), Matrix.zeros(3, 3)):
        with pytest.raises(SingularMatrix, match="^matrix is singular$"):
            invert(singular)
    assert made == []
    invert(Matrix.from_rows([[1, 1], [0, 1]]))  # a general map is eliminated
    assert made != []


def test_commutator_of_two_diagonals_builds_no_product(monkeypatch):
    made, kinds = [], set()
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: made.append((a, b)) or matmul(a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), dims)
    def check(data, n):
        d, e = data.draw(_diagonal_map(n)), data.draw(_diagonal_map(n))
        made.clear()
        assert _commutator(d, e) == Matrix.zeros(n, n) and made == []
        g = Matrix.from_rows(data.draw(_sparse_cells((n, n))))
        for a, b in ((d, g), (g, d)):
            assert naive.mat_cells(_commutator(a, b)) == naive.commutator(naive.mat_cells(a), naive.mat_cells(b))
        kinds.add(g.diag is None)

    check()
    assert kinds == {True, False}
    for a, b in ((Matrix.diagonal([1, 2]), Matrix.diagonal([1, 2, 3])), (Matrix.identity(3), Matrix.identity(2)),
                 (Matrix.diagonal([1, 2]), Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))):
        with pytest.raises(DimensionMismatch):
            _commutator(a, b)
