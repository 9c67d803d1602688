"""Arithmetic substrate: scalars, matrices, tensors, elimination."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from bihomlie import bundles
from bihomlie.exact import (
    DimensionMismatch,
    Matrix,
    SingularMatrix,
    Tensor3,
    contract,
    format_scalar,
    invert,
    nullspace,
    rank,
    scalar,
    solve,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_scalar_parse_and_format():
    assert scalar("3/6") == Fraction(1, 2)
    assert scalar("-4/2") == Fraction(-2)
    assert format_scalar(Fraction(6, -4)) == "-3/2"
    assert format_scalar(Fraction(5)) == "5"
    with pytest.raises(TypeError):
        scalar(1.5)


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
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


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
    assert nullspace(Matrix.identity(3)) == []


def test_nullspace_zero_map():
    vecs = nullspace(Matrix.zeros(2, 4))
    assert len(vecs) == 4


def test_nullspace_vectors_satisfy_system_and_rank_count():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    vecs = nullspace(m)
    for v in vecs:
        assert all(x == 0 for x in m.apply(v))
    assert len(vecs) + rank(m) == m.cols


def test_nullspace_derivation_system_of_aff2():
    # hand-derived system for maps d with d([e1,e2]) = [d(e1),e2] + [e1,d(e2)]:
    # forces d[0][0] = d[0][1] = 0, leaving the second row free
    c = naive.as_cells(bundles.aff2().bracket)
    rows = naive.derivation_rows(c)
    m = Matrix.from_rows(rows)
    vecs = nullspace(m)
    assert len(vecs) == 2
    for v in vecs:
        assert v[0] == 0 and v[1] == 0  # flattened (0,0) and (0,1) entries vanish


def test_solve_consistent_and_inconsistent():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    x = solve(a, (scalar(3), scalar(1)))
    assert x == (scalar(2), scalar(1))
    bad = Matrix.from_rows([[1, 1], [1, 1]])
    assert solve(bad, (scalar(0), scalar(1))) is None


def test_contract_bracket_evaluation_matches_naive():
    # [u, v] is the bracket contracted with the row u on its first slot and v on its second
    b = bundles.sl2()
    c = naive.as_cells(b.bracket)
    u = (scalar(1), scalar(-2), scalar("1/3"))
    v = (scalar(0), scalar(5), scalar(1))
    uv = contract(contract(b.bracket, 0, Matrix.from_rows([u])), 1, Matrix.from_rows([v]))
    assert list(uv.entries[0][0]) == naive.bracket_eval(c, list(u), list(v))


sparse_rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def _contraction(draw, axis):
    """A random tensor, one of its slices along the axis possibly all zero, and
    a rectangular map on that axis."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    cells = [[[draw(sparse_rationals) for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]
    zero = draw(st.one_of(st.none(), st.integers(0, shape[axis] - 1)))
    for i, j, k in itertools.product(*map(range, shape)):
        if (i, j, k)[axis] == zero:
            cells[i][j][k] = Fraction(0)
    rows = draw(st.integers(1, 4))
    m = [[draw(sparse_rationals) for _ in range(shape[axis])] for _ in range(rows)]
    return cells, m


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


def test_tensor_add_sub_scale():
    t = bundles.bihom2(2, 3).bracket
    assert t.add(t) == t.scale(2)
    assert t.sub(t).is_zero()
    with pytest.raises(DimensionMismatch):
        t.add(Tensor3.zeros((2, 2, 3)))
