"""Bundle types, fixtures and serialization round-trips."""

import dataclasses
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomlie import bundles
from bihomlie.bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    Differential,
    FormBundle,
    MatchedPairBundle,
    ParseError,
    RepresentationBundle,
    Residual,
    fixture_by_name,
)
from bihomlie.constructions import dualize
from bihomlie.exact import DimensionMismatch, Matrix, Tensor3, scalar


def _sample_algebra():
    return dataclasses.replace(
        bundles.bihom2(2, 3),
        differential=Differential(Matrix.zeros(2, 2), scalar("1/2")),
    )


def _sample_coalgebra():
    from bihomlie.constructions import dualize

    co = dualize(bundles.aff2())
    return dataclasses.replace(co, conijenhuis=Matrix.identity(2),
                               codiff=Differential(Matrix.from_rows([[1, 2], [3, 4]]), scalar(0)))


def test_roundtrip_algebra():
    b = _sample_algebra()
    assert bundles.load(bundles.dumps(b)) == b


def test_roundtrip_coalgebra():
    c = _sample_coalgebra()
    assert bundles.load(bundles.dumps(c)) == c


def test_roundtrip_bialgebra():
    from bihomlie.constructions import dualize

    alg = bundles.aff2()
    b = BialgebraBundle(alg, dualize(bundles.abelian(2)))
    assert bundles.load(bundles.dumps(b)) == b


def test_roundtrip_representation():
    import support

    r = support.adjoint_rep(dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2)),
                            eta=Matrix.identity(2))
    assert bundles.load(bundles.dumps(r)) == r


def test_roundtrip_matched_pair():
    import support

    mp = support.bicrossed_valid(3)[1]
    assert bundles.load(bundles.dumps(mp)) == mp


def test_roundtrip_form():
    f = FormBundle(Matrix.from_rows([[0, 1], [1, 0]]))
    assert bundles.load(bundles.dumps(f)) == f


def test_load_golden_document_bracket_entry():
    b = bundles.bihom2(2, 3)
    doc = json.loads(bundles.dumps(b))
    first = doc["bracket"][0]
    assert (first["i"], first["j"]) == (1, 2)
    assert first["out"] == ["-3", "2"]  # [e1, e2] = -3 e1 + 2 e2
    assert bundles.load(bundles.dumps(b)).bracket.entries[0][1] == (scalar(-3), scalar(2))


def test_load_abelian_document():
    doc = {"kind": "algebra", "dim": 3, "variant": "lie"}
    b = bundles.from_document(doc)
    assert b.bracket.is_zero()
    assert b.alpha == Matrix.identity(3)


def test_load_dimension_mismatch():
    doc = {
        "kind": "algebra", "dim": 2, "variant": "bihom-lie",
        "alpha": [["1", "0"], ["0", "1"]], "beta": [["1", "0"], ["0", "1"]],
        "nijenhuis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    with pytest.raises(DimensionMismatch):
        bundles.from_document(doc)


def test_parse_error_reports_line_and_field():
    with pytest.raises(ParseError, match="line"):
        bundles.load("{ not json")
    with pytest.raises(ParseError, match="bracket"):
        bundles.from_document({"kind": "algebra", "dim": 2, "bracket": [{"i": 1, "out": ["1", "0"]}]})


def test_lie_kind_forces_identity_maps():
    cells = Tensor3.zeros((2, 2, 2))
    with pytest.raises(ParseError):
        AlgebraBundle(2, cells, Matrix.diagonal([2, 1]), Matrix.identity(2), kind="lie")


def test_dual_basis_transpose():
    # a map read on the dual space is its transpose in the canonical dual basis
    b = bundles.bihom2(2, 3)
    co = dualize(b)
    assert co.alpha == Matrix.from_rows([["1", "0"], ["1/2", "2/3"]])
    assert co.beta == Matrix.identity(2)
    assert dualize(co).alpha == b.alpha


def test_dual_basis_transpose_reverses_composition():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [5, "1/2"]])
    alg = AlgebraBundle(2, Tensor3.zeros((2, 2, 2)), a, b)
    co = dualize(alg)
    assert dualize(dataclasses.replace(alg, alpha=a @ b)).alpha == co.beta @ co.alpha


def test_bihom2_frozen_values():
    b = bundles.bihom2(2, 3)
    assert b.alpha.transpose().entries[1] == (scalar("1/2"), scalar("2/3"))
    assert b.nijenhuis.transpose().entries[1] == (scalar("-3/2"), scalar(2))
    assert b.beta == Matrix.identity(2)


def test_bihom2_rejects_degenerate_parameters():
    for m, n in ((0, 3), (2, 0), (2, 1)):
        with pytest.raises(ValueError):
            bundles.bihom2(m, n)


def test_abelian_bracket_zero():
    assert bundles.abelian(3).bracket.is_zero()


def test_fixture_by_name():
    assert fixture_by_name("sl2") == bundles.sl2()
    assert fixture_by_name("abelian(4)").dim == 4
    assert fixture_by_name("bihom2(2, 3)") == bundles.bihom2(2, 3)
    with pytest.raises(ParseError):
        fixture_by_name("nope")
    with pytest.raises(ParseError):
        fixture_by_name("sl2(3)")


def test_representation_dimension_validation():
    alg = bundles.aff2()
    with pytest.raises(DimensionMismatch):
        RepresentationBundle(alg, 2, (Matrix.identity(2),), Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        RepresentationBundle(alg, 2, (Matrix.identity(2), Matrix.identity(3)), Matrix.identity(2), Matrix.identity(2))


def test_bialgebra_requires_shared_maps():
    from bihomlie.constructions import dualize

    alg = bundles.bihom2(2, 3)
    co = dualize(bundles.abelian(2))  # identity maps, but algebra maps differ
    with pytest.raises(ParseError):
        BialgebraBundle(alg, co)


def test_matched_pair_validation():
    left, right = bundles.aff2(), bundles.abelian(3)
    rho = tuple(Matrix.zeros(3, 3) for _ in range(2))
    h = tuple(Matrix.zeros(2, 2) for _ in range(3))
    MatchedPairBundle(left, right, rho, h)
    with pytest.raises(DimensionMismatch):
        MatchedPairBundle(left, right, rho, h[:2])


@pytest.mark.parametrize("field, value", [("dim", 3.7), ("dim", True), ("dim", "2"), ("dim", 2.0)])
def test_dim_must_be_a_json_integer(field, value):
    with pytest.raises(ParseError, match="dim"):
        bundles.load(json.dumps({"kind": "algebra", field: value, "variant": "lie"}))


def test_vdim_must_be_a_positive_json_integer():
    import support

    doc = json.loads(bundles.dumps(support.adjoint_rep(bundles.aff2())))
    for bad in (2.5, False, 0):
        with pytest.raises(ParseError, match="vdim"):
            bundles.from_document({**doc, "vdim": bad})


@pytest.mark.parametrize("entry", [{"i": 1.0, "j": 2, "out": ["0", "1"]}, {"i": True, "j": 2, "out": ["0", "1"]},
                                   {"i": 1, "j": "2", "out": ["0", "1"]}])
def test_bracket_indices_must_be_json_integers(entry):
    with pytest.raises(ParseError, match="bracket"):
        bundles.from_document({"kind": "algebra", "dim": 2, "bracket": [entry]})


def test_comul_index_must_be_a_json_integer():
    with pytest.raises(ParseError, match="comul"):
        bundles.from_document({"kind": "coalgebra", "dim": 1, "comul": [{"k": 1.0, "out": [["1"]]}]})


def test_repeated_bracket_entry_is_rejected():
    entries = [{"i": 1, "j": 2, "out": ["0", "1"]}, {"i": 1, "j": 2, "out": ["0", "2"]}]
    with pytest.raises(ParseError, match="repeated"):
        bundles.from_document({"kind": "algebra", "dim": 2, "bracket": entries})


def test_repeated_comul_entry_is_rejected():
    entries = [{"k": 1, "out": [["0", "1"], ["-1", "0"]]}, {"k": 1, "out": [["0", "0"], ["0", "0"]]}]
    with pytest.raises(ParseError, match="repeated"):
        bundles.from_document({"kind": "coalgebra", "dim": 2, "comul": entries})


@pytest.mark.parametrize("name", ["abelian(0)", "abelian(-1)", "abelian(2.5)", "abelian()"])
def test_abelian_fixture_needs_a_positive_integer(name):
    with pytest.raises(ParseError):
        fixture_by_name(name)


sparse_rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.tuples(*[st.integers(1, 4)] * 3), st.booleans())
def test_tabulate_and_from_matrix_equal_collect_over_all_cells(data, shape, empty):
    d0, d1, d2 = shape
    cell = st.just(Fraction(0)) if empty else sparse_rationals
    cells = [[[data.draw(cell) for _ in range(d2)] for _ in range(d1)] for _ in range(d0)]
    t, m = Tensor3.from_entries(cells), Matrix.from_rows(cells[0])

    def every(shape, value):
        return Residual.collect(shape, ((idx, value(*idx)) for idx in itertools.product(*map(range, shape))))

    expected = every(shape, lambda i, j, k: cells[i][j][k])
    assert Residual.from_matrix(t) == expected
    assert Residual.tabulate((d0, d1), d2, lambda i, j: t.nz[i][j]) == expected
    assert Residual.from_matrix(m) == every((d1, d2), lambda j, k: cells[0][j][k])
    assert Residual.tabulate((d1, d0, d0), d2, lambda j, i, l: t.nz[l][j]) == \
        every((d1, d0, d0, d2), lambda j, i, l, k: cells[l][j][k])
    assert not empty or Residual.from_matrix(t).nonzeros == ()
