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


def test_writing_a_sparse_algebra_builds_no_dense_bracket():
    # the writer reads the nonempty rows alone: Tensor3.entries would make all dim^2 dense rows
    n = 300
    nz = [[(1, ())] * n for _ in range(n)]
    nz[0][1], nz[1][0] = (2, ((0, -1), (n - 1, 3))), (2, ((0, 1), (n - 1, -3)))
    a = AlgebraBundle(n, Tensor3((n, n, n), tuple(map(tuple, nz))), Matrix.identity(n), Matrix.identity(n))
    doc = json.loads(bundles.dumps(a))
    assert "entries" not in vars(a.bracket)
    assert [(e["i"], e["j"]) for e in doc["bracket"]] == [(1, 2), (2, 1)]
    assert doc["bracket"][0]["out"][:2] == ["-1/2", "0"] and doc["bracket"][0]["out"][-1] == "3/2"
    assert bundles.load(bundles.dumps(a)).bracket == a.bracket


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
    with pytest.raises(ParseError, match="^fixture 'sl2' takes no arguments$"):
        fixture_by_name("sl2(3)")
    for name in ("abelian(3,4)", "bihom2(2)", "bihom2(2,3,4)"):  # every argument is read, none dropped
        with pytest.raises(ParseError, match="^bad arguments for fixture"):
            fixture_by_name(name)


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
def test_from_rows_and_from_matrix_equal_collect_over_all_cells(data, shape, empty):
    d0, d1, d2 = shape
    cell = st.just(Fraction(0)) if empty else sparse_rationals
    blank = data.draw(st.sets(st.tuples(st.integers(0, d0 - 1), st.integers(0, d1 - 1))))  # rows left empty
    cells = [[[Fraction(0) if (i, j) in blank else data.draw(cell) for _ in range(d2)] for j in range(d1)]
             for i in range(d0)]
    t, m = Tensor3.from_entries(cells), Matrix.from_rows(cells[0])

    def every(shape, value):
        return Residual.collect(shape, ((idx, value(*idx)) for idx in itertools.product(*map(range, shape))))

    expected = every(shape, lambda i, j, k: cells[i][j][k])
    assert Residual.from_matrix(t) == expected
    rows = [((i, j), t.nz[i][j]) for i in range(d0) for j in range(d1)]
    assert Residual.from_rows(shape, data.draw(st.permutations(rows))) == expected  # rows in any order
    assert Residual.from_matrix(m) == every((d1, d2), lambda j, k: cells[0][j][k])
    wide = [((j, i, l), t.nz[l][j]) for j in range(d1) for i in range(d0) for l in range(d0)]
    assert Residual.from_rows((d1, d0, d0, d2), data.draw(st.permutations(wide))) == \
        every((d1, d0, d0, d2), lambda j, i, l, k: cells[l][j][k])
    assert Residual.from_rows((d2, d1, d0, d0), data.draw(st.permutations(wide)), row_first=True) == \
        every((d2, d1, d0, d0), lambda k, j, i, l: cells[l][j][k])
    assert not empty or Residual.from_matrix(t).nonzeros == ()


# -- the document codec and require ------------------------------------------------


def _square_lists(n, items):
    return st.lists(st.lists(items, min_size=n, max_size=n), min_size=n, max_size=n)


def _matrices(n):
    return _square_lists(n, sparse_rationals).map(Matrix.from_rows)


def _tensors(n):
    return _square_lists(n, st.lists(sparse_rationals, min_size=n, max_size=n)).map(Tensor3.from_entries)


def _differentials(n):
    return st.builds(Differential, _matrices(n), sparse_rationals)


def _actions(count, n):
    return st.lists(_matrices(n), min_size=count, max_size=count).map(tuple)


@st.composite
def _algebras(draw, n=None):
    n = n or draw(st.integers(1, 3))
    bracket = draw(_tensors(n))
    if draw(st.booleans()):
        maps, variant = (Matrix.identity(n), Matrix.identity(n)), "lie"
    else:
        maps, variant = (draw(_matrices(n)), draw(_matrices(n))), "bihom-lie"
    return AlgebraBundle(n, bracket, *maps, draw(st.none() | _matrices(n)), draw(st.none() | _differentials(n)),
                         variant)


@st.composite
def _coalgebras(draw, algebra):
    n = algebra.dim
    return CoalgebraBundle(n, draw(_tensors(n)), algebra.alpha, algebra.beta, draw(st.none() | _matrices(n)),
                           draw(st.none() | _differentials(n)))


@st.composite
def _bundles_of_every_kind(draw):
    kind = draw(st.sampled_from(sorted(bundles.FIELDS)))
    a = draw(_algebras())
    if kind == "algebra":
        return a
    if kind in ("coalgebra", "bialgebra"):
        co = draw(_coalgebras(a))
        return co if kind == "coalgebra" else BialgebraBundle(a, co)
    if kind == "representation":
        v = draw(st.integers(1, 3))
        return RepresentationBundle(a, v, draw(_actions(a.dim, v)), draw(_matrices(v)), draw(_matrices(v)),
                                    draw(st.none() | _matrices(v)), draw(st.none() | _matrices(v)))
    if kind == "matched_pair":
        b = draw(_algebras())
        return MatchedPairBundle(a, b, draw(_actions(a.dim, b.dim)), draw(_actions(b.dim, a.dim)))
    return FormBundle(draw(_matrices(a.dim)))


@settings(max_examples=150, deadline=None)
@given(_bundles_of_every_kind())
def test_every_bundle_kind_round_trips_through_its_document(b):
    text = bundles.dumps(b)
    assert bundles.load(text) == b
    assert bundles.dumps(bundles.load(text)) == text
    keys = list(json.loads(text))  # the set fields of its kind, in FIELDS order
    assert keys == ["kind", *[k for k in bundles.FIELDS[bundles.KINDS[type(b)]] if k in keys]]


def test_a_bialgebra_document_reads_the_fields_of_both_factors():
    assert set(bundles.FIELDS["bialgebra"]) == set(bundles.FIELDS["algebra"]) | set(bundles.FIELDS["coalgebra"])


_REP = RepresentationBundle(bundles.aff2(), 1, (Matrix.zeros(1, 1),) * 2, Matrix.identity(1), Matrix.identity(1))
_DIFF = Differential(Matrix.identity(2), scalar(1))


def test_the_maps_a_document_leaves_out_share_one_identity(monkeypatch):
    """A document builds one identity, for the maps it leaves out only; a bialgebra's coalgebra takes the maps its
    algebra read, and a representation's p and q are read the same way."""
    built = []
    identity = Matrix.identity
    monkeypatch.setattr(Matrix, "identity", staticmethod(lambda n: built.append(n) or identity(n)))
    b = bundles.load('{"kind": "bialgebra", "dim": 3}')
    assert built == [3] and b.algebra.alpha is b.algebra.beta is b.coalgebra.alpha is b.coalgebra.beta
    assert b.algebra.alpha == identity(3)
    built.clear()
    shear = [["1", "1"], ["0", "1"]]
    co = bundles.load(json.dumps({"kind": "coalgebra", "dim": 2, "beta": shear}))
    assert built == [2] and (co.alpha, co.beta) == (identity(2), Matrix.from_rows(shear))
    built.clear()
    a = bundles.load(json.dumps({"kind": "algebra", "dim": 2, "alpha": shear, "beta": shear}))
    assert built == [] and a.alpha == a.beta == Matrix.from_rows(shear)
    doc = json.loads(bundles.dumps(_REP))
    del doc["p"], doc["q"]
    rep = bundles.load(json.dumps(doc))
    assert built == [1] and rep.p is rep.q and rep == _REP


@pytest.mark.parametrize("bundle, field, value", [
    (bundles.aff2(), "nijenhuis", Matrix.identity(2)),
    (bundles.aff2(), "differential", _DIFF),
    (dualize(bundles.aff2()), "conijenhuis", Matrix.identity(2)),
    (dualize(bundles.aff2()), "codiff", _DIFF),
    (_REP, "eta", Matrix.identity(1)),
    (_REP, "xi", Matrix.identity(1)),
], ids=["algebra-nijenhuis", "algebra-differential", "coalgebra-conijenhuis", "coalgebra-codiff",
        "representation-eta", "representation-xi"])
def test_require_names_the_kind_and_the_field(bundle, field, value):
    with pytest.raises(bundles.MissingField, match=f"^{bundles.KINDS[type(bundle)]} bundle has no {field}"):
        bundles.require(bundle, field)
    assert bundles.require(dataclasses.replace(bundle, **{field: value}), field) is value


def _package_trees():
    """(file name, syntax tree) of each module of the package but bundles.py."""
    import ast
    from pathlib import Path

    for path in sorted(Path(bundles.__file__).parent.glob("*.py")):
        if path.name != "bundles.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_but_bundles_uses_a_private_bundles_name():
    # the document format is known to bundles.py alone: no other module reads
    # its private helpers, as attributes of the module or by import
    import ast

    offenders = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "bundles" and node.attr.startswith("_")):
                offenders.append(f"{name}:{node.lineno} bundles.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "bundles":
                offenders += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_no_module_but_bundles_builds_a_residual_from_cells():
    # every residual's cells come from rows through Residual.from_rows (or from_matrix): no other module calls the
    # constructor or Residual.collect, so the sorted cell order and the dropped zeros are kept in one place
    import ast

    def residual(node):  # Residual, or an attribute of that name (bundles.Residual)
        return (isinstance(node, ast.Name) and node.id == "Residual"
                or isinstance(node, ast.Attribute) and node.attr == "Residual")

    offenders = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and residual(node.func):
                offenders.append(f"{name}:{node.lineno} Residual(...)")
            if isinstance(node, ast.Attribute) and node.attr == "collect" and residual(node.value):
                offenders.append(f"{name}:{node.lineno} Residual.collect")
    assert offenders == []


# -- value types: fields written in place, lazily stored properties ------------------------------


def _generated(cls):
    """A frozen dataclass of cls's name and fields whose methods, __init__ included, are all generated."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, compare=f.compare, repr=f.repr))
        for f in dataclasses.fields(cls)], frozen=True)


def _value_samples():
    """(class, instances) of each value type that writes its fields in place; equal and unequal ones among them."""
    t = Tensor3.from_entries([[[0, 1], [1, 0]], [[2, 0], [0, Fraction(1, 3)]]])
    res = Residual.from_matrix(Matrix.from_rows([[0, 1], [0, 0]]))
    entry = bundles.CheckEntry("jacobi", "", res)
    return [
        (Matrix, [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, 1]]), Matrix.diagonal([2, 1]), Matrix.zeros(2, 3)]),
        (Tensor3, [t, t.transpose((1, 0, 2)), t.transpose((1, 0, 2)).transpose((1, 0, 2)), Tensor3.zeros((2, 2, 2))]),
        (bundles.CheckEntry, [entry, bundles.CheckEntry("jacobi", "", res), bundles.CheckEntry("jacobi", "", res, True),
                              bundles.CheckEntry("jacobi", "x", Residual.from_matrix(Matrix.zeros(2, 2)))]),
        (Residual, [res, Residual.from_matrix(Matrix.from_rows([[0, 1], [0, 0]])), Residual((2, 2), ()),
                    Residual.from_matrix(Matrix.from_rows([[0, 2], [0, 0]])), Residual((2, 3), ())]),
        (bundles.Report, [bundles.Report((entry,)), bundles.Report((entry,), ()), bundles.Report((entry,), ("note",)),
                          bundles.Report(()), bundles.Report((entry, entry))]),
    ]


@pytest.mark.parametrize("cls,values", _value_samples(), ids=lambda v: getattr(v, "__name__", ""))
def test_value_types_keep_the_generated_dataclass_semantics(cls, values):
    ref = _generated(cls)

    def as_ref(v):
        return ref(**{f.name: getattr(v, f.name) for f in dataclasses.fields(cls)})

    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (as_ref(a) == as_ref(b))
    for v in values:
        assert hash(v) == hash(as_ref(v)) and repr(v) == repr(as_ref(v))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, dataclasses.fields(cls)[0].name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, dataclasses.fields(cls)[0].name)
        assert dataclasses.replace(v) == v
        # keyword arguments, as the generated __init__ takes them
        assert cls(**{f.name: getattr(v, f.name) for f in dataclasses.fields(cls) if f.init}) == v


def test_tensor_back_is_no_part_of_the_value():
    t = Tensor3.from_entries([[[0, 1], [1, 0]], [[2, 0], [0, 3]]])
    u = t.transpose((0, 2, 1))
    plain = Tensor3(u.shape, u.nz)
    assert u.back == (t, (0, 2, 1)) and plain.back is None
    assert u == plain and hash(u) == hash(plain) and repr(u) == repr(plain) and "back" not in repr(u)
    assert dataclasses.replace(u, nz=t.nz) == t and dataclasses.replace(u, nz=t.nz).back == u.back
    assert Tensor3(u.shape, u.nz, back=u.back).transpose((0, 2, 1)) is t


def _pair():
    from bihomlie.constructions import coadjoint_matched_pair

    return coadjoint_matched_pair(bundles.aff2(), bundles.abelian(2))


#: (class, property, a fresh instance) of every lazily stored property in exact and bundles
CACHED = [
    (Matrix, "entries", lambda: Matrix.from_rows([[1, 2], [0, 1]])),
    (Matrix, "diag", lambda: Matrix.diagonal([2, 3])),
    (Matrix, "scalar_multiple", lambda: Matrix.diagonal([2, 2])),
    (Matrix, "_transposed", lambda: Matrix.from_rows([[1, 2], [0, 1]])),
    (Tensor3, "entries", lambda: Tensor3.from_entries([[[0, 1]], [[1, 0]]])),
    (MatchedPairBundle, "swapped", _pair),
    (MatchedPairBundle, "rho_module", _pair),
    (MatchedPairBundle, "h_module", _pair),
]


@pytest.mark.parametrize("cls,name,make", CACHED, ids=[f"{c.__name__}.{n}" for c, n, _ in CACHED])
def test_cached_property_runs_once_per_instance_and_is_stored_on_it(monkeypatch, cls, name, make):
    prop, calls = vars(cls)[name], []
    fn = prop.fn

    def counted(obj):
        calls.append(obj)
        return fn(obj)

    monkeypatch.setattr(prop, "fn", counted)
    assert getattr(cls, name) is prop
    first, second = make(), make()
    assert name not in vars(first)
    value = getattr(first, name)
    assert getattr(first, name) is value and vars(first)[name] is value and value == fn(first)
    assert calls == [first]
    getattr(second, name)
    getattr(second, name)
    assert calls == [first, second]
