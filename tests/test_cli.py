"""Command-line interface: exit codes, documents, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from bihomlie import bundles
from bihomlie.cli import main
from bihomlie.constructions import coadjoint_matched_pair
from bihomlie.exact import Matrix, Tensor3, scalar


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv):
    return main(argv)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _write(path, bundle):
    bundles.save_path(bundle, str(path))
    return str(path)


def test_check_fixture_nijenhuis_suite_exit_zero(capsys):
    assert run(["check", "fixture:bihom2(2,3)", "--suite", "nijenhuis"]) == 0
    out = capsys.readouterr().out
    assert "nijenhuis_identity" in out and "OK" in out


def test_check_abelian_all_applicable_suites(workdir):
    path = _write(workdir / "ab.json", bundles.abelian(3))
    for suite in ("auto", "lie", "bihom"):
        assert run(["check", path, "--suite", suite]) == 0


def test_check_bialgebra_runs_the_suite_asked_for(workdir):
    # aff2 with N = id and d = 0 over the zero comultiplication with S = id and D = 0
    # passes every bialgebra suite, and auto runs both operator families
    zero = bundles.Differential(Matrix.zeros(2, 2), scalar(0))
    alg = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2), differential=zero)
    co = bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2), Matrix.identity(2),
                                 conijenhuis=Matrix.identity(2), codiff=zero)
    path = _write(workdir / "bi.json", bundles.BialgebraBundle(alg, co))
    identities = {}
    for suite in ("auto", "bialgebra", "nijenhuis", "differential"):
        out = workdir / f"{suite}.json"
        assert run(["check", path, "--suite", suite, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        identities[suite] = {e["identity"] for e in doc["reports"][0]["entries"]}
    assert identities["bialgebra"] == identities["auto"]
    assert "nijenhuis_identity" in identities["auto"] and "diff_leibniz" in identities["auto"]
    assert "nijenhuis_identity" in identities["nijenhuis"] and "diff_leibniz" not in identities["nijenhuis"]
    assert "diff_leibniz" in identities["differential"] and "nijenhuis_identity" not in identities["differential"]


def test_check_perturbed_aff2_reports_jacobi_failure(workdir, capsys):
    r = support.rng(51)
    bad = bundles.aff2()
    while True:
        cand = support.perturb_algebra(bad, r)
        from bihomlie import checks

        rep = checks.check_bihom_lie(cand)
        failed = {e.identity for e in rep.entries if not e.ok and not e.advisory}
        if "bihom_jacobi" in failed:
            bad = cand
            break
    path = _write(workdir / "bad.json", bad)
    out_path = str(workdir / "report.json")
    assert run(["check", path, "--out", out_path]) == 1
    doc = json.loads(open(out_path).read())
    failing = [e for r2 in doc["reports"] for e in r2["entries"] if not e["ok"]]
    assert any(e["identity"] == "bihom_jacobi" for e in failing)
    assert "bihom_jacobi" in doc["identities"]  # the embedded cross-reference table


def test_check_missing_operator_is_precondition_error(workdir):
    path = _write(workdir / "aff2.json", bundles.aff2())
    assert run(["check", path, "--suite", "nijenhuis"]) == 2


def test_check_parse_error_exit_two(workdir):
    path = workdir / "broken.json"
    path.write_text("{ nope", encoding="utf-8")
    assert run(["check", str(path)]) == 2


def test_check_form_against_algebra(workdir):
    import naive

    gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(bundles.sl2().bracket)))
    fpath = _write(workdir / "killing.json", bundles.FormBundle(gram))
    apath = _write(workdir / "sl2.json", bundles.sl2())
    assert run(["check", fpath, "--against", apath]) == 0
    assert run(["check", fpath]) == 0  # standalone: symmetry + nondegeneracy


def test_construct_dual_writes_zero_comultiplication(workdir):
    apath = _write(workdir / "ab.json", bundles.abelian(2))
    out = str(workdir / "dual.json")
    assert run(["construct", "dual", apath, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "coalgebra" and doc["comul"] == []


def test_construct_double_output_passes_check(workdir):
    left = _write(workdir / "left.json", support.scalar_op(bundles.aff2(), 1))
    right = _write(workdir / "right.json", support.scalar_op(bundles.abelian(2), 1))
    out = str(workdir / "double.json")
    assert run(["construct", "double", left, right, "--flavor", "nijenhuis", "--out", out]) == 0
    assert run(["check", out, "--suite", "nijenhuis"]) == 0
    form_doc = json.loads(open(out + ".form.json").read())
    assert form_doc["kind"] == "form" and form_doc["dim"] == 4


def test_construct_untwist_singular_exit_two(workdir):
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.zeros(2, 2), kind="bihom-lie")
    path = _write(workdir / "singular.json", b)
    assert run(["construct", "untwist", path, "--out", str(workdir / "o.json")]) == 2


def test_construct_twist_with_maps_file(workdir):
    spath = _write(workdir / "sl2.json", bundles.sl2())
    maps = workdir / "maps.json"
    maps.write_text(json.dumps({"alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]],
                                "beta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}), encoding="utf-8")
    out = str(workdir / "twisted.json")
    assert run(["construct", "twist", spath, "--maps", str(maps), "--out", out]) == 0
    assert run(["check", out, "--suite", "bihom"]) == 0


def test_construct_bicrossed_and_semidirect(workdir):
    mp = support.bicrossed_valid(3)[0]
    mpath = _write(workdir / "mp.json", mp)
    out = str(workdir / "bic.json")
    assert run(["construct", "bicrossed", mpath, "--flavor", "nijenhuis", "--out", out]) == 0
    assert run(["check", out, "--suite", "nijenhuis"]) == 0

    alg, rep = support.semidirect_valid(1)[0]
    rpath = _write(workdir / "rep.json", rep)
    out2 = str(workdir / "sd.json")
    assert run(["construct", "semidirect", rpath, "--flavor", "nijenhuis", "--out", out2]) == 0
    assert run(["check", out2, "--suite", "nijenhuis"]) == 0


def test_construct_adjoint_form(workdir):
    import naive

    b = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.diagonal([2, 2, 2]))
    apath = _write(workdir / "sl2n.json", b)
    gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(b.bracket)))
    fpath = _write(workdir / "k.json", bundles.FormBundle(gram))
    out = str(workdir / "adj.json")
    assert run(["construct", "adjoint-form", apath, fpath, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "matrix"
    assert doc["matrix"] == [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]


def test_triad_exit_codes(workdir):
    left = _write(workdir / "l.json", support.scalar_op(bundles.aff2(), 1))
    right = _write(workdir / "r.json", support.scalar_op(bundles.abelian(2), 1))
    assert run(["triad", left, right, "--flavor", "nijenhuis"]) == 0

    bad_cells = [[[scalar(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad_cells[0][0] = [scalar(0), scalar(1)]
    bad = dataclasses.replace(support.scalar_op(bundles.abelian(2), 1),
                              bracket=Tensor3.from_entries(bad_cells), kind="bihom-lie")
    rbad = _write(workdir / "rb.json", bad)
    assert run(["triad", left, rbad, "--flavor", "nijenhuis"]) == 1

    mismatched = _write(workdir / "dim3.json", support.scalar_op(bundles.abelian(3), 1))
    assert run(["triad", left, mismatched]) == 2


def test_triad_disagreement_exit_code(workdir, monkeypatch):
    # the alarming path: force a fabricated disagreement through the harness
    from bihomlie import equivalence
    from bihomlie.bundles import Report
    from bihomlie.equivalence import TriadReport

    fake = TriadReport(True, Report(()), False, Report(()), True, Report(()))
    monkeypatch.setattr(equivalence, "triad_nijenhuis_bihom", lambda l, r: fake)
    left = _write(workdir / "l.json", support.scalar_op(bundles.aff2(), 1))
    right = _write(workdir / "r.json", support.scalar_op(bundles.abelian(2), 1))
    assert run(["triad", left, right, "--flavor", "nijenhuis"]) == 3


def test_triad_differential_via_cli(workdir):
    left = _write(workdir / "dl.json", support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), "1/2"))
    right = _write(workdir / "dr.json", support.with_diff(bundles.abelian(2), Matrix.identity(2), "1/2"))
    assert run(["triad", left, right, "--flavor", "differential"]) == 0


def test_search_cli_modes(workdir):
    spath = _write(workdir / "sl2.json", bundles.sl2())
    out = str(workdir / "sols.json")
    assert run(["search", spath, "--mode", "derivations", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["dimension"] == 3 and doc["homogeneous"]

    assert run(["search", "fixture:bihom2(2,3)", "--mode", "nijenhuis-grid",
                "--grid", "1,0,-3/2,2", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert [["1", "-3/2"], ["0", "2"]] in doc["solutions"]

    assert run(["search", spath, "--mode", "nijenhuis-grid", "--grid", "0,1,2,3,4,5,6,7,8,9",
                "--budget", "10"]) == 2
    assert run(["search", spath, "--mode", "derivations", "--weight", "2"]) == 2  # nonlinear


def test_search_pattern_file(workdir):
    pattern = workdir / "pat.json"
    pattern.write_text(json.dumps([["1", None], [None, "1"]]), encoding="utf-8")
    apath = _write(workdir / "aff2.json", bundles.aff2())
    out = str(workdir / "pats.json")
    assert run(["search", apath, "--mode", "nijenhuis-grid", "--grid", "0,1",
                "--pattern", str(pattern), "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert all(sol[0][0] == "1" and sol[1][1] == "1" for sol in doc["solutions"])


def test_cli_reports_are_byte_identical_across_runs(workdir):
    # every command family, run twice, compared byte for byte
    left = _write(workdir / "l.json", support.scalar_op(bundles.aff2(), 1))
    right = _write(workdir / "r.json", support.scalar_op(bundles.abelian(2), 1))
    cases = [
        (["check", left, "--suite", "nijenhuis"], "check.json"),
        (["triad", left, right], "triad.json"),
        (["search", left, "--mode", "nijenhuis-grid", "--grid", "0,1,-1"], "search.json"),
        (["construct", "double", left, right, "--flavor", "nijenhuis"], "double.json"),
    ]
    for argv, name in cases:
        out1 = workdir / ("a_" + name)
        out2 = workdir / ("b_" + name)
        assert run(argv + ["--out", str(out1)]) == run(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def _wrong_kind_inputs(workdir):
    """Input files for the wrong-kind cases: a form where an algebra belongs,
    maps/pattern files that are JSON but not matrices, and a matched pair and
    a differential triad pair that the commands accept, so that a refused flag
    is the only error."""
    _write(workdir / "form.json", bundles.FormBundle(Matrix.identity(3)))
    _write(workdir / "sl2.json", bundles.sl2())
    _write(workdir / "aff2.json", bundles.aff2())
    _write(workdir / "bi.json", bundles.BialgebraBundle(bundles.aff2(), bundles.CoalgebraBundle(
        2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2), Matrix.identity(2))))
    _write(workdir / "rep.json", bundles.RepresentationBundle(bundles.aff2(), 1, (Matrix.zeros(1, 1),) * 2,
                                                              Matrix.identity(1), Matrix.identity(1)))
    _write(workdir / "mp.json", coadjoint_matched_pair(bundles.aff2(), support.antisym_dual2(1, 1)))
    _write(workdir / "aff2d.json", support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0))
    _write(workdir / "ab2d.json", support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 0))
    (workdir / "half.json").write_text("0.5", encoding="utf-8")
    (workdir / "list.json").write_text('[["1", "0"], ["0", "1"]]', encoding="utf-8")
    (workdir / "alpha_half.json").write_text('{"alpha": 0.5}', encoding="utf-8")
    (workdir / "flat.json").write_text("[1, 2]", encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["search", "form.json", "--mode", "derivations"],
    ["search", "form.json", "--mode", "pi"],
    ["search", "form.json", "--mode", "nijenhuis-grid", "--grid", "0,1"],
    ["search", "aff2.json", "--mode", "zeta"],
    ["triad", "form.json", "form.json"],
    ["triad", "aff2.json", "form.json", "--flavor", "differential"],
    ["construct", "dual", "form.json"],
    ["construct", "untwist", "form.json"],
    ["construct", "twist", "form.json", "--maps", "list.json"],
    ["construct", "hom", "aff2.json", "--maps", "list.json"],
    ["construct", "adjoint-form", "form.json", "sl2.json"],
    ["construct", "adjoint-form", "sl2.json", "sl2.json"],
    ["construct", "double", "aff2.json", "form.json"],
    ["check", "form.json", "--against", "form.json"],
    ["check", "fixture:aff2", "--against", "fixture:sl2"],
    ["check", "fixture:aff2", "--flavor", "differential"],
    ["check", "form.json", "--flavor", "bihom"],
    ["check", "rep.json", "--flavor", "nijenhuis"],
    ["check", "fixture:aff2", "--flavor", "lie"],
    ["construct", "double", "fixture:aff2", "fixture:aff2", "--flavor", "lie"],
    ["construct", "twist", "aff2.json", "--maps", "half.json"],
    ["construct", "twist", "aff2.json", "--maps", "list.json"],
    ["construct", "twist", "aff2.json", "--maps", "alpha_half.json"],
    ["construct", "hom", "bi.json", "--maps", "half.json"],
    ["construct", "hom", "bi.json", "--maps", "list.json"],
    ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "flat.json"],
    ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "half.json"],
    ["check", "fixture:abelian(0)"],
    ["check", "fixture:abelian(99999999999)"],
    ["check", "fixture:aff2", "--no-symmetrized-mp-right"],
    ["construct", "bicrossed", "mp.json", "--flavor", "bihom", "--no-symmetrized-mp-right"],
    ["triad", "aff2d.json", "ab2d.json", "--flavor", "differential", "--no-symmetrized-mp-right"],
    *[["check", "rep.json", "--suite", suite] for suite in ("involution", "coalgebra", "bialgebra", "form")],
    *[["check", "bi.json", "--suite", suite] for suite in ("lie", "bihom", "coalgebra", "representation", "involution")],
], ids=" ".join)
def test_wrong_input_kind_exits_two_without_traceback(workdir, argv):
    _wrong_kind_inputs(workdir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "bihomlie.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_auto_suite_reads_the_weight_override(workdir, capsys):
    # aff2 with the identity differential satisfies the weight -1 rule only
    path = _write(workdir / "aff2id.json", support.with_diff(bundles.aff2(), Matrix.identity(2), -1))
    assert run(["check", path]) == 0
    for argv in (["check", path, "--weight", "5"], ["check", path, "--suite", "differential", "--weight", "5"]):
        assert run(argv) == 1
        assert f"FAIL {path}: diff_leibniz" in capsys.readouterr().out


@pytest.mark.parametrize("argv,flag", [
    (["check", "fixture:aff2", "--weight", "5"], "--weight"),
    (["check", "fixture:aff2", "--suite", "involution", "--weight", "1"], "--weight"),
    (["check", "rep.json", "--weight", "1"], "--weight"),
    (["check", "form.json", "--weight", "1"], "--weight"),
    (["check", "mp.json", "--weight", "1"], "--weight"),
    (["search", "fixture:aff2", "--mode", "derivations", "--grid", "1,2"], "--grid"),
    (["search", "fixture:aff2", "--mode", "pi", "--pattern", "list.json"], "--pattern"),
    (["search", "fixture:aff2", "--mode", "derivations", "--budget", "10"], "--budget"),
    (["search", "fixture:aff2", "--mode", "nijenhuis-grid", "--grid", "0,1", "--weight", "0"], "--weight"),
    (["search", "bi.json", "--mode", "conijenhuis", "--weight", "1"], "--weight"),
    (["construct", "dual", "fixture:aff2", "--flavor", "differential"], "--flavor"),
    (["construct", "untwist", "fixture:sl2", "--flavor", "nijenhuis"], "--flavor"),
    (["construct", "untwist", "fixture:sl2", "--maps", "missing.json"], "--maps"),
    (["construct", "bicrossed", "mp.json", "--flavor", "bihom", "--maps", "list.json"], "--maps"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_flag_nothing_reads_exits_two(workdir, capsys, monkeypatch, argv, flag):
    _wrong_kind_inputs(workdir)
    monkeypatch.chdir(workdir)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


# -- malformed documents and --suite on forms and matched pairs -------------------------


def _aff2_document(**fields):
    return {**bundles.document(bundles.aff2()), **fields}


@pytest.mark.parametrize("doc", [
    _aff2_document(bracket=1),
    _aff2_document(bracket=0),
    _aff2_document(bracket=False),
    _aff2_document(bracket={}),
    _aff2_document(bracket=None),  # null is refused too: an abelian bracket is [] or an absent field
    {**bundles.document(bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2),
                                                Matrix.identity(2))), "comul": 1},
    _aff2_document(alpha=[["1/0", "0"], ["0", "1"]]),
    _aff2_document(alpha=[[True, 0], [0, True]]),  # a JSON boolean is no rational
    _aff2_document(bracket=[{"i": 1, "j": 2, "out": [0, True]}]),
    _aff2_document(differential={"matrix": [["0", "0"], ["0", "0"]], "weight": False}),
], ids=["bracket-1", "bracket-0", "bracket-false", "bracket-empty-object", "bracket-null", "comul-1",
        "zero-denominator", "alpha-true", "bracket-out-true", "weight-false"])
def test_malformed_structure_fields_exit_two(workdir, capsys, doc):
    path = workdir / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: field ")


@pytest.mark.parametrize("kind,suite,code", [
    ("form", "auto", 0), ("form", "form", 0),
    *[("form", s, 2) for s in ("lie", "bihom", "nijenhuis", "involution", "differential", "representation")],
    ("mp", "auto", 0),
    *[("mp", s, 2) for s in ("form", "lie", "bihom", "nijenhuis", "bialgebra", "involution")],
])
def test_suite_on_form_and_matched_pair_bundles(workdir, capsys, kind, suite, code):
    left = support.scalar_op(bundles.aff2(), 1)
    right = support.scalar_op(support.antisym_dual2(0, 1), 1)
    bundle = bundles.FormBundle(Matrix.identity(2)) if kind == "form" else coadjoint_matched_pair(left, right)
    path = _write(workdir / f"{kind}.json", bundle)
    assert run(["check", path, "--suite", suite]) == code
    if code == 2:
        kind_name = "form" if kind == "form" else "matched_pair"
        assert capsys.readouterr().err == f"error: suite {suite!r} does not apply to a {kind_name} bundle\n"


# -- fuzz: mutated documents through every subcommand -------------------------------------
#
# Each example takes one valid document of a bundle kind, replaces or deletes
# one node of it, and runs one subcommand that accepts that kind in-process.
# Whatever the mutation, the command must end with a documented exit code,
# never an uncaught exception.


def _fuzz_documents():
    aff2 = dataclasses.replace(support.scalar_op(bundles.aff2(), 1),
                               differential=bundles.Differential(Matrix.zeros(2, 2), scalar(0)))
    right = support.scalar_op(support.antisym_dual2(0, 1), 1)
    co = bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2), Matrix.identity(2),
                                 conijenhuis=Matrix.identity(2))
    rep = support.adjoint_rep(aff2, eta=Matrix.identity(2), xi=Matrix.zeros(2, 2))
    kinds = {"algebra": aff2, "coalgebra": co, "bialgebra": bundles.BialgebraBundle(aff2, co),
             "representation": rep, "matched_pair": coadjoint_matched_pair(aff2, right),
             "form": bundles.FormBundle(Matrix.diagonal([1, 2]))}
    return {kind: bundles.document(b) for kind, b in kinds.items()}, {"good.json": aff2, "right.json": right}


FUZZ_DOCUMENTS, FUZZ_PARTNERS = _fuzz_documents()
#: bundle kind -> subcommands taking it; F.json is the mutated document
FUZZ_COMMANDS = {
    "algebra": [["check", "F.json", "--suite", "auto"], ["check", "F.json", "--suite", "nijenhuis"],
                ["check", "F.json", "--suite", "involution"], ["construct", "dual", "F.json"],
                ["construct", "twist", "F.json", "--maps", "maps.json"], ["construct", "untwist", "F.json"],
                ["construct", "double", "F.json", "right.json", "--flavor", "nijenhuis"],
                ["construct", "adjoint-form", "F.json", "form.json"], ["triad", "F.json", "right.json"],
                ["triad", "good.json", "F.json", "--flavor", "differential"],
                ["search", "F.json", "--mode", "derivations"], ["search", "F.json", "--mode", "pi"],
                ["search", "F.json", "--mode", "nijenhuis-grid", "--grid", "0,1"]],
    "coalgebra": [["check", "F.json"], ["check", "F.json", "--suite", "nijenhuis"], ["construct", "dual", "F.json"],
                  ["construct", "twist", "F.json", "--maps", "maps.json"]],
    "bialgebra": [["check", "F.json"], ["construct", "hom", "F.json", "--maps", "maps.json"],
                  ["construct", "twist", "F.json", "--maps", "maps.json"], ["search", "F.json", "--mode", "conijenhuis"]],
    "representation": [["check", "F.json"], ["check", "F.json", "--suite", "differential"],
                       ["construct", "semidirect", "F.json", "--flavor", "nijenhuis"],
                       ["construct", "semidirect", "F.json", "--flavor", "differential"],
                       ["search", "F.json", "--mode", "zeta"]],
    "matched_pair": [["check", "F.json"], ["check", "F.json", "--flavor", "differential"],
                     ["construct", "bicrossed", "F.json", "--flavor", "nijenhuis"],
                     ["construct", "bicrossed", "F.json", "--flavor", "bihom"]],
    "form": [["check", "F.json"], ["check", "F.json", "--against", "good.json"],
             ["construct", "adjoint-form", "good.json", "F.json"]],
}
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 2),
    st.sampled_from(["0", "1", "-1/2", "1/0", "x", "", "2.5"]), st.just([]), st.just({}),
    st.lists(st.sampled_from(["0", "1", 1, None, []]), max_size=3))


def _mutated(doc, data):
    """doc with one node, found by a random walk from the root, replaced by a
    drawn JSON value or (in an object) deleted."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(FUZZ_VALUES)
        return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_documents_end_with_an_exit_code(data):
    kind = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS[kind]))
    doc = _mutated(FUZZ_DOCUMENTS[kind], data)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, bundle in FUZZ_PARTNERS.items():
            _write(work / name, bundle)
        _write(work / "form.json", bundles.FormBundle(Matrix.identity(2)))
        (work / "maps.json").write_text(json.dumps({"alpha": [["1", "0"], ["0", "2"]]}), encoding="utf-8")
        (work / "F.json").write_text(json.dumps(doc), encoding="utf-8")
        assert run([str(work / a) if a.endswith(".json") else a for a in argv]) in (0, 1, 2, 3)


def test_cli_import_leaves_construction_triad_and_search_modules_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    lazy = ["bihomlie.constructions", "bihomlie.equivalence", "bihomlie.search"]
    code = f"import sys, bihomlie.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
