"""Command-line interface: exit codes, documents, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from bihomlie import bundles
from bihomlie.cli import build_parser, main
from bihomlie.constructions import bicrossed_product, coadjoint_matched_pair, dualize
from bihomlie.exact import Matrix, Tensor3, scalar


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv):
    return main(argv)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _write(path, bundle):
    path.write_text(bundles.dumps(bundle), encoding="utf-8")
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


def test_construct_untwist_singular_exit_two(workdir, capsys):
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.zeros(2, 2), kind="bihom-lie")
    path = _write(workdir / "singular.json", b)
    assert run(["construct", "untwist", path, "--out", str(workdir / "o.json")]) == 2
    assert capsys.readouterr().err == "error: alpha must be invertible to untwist: matrix is singular\n"


def test_a_singular_map_is_named_with_exit_two(workdir, capsys):
    zero = Matrix.zeros(2, 2)
    twisted = dataclasses.replace(bundles.aff2(), alpha=zero, kind="bihom-lie")
    co = bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), zero, Matrix.identity(2))
    bi = bundles.BialgebraBundle(twisted, co)
    cases = [
        (["check", _write(workdir / "bi.json", bi)], "alpha must be invertible to check the bialgebra cocycle"),
        (["construct", "bicrossed", _write(workdir / "mp.json", coadjoint_matched_pair(twisted, bundles.aff2())),
          "--flavor", "bihom"], "alpha of the left factor must be invertible to build bicrossed products"),
        (["check", str(workdir / "mp.json"), "--flavor", "bihom"],
         "alpha of the left factor must be invertible to check the mixed matched-pair identities"),
        (["construct", "adjoint-form", _write(workdir / "a.json", support.scalar_op(bundles.aff2(), 1)),
          _write(workdir / "f.json", bundles.FormBundle(Matrix.from_rows([[1, 1], [1, 1]])))],
         "gram must be invertible to take the adjoint of a map"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}: matrix is singular\n"


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


def test_construct_with_failing_hypotheses_writes_its_outputs_and_exits_two(workdir, capsys):
    # a diagonal shift of rho(e1) breaks the matched-pair axioms; the product is still built and written
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    mp = coadjoint_matched_pair(left, right)
    mp = dataclasses.replace(mp, rho=(mp.rho[0].add(Matrix.from_rows([[1, 0], [0, 0]])), mp.rho[1]))
    out = workdir / "bic.json"
    assert run(["construct", "bicrossed", _write(workdir / "mp.json", mp), "--flavor", "nijenhuis",
                "--out", str(out)]) == 2
    assert capsys.readouterr().out.endswith("\nPRECONDITION FAILURE\n")
    report = json.loads((workdir / "bic.json.report.json").read_text(encoding="utf-8"))
    assert report["ok"] is False and report["report"]["ok"] is False
    assert bundles.load_path(str(out)) == bicrossed_product(mp, "nijenhuis")[0]


def test_check_prints_a_note_line_per_note(workdir, capsys):
    # check_adjoint_admissible notes that a twisted algebra with beta = diag(1, 3) is not involutive
    left = support.twisted(support.scalar_op(bundles.aff2(), 1), [1, 2], [1, 3])
    right = support.twisted(support.scalar_op(bundles.abelian(2), 1), [1, 2], [1, 3])
    path = _write(workdir / "bi.json", bundles.BialgebraBundle(left, dualize(right)))
    out = workdir / "report.json"
    run(["check", path, "--suite", "nijenhuis", "--out", str(out)])
    note = "hypothesis not met: algebra is not involutive (alpha^2 or beta^2 differs from id)"
    assert f"NOTE {path}: {note}\n" in capsys.readouterr().out
    assert json.loads(out.read_text(encoding="utf-8"))["reports"][0]["notes"] == [note]


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
    # the alarming path: force a fabricated disagreement through the harness,
    # a bialgebra side whose one identity fails against two passing sides
    from bihomlie import equivalence
    from bihomlie.bundles import CheckEntry, Report, Residual
    from bihomlie.equivalence import TriadReport

    failing = Report((CheckEntry("bihom_jacobi", "", Residual((1,), (((0,), scalar(1)),))),))
    fake = TriadReport(Report(()), failing, Report(()))
    monkeypatch.setattr(equivalence, "triad", lambda l, r, f: fake)
    left = _write(workdir / "l.json", support.scalar_op(bundles.aff2(), 1))
    right = _write(workdir / "r.json", support.scalar_op(bundles.abelian(2), 1))
    assert run(["triad", left, right, "--flavor", "nijenhuis"]) == 3


def test_triad_differential_via_cli(workdir):
    left = _write(workdir / "dl.json", support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), "1/2"))
    right = _write(workdir / "dr.json", support.with_diff(bundles.abelian(2), Matrix.identity(2), "1/2"))
    assert run(["triad", left, right, "--flavor", "differential"]) == 0


def test_triad_offers_the_flavours_of_the_double_rows(capsys):
    # the bihom flavour has no ("double", flavour) row, so triad refuses it and lists the flavours that have one
    from bihomlie import checks

    flavours = [f for kind, f in checks.SUITES if kind == "double"]
    assert flavours == ["nijenhuis", "differential"]
    assert run(["triad", "fixture:aff2", "fixture:aff2", "--flavor", "bihom"]) == 2
    assert f"(choose from {', '.join(map(repr, flavours))})" in capsys.readouterr().err


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
    assert run(["search", spath, "--mode", "derivations", "--weight", "0"]) == 2  # linear at weight 0 alone: no flag


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
    is the only error, a bundle of each kind, and JSON nested deeper than any
    parser recurses."""
    _write(workdir / "form.json", bundles.FormBundle(Matrix.identity(3)))
    _write(workdir / "sl2.json", bundles.sl2())
    _write(workdir / "aff2.json", bundles.aff2())
    _write(workdir / "bi.json", bundles.BialgebraBundle(bundles.aff2(), bundles.CoalgebraBundle(
        2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2), Matrix.identity(2))))
    _write(workdir / "rep.json", bundles.RepresentationBundle(bundles.aff2(), 1, (Matrix.zeros(1, 1),) * 2,
                                                              Matrix.identity(1), Matrix.identity(1)))
    _write(workdir / "mp.json", coadjoint_matched_pair(bundles.aff2(), support.antisym_dual2(1, 1)))
    _write(workdir / "co.json", bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2),
                                                        Matrix.identity(2)))
    _write(workdir / "aff2d.json", support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0))
    _write(workdir / "ab2d.json", support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 0))
    (workdir / "half.json").write_text("0.5", encoding="utf-8")
    (workdir / "list.json").write_text('[["1", "0"], ["0", "1"]]', encoding="utf-8")
    (workdir / "alpha_half.json").write_text('{"alpha": 0.5}', encoding="utf-8")
    (workdir / "flat.json").write_text("[1, 2]", encoding="utf-8")
    (workdir / "string_rows.json").write_text('["10", "01"]', encoding="utf-8")
    (workdir / "alpha_strings.json").write_text('{"alpha": ["10", "02"]}', encoding="utf-8")
    (workdir / "maps_typo.json").write_text('{"alpha": [["1", "0"], ["0", "2"]], "bata": [["1", "0"], ["0", "1"]]}',
                                            encoding="utf-8")
    (workdir / "beta_only.json").write_text('{"beta": [["1", "0"], ["0", "1"]]}', encoding="utf-8")
    (workdir / "maps_beta.json").write_text('{"alpha": [["1", "0"], ["0", "2"]], "beta": [["5", "0"], ["0", "7"]]}',
                                            encoding="utf-8")
    (workdir / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")


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
    ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "string_rows.json"],
    ["construct", "twist", "fixture:aff2", "--maps", "alpha_strings.json"],
    ["construct", "twist", "fixture:aff2", "--maps", "maps_typo.json"],
    ["construct", "hom", "bi.json", "--maps", "maps_beta.json"],  # hom reads alpha only
    ["check", "fixture:abelian(0)"],
    ["check", "fixture:abelian(99999999999)"],
    ["check", "fixture:aff2", "--no-symmetrized-mp-right"],
    ["construct", "bicrossed", "mp.json", "--flavor", "bihom", "--no-symmetrized-mp-right"],
    ["triad", "aff2d.json", "ab2d.json", "--flavor", "differential", "--no-symmetrized-mp-right"],
    *[["check", "rep.json", "--suite", suite] for suite in ("involution", "coalgebra", "bialgebra", "form")],
    *[["check", "bi.json", "--suite", suite] for suite in ("lie", "bihom", "coalgebra", "representation", "involution")],
    # JSON nested too deeply for the parser is bad input, not an identity failure
    ["check", "deep.json"],
    ["construct", "twist", "fixture:aff2", "--maps", "deep.json"],
    ["search", "fixture:aff2", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "deep.json"],
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


@pytest.mark.parametrize("argv,message", [
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
    # the rest of the matrix: each construction with each of --flavor and --maps it does not read
    (["construct", "dual", "fixture:aff2", "--maps", "list.json"], "--maps"),
    (["construct", "twist", "fixture:aff2", "--maps", "list.json", "--flavor", "nijenhuis"], "--flavor"),
    (["construct", "hom", "bi.json", "--maps", "list.json", "--flavor", "nijenhuis"], "--flavor"),
    (["construct", "semidirect", "rep.json", "--maps", "list.json"], "--maps"),
    (["construct", "double", "fixture:aff2", "fixture:aff2", "--maps", "list.json"], "--maps"),
    (["construct", "adjoint-form", "fixture:sl2", "form.json", "--flavor", "nijenhuis"], "--flavor"),
    (["construct", "adjoint-form", "fixture:sl2", "form.json", "--maps", "list.json"], "--maps"),
    # each search mode with each of --weight, --grid, --pattern and --budget it does not read
    (["search", "fixture:aff2", "--mode", "derivations", "--weight", "0"], "--weight"),
    (["search", "fixture:aff2", "--mode", "derivations", "--pattern", "list.json"], "--pattern"),
    (["search", "fixture:aff2", "--mode", "pi", "--grid", "1,2"], "--grid"),
    (["search", "fixture:aff2", "--mode", "pi", "--budget", "10"], "--budget"),
    (["search", "rep.json", "--mode", "zeta", "--grid", "1,2"], "--grid"),
    (["search", "rep.json", "--mode", "zeta", "--pattern", "list.json"], "--pattern"),
    (["search", "rep.json", "--mode", "zeta", "--budget", "10"], "--budget"),
    (["search", "bi.json", "--mode", "conijenhuis", "--grid", "1,2"], "--grid"),
    (["search", "bi.json", "--mode", "conijenhuis", "--pattern", "list.json"], "--pattern"),
    (["search", "bi.json", "--mode", "conijenhuis", "--budget", "10"], "--budget"),
    # each bundle kind with each of --against, --flavor and --weight that nothing reads on it
    (["check", "fixture:aff2", "--against", "fixture:aff2"], "--against"),
    (["check", "fixture:aff2", "--flavor", "nijenhuis"], "--flavor"),
    (["check", "fixture:bihom2(2,3)", "--suite", "nijenhuis", "--weight", "1"], "--weight"),
    (["check", "co.json", "--against", "fixture:aff2"], "--against"),
    (["check", "co.json", "--flavor", "nijenhuis"], "--flavor"),
    (["check", "co.json", "--weight", "1"], "--weight"),
    (["check", "bi.json", "--against", "fixture:aff2"], "--against"),
    (["check", "bi.json", "--flavor", "nijenhuis"], "--flavor"),
    (["check", "bi.json", "--weight", "1"], "--weight"),
    (["check", "rep.json", "--against", "fixture:aff2"], "--against"),
    (["check", "rep.json", "--flavor", "bihom"], "--flavor"),
    (["check", "mp.json", "--against", "fixture:aff2"], "--against"),
    (["check", "form.json", "--flavor", "nijenhuis"], "--flavor"),
    # an input a command needs and does not get, with its whole message
    (["construct", "double", "fixture:aff2"], "error: double takes 2 input bundle(s), got 1\n"),
    (["construct", "twist", "fixture:aff2"], "error: twist needs --maps pointing to an alpha/beta file\n"),
    (["search", "fixture:aff2", "--mode", "nijenhuis-grid"], 'error: nijenhuis-grid needs --grid "a,b,c"\n'),
    (["construct", "twist", "fixture:aff2", "--maps", "beta_only.json"], "error: maps file needs an 'alpha' matrix\n"),
    (["check", "list.json"], "error: top-level document must be an object\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_flag_nothing_reads_exits_two(workdir, capsys, monkeypatch, argv, message):
    _wrong_kind_inputs(workdir)
    monkeypatch.chdir(workdir)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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
    # a string where a list belongs is refused, not read one character at a time
    _aff2_document(alpha=["10", "01"]),
    _aff2_document(bracket=[{"i": 1, "j": 2, "out": "01"}]),
    {**bundles.document(bundles.CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2),
                                                Matrix.identity(2))), "comul": [{"k": 1, "out": ["01", "10"]}]},
    {"kind": "form", "dim": 2, "gram": ["01", "10"]},
    _aff2_document(differential={"matrix": [["0", "0"], ["0", "0"]], "weight": "0", "wieght": "1"}),
    _aff2_document(bracket=[{"i": 1, "j": 2, "k": 1, "out": ["0", "1"]}]),
    {**bundles.document(support.adjoint_rep(bundles.aff2())), "algebra": {"kind": "form", "dim": 2,
                                                                          "gram": [["1", "0"], ["0", "1"]]}},
    {**bundles.document(coadjoint_matched_pair(bundles.aff2(), bundles.abelian(2))), "dim": 99},
], ids=["bracket-1", "bracket-0", "bracket-false", "bracket-empty-object", "bracket-null", "comul-1",
        "zero-denominator", "alpha-true", "bracket-out-true", "weight-false", "alpha-string-rows",
        "bracket-out-string", "comul-out-string-rows", "gram-string-rows", "differential-unknown-key",
        "bracket-entry-unknown-key", "embedded-form-as-algebra", "matched-pair-dim"])
def test_malformed_structure_fields_exit_two(workdir, capsys, doc):
    path = workdir / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: field ")


@pytest.mark.parametrize("doc,message", [
    ({"kind": "algebra", "dim": 2, "bracket": [{"i": 1, "j": 2}]},
     "field 'bracket': {'i': 1, 'j': 2} has no key 'out'; a bracket entry must be a JSON object with keys i, j, out"),
    ({"kind": "coalgebra", "dim": 2, "comul": [3]},
     "field 'comul': a comul entry must be a JSON object with keys k, out, got 3"),
    (_aff2_document(differential={"matrix": [[1, 0], [0, 1]]}),
     "field 'differential': {'matrix': [[1, 0], [0, 1]]} has no key 'weight'; "
     "a differential must be a JSON object with keys matrix, weight"),
    (_aff2_document(differential=[1]),
     "field 'differential': a differential must be a JSON object with keys matrix, weight, got [1]"),
], ids=["bracket-entry-without-out", "comul-entry-not-object", "differential-without-weight",
        "differential-not-object"])
def test_malformed_entry_or_differential_names_the_expected_shape(workdir, capsys, doc, message):
    # the missing key or the object expected is named, not Python's own exception text ('out', 'weight',
    # "'int' object is not subscriptable", "list indices must be integers or slices, not str")
    path = workdir / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_entry_message_clips_the_entry(workdir, capsys):
    path = workdir / "bad.json"
    path.write_text(json.dumps({"kind": "algebra", "dim": 2, "bracket": [{"i": 1, "j": 2, "x": "9" * 200}]}),
                    encoding="utf-8")
    assert run(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'bracket': {'i': 1, 'j': 2, 'x': '999") and "... has no key 'out'" in err
    assert len(err) < 200


def _nested(depth):
    value = "0"
    for _ in range(depth):
        value = [value]
    return value


def _refusal(workdir, capsys, text):
    """The stderr of ``check`` on a document of this text, or of the command line a list gives ("{doc}" in it
    the path of a differential aff2 document), which must end with exit 2 and one error line."""
    if isinstance(text, list):
        doc = _write(workdir / "aff2d.json", support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0))
        argv = [doc if arg == "{doc}" else arg for arg in text]
    else:
        path = workdir / "bad.json"
        path.write_text(text, encoding="utf-8")
        argv = ["check", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err
    return err


#: command lines that quote a long bad scalar or fixture name in their error
_LONG_ARGUMENTS = [
    ["check", "{doc}", "--weight", "a" * 3000],
    ["check", "{doc}", "--weight", "1/" + "0" * 3000],
    ["search", "fixture:aff2", "--mode", "nijenhuis-grid", "--grid", "0," + "x" * 3000],
    ["check", f"fixture:bihom2({'x' * 3000},3)"],
    ["check", "fixture:" + "x" * 3000],
    # a bad choice of an option or argument, which the argument parser reports
    ["check", "fixture:aff2", "--suite", "x" * 3000],
    ["check", "fixture:aff2", "--flavor", "x" * 3000],
    ["search", "fixture:aff2", "--mode", "x" * 3000],
    ["construct", "x" * 3000],
    ["check", "fixture:aff2", "--suite", "differential", "--weight", "x" * 5000],  # no digit to count
]
#: a bracket entry whose index is out of range by 3000 digits
_LONG_INDEX = json.dumps(_aff2_document(bracket=[{"i": int("9" * 3000), "j": 2, "out": ["0", "1"]}]))
_LONG_ARGUMENT_IDS = ["long-weight", "long-zero-denominator", "long-grid", "long-fixture-argument", "long-fixture-name",
                      "long-suite", "long-flavor", "long-mode", "long-construction", "long-digit-free-weight"]


@pytest.mark.parametrize("text", [
    json.dumps(_aff2_document(alpha=_nested(500))),
    json.dumps(_aff2_document(alpha=[["9" * 5000, "0"], ["0", "1"]])),
    json.dumps(_aff2_document(differential={"matrix": [["0", "0"], ["0", "0"]], "weight": _nested(500)})),
    json.dumps(_aff2_document(variant="x" * 5000)),
    '{"kind": "algebra", "dim": ' + "1" * 5001 + "}",
    _LONG_INDEX,
    *_LONG_ARGUMENTS,
], ids=["deep-alpha", "long-scalar", "deep-weight", "long-variant", "long-integer", "long-index", *_LONG_ARGUMENT_IDS])
def test_huge_values_end_with_a_short_error_line(workdir, capsys, text):
    assert len(_refusal(workdir, capsys, text)) < 200


@pytest.mark.parametrize("text", [
    json.dumps(_aff2_document(bracket=[{"i": 1, "j": _nested(500), "out": ["0", "1"]}])),
    json.dumps({**_aff2_document(), "x" * 5000: 1}),
    _LONG_INDEX,
    *_LONG_ARGUMENTS,
], ids=["deep-index", "long-key", "long-index", *_LONG_ARGUMENT_IDS])
def test_every_quoted_value_is_clipped(workdir, capsys, text):
    assert not re.search(r"(.)\1{80}", _refusal(workdir, capsys, text))  # no value quoted past 80 characters


def _choices(command, dest):
    """The choices the parser of a subcommand accepts for one argument."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if a.dest == dest).choices


@pytest.mark.parametrize("argv, name", [
    (["check", "fixture:aff2", "--suite", "foo"], "--suite"),
    (["search", "fixture:aff2", "--mode", "foo"], "--mode"),
    (["construct", "foo", "fixture:aff2"], "construction"),
], ids=["suite", "mode", "construction"])
def test_a_short_bad_choice_lists_every_choice(capsys, argv, name):
    # the list is kept whole when the line fits the bound; a long value names --help instead (the long-* cases above)
    assert run(argv) == 2
    err = capsys.readouterr().err
    choices = _choices(argv[0], name.lstrip("-"))
    assert err == (f"error: bihomlie {argv[0]}: argument {name}: invalid choice: 'foo' "
                   f"(choose from {', '.join(map(repr, choices))})\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("at", [5, 7, 8], ids=[_LONG_ARGUMENT_IDS[i] for i in (5, 7, 8)])
def test_a_long_bad_choice_names_help(capsys, at):
    # the three flavours fit beside a clipped value, so long-flavor keeps its list
    assert run(_LONG_ARGUMENTS[at]) == 2
    assert capsys.readouterr().err.endswith("... (see --help)\n")


@pytest.mark.parametrize("doc, message", [
    (_aff2_document(alpha=["10", "01"]), "field 'alpha': expected a JSON list of rationals, got '10'"),
    (_aff2_document(alpha=[["1", "x"], ["0", "1"]]), "field 'alpha': Invalid literal for Fraction: 'x'"),
    (_aff2_document(alpha=[["9" * 4301, "0"], ["0", "1"]]), "field 'alpha': a scalar may carry at most 4300 digits in a row"),
    ({"kind": "algebra", "dim": "2"}, "missing or bad 'dim': expected a JSON integer, got '2'"),
])
def test_short_values_are_quoted_whole(workdir, capsys, doc, message):
    assert _refusal(workdir, capsys, json.dumps(doc)) == f"error: {message}\n"


def test_fixture_arguments_are_all_read(capsys):
    assert run(["check", "fixture:abelian(3,4)"]) == 2
    assert capsys.readouterr().err == "error: bad arguments for fixture 'abelian': 2 given where it takes 1\n"


@pytest.mark.parametrize("arg, quoted", [
    ("1_0", "'1_0'"),  # int() reads this as 10
    ("9" * 5000, "'" + "9" * 76 + "..."),  # int() stops at Python's digit limit
], ids=["underscore", "5000-digits"])
def test_fixture_integer_arguments_are_a_sign_and_digits(capsys, arg, quoted):
    assert run(["check", f"fixture:abelian({arg})"]) == 2
    assert capsys.readouterr().err == ("error: bad arguments for fixture 'abelian': "
                                       f"expected an integer of at most 4300 digits, got {quoted}\n")


def _scalar_refusals(workdir, text):
    """(argv, prefix of the message) for commands reading the scalar text as a document entry, a --weight, a --grid
    value and a fixture argument."""
    aff2d = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    path = _write(workdir / "aff2d.json", aff2d)
    doc = bundles.document(aff2d)
    doc["bracket"][0]["out"][1] = text
    entry = workdir / "entry.json"
    entry.write_text(json.dumps(doc))
    return [
        (["check", str(entry)], "field 'bracket': "),
        (["construct", "dual", str(entry)], "field 'bracket': "),
        (["check", path, "--suite", "differential", "--weight", text], ""),
        (["search", "fixture:aff2", "--mode", "nijenhuis-grid", "--grid", f"0,{text}"], ""),
        (["check", f"fixture:bihom2({text},3)"], "bad arguments for fixture 'bihom2': "),
    ]


def test_scalars_with_underscores_are_refused(workdir, capsys):
    # Fraction reads "1_0" as 10; no scalar, wherever it is read, does
    for argv, prefix in _scalar_refusals(workdir, "1_0"):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {prefix}a scalar has no underscores, got '1_0'\n"


def test_scalars_with_exponents_are_refused(workdir, capsys):
    # Fraction expands "1e99999" past Python's digit limit for printing, and "1E300000000" for over a minute
    for text in ("1e99999", "1E300000000"):
        for argv, prefix in _scalar_refusals(workdir, text):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: {prefix}a scalar has no exponent, got {text!r}\n"


def test_long_scalars_without_a_digit_are_refused(workdir, capsys):
    # past 4300 characters a scalar's runs of digits are measured; a scalar with none is an invalid literal
    for argv, prefix in _scalar_refusals(workdir, "x" * 5000):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}Invalid literal for Fraction: 'xxx") and err.endswith("...\n")
        assert len(err) < 200


def test_dimensions_past_the_largest_list_are_refused(workdir, capsys):
    big = 10 ** 20  # Tensor3.zeros would raise OverflowError, not MemoryError
    rep = {**bundles.document(support.adjoint_rep(bundles.aff2())), "vdim": big}
    for doc, message in (({"kind": "algebra", "dim": big}, f"dim must be at most {sys.maxsize}, got {big}"),
                         (rep, f"vdim must be at most {sys.maxsize}, got {big}")):
        assert _refusal(workdir, capsys, json.dumps(doc)) == f"error: {message}\n"
    assert run(["check", f"fixture:abelian({big})"]) == 2
    assert capsys.readouterr().err == ("error: bad arguments for fixture 'abelian': "
                                       f"abelian requires a dimension of at most {sys.maxsize}, got {big}\n")


def test_repeated_json_keys_are_refused(workdir, capsys):
    # plain json.loads keeps the last value of a repeated key: the first document below would check as aff2 with
    # alpha = id, and the second would read the entry as the pair (2, 2)
    text = json.dumps(_aff2_document(alpha=[["1", "0"], ["0", "2"]]))
    assert text.endswith("]]}")
    doc_cases = [
        (text[:-1] + ', "alpha": [["1", "0"], ["0", "1"]]}', "alpha"),
        (text.replace('{"i": 1, "j": 2, ', '{"i": 1, "j": 2, "i": 2, ', 1), "i"),
        (json.dumps(_aff2_document(differential={"matrix": [["0", "0"], ["0", "0"]], "weight": "0"}))
         .replace('"weight": "0"', '"weight": "0", "weight": "1"'), "weight"),
    ]
    for doc, key in doc_cases:
        assert doc.count(f'"{key}"') > json.dumps(json.loads(doc)).count(f'"{key}"')  # the key is repeated
        assert _refusal(workdir, capsys, doc) == f"error: bundle document repeats the key '{key}'\n"
    spath = _write(workdir / "aff2.json", bundles.aff2())
    maps = workdir / "maps.json"
    maps.write_text('{"alpha": [["1", "0"], ["0", "2"]], "beta": [["1", "0"], ["0", "1"]], '
                    '"alpha": [["1", "0"], ["0", "1"]]}', encoding="utf-8")
    assert run(["construct", "twist", spath, "--maps", str(maps), "--out", str(workdir / "o.json")]) == 2
    assert capsys.readouterr().err == "error: maps file repeats the key 'alpha'\n"


def test_grid_budget_message_writes_the_count_as_a_power(capsys):
    # the count 10000 * 3^10000 has 4776 digits, past Python's limit for printing an int
    assert run(["search", "fixture:abelian(100)", "--mode", "nijenhuis-grid", "--grid", "0,1,-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 10000 free entries over a grid of 3 need 10000 * 3^10000 candidates > budget 200000\n"
    assert "set_int_max_str_digits" not in err


# A reader that allocated dim^3 cells before reading an entry took 518 MB to
# refuse the dim-400 document.  The child runs the command line it is given
# under a 256 MiB cap on its own address space and reports its own peak
# resident set (VmHWM, in KiB; ru_maxrss would carry this process's peak
# across the fork).
_CAPPED_MAIN = """
import contextlib, io, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from bihomlie.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak, err.getvalue().strip())
"""


def _capped_main(*argv):
    """(exit code, VmHWM in KiB, stderr) of the command line argv in the capped child."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib, message = proc.stdout.split(" ", 2)
    return int(code), int(peak_kib), message.strip()


@pytest.mark.parametrize("dim", [400, 10 ** 6])
def test_reading_a_document_costs_its_size_plus_dim(workdir, dim):
    path = workdir / "wide.json"
    path.write_text(json.dumps(_aff2_document(dim=dim)), encoding="utf-8")
    code, peak_kib, message = _capped_main("check", str(path))
    assert code == 2
    assert message == f"error: field 'bracket': entry (i=1, j=2) has 2 coordinates against dim {dim}"
    assert peak_kib < 50 * 1024


@pytest.mark.parametrize("kind", ["algebra", "coalgebra"])
def test_checking_a_sparse_document_costs_its_nonzero_rows(workdir, kind):
    # abelian(400) and its dual: Jacobi and co-Jacobi skip the orbits where the bracket is zero and keep no table of
    # them; a table of every orbit ran out of memory under this cap at dim 200
    path = workdir / "abelian.json"
    path.write_text(json.dumps({"kind": kind, "dim": 400}), encoding="utf-8")
    code, peak_kib, message = _capped_main("check", str(path))
    assert (code, message) == (0, "")
    assert peak_kib < 96 * 1024


def test_a_bialgebra_document_builds_one_identity_for_its_absent_maps(workdir):
    # alpha and beta are absent, so the algebra and the coalgebra share one identity; an identity per map and
    # factor (four) ran out of memory under this cap at dim 300000.  The codiff, read last, is refused: no check runs
    path = workdir / "bialgebra.json"
    path.write_text(json.dumps({"kind": "bialgebra", "dim": 300000, "codiff": {"matrix": [[1]], "weight": 0}}),
                    encoding="utf-8")
    code, peak_kib, message = _capped_main("check", str(path))
    assert (code, message) == (2, "error: field 'codiff.matrix' is 1x1, expected 300000x300000")
    assert peak_kib < 128 * 1024


def test_an_over_budget_grid_search_is_refused_before_it_builds_the_grid():
    # abelian(3000) has 9 * 10^6 free entries: listing them and computing 3^(9 * 10^6) ran out of memory under the cap
    code, peak_kib, message = _capped_main("search", "fixture:abelian(3000)", "--mode", "nijenhuis-grid",
                                           "--grid", "0,1,-1")
    assert (code, message) == (2, "error: 9000000 free entries over a grid of 3 need 9000000 * 3^9000000 candidates"
                                  " > budget 200000")
    assert peak_kib < 50 * 1024


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


@pytest.mark.parametrize("kind", sorted(FUZZ_DOCUMENTS))
def test_misspelled_document_key_exits_two(workdir, capsys, kind):
    # a key the kind does not read is refused, not dropped with its operator unchecked
    path = workdir / "typo.json"
    path.write_text(json.dumps({**FUZZ_DOCUMENTS[kind], "nijenhius": [["1", "0"], ["0", "1"]]}), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: field 'nijenhius' is not read from {kind} documents")

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
    st.sampled_from(["0", "1", "-1/2", "1/0", "x", "", "2.5", "1e99999"]), st.just(10 ** 20),
    st.just([]), st.just({}),
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
