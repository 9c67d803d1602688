"""Command-line interface: exit codes, documents, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import support
from bihomlie import bundles
from bihomlie.cli import main
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


def test_check_perturbed_aff2_reports_jacobi_failure(workdir, capsys):
    r = support.rng(51)
    bad = bundles.aff2()
    while True:
        cand = support.perturb_algebra(bad, r)
        from bihomlie import checks

        rep = checks.check_bihom_lie(cand)
        failed = {e.identity for e in rep.failing()}
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
    from bihomlie import cli as cli_mod
    from bihomlie.bundles import Report
    from bihomlie.equivalence import TriadReport

    fake = TriadReport(True, Report(()), False, Report(()), True, Report(()))
    monkeypatch.setattr(cli_mod.equivalence, "triad_nijenhuis_bihom", lambda l, r: fake)
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
    and maps/pattern files that are JSON but not matrices."""
    _write(workdir / "form.json", bundles.FormBundle(Matrix.identity(3)))
    _write(workdir / "sl2.json", bundles.sl2())
    _write(workdir / "aff2.json", bundles.aff2())
    _write(workdir / "bi.json", bundles.BialgebraBundle(bundles.aff2(), bundles.CoalgebraBundle(
        2, Tensor3.zeros((2, 2, 2)), Matrix.identity(2), Matrix.identity(2))))
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
    ["construct", "twist", "aff2.json", "--maps", "half.json"],
    ["construct", "twist", "aff2.json", "--maps", "list.json"],
    ["construct", "twist", "aff2.json", "--maps", "alpha_half.json"],
    ["construct", "hom", "bi.json", "--maps", "half.json"],
    ["construct", "hom", "bi.json", "--maps", "list.json"],
    ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "flat.json"],
    ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1", "--pattern", "half.json"],
    ["check", "fixture:abelian(0)"],
], ids=" ".join)
def test_wrong_input_kind_exits_two_without_traceback(workdir, argv):
    _wrong_kind_inputs(workdir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "bihomlie.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
