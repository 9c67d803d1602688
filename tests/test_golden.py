"""Golden bytes: the ``--out`` files of a fixed CLI command set, the
rendered reports of the equivalence harnesses on fixed-seed instances, and
every nonzero cell of every checker's residuals on a fixed input set.

Both are compared byte for byte with files under ``tests/golden/``, so a
refactor that keeps every verdict, residual, note and report byte passes and
any other change fails.  Inputs are written straight from the data model
(twists by the diagonal formula, duals by index transposition, coadjoint
pairs from the pairing), never by the constructions under test.

To regenerate after a deliberate behaviour change, call ``write_cli_golden``,
``write_harness_golden`` and ``write_residual_golden`` and review the diff.
"""

import dataclasses
import itertools
import json
import os
from pathlib import Path

import naive
import support
from support import gl, gl_torus, reproducer_pair, twisted
from bihomlie import bundles
from bihomlie.bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    Differential,
    FormBundle,
    MatchedPairBundle,
    RepresentationBundle,
)
from bihomlie.checks import IDENTITY_FORMULAS
from bihomlie.cli import _report_document, main
from bihomlie.equivalence import iff_harness, triad_differential, triad_nijenhuis_bihom
from bihomlie.exact import Matrix, Tensor3, scalar

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"
HARNESS_GOLDEN = GOLDEN / "harness.jsonl"


# -- inputs, written from the data model ---------------------------------------------


def coalgebra_of(a: AlgebraBundle) -> CoalgebraBundle:
    """The coalgebra on the dual space: Delta(f_k)[i][j] = c[i][j][k], maps transposed."""
    n = a.dim
    comul = [[[a.bracket.entries[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)]
    conij = a.nijenhuis.transpose() if a.nijenhuis is not None else None
    codiff = Differential(a.differential.matrix.transpose(), a.differential.weight) if a.differential else None
    return CoalgebraBundle(n, Tensor3.from_entries(comul), a.alpha.transpose(), a.beta.transpose(),
                           conijenhuis=conij, codiff=codiff)


def coadjoint_pair(left: AlgebraBundle, right: AlgebraBundle) -> MatchedPairBundle:
    """Both coadjoint actions from the pairing, representation sign."""
    n = left.dim
    rho = tuple(Matrix.from_rows([[-left.bracket.entries[i][k][j] for j in range(n)] for k in range(n)])
                for i in range(n))
    h = tuple(Matrix.from_rows([[-right.bracket.entries[i][k][j] for j in range(n)] for k in range(n)])
              for i in range(n))
    return MatchedPairBundle(left, right, rho, h)


DERIVATION = support.aff2_derivation(1, "1/2")
I2, I3 = Matrix.identity(2), Matrix.identity(3)


def cli_inputs() -> dict:
    aff2n = support.scalar_op(bundles.aff2(), 1)
    ab2n = support.scalar_op(bundles.abelian(2), 1)
    aff2d0 = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), "1/2")
    ab2d = support.with_diff(bundles.abelian(2), I2, "1/2")
    aff2id = support.with_diff(bundles.aff2(), I2, -1)  # satisfies the weighted Leibniz rule at weight -1 only
    sl2t = twisted(support.scalar_op(bundles.sl2(), 1), [1, 2, "1/2"], [1, 3, "1/3"])
    bad_cells = [[list(row) for row in plane] for plane in bundles.aff2().bracket.entries]
    bad_cells[0][0][1] += 1
    gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(bundles.sl2().bracket)))
    return {
        "aff2.json": bundles.aff2(),
        "aff2n.json": aff2n,
        "ab2n.json": ab2n,
        "aff2d.json": support.with_diff(bundles.aff2(), DERIVATION, "1/2"),
        "aff2d0.json": aff2d0,
        "ab2d.json": ab2d,
        "aff2id.json": aff2id,
        "sl2.json": bundles.sl2(),
        "sl2n.json": dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.diagonal([2, 2, 2])),
        "sl2t.json": sl2t,
        "aff2t.json": twisted(aff2n, [1, 2], [1, 3]),
        "ab2t.json": twisted(support.scalar_op(bundles.abelian(2), 2), [1, 2], [1, 3]),
        "bad.json": dataclasses.replace(bundles.aff2(), bracket=Tensor3.from_entries(bad_cells), kind="bihom-lie"),
        "badn.json": dataclasses.replace(bundles.aff2(), bracket=Tensor3.from_entries(bad_cells), nijenhuis=I2,
                                         kind="bihom-lie"),
        "co.json": coalgebra_of(support.scalar_op(support.antisym_dual2(1, -1), 2)),
        "coplain.json": coalgebra_of(bundles.aff2()),
        "cod.json": coalgebra_of(support.with_diff(bundles.aff2(), DERIVATION, 0)),
        "bi.json": BialgebraBundle(aff2n, coalgebra_of(ab2n)),
        "biplain.json": BialgebraBundle(bundles.aff2(), coalgebra_of(bundles.abelian(2))),
        "bid.json": BialgebraBundle(aff2d0, coalgebra_of(ab2d)),
        "biid.json": BialgebraBundle(aff2id, coalgebra_of(support.with_diff(bundles.abelian(2), I2, -1))),
        "rep.json": support.adjoint_rep(support.scalar_op(bundles.aff2(), 2), eta=I2.scale(2)),
        "repd.json": support.adjoint_rep(support.with_diff(bundles.aff2(), DERIVATION, 0), xi=DERIVATION),
        "rept.json": support.adjoint_rep(sl2t, eta=I3),
        "mp.json": coadjoint_pair(aff2n, support.scalar_op(support.antisym_dual2(0, 1), 1)),
        "mpd.json": coadjoint_pair(aff2d0, ab2d),
        "mpt.json": reproducer_pair(1),
        "killing.json": FormBundle(gram),
        "degenerate.json": FormBundle(Matrix.diagonal([1, 0, 1])),
    }


CLI_FILES = {
    "maps_aff2.json": {"alpha": [["1", "0"], ["0", "2"]]},
    "maps_bi.json": {"alpha": [["1", "0"], ["0", "2"]], "beta": [["1", "0"], ["0", "3"]]},
    "maps_sl2.json": {"alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]],
                      "beta": [["1", "0", "0"], ["0", "3", "0"], ["0", "0", "1/3"]]},
    "pattern.json": [["1", None], [None, "1"]],
}


def _check(name, files, *opts):
    return name, ["check", *files, *opts]


CLI_COMMANDS = [
    # check: every bundle kind, every suite that applies (and some that do not)
    *[_check(f"check_alg_{s}", ["aff2n.json"], "--suite", s)
      for s in ("auto", "lie", "bihom", "nijenhuis", "involution", "differential", "form")],
    _check("check_alg_diff_auto", ["aff2d.json"]),
    _check("check_alg_diff", ["aff2d.json"], "--suite", "differential"),
    _check("check_alg_diff_weight", ["aff2d.json"], "--suite", "differential", "--weight", "2"),
    _check("check_alg_diff_auto_weight", ["aff2d.json"], "--weight", "2"),
    _check("check_alg_diffid_weight", ["aff2id.json"], "--suite", "differential", "--weight", "5"),
    _check("check_alg_diffid_auto_weight", ["aff2id.json"], "--weight", "5"),
    _check("check_bihom2", ["fixture:bihom2(2,3)"]),
    _check("check_twisted", ["sl2t.json"]),
    _check("check_twisted_involution", ["sl2t.json"], "--suite", "involution"),
    _check("check_bad", ["bad.json"]),
    _check("check_two_files", ["aff2n.json", "fixture:sl2"], "--suite", "bihom"),
    *[_check(f"check_co_{s}", ["co.json"], "--suite", s)
      for s in ("auto", "lie", "bihom", "coalgebra", "nijenhuis", "differential", "involution")],
    _check("check_co_diff_auto", ["cod.json"]),
    _check("check_co_diff", ["cod.json"], "--suite", "differential"),
    _check("check_co_diff_weight", ["cod.json"], "--suite", "differential", "--weight", "3"),
    *[_check(f"check_bi_{s}", ["bi.json"], "--suite", s) for s in ("auto", "bialgebra", "nijenhuis")],
    _check("check_bi_diff", ["bid.json"]),
    _check("check_bi_diffid_weight", ["biid.json"], "--suite", "differential", "--weight", "5"),
    _check("check_bi_diffid_auto_weight", ["biid.json"], "--weight", "5"),
    *[_check(f"check_rep_{s}", ["rep.json"], "--suite", s)
      for s in ("auto", "nijenhuis", "representation", "differential")],
    _check("check_rep_diff", ["repd.json"]),
    _check("check_rep_diff_weight", ["repd.json"], "--suite", "differential", "--weight", "1"),
    _check("check_rep_twisted", ["rept.json"]),
    _check("check_mp", ["mp.json"]),
    _check("check_mp_bihom", ["mp.json"], "--flavor", "bihom"),
    _check("check_mp_diff", ["mpd.json"]),
    _check("check_mp_twisted", ["mpt.json"]),
    _check("check_form", ["killing.json"]),
    _check("check_form_against", ["killing.json"], "--against", "sl2.json"),
    _check("check_form_degenerate", ["degenerate.json"]),
    # construct
    ("dual_alg", ["construct", "dual", "aff2n.json"]),
    ("dual_diff", ["construct", "dual", "aff2d.json"]),
    ("dual_co", ["construct", "dual", "co.json"]),
    ("twist_alg", ["construct", "twist", "aff2.json", "--maps", "maps_aff2.json"]),
    ("twist_sl2", ["construct", "twist", "sl2.json", "--maps", "maps_sl2.json"]),
    ("twist_co", ["construct", "twist", "coplain.json", "--maps", "maps_aff2.json"]),
    ("twist_bi", ["construct", "twist", "biplain.json", "--maps", "maps_bi.json"]),
    ("untwist", ["construct", "untwist", "sl2t.json"]),
    ("hom", ["construct", "hom", "biplain.json", "--maps", "maps_aff2.json"]),
    ("semidirect", ["construct", "semidirect", "rep.json", "--flavor", "nijenhuis"]),
    ("semidirect_diff", ["construct", "semidirect", "repd.json", "--flavor", "differential"]),
    ("semidirect_twisted", ["construct", "semidirect", "rept.json", "--flavor", "nijenhuis"]),
    ("double", ["construct", "double", "aff2n.json", "ab2n.json", "--flavor", "nijenhuis"]),
    ("double_bihom", ["construct", "double", "aff2n.json", "ab2n.json", "--flavor", "bihom"]),
    ("double_diff", ["construct", "double", "aff2d0.json", "ab2d.json", "--flavor", "differential"]),
    ("double_twisted", ["construct", "double", "aff2t.json", "ab2t.json", "--flavor", "nijenhuis"]),
    ("double_twisted_bihom", ["construct", "double", "aff2t.json", "ab2t.json", "--flavor", "bihom"]),
    ("bicrossed", ["construct", "bicrossed", "mp.json", "--flavor", "nijenhuis"]),
    ("bicrossed_diff", ["construct", "bicrossed", "mpd.json", "--flavor", "differential"]),
    ("bicrossed_twisted", ["construct", "bicrossed", "mpt.json", "--flavor", "nijenhuis"]),
    ("adjoint_form", ["construct", "adjoint-form", "sl2n.json", "killing.json"]),
    # triad
    ("triad", ["triad", "aff2n.json", "ab2n.json"]),
    ("triad_false", ["triad", "aff2n.json", "bad.json"]),
    ("triad_false_operator", ["triad", "aff2n.json", "badn.json"]),
    ("triad_twisted", ["triad", "aff2t.json", "ab2t.json"]),
    ("triad_diff", ["triad", "aff2d0.json", "ab2d.json", "--flavor", "differential"]),
    # search
    ("search_derivations", ["search", "sl2.json", "--mode", "derivations"]),
    ("search_conijenhuis", ["search", "bi.json", "--mode", "conijenhuis"]),
    ("search_pi", ["search", "aff2d.json", "--mode", "pi"]),
    ("search_zeta", ["search", "repd.json", "--mode", "zeta"]),
    ("search_grid", ["search", "fixture:bihom2(2,3)", "--mode", "nijenhuis-grid", "--grid", "1,0,-3/2,2"]),
    ("search_grid_pattern", ["search", "aff2.json", "--mode", "nijenhuis-grid", "--grid", "0,1",
                             "--pattern", "pattern.json"]),
]


def run_cli_commands(workdir: Path) -> dict[str, int]:
    """Write the inputs into workdir, run every command there with --out NAME,
    and return the exit codes; the --out files are left in workdir/out."""
    for name, bundle in cli_inputs().items():
        bundles.save_path(bundle, str(workdir / name))
    for name, doc in CLI_FILES.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "out").mkdir()
    codes = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # report documents name their sources by the relative paths given
    try:
        for name, argv in CLI_COMMANDS:
            codes[name] = main(argv + ["--out", f"out/{name}.json"])
    finally:
        os.chdir(cwd)
    return codes


def write_cli_golden(workdir: Path) -> None:
    codes = run_cli_commands(workdir)
    CLI_GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in CLI_GOLDEN.iterdir():
        old.unlink()
    for path in sorted((workdir / "out").iterdir()):
        (CLI_GOLDEN / path.name).write_bytes(path.read_bytes())
    (CLI_GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")


def test_cli_out_files_match_golden_bytes(tmp_path):
    codes = run_cli_commands(tmp_path)
    assert codes == json.loads((CLI_GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    produced = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    golden = {p.name: p.read_bytes() for p in CLI_GOLDEN.iterdir() if p.name != "exit_codes.json"}
    assert sorted(produced) == sorted(golden)
    for name, data in golden.items():
        assert produced[name] == data, f"--out bytes differ: {name}"


def test_every_declared_identity_is_reached_by_a_cli_golden():
    # diff_admissible_zeta is the identity `search --mode zeta` solves, evaluated
    # only by bench/'s oracle; shared_maps is enforced when a BialgebraBundle is
    # built, so no report names it
    reached = set()
    for path in CLI_GOLDEN.glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(doc, dict):
            reached |= set(doc.get("identities", ()))
    missing = set(IDENTITY_FORMULAS) - reached - {"diff_admissible_zeta", "shared_maps"}
    assert not missing, sorted(missing)


# -- harness reports ------------------------------------------------------------------------


def _perturbed(items, seed, perturb):
    r = support.rng(seed)
    return [perturb(x, r) for x in items]


def _perturb_rep_rho(rep, r):
    return support._perturb_rep(rep, r, ["rho", "p"])


def harness_instances() -> dict[str, list[dict]]:
    sl2t = twisted(support.scalar_op(bundles.sl2(), 1), [1, 2, "1/2"], [1, 3, "1/3"])
    aff2t = twisted(support.scalar_op(bundles.aff2(), 2), [1, 2], [1, 3])
    algebras = [bundles.aff2(), bundles.sl2(), bundles.abelian(3), bundles.bihom2(2, 3),
                dataclasses.replace(sl2t, nijenhuis=None), dataclasses.replace(aff2t, nijenhuis=None)]
    operators = [bundles.bihom2(2, 3), support.scalar_op(bundles.aff2(), 2),
                 support.scalar_op(bundles.sl2(), "1/2"), sl2t, aff2t]
    differentials = [support.with_diff(bundles.aff2(), DERIVATION, 0),
                     support.with_diff(bundles.sl2(), Matrix.zeros(3, 3), 1),
                     support.with_diff(bundles.abelian(3), Matrix.from_rows([[1, 2, 0], [0, "1/2", 1], [3, 0, -1]]), 2),
                     support.with_diff(dataclasses.replace(aff2t, nijenhuis=None), Matrix.zeros(2, 2), "1/2"),
                     support.with_diff(dataclasses.replace(sl2t, nijenhuis=None), Matrix.zeros(3, 3), 0)]
    reps = [support.adjoint_rep(bundles.aff2()), support.adjoint_rep(bundles.sl2()),
            support.adjoint_rep(dataclasses.replace(sl2t, nijenhuis=None)),
            support.zero_rep(bundles.aff2(), 2, p=Matrix.diagonal([1, -1]), q=Matrix.diagonal([-1, -1])),
            support.adjoint_rep(dataclasses.replace(aff2t, nijenhuis=None))]
    twisted_reps = [(sl2t, support.adjoint_rep(sl2t, eta=I3)), (aff2t, support.adjoint_rep(aff2t, eta=I2.scale(2)))]
    twisted_pairs = [reproducer_pair(1), reproducer_pair(2)]
    out = {
        "dual_algebra": [{"algebra": a} for a in algebras + _perturbed(algebras, 301, support.perturb_algebra)],
        "dual_nijenhuis": [{"algebra": a} for a in operators + _perturbed(operators, 302, support.perturb_algebra)],
        "dual_differential": [{"algebra": a}
                              for a in differentials + _perturbed(differentials, 303, support.perturb_algebra)],
        "dual_rep": [{"rep": x} for x in reps + _perturbed(reps, 304, _perturb_rep_rho)],
        "semidirect": [{"algebra": a, "rep": x} for a, x in
                       support.semidirect_valid(5) + support.semidirect_broken(5) + twisted_reps
                       + [(a, support._perturb_rep(x, support.rng(305), ["rho"])) for a, x in twisted_reps]],
        "semidirect_diff": [{"algebra": a, "rep": x} for a, x in
                            support.semidirect_diff_valid(6) + support.semidirect_diff_broken(5)]
                           + [{"algebra": (d := support.with_diff(sl2t, Matrix.zeros(3, 3), 0)),
                               "rep": support.adjoint_rep(d, xi=I3)}],
        "bicrossed": [{"mp": mp} for mp in support.bicrossed_valid(5) + support.bicrossed_broken(5) + twisted_pairs
                      + [support._perturb_mp(mp, support.rng(306), allow_algebras=True) for mp in twisted_pairs]],
        "bicrossed_diff": [{"mp": mp} for mp in support.bicrossed_diff_valid(6) + support.bicrossed_diff_broken(5)],
    }
    return out


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _render_iff(kind: str, data: dict) -> dict:
    try:
        rep = iff_harness(kind, **data)
    except ValueError as exc:
        return _error(exc)
    return {
        "first_label": rep.first_label, "first_ok": rep.first_ok,
        "first": _report_document(rep.first_label, rep.first_report),
        "second_label": rep.second_label, "second_ok": rep.second_ok,
        "second": _report_document(rep.second_label, rep.second_report),
        "agree": rep.agree,
    }


def _render_triad(run, left, right) -> dict:
    try:
        t = run(left, right)
    except ValueError as exc:
        return _error(exc)
    return {
        "verdicts": [t.manin_report.ok, t.bialgebra_report.ok, t.matched_pair_report.ok], "agree": t.agree, "all_ok": t.all_ok,
        "notes": list(t.notes),
        "manin": _report_document("manin", t.manin_report),
        "bialgebra": _report_document("bialgebra", t.bialgebra_report),
        "matched_pair": _report_document("matched_pair", t.matched_pair_report),
    }


def render_harness() -> list[str]:
    """One JSON line per rendered item: the identity formula table, then each
    harness instance labelled by its kind and position."""
    items = [("identity_formulas", IDENTITY_FORMULAS)]
    for kind, instances in harness_instances().items():
        items += [(f"{kind}/{i}", _render_iff(kind, data)) for i, data in enumerate(instances)]
    for flavor, run, family in (("nijenhuis", triad_nijenhuis_bihom, support.nijenhuis_triad_family()),
                                ("differential", triad_differential, support.differential_triad_family())):
        items += [(f"triad_{flavor}/{i}", _render_triad(run, l, r)) for i, (l, r) in enumerate(family)]
    return [json.dumps({"item": label, "value": value}, separators=(",", ":"), sort_keys=True) + "\n"
            for label, value in items]


def write_harness_golden() -> None:
    HARNESS_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    HARNESS_GOLDEN.write_text("".join(render_harness()), encoding="utf-8")


def test_harness_reports_match_golden():
    golden = HARNESS_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    rendered = render_harness()
    assert len(rendered) == len(golden)
    for got, want in zip(rendered, golden):
        assert got == want, f"rendered report differs: {json.loads(want)['item']}"


# -- full residuals of every checker ----------------------------------------------------------
#
# The CLI and harness documents keep only the first cells of each residual, so
# they cannot pin a cell-level rewrite of an evaluator.  This golden records
# every nonzero cell of every entry of each checker on a fixed input set.

RESIDUAL_GOLDEN = GOLDEN / "residuals.jsonl"


def heisenberg(k: int) -> AlgebraBundle:
    """Heisenberg algebra of dim 2k+1: [x_i, y_i] = z."""
    dim = 2 * k + 1
    cells = [[[scalar(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(k):
        cells[i][k + i][dim - 1] = scalar(1)
        cells[k + i][i][dim - 1] = scalar(-1)
    ident = Matrix.identity(dim)
    return AlgebraBundle(dim, Tensor3.from_entries(cells), ident, ident, kind="lie")


def _block(a: Matrix, b: Matrix) -> Matrix:
    rows = [list(r) + [scalar(0)] * b.cols for r in a.entries] + [[scalar(0)] * a.cols + list(r) for r in b.entries]
    return Matrix.from_rows(rows)


def direct_sum(a: AlgebraBundle, b: AlgebraBundle) -> AlgebraBundle:
    """The product algebra on A + B with block-diagonal maps."""
    n, m = a.dim, b.dim
    cells = [[[scalar(0)] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i, j in itertools.product(range(n), repeat=2):
        cells[i][j][:n] = a.bracket.entries[i][j]
    for i, j in itertools.product(range(m), repeat=2):
        cells[n + i][n + j][n:] = b.bracket.entries[i][j]
    return AlgebraBundle(n + m, Tensor3.from_entries(cells), _block(a.alpha, b.alpha), _block(a.beta, b.beta),
                         kind="lie" if a.kind == b.kind == "lie" else "bihom-lie")


def _rmatrix(r, rows: int, cols: int | None = None) -> Matrix:
    return Matrix.from_rows([[support.rational(r) for _ in range(cols or rows)] for _ in range(rows)])


def _perturbed_bracket(a: AlgebraBundle, r) -> AlgebraBundle:
    return dataclasses.replace(a, bracket=support.perturb_tensor3(a.bracket, r), kind="bihom-lie")


def residual_algebras() -> list[tuple[str, AlgebraBundle]]:
    """Identity-map, torus-twisted non-involutive and bihom2(2,3) algebras of
    dims 1-9, each carrying a Nijenhuis operator and a differential, plus one
    perturbed copy of each family."""
    r = support.rng(4101)
    base = [
        ("abelian1", bundles.abelian(1)),
        ("aff2", bundles.aff2()),
        ("sl2", bundles.sl2()),
        ("gl2", gl(2)),
        ("heis5", heisenberg(2)),
        ("sl2+sl2", direct_sum(bundles.sl2(), bundles.sl2())),
        ("heis7", heisenberg(3)),
        ("gl2+gl2", direct_sum(gl(2), gl(2))),
        ("gl3", gl(3)),
        ("aff2t", twisted(bundles.aff2(), [1, 2], [1, 3])),
        ("sl2t", twisted(bundles.sl2(), [1, 2, "1/2"], [1, 3, "1/3"])),
        ("gl3t", gl_torus(3, [1, 2, 5], [1, 3, "1/2"])),
        ("bihom2", bundles.bihom2(2, 3)),
    ]
    perturbed = [(f"{label}~", _perturbed_bracket(a, r)) for label, a in base if label in ("sl2", "gl3t", "bihom2")]
    perturbed.append(("sl2t~alpha", dataclasses.replace(base[10][1], alpha=support.perturb_matrix(base[10][1].alpha, r))))
    out = []
    for label, a in base + perturbed:
        n = a.dim
        nij = a.nijenhuis if a.nijenhuis is not None else (
            Matrix.identity(n).scale(scalar(2)) if n % 2 else _rmatrix(r, n))
        out.append((label, dataclasses.replace(a, nijenhuis=nij, differential=Differential(_rmatrix(r, n), scalar("1/2")))))
    return out


def residual_pairs() -> list[tuple[str, MatchedPairBundle]]:
    """Matched pairs: coadjoint, twisted, rectangular random, and identity-map
    pairs with differentials (the only ones the differential flavour reads)."""
    r = support.rng(4102)
    aff2n = support.scalar_op(bundles.aff2(), 2)
    dual = support.scalar_op(support.antisym_dual2(1, "-1/2"), "1/2")
    sl2n = support.scalar_op(bundles.sl2(), 1)
    rect = MatchedPairBundle(sl2n, aff2n, tuple(_rmatrix(r, 2) for _ in range(3)), tuple(_rmatrix(r, 3) for _ in range(2)))
    aff2d = support.with_diff(bundles.aff2(), DERIVATION, "1/3")
    dual_d = support.with_diff(support.antisym_dual2(0, 1), _rmatrix(r, 2), "1/3")
    sl2d = support.with_diff(bundles.sl2(), _rmatrix(r, 3), "1/3")
    rect_d = MatchedPairBundle(sl2d, aff2d, tuple(_rmatrix(r, 2) for _ in range(3)), tuple(_rmatrix(r, 3) for _ in range(2)))
    pairs = [
        ("coadjoint", coadjoint_pair(aff2n, dual)),
        ("twisted", reproducer_pair(1)),
        ("bihom2", coadjoint_pair(bundles.bihom2(2, 3), dataclasses.replace(
            support.scalar_op(bundles.abelian(2), 1), alpha=bundles.bihom2(2, 3).alpha, kind="bihom-lie"))),
        ("rect", rect),
        ("coadjoint_d", coadjoint_pair(aff2d, dual_d)),
        ("rect_d", rect_d),
    ]
    pairs += [(f"{label}~", support._perturb_mp(mp, r, allow_algebras=True)) for label, mp in pairs]
    return pairs


def _residual_rendering(report) -> dict:
    return {
        "notes": list(report.notes),
        "entries": [{"identity": e.identity, "case": e.case, "ok": e.ok, "advisory": e.advisory,
                     "shape": list(e.residual.shape),
                     "cells": [[list(idx), str(v)] for idx, v in e.residual.nonzeros]}
                    for e in report.entries],
    }


def residual_items():
    """(label, thunk) of every checker call the residual golden records."""
    from bihomlie import checks
    from bihomlie.constructions import _endomorphism_report

    r = support.rng(4103)
    for label, a in residual_algebras():
        n = a.dim
        co = coalgebra_of(a)
        smap, pi = _rmatrix(r, n), _rmatrix(r, n)
        gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(a.bracket)))
        form = FormBundle(gram if label.startswith(("sl2", "gl")) and "~" not in label else _rmatrix(r, n))
        bialgebra = BialgebraBundle(a, CoalgebraBundle(n, co.comul, a.alpha, a.beta))
        rep = support.adjoint_rep(a, eta=a.nijenhuis, xi=a.differential.matrix)
        small = RepresentationBundle(a, 2, tuple(_rmatrix(r, 2) for _ in range(n)), _rmatrix(r, 2), Matrix.identity(2),
                                     eta=_rmatrix(r, 2), xi=_rmatrix(r, 2))
        yield f"{label}/bihom_lie", lambda: checks.check_bihom_lie(a)
        yield f"{label}/involution", lambda: checks.check_involution(a)
        yield f"{label}/nijenhuis_operator", lambda: checks.check_nijenhuis_operator(a)
        yield f"{label}/adjoint_admissible", lambda: checks.check_adjoint_admissible(a, smap)
        yield f"{label}/diff_leibniz", lambda: checks.check_diff_leibniz(a)
        yield f"{label}/diff_leibniz_w2", lambda: checks.check_diff_leibniz(a, smap, scalar(2))
        yield f"{label}/diff_pi", lambda: checks.check_diff_pi(a, pi)
        yield f"{label}/gram", lambda: checks.check_gram(form)
        yield f"{label}/form", lambda: checks.check_form(a, form)
        yield f"{label}/endomorphism", lambda: _endomorphism_report((a, co), a.alpha, a.beta)
        yield f"{label}/endomorphism_nijenhuis", lambda: _endomorphism_report((a,), a.nijenhuis, a.nijenhuis)
        yield f"{label}/bihom_coalgebra", lambda: checks.check_bihom_coalgebra(co)
        yield f"{label}/nijenhuis_coalgebra", lambda: checks.check_nijenhuis_coalgebra(co)
        yield f"{label}/diff_coalgebra", lambda: checks.check_diff_coalgebra(co)
        yield f"{label}/dual_admissible", lambda: checks.check_dual_admissible(co.comul, co.conijenhuis, smap)
        yield f"{label}/diff_dual_admissible", lambda: checks.check_diff_dual_admissible(co, pi)
        yield f"{label}/bialgebra_cocycle", lambda: checks.check_bialgebra_cocycle(bialgebra)
        for rlabel, x in (("adjoint", rep), ("small", small)):
            yield f"{label}/{rlabel}/representation", lambda x=x: checks.check_representation(x)
            yield f"{label}/{rlabel}/nijenhuis_representation", lambda x=x: checks.check_nijenhuis_representation(x)
            yield f"{label}/{rlabel}/diff_rep", lambda x=x: checks.check_diff_rep(x)
            yield f"{label}/{rlabel}/diff_zeta", lambda x=x, z=_rmatrix(r, x.vdim): checks.check_diff_zeta(x, z)
    for label, mp in residual_pairs():
        for flavor in ("bihom", "nijenhuis", "differential"):
            # the /symmetrized suffix is the item name the golden file was first written with
            yield f"mp/{label}/{flavor}/symmetrized", lambda mp=mp, flavor=flavor: checks.check_matched_pair(mp, flavor)
    for label, (left, right) in (("aff2+dual", (bundles.aff2(), support.antisym_dual2(1, 2))),
                                 ("sl2+sl2", (bundles.sl2(), bundles.sl2()))):
        total = direct_sum(left, right)
        yield f"restriction/{label}", lambda: checks.check_restriction(total, left, right)
        broken = _perturbed_bracket(total, r)
        yield f"restriction/{label}~", lambda: checks.check_restriction(broken, left, right)


def render_residuals() -> list[str]:
    lines = []
    for label, thunk in residual_items():
        try:
            value = _residual_rendering(thunk())
        except ValueError as exc:
            value = _error(exc)
        lines.append(json.dumps({"item": label, "value": value}, separators=(",", ":"), sort_keys=True) + "\n")
    return lines


def write_residual_golden() -> None:
    RESIDUAL_GOLDEN.write_text("".join(render_residuals()), encoding="utf-8")


def test_residuals_match_golden():
    golden = RESIDUAL_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    rendered = render_residuals()
    assert len(rendered) == len(golden)
    for got, want in zip(rendered, golden):
        assert got == want, f"residual differs: {json.loads(want)['item']}"
