"""Command-line front end.

Subcommands: check (run identity suites on bundle files), construct (run a
construction and write its output), triad (three-way equivalence harness),
search (structure-finding solvers).  Reports are JSON documents rendered
deterministically: repeated runs on the same inputs are byte-identical.

Exit codes: 0 all pass; 1 identity failure; 2 parse/precondition error;
3 (triad only) the alarming case of a three-way disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import bundles, checks, constructions, equivalence, search
from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    FormBundle,
    MatchedPairBundle,
    MissingField,
    ParseError,
    Report,
    RepresentationBundle,
    fixture_by_name,
)
from .checks import IDENTITY_FORMULAS, WeightMismatch
from .constructions import PreconditionFailed
from .exact import DimensionMismatch, Matrix, SingularMatrix, format_scalar, scalar
from .search import BudgetExceeded, NonlinearKind

MAX_RESIDUAL_CELLS = 16

_USER_ERRORS = (
    ParseError,
    MissingField,
    DimensionMismatch,
    SingularMatrix,
    PreconditionFailed,
    NonlinearKind,
    BudgetExceeded,
    WeightMismatch,
    ValueError,
    OSError,
)


def _load_source(ref: str) -> Any:
    if ref.startswith("fixture:"):
        return fixture_by_name(ref[len("fixture:"):])
    return bundles.load_path(ref)


_KINDS = {AlgebraBundle: "algebra", CoalgebraBundle: "coalgebra", BialgebraBundle: "bialgebra",
          RepresentationBundle: "representation", MatchedPairBundle: "matched_pair", FormBundle: "form"}


def _require_kind(bundle: Any, what: str, *types: type) -> Any:
    """The bundle, if it is of one of the kinds an input accepts; else a ParseError naming them."""
    if not isinstance(bundle, types):
        wanted, got = " or ".join(_KINDS[t] for t in types), _KINDS.get(type(bundle), type(bundle).__name__)
        raise ParseError(f"{what} needs a bundle of kind {wanted}, got kind {got}")
    return bundle


def _read_json(path: str, what: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {what} file at line {exc.lineno}: {exc.msg}") from exc


def _residual_document(res: bundles.Residual) -> dict[str, Any]:
    cells = [{"index": list(idx), "value": format_scalar(v)} for idx, v in res.nonzeros[:MAX_RESIDUAL_CELLS]]
    doc: dict[str, Any] = {"shape": list(res.shape), "nonzero_count": len(res.nonzeros), "nonzeros": cells}
    if len(res.nonzeros) > MAX_RESIDUAL_CELLS:
        doc["truncated"] = True
    return doc


def _report_document(source: str, report: Report) -> dict[str, Any]:
    return {
        "kind": "report",
        "source": source,
        "ok": report.ok,
        "notes": list(report.notes),
        "entries": [
            {
                "identity": e.identity,
                "case": e.case,
                "ok": e.ok,
                "advisory": e.advisory,
                "residual": _residual_document(e.residual),
            }
            for e in report.entries
        ],
    }


def _identity_table(reports: list[dict[str, Any]]) -> dict[str, str]:
    used = sorted({e["identity"] for r in reports for e in r.get("entries", [])})
    return {name: IDENTITY_FORMULAS.get(name, "") for name in used}


def _emit(doc: dict[str, Any], out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_report_lines(source: str, report: Report) -> None:
    for e in report.entries:
        tag = "PASS" if e.ok else "FAIL"
        if e.advisory:
            tag += "*"
        case = f"[{e.case}]" if e.case else ""
        print(f"{tag} {source}: {e.identity}{case}")
    for note in report.notes:
        print(f"NOTE {source}: {note}")


# -- check ------------------------------------------------------------------------


#: bundle types whose --suite selects an entry of checks.SUITES
_SUITE_KINDS = ((AlgebraBundle, "algebra"), (CoalgebraBundle, "coalgebra"),
                (BialgebraBundle, "bialgebra"), (RepresentationBundle, "representation"))


def _suite_report(bundle: Any, suite: str, weight: Fraction | None,
                  flavor: str | None, symmetrized: bool, against: Any | None) -> Report:
    if isinstance(bundle, MatchedPairBundle):
        mp_flavor = flavor or ("nijenhuis" if bundle.left.nijenhuis is not None and bundle.right.nijenhuis is not None
                               else "differential" if bundle.left.differential is not None and bundle.right.differential is not None
                               else "bihom")
        return checks.check_matched_pair(bundle, mp_flavor, symmetrized)
    if isinstance(bundle, FormBundle):
        return checks.check_form(against, bundle) if against is not None else checks.check_gram(bundle)
    kind = next((name for cls, name in _SUITE_KINDS if isinstance(bundle, cls)), None)
    if kind is None:
        raise ParseError(f"cannot check a {type(bundle).__name__}")
    if kind == "bialgebra":
        suite = "auto"  # one suite, whatever --suite says
    elif kind == "representation" and suite not in ("auto", "nijenhuis", "differential"):
        suite = "bihom"
    elif suite == "lie" or (kind, suite) == ("coalgebra", "coalgebra"):
        suite = "bihom"
    if (kind, suite) not in checks.SUITES:
        raise ParseError(f"suite {suite!r} does not apply to {'an' if kind == 'algebra' else 'a'} {kind} bundle")
    return checks.SUITES[kind, suite].run(bundle, weight)


def cmd_check(args: argparse.Namespace) -> int:
    against = _require_kind(_load_source(args.against), "--against", AlgebraBundle) if args.against else None
    weight = scalar(args.weight) if args.weight is not None else None
    reports: list[dict[str, Any]] = []
    ok = True
    for ref in args.files:
        bundle = _load_source(ref)
        report = _suite_report(bundle, args.suite, weight, args.flavor, args.symmetrized_mp_right, against)
        _print_report_lines(ref, report)
        reports.append(_report_document(ref, report))
        ok = ok and report.ok
    doc = {"kind": "report-set", "ok": ok, "identities": _identity_table(reports), "reports": reports}
    if args.out:
        _emit(doc, args.out)
    print("OK" if ok else "IDENTITY FAILURE")
    return 0 if ok else 1


# -- construct -----------------------------------------------------------------------


def _load_maps(path: str, dim: int) -> tuple[Matrix, Matrix]:
    doc = _read_json(path, "maps")
    if not isinstance(doc, dict) or "alpha" not in doc:
        raise ParseError("maps file needs an 'alpha' matrix")
    alpha = bundles._parse_matrix(doc["alpha"], dim, "alpha")
    beta = bundles._parse_matrix(doc["beta"], dim, "beta") if "beta" in doc else Matrix.identity(dim)
    return alpha, beta


def _matrix_document(m: Matrix) -> dict[str, Any]:
    return {"kind": "matrix", "dim": m.rows, "matrix": [[format_scalar(x) for x in row] for row in m.entries]}


_TWISTABLE = (AlgebraBundle, CoalgebraBundle, BialgebraBundle)
#: construction -> the bundle kinds each of its inputs accepts
_CONSTRUCTION_INPUTS: dict[str, tuple[tuple[type, ...], ...]] = {
    "dual": ((AlgebraBundle, CoalgebraBundle),),
    "twist": (_TWISTABLE,),
    "untwist": (_TWISTABLE,),
    "hom": ((BialgebraBundle,),),
    "semidirect": ((RepresentationBundle,),),
    "double": ((AlgebraBundle,), (AlgebraBundle,)),
    "bicrossed": ((MatchedPairBundle,),),
    "adjoint-form": ((AlgebraBundle,), (FormBundle,)),
}


def cmd_construct(args: argparse.Namespace) -> int:
    kind = args.construction
    inputs = [_load_source(ref) for ref in args.inputs]
    report = Report(())
    result: Any = None
    extra_out: list[tuple[str, dict[str, Any]]] = []

    accepted = _CONSTRUCTION_INPUTS.get(kind)
    if accepted is None:
        raise ParseError(f"unknown construction {kind!r}")
    if len(inputs) != len(accepted):
        raise ParseError(f"{kind} takes {len(accepted)} input bundle(s), got {len(inputs)}")
    for bundle, types in zip(inputs, accepted):
        _require_kind(bundle, kind, *types)

    if kind == "dual":
        (bundle,) = inputs
        result = constructions.dualize(bundle)
    elif kind == "twist":
        (bundle,) = inputs
        if not args.maps:
            raise ParseError("twist needs --maps pointing to an alpha/beta file")
        alpha, beta = _load_maps(args.maps, bundle.dim)
        result, report = constructions.yau_twist(bundle, alpha, beta)
    elif kind == "untwist":
        (bundle,) = inputs
        result = constructions.untwist(bundle)
    elif kind == "hom":
        (bundle,) = inputs
        if not args.maps:
            raise ParseError("hom needs --maps pointing to an alpha file")
        alpha, _ = _load_maps(args.maps, bundle.dim)
        result, report = constructions.hom_specialize(bundle, alpha)
    elif kind == "semidirect":
        (rep_bundle,) = inputs
        result, report = constructions.semidirect_product(rep_bundle.algebra, rep_bundle, args.flavor or "nijenhuis")
    elif kind == "double":
        left, right = inputs
        double, report = constructions.double_construction(left, right, args.flavor or "nijenhuis")
        result = double.total
        extra_out.append(("form", bundles.document(double.form)))
    elif kind == "bicrossed":
        (mp,) = inputs
        result, report = constructions.bicrossed_product(mp, args.flavor or "nijenhuis", args.symmetrized_mp_right)
    elif kind == "adjoint-form":
        algebra, form = inputs
        result_matrix = constructions.adjoint_map_wrt_form(algebra.require_nijenhuis(), form)
        result = None
        extra_out.append(("matrix", _matrix_document(result_matrix)))

    docs: list[dict[str, Any]] = []
    if result is not None:
        docs.append(bundles.document(result))
    docs.extend(doc for _, doc in extra_out)
    rep_doc = _report_document("hypotheses", report)
    out_doc = {"kind": "construction", "construction": kind, "ok": report.ok,
               "identities": _identity_table([rep_doc]), "report": rep_doc, "outputs": docs}
    if args.out:
        if result is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(docs[0], indent=2) + "\n")
            for label, doc in extra_out:
                with open(f"{args.out}.{label}.json", "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, indent=2) + "\n")
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(extra_out[0][1], indent=2) + "\n")
        with open(f"{args.out}.report.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out_doc, indent=2) + "\n")
    else:
        _emit(out_doc, None)
    _print_report_lines("hypotheses", report)
    if not report.ok:
        print("PRECONDITION FAILURE")
        return 2
    print("OK")
    return 0


# -- triad ---------------------------------------------------------------------------


def cmd_triad(args: argparse.Namespace) -> int:
    left = _require_kind(_load_source(args.left), "triad", AlgebraBundle)
    right = _require_kind(_load_source(args.right), "triad", AlgebraBundle)
    if args.flavor == "differential":
        triad = equivalence.triad_differential(left, right, args.symmetrized_mp_right)
    else:
        triad = equivalence.triad_nijenhuis_bihom(left, right)
    side_docs = {
        "manin": _report_document("manin", triad.manin_report),
        "bialgebra": _report_document("bialgebra", triad.bialgebra_report),
        "matched_pair": _report_document("matched_pair", triad.matched_pair_report),
    }
    doc = {
        "kind": "triad-report",
        "flavor": args.flavor,
        "verdicts": {
            "manin": triad.manin_ok,
            "bialgebra": triad.bialgebra_ok,
            "matched_pair": triad.matched_pair_ok,
        },
        "agree": triad.agree,
        "all_ok": triad.all_ok,
        "notes": list(triad.notes),
        "identities": _identity_table(list(side_docs.values())),
        "reports": side_docs,
    }
    if args.out:
        _emit(doc, args.out)
    print(f"manin={triad.manin_ok} bialgebra={triad.bialgebra_ok} matched_pair={triad.matched_pair_ok} agree={triad.agree}")
    if not triad.agree:
        print("DISAGREEMENT")
        return 3
    if not triad.all_ok:
        print("AGREE BUT FALSE")
        return 1
    print("OK")
    return 0


# -- search --------------------------------------------------------------------------


def _solution_document(mode: str, sol: search.SolutionSpace) -> dict[str, Any]:
    def fmt(m: Matrix | None):
        return None if m is None else [[format_scalar(x) for x in row] for row in m.entries]

    return {
        "kind": "solutions",
        "mode": mode,
        "shape": list(sol.shape),
        "homogeneous": sol.homogeneous,
        "empty": sol.is_empty,
        "dimension": sol.dimension,
        "particular": fmt(sol.particular_matrix()),
        "basis": [fmt(m) for m in sol.basis_matrices()],
    }


def cmd_search(args: argparse.Namespace) -> int:
    mode = args.mode
    kind = {"conijenhuis": BialgebraBundle, "zeta": RepresentationBundle}.get(mode, AlgebraBundle)
    bundle = _require_kind(_load_source(args.file), f"{mode} search", kind)
    weight = scalar(args.weight) if args.weight is not None else scalar(0)
    if mode == "nijenhuis-grid":
        if not args.grid:
            raise ParseError("nijenhuis-grid needs --grid \"a,b,c\"")
        grid = [scalar(x) for x in args.grid.split(",")]
        pattern = None
        if args.pattern:
            raw = _read_json(args.pattern, "pattern")
            pattern = bundles._parsed(
                "pattern", lambda rows: [[None if x is None else scalar(x) for x in row] for row in rows], raw)
        sols = search.grid_search_nijenhuis(bundle, grid, pattern, args.budget)
        doc = {
            "kind": "solutions",
            "mode": mode,
            "count": len(sols),
            "solutions": [[[format_scalar(x) for x in row] for row in m.entries] for m in sols],
        }
        _emit(doc, args.out)
        print(f"{len(sols)} solutions")
        return 0
    if mode == "derivations":
        sol = search.solve_linear_identity("derivation", weight, algebra=bundle)
    elif mode == "conijenhuis":
        sol = search.solve_linear_identity("conijenhuis", weight,
                                           comul=bundle.coalgebra.comul, nmap=bundle.algebra.require_nijenhuis())
    elif mode == "pi":
        sol = search.solve_linear_identity("pi", weight if args.weight is not None else bundle.require_differential().weight,
                                           algebra=bundle)
    elif mode == "zeta":
        w = weight if args.weight is not None else bundle.algebra.require_differential().weight
        sol = search.solve_linear_identity("zeta", w, rep=bundle)
    else:
        raise ParseError(f"unknown search mode {mode!r}")
    _emit(_solution_document(mode, sol), args.out)
    print(f"solution space dimension {sol.dimension}" + (" (inconsistent)" if sol.is_empty else ""))
    return 0


# -- entry point ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bihomlie",
                                     description="exact checks, constructions and searches for twisted Lie structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run identity suites on bundle files")
    p.add_argument("files", nargs="+", help="bundle files or fixture:NAME references")
    p.add_argument("--suite", default="auto",
                   choices=["auto", "lie", "bihom", "nijenhuis", "coalgebra", "bialgebra",
                            "representation", "form", "differential", "involution"])
    p.add_argument("--flavor", choices=["bihom", "nijenhuis", "differential", "lie"], default=None)
    p.add_argument("--weight", default=None, help="rational weight p/q override")
    p.add_argument("--against", default=None, help="algebra file a form file is checked against")
    p.add_argument("--symmetrized-mp-right", action=argparse.BooleanOptionalAction, default=True,
                   help="which reading of the second matched-pair identity counts toward the verdict")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="run a construction and write its output bundle")
    p.add_argument("construction",
                   choices=["dual", "twist", "untwist", "hom", "semidirect", "double", "bicrossed", "adjoint-form"])
    p.add_argument("inputs", nargs="+", help="input bundle files or fixture:NAME references")
    p.add_argument("--flavor", choices=["bihom", "nijenhuis", "differential", "lie"], default=None)
    p.add_argument("--maps", default=None, help="JSON file with alpha (and beta) matrices for twists")
    p.add_argument("--symmetrized-mp-right", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None, help="write the constructed bundle here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("triad", help="three-way equivalence harness")
    p.add_argument("left", help="base algebra bundle")
    p.add_argument("right", help="algebra bundle on the dual space")
    p.add_argument("--flavor", choices=["nijenhuis", "differential"], default="nijenhuis")
    p.add_argument("--symmetrized-mp-right", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("search", help="structure-finding solvers")
    p.add_argument("file", help="input bundle file or fixture:NAME")
    p.add_argument("--mode", required=True,
                   choices=["derivations", "conijenhuis", "pi", "zeta", "nijenhuis-grid"])
    p.add_argument("--weight", default=None, help="rational weight p/q")
    p.add_argument("--grid", default=None, help="comma-separated rational grid values")
    p.add_argument("--pattern", default=None, help="JSON file fixing matrix entries (null = free)")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
