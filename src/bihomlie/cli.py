"""Command-line front end.

Subcommands: check (run identity suites on bundle files), construct (run a
construction and write its output), triad (three-way equivalence harness),
search (structure-finding solvers).  Reports are JSON documents rendered
deterministically: repeated runs on the same inputs are byte-identical.

Exit codes: 0 all pass; 1 identity failure; 2 parse/precondition error;
3 (triad only) the alarming case of a three-way disagreement.

construct, triad and search import their modules when they run, so a check
process loads only ``bundles`` and ``checks``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import bundles, checks
from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    FormBundle,
    MatchedPairBundle,
    ParseError,
    Report,
    RepresentationBundle,
    fixture_by_name,
)
from .checks import IDENTITY_FORMULAS
from .exact import Matrix, format_scalar, scalar

if TYPE_CHECKING:
    from .search import SolutionSpace

MAX_RESIDUAL_CELLS = 16

#: every error the package raises on bad input (ParseError, MissingField,
#: DimensionMismatch, SingularMatrix, PreconditionFailed, ...) is a ValueError
_USER_ERRORS = (ValueError, OSError)


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
        "entries": [{"identity": e.identity, "case": e.case, "ok": e.ok, "advisory": e.advisory,
                     "residual": _residual_document(e.residual)} for e in report.entries],
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


#: (bundle kind, --suite value) -> the suite of that kind it names; "lie" names "bihom"
_SUITE_ALIASES = {("bialgebra", "bialgebra"): "auto", ("coalgebra", "coalgebra"): "bihom",
                  ("representation", "representation"): "bihom"}


def _suite_report(bundle: Any, suite: str, weight: Fraction | None,
                  flavor: str | None, against: Any | None) -> Report:
    kind = _KINDS.get(type(bundle), type(bundle).__name__)
    if against is not None and kind != "form":
        raise ParseError(f"--against applies only to form files, got kind {kind}")
    if flavor is not None and kind != "matched_pair":
        raise ParseError(f"--flavor applies only to matched_pair files, got kind {kind}")
    no_suite = f"suite {suite!r} does not apply to {'an' if kind == 'algebra' else 'a'} {kind} bundle"
    no_weight = f"--weight is read by no check that suite {suite!r} runs on this {kind} bundle"
    if kind in ("matched_pair", "form"):
        if weight is not None:
            raise ParseError(no_weight)
        if suite not in ("auto", kind):  # a form also takes --suite form; a matched pair only auto
            raise ParseError(no_suite)
        if kind == "form":
            return checks.check_form(against, bundle) if against is not None else checks.check_gram(bundle)
        # the first flavour whose operator both algebras carry
        flavor = flavor or next(f for f, field in checks.FLAVORS.items()
                                if field is None or None not in (getattr(bundle.left, field), getattr(bundle.right, field)))
        return checks.check_matched_pair(bundle, flavor)
    key = (kind, _SUITE_ALIASES.get((kind, suite), "bihom" if suite == "lie" else suite))
    if key not in checks.SUITES:
        raise ParseError(no_suite)
    if weight is not None and not any(step.weighted for step in checks.SUITES[key].steps_on(bundle)):
        raise ParseError(no_weight)
    return checks.SUITES[key].run(bundle, weight)


def cmd_check(args: argparse.Namespace) -> int:
    against = _require_kind(_load_source(args.against), "--against", AlgebraBundle) if args.against else None
    weight = scalar(args.weight) if args.weight is not None else None
    reports: list[dict[str, Any]] = []
    ok = True
    for ref in args.files:
        bundle = _load_source(ref)
        report = _suite_report(bundle, args.suite, weight, args.flavor, against)
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
    return {"kind": "matrix", "dim": m.rows, "matrix": bundles._fmt_matrix(m)}


_TWISTABLE = (AlgebraBundle, CoalgebraBundle, BialgebraBundle)
#: construction -> (the bundle kinds each of its inputs accepts, the flags besides --out it reads)
_CONSTRUCTIONS: dict[str, tuple[tuple[tuple[type, ...], ...], tuple[str, ...]]] = {
    "dual": (((AlgebraBundle, CoalgebraBundle),), ()),
    "twist": ((_TWISTABLE,), ("--maps",)),
    "untwist": ((_TWISTABLE,), ()),
    "hom": (((BialgebraBundle,),), ("--maps",)),
    "semidirect": (((RepresentationBundle,),), ("--flavor",)),
    "double": (((AlgebraBundle,), (AlgebraBundle,)), ("--flavor",)),
    "bicrossed": (((MatchedPairBundle,),), ("--flavor",)),
    "adjoint-form": (((AlgebraBundle,), (FormBundle,)), ()),
}


def _refuse_unread(given: dict[str, Any], reads: tuple[str, ...], what: str) -> None:
    """A ParseError naming the first flag given a value that ``what`` does not read."""
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise ParseError(f"{flag} does not apply to {what}")


def cmd_construct(args: argparse.Namespace) -> int:
    from . import constructions

    kind = args.construction
    accepted, reads = _CONSTRUCTIONS[kind]
    _refuse_unread({"--flavor": args.flavor, "--maps": args.maps}, reads, f"construct {kind}")
    inputs = [_load_source(ref) for ref in args.inputs]
    report = Report(())
    result: Any = None
    extra_out: list[tuple[str, dict[str, Any]]] = []

    if len(inputs) != len(accepted):
        raise ParseError(f"{kind} takes {len(accepted)} input bundle(s), got {len(inputs)}")
    for given, types in zip(inputs, accepted):
        _require_kind(given, kind, *types)
    bundle = inputs[0]

    if kind == "dual":
        result = constructions.dualize(bundle)
    elif kind == "twist":
        if not args.maps:
            raise ParseError("twist needs --maps pointing to an alpha/beta file")
        alpha, beta = _load_maps(args.maps, bundle.dim)
        result, report = constructions.yau_twist(bundle, alpha, beta)
    elif kind == "untwist":
        result = constructions.untwist(bundle)
    elif kind == "hom":
        if not args.maps:
            raise ParseError("hom needs --maps pointing to an alpha file")
        alpha, _ = _load_maps(args.maps, bundle.dim)
        result, report = constructions.hom_specialize(bundle, alpha)
    elif kind == "semidirect":
        result, report = constructions.semidirect_product(bundle.algebra, bundle, args.flavor or "nijenhuis")
    elif kind == "double":
        left, right = inputs
        double, report = constructions.double_construction(left, right, args.flavor or "nijenhuis")
        result = double.total
        extra_out.append(("form", bundles.document(double.form)))
    elif kind == "bicrossed":
        result, report = constructions.bicrossed_product(bundle, args.flavor or "nijenhuis")
    elif kind == "adjoint-form":
        algebra, form = inputs
        result_matrix = constructions.adjoint_map_wrt_form(algebra.require_nijenhuis(), form)
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
            _emit(docs[0], args.out)
            for label, doc in extra_out:
                _emit(doc, f"{args.out}.{label}.json")
        else:
            _emit(extra_out[0][1], args.out)
        _emit(out_doc, f"{args.out}.report.json")
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
    from . import equivalence

    left = _require_kind(_load_source(args.left), "triad", AlgebraBundle)
    right = _require_kind(_load_source(args.right), "triad", AlgebraBundle)
    if args.flavor == "differential":
        triad = equivalence.triad_differential(left, right)
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
        "verdicts": {"manin": triad.manin_ok, "bialgebra": triad.bialgebra_ok, "matched_pair": triad.matched_pair_ok},
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


def _solution_document(mode: str, sol: SolutionSpace) -> dict[str, Any]:
    particular = sol.particular_matrix()
    return {
        "kind": "solutions",
        "mode": mode,
        "shape": list(sol.shape),
        "homogeneous": sol.homogeneous,
        "empty": sol.is_empty,
        "dimension": sol.dimension,
        "particular": None if particular is None else bundles._fmt_matrix(particular),
        "basis": [bundles._fmt_matrix(m) for m in sol.basis_matrices()],
    }


def cmd_search(args: argparse.Namespace) -> int:
    from . import search

    mode = args.mode
    reads = {"nijenhuis-grid": ("--grid", "--pattern", "--budget"), "conijenhuis": ()}.get(mode, ("--weight",))
    _refuse_unread({"--weight": args.weight, "--grid": args.grid, "--pattern": args.pattern, "--budget": args.budget},
                   reads, f"--mode {mode}")
    kind = {"conijenhuis": BialgebraBundle, "zeta": RepresentationBundle}.get(mode, AlgebraBundle)
    bundle = _require_kind(_load_source(args.file), f"{mode} search", kind)
    weight = scalar(args.weight) if args.weight is not None else None
    if mode == "nijenhuis-grid":
        if not args.grid:
            raise ParseError("nijenhuis-grid needs --grid \"a,b,c\"")
        grid = [scalar(x) for x in args.grid.split(",")]
        pattern = None
        if args.pattern:
            raw = _read_json(args.pattern, "pattern")
            pattern = bundles._parsed(
                "pattern", lambda rows: [[None if x is None else scalar(x) for x in row] for row in rows], raw)
        budget = {} if args.budget is None else {"budget": args.budget}
        sols = search.grid_search_nijenhuis(bundle, grid, pattern, **budget)
        doc = {
            "kind": "solutions",
            "mode": mode,
            "count": len(sols),
            "solutions": [bundles._fmt_matrix(m) for m in sols],
        }
        _emit(doc, args.out)
        print(f"{len(sols)} solutions")
        return 0
    if mode == "derivations":
        sol = search.solve_linear_identity("derivation", weight, algebra=bundle)
    elif mode == "conijenhuis":
        sol = search.solve_linear_identity("conijenhuis", comul=bundle.coalgebra.comul,
                                           nmap=bundle.algebra.require_nijenhuis())
    elif mode == "pi":
        sol = search.solve_linear_identity("pi", weight, algebra=bundle)
    else:  # zeta
        sol = search.solve_linear_identity("zeta", weight, rep=bundle)
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
    p.add_argument("--flavor", choices=list(checks.FLAVORS), default=None,
                   help="matched-pair suite flavor (matched_pair files only)")
    p.add_argument("--weight", default=None, help="rational weight p/q override")
    p.add_argument("--against", default=None, help="algebra file a form file is checked against")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="run a construction and write its output bundle")
    p.add_argument("construction", choices=list(_CONSTRUCTIONS))
    p.add_argument("inputs", nargs="+", help="input bundle files or fixture:NAME references")
    p.add_argument("--flavor", choices=list(checks.FLAVORS), default=None)
    p.add_argument("--maps", default=None, help="JSON file with alpha (and beta) matrices for twists")
    p.add_argument("--out", default=None, help="write the constructed bundle here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("triad", help="three-way equivalence harness")
    p.add_argument("left", help="base algebra bundle")
    p.add_argument("right", help="algebra bundle on the dual space")
    p.add_argument("--flavor", choices=["nijenhuis", "differential"], default="nijenhuis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("search", help="structure-finding solvers")
    p.add_argument("file", help="input bundle file or fixture:NAME")
    p.add_argument("--mode", required=True,
                   choices=["derivations", "conijenhuis", "pi", "zeta", "nijenhuis-grid"])
    p.add_argument("--weight", default=None, help="rational weight p/q")
    p.add_argument("--grid", default=None, help="comma-separated rational grid values")
    p.add_argument("--pattern", default=None, help="JSON file fixing matrix entries (null = free)")
    p.add_argument("--budget", type=int, default=None, help="nijenhuis-grid enumeration limit (default 200000)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory; is a dimension too large?"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
