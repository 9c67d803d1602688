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
from typing import TYPE_CHECKING, Any, NoReturn

from . import bundles, checks
from .bundles import (
    KINDS,
    AlgebraBundle,
    BialgebraBundle,
    CoalgebraBundle,
    FormBundle,
    MatchedPairBundle,
    ParseError,
    Report,
    RepresentationBundle,
    fixture_by_name,
    read_maps,
    read_pattern,
    require,
    to_json,
)
from .checks import IDENTITY_FORMULAS
from .exact import _quoted, scalar

if TYPE_CHECKING:
    from .search import SolutionSpace

MAX_RESIDUAL_CELLS = 16

#: every error the package raises on bad input (ParseError, MissingField,
#: DimensionMismatch, SingularMatrix, PreconditionFailed, ...) is a ValueError,
#: and ends with exit 2.  Bad input must never end with exit 1, which a script
#: reads as "identity failure"; an error outside these is a fault of the program.
_USER_ERRORS = (ValueError, OSError)


def _load_source(ref: str, what: str, *types: type) -> Any:
    """The bundle a file or fixture:NAME reference names, if it is of one of the kinds ``what`` accepts."""
    bundle = fixture_by_name(ref[len("fixture:"):]) if ref.startswith("fixture:") else bundles.load_path(ref)
    return bundles.require_kind(bundle, what, *types)


def _read_json(path: str, what: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return bundles.parse_json(fh.read(), f"{what} file")


def _refuse_unread(given: dict[str, Any], reads: tuple[str, ...], what: str) -> None:
    """A ParseError naming the first flag given a value that ``what`` does not read."""
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise ParseError(f"{flag} does not apply to {what}")


def _residual_document(res: bundles.Residual) -> dict[str, Any]:
    cells = [{"index": list(idx), "value": str(v)} for idx, v in res.nonzeros[:MAX_RESIDUAL_CELLS]]
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
    kind = KINDS[type(bundle)]
    named = f"{'an' if kind == 'algebra' else 'a'} {kind} bundle"
    no_suite = f"suite {suite!r} does not apply to {named}"
    if kind in ("matched_pair", "form"):
        if suite not in ("auto", kind):  # a form also takes --suite form; a matched pair only auto
            raise ParseError(no_suite)
        reads: tuple[str, ...] = ("--against",) if kind == "form" else ("--flavor",)
    else:
        key = (kind, _SUITE_ALIASES.get((kind, suite), "bihom" if suite == "lie" else suite))
        if key not in checks.SUITES:
            raise ParseError(no_suite)
        reads = ("--weight",) if any(step.weighted for step in checks.SUITES[key].steps_on(bundle)) else ()
    _refuse_unread({"--against": against, "--flavor": flavor, "--weight": weight}, reads, f"suite {suite!r} on {named}")
    if kind == "form":
        return checks.check_form(against, bundle) if against is not None else checks.check_gram(bundle)
    if kind == "matched_pair":
        # the first flavour whose operator both algebras carry
        flavor = flavor or next(f for f, field in checks.FLAVORS.items()
                                if field is None or None not in (getattr(bundle.left, field), getattr(bundle.right, field)))
        return checks.check_matched_pair(bundle, flavor)
    return checks.SUITES[key].run(bundle, weight)


def cmd_check(args: argparse.Namespace) -> int:
    against = _load_source(args.against, "--against", AlgebraBundle) if args.against else None
    weight = scalar(args.weight) if args.weight is not None else None
    reports: list[dict[str, Any]] = []
    ok = True
    for ref in args.files:
        bundle = _load_source(ref, "check", *KINDS)
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


def _maps(args: argparse.Namespace, n: int, fields: tuple[str, ...]) -> tuple[Any, ...]:
    """The maps named in fields of the ``--maps`` file of a construction on dim n."""
    if not args.maps:
        raise ParseError(f"{args.construction} needs --maps pointing to an {'/'.join(fields)} file")
    return read_maps(_read_json(args.maps, "maps"), n, fields)


def cmd_construct(args: argparse.Namespace) -> int:
    from . import constructions

    kind = args.construction
    accepted, reads = _CONSTRUCTIONS[kind]
    _refuse_unread({"--flavor": args.flavor, "--maps": args.maps}, reads, f"construct {kind}")
    if len(args.inputs) != len(accepted):
        raise ParseError(f"{kind} takes {len(accepted)} input bundle(s), got {len(args.inputs)}")
    inputs = [_load_source(ref, kind, *types) for ref, types in zip(args.inputs, accepted)]
    bundle, flavor = inputs[0], args.flavor or "nijenhuis"
    report = Report(())

    # outputs: (label, bundle or document); the first goes to --out, each other one to --out.<label>.json
    if kind == "dual":
        outputs = [("dual", constructions.dualize(bundle))]
    elif kind == "twist":
        alpha, beta = _maps(args, bundle.dim, ("alpha", "beta"))
        twisted, report = constructions.yau_twist(bundle, alpha, beta)
        outputs = [("twist", twisted)]
    elif kind == "untwist":
        outputs = [("untwist", constructions.untwist(bundle))]
    elif kind == "hom":
        alpha, = _maps(args, bundle.dim, ("alpha",))
        specialized, report = constructions.hom_specialize(bundle, alpha)
        outputs = [("hom", specialized)]
    elif kind == "semidirect":
        product, report = constructions.semidirect_product(bundle.algebra, bundle, flavor)
        outputs = [("semidirect", product)]
    elif kind == "double":
        double = constructions.coadjoint_double(*inputs, flavor)
        report = checks.check_restriction(double.total, *inputs)
        outputs = [("double", double.total), ("form", double.form)]
    elif kind == "bicrossed":
        product, report = constructions.bicrossed_product(bundle, flavor)
        outputs = [("bicrossed", product)]
    else:  # adjoint-form
        algebra, form = inputs
        adjoint = constructions.adjoint_map_wrt_form(require(algebra, "nijenhuis"), form)
        outputs = [("matrix", {"kind": "matrix", "dim": adjoint.rows, "matrix": to_json(adjoint)})]

    docs = [to_json(output) for _, output in outputs]
    rep_doc = _report_document("hypotheses", report)
    out_doc = {"kind": "construction", "construction": kind, "ok": report.ok,
               "identities": _identity_table([rep_doc]), "report": rep_doc, "outputs": docs}
    if args.out:
        for i, ((label, _), doc) in enumerate(zip(outputs, docs)):
            _emit(doc, f"{args.out}.{label}.json" if i else args.out)
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

    left = _load_source(args.left, "triad", AlgebraBundle)
    right = _load_source(args.right, "triad", AlgebraBundle)
    triad = equivalence.triad(left, right, args.flavor)
    sides = {"manin": triad.manin_report, "bialgebra": triad.bialgebra_report,
             "matched_pair": triad.matched_pair_report}
    side_docs = {name: _report_document(name, report) for name, report in sides.items()}
    doc = {
        "kind": "triad-report",
        "flavor": args.flavor,
        "verdicts": {name: report.ok for name, report in sides.items()},
        "agree": triad.agree,
        "all_ok": triad.all_ok,
        "notes": list(triad.notes),
        "identities": _identity_table(list(side_docs.values())),
        "reports": side_docs,
    }
    if args.out:
        _emit(doc, args.out)
    print(" ".join(f"{name}={report.ok}" for name, report in sides.items()) + f" agree={triad.agree}")
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
    return {
        "kind": "solutions",
        "mode": mode,
        "shape": list(sol.shape),
        "homogeneous": sol.homogeneous,
        "empty": sol.is_empty,
        "dimension": sol.dimension,
        "particular": to_json(sol.particular_matrix()),
        "basis": to_json(sol.basis_matrices()),
    }


#: search mode -> (the bundle kind it reads, the flags besides --out it reads)
_SEARCHES: dict[str, tuple[type, tuple[str, ...]]] = {
    "derivations": (AlgebraBundle, ()),
    "conijenhuis": (BialgebraBundle, ()),
    "pi": (AlgebraBundle, ("--weight",)),
    "zeta": (RepresentationBundle, ("--weight",)),
    "nijenhuis-grid": (AlgebraBundle, ("--grid", "--pattern", "--budget")),
}


def cmd_search(args: argparse.Namespace) -> int:
    from . import search

    mode = args.mode
    kind, reads = _SEARCHES[mode]
    _refuse_unread({"--weight": args.weight, "--grid": args.grid, "--pattern": args.pattern, "--budget": args.budget},
                   reads, f"--mode {mode}")
    bundle = _load_source(args.file, f"{mode} search", kind)
    weight = scalar(args.weight) if args.weight is not None else None
    if mode == "nijenhuis-grid":
        if not args.grid:
            raise ParseError("nijenhuis-grid needs --grid \"a,b,c\"")
        grid = [scalar(x) for x in args.grid.split(",")]
        pattern = read_pattern(_read_json(args.pattern, "pattern")) if args.pattern else None
        budget = {} if args.budget is None else {"budget": args.budget}
        sols = search.grid_search_nijenhuis(bundle, grid, pattern, **budget)
        doc = {
            "kind": "solutions",
            "mode": mode,
            "count": len(sols),
            "solutions": to_json(sols),
        }
        _emit(doc, args.out)
        print(f"{len(sols)} solutions")
        return 0
    if mode == "derivations":
        sol = search.solve_linear_identity("derivation", algebra=bundle)
    elif mode == "conijenhuis":
        sol = search.solve_linear_identity("conijenhuis", comul=bundle.coalgebra.comul,
                                           nmap=require(bundle.algebra, "nijenhuis"))
    elif mode == "pi":
        sol = search.solve_linear_identity("pi", weight, algebra=bundle)
    else:  # zeta
        sol = search.solve_linear_identity("zeta", weight, rep=bundle)
    _emit(_solution_document(mode, sol), args.out)
    print(f"solution space dimension {sol.dimension}" + (" (inconsistent)" if sol.is_empty else ""))
    return 0


# -- entry point ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and the class of its subparsers, whose errors end as bad input does: one line cut by ``_quoted``."""

    def _check_value(self, action: argparse.Action, value: Any) -> None:
        """A bad choice: its value cut by ``_quoted``, and every choice if the line stays under 200 bytes, else --help."""
        if action.choices is not None and value not in action.choices:
            for hint in (f"choose from {', '.join(map(repr, action.choices))}", "see --help"):
                line = f"{self.prog}: {argparse.ArgumentError(action, f'invalid choice: {_quoted(value)} ({hint})')}"
                if len(f"error: {line}\n".encode()) < 200:
                    break
            raise ParseError(line)

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {_quoted(ParseError(message))}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bihomlie", description="exact checks, constructions and searches for twisted Lie structures")
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
    p.add_argument("--flavor", choices=[f for kind, f in checks.SUITES if kind == "double"], default="nijenhuis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("search", help="structure-finding solvers")
    p.add_argument("file", help="input bundle file or fixture:NAME")
    p.add_argument("--mode", required=True, choices=list(_SEARCHES))
    p.add_argument("--weight", default=None, help="rational weight p/q")
    p.add_argument("--grid", default=None, help="comma-separated rational grid values")
    p.add_argument("--pattern", default=None, help="JSON file fixing matrix entries (null = free)")
    p.add_argument("--budget", type=int, default=None, help="nijenhuis-grid enumeration limit (default 200000)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _USER_ERRORS as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory; is a dimension too large?"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
