"""Equivalence harnesses.

Each harness evaluates every side of an equivalence independently and
reports whether the verdicts coincide.  A disagreement is never resolved
silently: the reports say which side failed and on which identity.

"Independent" means independent formulas: each side is decided by its own
identities, read on its own structure, one row of ``checks.SUITES`` each
("double", "bialgebra", "matched_pair").  It does not mean recomputation, so
the three sides of one triad call share their results: their rows run
through one ``checks.Results`` dict, keyed by checker and argument identity,
so each checker runs once per argument object, and the matched-pair
side reads the coadjoint pair the double was built from.  The dict lives for
that one call; nothing is cached past it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    CheckEntry,
    Report,
    RepresentationBundle,
    Residual,
    require,
)
from .checks import (
    SUITES,
    Results,
    _involution_note,
    check_adjoint_admissible,
    check_matched_pair,
)
from .constructions import (
    DoubleBundle,
    PreconditionFailed,
    adjoint_map_wrt_form,
    bicrossed_product,
    coadjoint_double,
    dual_representation,
    dualize,
    semidirect_product,
)
from .exact import DimensionMismatch, block_diag


@dataclass(frozen=True)
class TriadReport:
    """Verdicts of the three equivalent descriptions plus their agreement."""

    manin_report: Report
    bialgebra_report: Report
    matched_pair_report: Report
    notes: tuple[str, ...] = ()

    @property
    def agree(self) -> bool:
        return self.manin_report.ok == self.bialgebra_report.ok == self.matched_pair_report.ok

    @property
    def all_ok(self) -> bool:
        return self.manin_report.ok and self.bialgebra_report.ok and self.matched_pair_report.ok


@dataclass(frozen=True)
class IffReport:
    """Two independently computed verdicts of one stated equivalence."""

    kind: str
    first_label: str
    first_report: Report
    second_label: str
    second_report: Report

    @property
    def first_ok(self) -> bool:
        return self.first_report.ok

    @property
    def second_ok(self) -> bool:
        return self.second_report.ok

    @property
    def agree(self) -> bool:
        return self.first_ok == self.second_ok


def _require_coherent_dual(left: AlgebraBundle, right: AlgebraBundle) -> None:
    if left.dim != right.dim:
        raise DimensionMismatch("triad inputs must have equal dimensions")
    if right.alpha != left.alpha.transpose() or right.beta != left.beta.transpose():
        raise PreconditionFailed("the dual-side structure maps must be the transposes of the base maps")


def _triad(left: AlgebraBundle, right: AlgebraBundle, flavor: str) -> TriadReport:
    """The flavour's three rows of ``SUITES``: (i) "double" on the double, (ii) "bialgebra" on the base space and
    (iii) "matched_pair" on the coadjoint pair the double was built from."""
    _require_coherent_dual(left, right)
    double = coadjoint_double(left, right, flavor)  # enforces the flavour's preconditions
    # the differential flavour has identity maps, so these notes are empty there
    notes = _involution_note(left, "base algebra") + _involution_note(right, "dual-side algebra")
    results: Results = {}  # one report per (checker, arguments) across the three sides of this call
    return TriadReport(SUITES["double", flavor].run(double, results=results),
                       SUITES["bialgebra", flavor].run(BialgebraBundle(left, dualize(right)), results=results),
                       check_matched_pair(double.pair, flavor, results), notes)


def triad_nijenhuis_bihom(left: AlgebraBundle, right: AlgebraBundle) -> TriadReport:
    """Double suite vs bialgebra conditions vs coadjoint matched pair."""
    return _triad(left, right, "nijenhuis")


def triad_differential(left: AlgebraBundle, right: AlgebraBundle) -> TriadReport:
    """The same three-way comparison in the differential setting."""
    return _triad(left, right, "differential")


def double_adjoint_report(double: DoubleBundle) -> Report:
    """Block identity for the form-adjoint of the combined operator, plus the
    two factor admissibility conditions it implies."""
    left, right = double.pair.left, double.pair.right
    N = require(left, "nijenhuis")
    S_star = require(right, "nijenhuis")
    combined = require(double.total, "nijenhuis")
    adj = adjoint_map_wrt_form(combined, double.form)
    expected = block_diag(S_star.transpose(), N.transpose())
    rep = Report((CheckEntry("admissible_adjoint", "form-adjoint-blocks", Residual.from_matrix(adj.sub(expected))),))
    return rep.merged(
        check_adjoint_admissible(left, S_star.transpose()).prefixed("left-factor"),
        check_adjoint_admissible(right, N.transpose()).prefixed("right-factor"),
    )


#: equivalence kind -> (suite flavour, first side label, second side label)
_IFF_KINDS = {
    "dual_algebra": ("bihom", "algebra axioms", "dual coalgebra axioms"),
    "dual_nijenhuis": ("nijenhuis", "operator algebra axioms", "dual operator coalgebra axioms"),
    "dual_differential": ("differential", "differential algebra axioms", "dual differential coalgebra axioms"),
    "dual_rep": ("bihom", "module axioms", "dual module axioms"),
    "semidirect": ("nijenhuis", "module axioms", "semidirect product suite"),
    "semidirect_diff": ("differential", "module axioms", "semidirect product suite"),
    "bicrossed": ("nijenhuis", "matched pair axioms", "bicrossed product suite"),
    "bicrossed_diff": ("differential", "matched pair axioms", "bicrossed product suite"),
}


def iff_harness(kind: str, **data) -> IffReport:
    """Evaluate both sides of a named equivalence independently.

    kinds: dual_algebra, dual_nijenhuis, dual_differential, dual_rep,
    semidirect, semidirect_diff, bicrossed, bicrossed_diff.  For the product
    kinds the first side is the hypothesis report the construction returns.
    """
    if kind not in _IFF_KINDS:
        raise ValueError(f"unknown equivalence kind {kind!r}")
    flavor, first_label, second_label = _IFF_KINDS[kind]
    if kind == "dual_rep":
        rep: RepresentationBundle = data["rep"]
        suite = SUITES["representation", flavor]
        first = suite.run(rep)
        first = Report(first.entries, first.notes + _involution_note(rep.algebra))
        second = suite.run(dual_representation(rep))
    elif kind.startswith("dual"):
        first = SUITES["algebra", flavor].run(data["algebra"])
        second = SUITES["coalgebra", flavor].run(dualize(data["algebra"]))
    else:
        if kind.startswith("semidirect"):
            product, first = semidirect_product(data["algebra"], data["rep"], flavor)
        else:
            product, first = bicrossed_product(data["mp"], flavor)
        second = SUITES["algebra", flavor].run(product)
    return IffReport(kind, first_label, first, second_label, second)
