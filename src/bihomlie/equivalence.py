"""Equivalence harnesses.

Each harness evaluates every side of an equivalence independently and
reports whether the verdicts coincide.  A disagreement is never resolved
silently: the reports say which side failed and on which identity.

"Independent" means independent formulas: each side is decided by its own
identities, read on its own structure.  It does not mean recomputation, so
two sides that run the same checker on the same bundle could share that one
result without losing anything the comparison shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import (
    AlgebraBundle,
    BialgebraBundle,
    Report,
    RepresentationBundle,
    Residual,
    entry,
)
from .checks import (
    SUITES,
    _involution_note,
    check_adjoint_admissible,
    check_matched_pair,
)
from .constructions import (
    DoubleBundle,
    PreconditionFailed,
    adjoint_map_wrt_form,
    bicrossed_product,
    coadjoint_matched_pair,
    double_construction,
    dual_representation,
    dualize,
    semidirect_product,
)
from .exact import DimensionMismatch, block_diag


@dataclass(frozen=True)
class TriadReport:
    """Verdicts of the three equivalent descriptions plus their agreement."""

    manin_ok: bool
    manin_report: Report
    bialgebra_ok: bool
    bialgebra_report: Report
    matched_pair_ok: bool
    matched_pair_report: Report
    notes: tuple[str, ...] = ()

    @property
    def agree(self) -> bool:
        return self.manin_ok == self.bialgebra_ok == self.matched_pair_ok

    @property
    def all_ok(self) -> bool:
        return self.manin_ok and self.bialgebra_ok and self.matched_pair_ok


@dataclass(frozen=True)
class IffReport:
    """Two independently computed verdicts of one stated equivalence."""

    kind: str
    first_label: str
    first_ok: bool
    first_report: Report
    second_label: str
    second_ok: bool
    second_report: Report

    @property
    def agree(self) -> bool:
        return self.first_ok == self.second_ok


def _require_coherent_dual(left: AlgebraBundle, right: AlgebraBundle) -> None:
    if left.dim != right.dim:
        raise DimensionMismatch("triad inputs must have equal dimensions")
    if right.alpha != left.alpha.transpose() or right.beta != left.beta.transpose():
        raise PreconditionFailed("the dual-side structure maps must be the transposes of the base maps")


def _triad(left: AlgebraBundle, right: AlgebraBundle, flavor: str) -> TriadReport:
    """(i) the double and its form, (ii) the bialgebra conditions on the base
    space, (iii) the coadjoint matched pair, each in the flavour's suites."""
    _require_coherent_dual(left, right)
    double, restrict = double_construction(left, right, flavor)  # enforces the flavour's preconditions
    # the differential flavour has identity maps, so these notes are empty there
    notes = _involution_note(left, "base algebra") + _involution_note(right, "dual-side algebra")
    factor = SUITES["algebra", flavor]
    manin = Report(()).merged(
        factor.run(left).prefixed("left"),
        factor.run(right).prefixed("right"),
        restrict,
        SUITES["double", flavor].run(double).prefixed("double"),
    )
    bial = SUITES["bialgebra", flavor].run(BialgebraBundle(left, dualize(right)))
    mp_report = check_matched_pair(coadjoint_matched_pair(left, right), flavor)
    return TriadReport(manin.ok, manin, bial.ok, bial, mp_report.ok, mp_report, notes)


def triad_nijenhuis_bihom(left: AlgebraBundle, right: AlgebraBundle) -> TriadReport:
    """Double suite vs bialgebra conditions vs coadjoint matched pair."""
    return _triad(left, right, "nijenhuis")


def triad_differential(left: AlgebraBundle, right: AlgebraBundle) -> TriadReport:
    """The same three-way comparison in the differential setting."""
    return _triad(left, right, "differential")


def double_adjoint_report(double: DoubleBundle) -> Report:
    """Block identity for the form-adjoint of the combined operator, plus the
    two factor admissibility conditions it implies."""
    left, right = double.left, double.right
    N = left.require_nijenhuis()
    S_star = right.require_nijenhuis()
    combined = double.total.require_nijenhuis()
    adj = adjoint_map_wrt_form(combined, double.form)
    expected = block_diag(S_star.transpose(), N.transpose())
    rep = Report((entry("admissible_adjoint", "form-adjoint-blocks", Residual.from_matrix(adj.sub(expected))),))
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
    return IffReport(kind, first_label, first.ok, first, second_label, second.ok, second)
