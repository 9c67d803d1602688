"""Equivalence harnesses: triads and paired-verdict suites."""

import collections
import dataclasses

import pytest

import support
from bihomlie import bundles, checks, constructions, equivalence
from bihomlie.checks import WeightMismatch, check_matched_pair
from bihomlie.constructions import (
    PreconditionFailed,
    bicrossed_product,
    coadjoint_double,
    coadjoint_matched_pair,
    semidirect_product,
)
from bihomlie.equivalence import (
    double_adjoint_report,
    iff_harness,
    triad_differential,
    triad_nijenhuis_bihom,
)
from bihomlie.exact import Matrix, scalar

I2 = Matrix.identity(2)


def test_triad_all_true_on_coadjoint_fixture():
    left = support.scalar_op(bundles.aff2(), 1)
    right = support.scalar_op(bundles.abelian(2), 1)
    t = triad_nijenhuis_bihom(left, right)
    assert t.all_ok and t.agree


def test_triad_all_true_on_abelian_pair():
    t = triad_nijenhuis_bihom(support.scalar_op(bundles.abelian(2), 0), support.scalar_op(bundles.abelian(2), 0))
    assert t.all_ok and t.agree


def test_triad_all_false_on_broken_right_coantisymmetry():
    import naive
    from bihomlie.exact import Tensor3

    cells = [[[scalar(0)] * 2 for _ in range(2)] for _ in range(2)]
    cells[0][0] = [scalar(0), scalar(1)]  # [f1, f1] = f2 breaks antisymmetry
    bad = dataclasses.replace(support.scalar_op(bundles.abelian(2), 1),
                              bracket=Tensor3.from_entries(cells), kind="bihom-lie")
    t = triad_nijenhuis_bihom(support.scalar_op(bundles.aff2(), 1), bad)
    assert t.agree and not t.manin_report.ok and not t.bialgebra_report.ok and not t.matched_pair_report.ok


def test_triad_family_and_perturbations_always_agree():
    family = support.nijenhuis_triad_family()
    r = support.rng(41)
    seen_true = seen_false = 0
    for left, right in family:
        t = triad_nijenhuis_bihom(left, right)
        assert t.agree, f"disagreement on base family instance"
        seen_true += t.all_ok
        for _ in range(4):
            t2 = triad_nijenhuis_bihom(support.perturb_algebra(left, r), right)
            assert t2.agree
            seen_false += not t2.all_ok
            t3 = triad_nijenhuis_bihom(left, support.perturb_algebra(right, r))
            assert t3.agree
            seen_false += not t3.all_ok
    assert seen_true >= 1 and seen_false >= 1


def test_triad_differential_family_and_perturbations_agree():
    family = support.differential_triad_family()
    r = support.rng(42)
    seen_true = seen_false = 0
    for left, right in family:
        t = triad_differential(left, right)
        assert t.agree
        seen_true += t.all_ok
        for _ in range(3):
            t2 = triad_differential(support.perturb_algebra(left, r), right)
            assert t2.agree
            seen_false += not t2.all_ok
    assert seen_true >= 1 and seen_false >= 1


def test_triad_weight_mismatch_raises():
    left = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    right = support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 1)
    with pytest.raises(WeightMismatch):
        triad_differential(left, right)


def test_triad_requires_coherent_maps():
    left = support.scalar_op(bundles.bihom2(2, 3), 1)
    right = support.scalar_op(bundles.abelian(2), 1)  # identity maps, not alpha^T
    with pytest.raises(PreconditionFailed):
        triad_nijenhuis_bihom(left, right)


def test_triad_involution_notes_reported():
    left = support.scalar_op(bundles.bihom2(2, 3), 0)
    right = dataclasses.replace(
        support.scalar_op(bundles.abelian(2), 0),
        alpha=bundles.bihom2(2, 3).alpha.transpose(),
        beta=I2,
        kind="bihom-lie",
    )
    t = triad_nijenhuis_bihom(left, right)
    assert any("involutive" in n for n in t.notes)


# -- one triad call computes each shared result once -----------------------------------------


_TRIADS = {"nijenhuis": triad_nijenhuis_bihom, "differential": triad_differential}


def _count_checker_calls(monkeypatch) -> collections.Counter:
    """Wrap every checker of the checks module (suites look them up there, so the wrappers see every call a
    suite makes), and its bindings in the modules that import checkers by name, so a call from a construction
    counts too; the counter counts calls by (checker, argument ids, weight), and the arguments are kept alive so
    that no id is reused among them."""
    calls, kept = collections.Counter(), []
    for name in [n for n in dir(checks) if n.startswith("check_")]:
        check = getattr(checks, name)

        def wrapper(*args, _check=check, _name=name, **kwargs):
            kept.append(args)
            calls[_name, tuple(map(id, args)), kwargs.get("weight")] += 1
            return _check(*args, **kwargs)
        for module in (checks, constructions, equivalence):
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("flavor", _TRIADS)
def test_triad_runs_each_checker_once_per_arguments(monkeypatch, flavor):
    family = support.nijenhuis_triad_family() if flavor == "nijenhuis" else support.differential_triad_family()
    calls = _count_checker_calls(monkeypatch)
    _TRIADS[flavor](*family[0])
    # the involution hypothesis notes read check_involution outside the suites: once per factor for the triad's
    # notes, and once more on the base algebra where check_adjoint_admissible states its note (nijenhuis only)
    notes = sorted(n for (name, _, _), n in calls.items() if name == "check_involution")
    assert notes == ([1, 2] if flavor == "nijenhuis" else [1, 1])
    assert {n for (name, _, _), n in calls.items() if name != "check_involution"} == {1}
    # the left and right factors and the double's algebra: once each, where every side reads both factors
    assert sum(n for (name, _, _), n in calls.items() if name == "check_bihom_lie") == 3


@pytest.mark.parametrize("flavor", _TRIADS)
def test_nothing_is_shared_between_triad_calls(monkeypatch, flavor):
    family = support.nijenhuis_triad_family() if flavor == "nijenhuis" else support.differential_triad_family()
    calls = _count_checker_calls(monkeypatch)
    totals = []
    for _ in range(2):
        _TRIADS[flavor](*family[0])
        totals.append(sum(calls.values()) - sum(totals))
    assert totals[0] == totals[1] > 0


def _oracle_cases():
    """(flavour, left, right): both triad families, one-field perturbations of either factor of each
    instance, and the involutive torus twists of the Nijenhuis family's aff2 pairs."""
    r = support.rng(47)
    for flavor, family in (("nijenhuis", support.nijenhuis_triad_family()),
                           ("differential", support.differential_triad_family())):
        for left, right in family:
            yield flavor, left, right
            yield flavor, support.perturb_algebra(left, r), right
            yield flavor, left, support.perturb_algebra(right, r)
    for left, right in support.nijenhuis_triad_family():
        if left.bracket == bundles.aff2().bracket:
            for t, s in support.INVOLUTIVE_TORI:
                yield "nijenhuis", support.twisted(left, [1, t], [1, s]), support.twisted(right, [1, t], [1, s])


def test_triads_equal_their_sides_computed_unshared():
    seen_false = 0
    for flavor, left, right in _oracle_cases():
        t = _TRIADS[flavor](left, right)
        assert (t.manin_report, t.bialgebra_report, t.matched_pair_report) == support.unshared_triad(left, right,
                                                                                                       flavor)
        seen_false += not t.all_ok
    assert seen_false >= 10


# -- double adjoint property -------------------------------------------------------


def test_double_adjoint_block_identity_and_admissibility():
    for u, v, n_op, s_op in (("0", "0", "1", "1"), ("0", "1", "2", "1/2"), ("1", "-1", "0", "0")):
        left = support.scalar_op(bundles.aff2(), n_op)
        right = support.scalar_op(support.antisym_dual2(u, v), s_op)
        dbl = coadjoint_double(left, right, "nijenhuis")
        rep = double_adjoint_report(dbl)
        assert rep.ok


# -- iff harnesses ------------------------------------------------------------------


def test_iff_dual_algebra_verdicts_match():
    r = support.rng(43)
    cases = [bundles.aff2(), bundles.sl2(), bundles.bihom2(2, 3), bundles.abelian(3)]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(8)]
    for b in cases:
        rep = iff_harness("dual_algebra", algebra=b)
        assert rep.agree


def test_iff_dual_nijenhuis_verdicts_match():
    r = support.rng(44)
    cases = [support.scalar_op(bundles.aff2(), 2), bundles.bihom2(2, 3),
             support.scalar_op(bundles.sl2(), "1/2")]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(8)]
    for b in cases:
        rep = iff_harness("dual_nijenhuis", algebra=b)
        assert rep.agree


def test_iff_dual_differential_verdicts_match_across_weights():
    r = support.rng(45)
    base = []
    for w in ("0", "1", "-2", "1/2", "3", "-1/3", "5", "2/5", "-4", "7/2"):
        base.append(support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), w))
        base.append(support.with_diff(bundles.abelian(2), Matrix.from_rows([[support.rational(r) for _ in range(2)] for _ in range(2)]), w))
    cases = base + [support.perturb_algebra(b, r) for b in base for _ in range(4)]
    for b in cases:
        rep = iff_harness("dual_differential", algebra=b)
        assert rep.agree


def test_iff_dual_rep_on_involutive_instances():
    r = support.rng(46)
    reps = [support.adjoint_rep(bundles.aff2()), support.adjoint_rep(bundles.sl2()),
            support.zero_rep(bundles.aff2(), 2, p=Matrix.diagonal([1, -1]))]
    for rep_bundle in reps:
        rep = iff_harness("dual_rep", rep=rep_bundle)
        assert rep.agree and rep.first_ok
        rho = list(rep_bundle.rho)
        rho[0] = support.perturb_matrix(rho[0], r)
        broken = dataclasses.replace(rep_bundle, rho=tuple(rho))
        rep2 = iff_harness("dual_rep", rep=broken)
        assert rep2.agree


def test_iff_semidirect_valid_and_broken():
    for alg, rep_bundle in support.semidirect_valid(12):
        rep = iff_harness("semidirect", algebra=alg, rep=rep_bundle)
        assert rep.agree and rep.first_ok, "valid instance should pass both sides"
    broken_seen = 0
    for alg, rep_bundle in support.semidirect_broken(12):
        rep = iff_harness("semidirect", algebra=alg, rep=rep_bundle)
        assert rep.agree
        broken_seen += not rep.first_ok
    assert broken_seen >= 6


def test_iff_semidirect_diff_valid_and_broken():
    for alg, rep_bundle in support.semidirect_diff_valid(10):
        rep = iff_harness("semidirect_diff", algebra=alg, rep=rep_bundle)
        assert rep.agree and rep.first_ok
    for alg, rep_bundle in support.semidirect_diff_broken(10):
        rep = iff_harness("semidirect_diff", algebra=alg, rep=rep_bundle)
        assert rep.agree


def test_iff_bicrossed_valid_and_broken():
    for mp in support.bicrossed_valid(12):
        rep = iff_harness("bicrossed", mp=mp)
        assert rep.agree and rep.first_ok
    for mp in support.bicrossed_broken(12):
        rep = iff_harness("bicrossed", mp=mp)
        assert rep.agree


def test_iff_bicrossed_diff_valid_and_broken():
    for mp in support.bicrossed_diff_valid(10):
        rep = iff_harness("bicrossed_diff", mp=mp)
        assert rep.agree and rep.first_ok
    for mp in support.bicrossed_diff_broken(10):
        rep = iff_harness("bicrossed_diff", mp=mp)
        assert rep.agree


def test_iff_unknown_kind():
    with pytest.raises(ValueError):
        iff_harness("nope")


# -- flavour rules: every entry point enforces them with the same exception ---------------


def _flavour_inputs() -> dict:
    """(left, right, flavour) breaking exactly one flavour rule each."""
    zero = Matrix.zeros(2, 2)
    ld, rd = support.with_diff(bundles.aff2(), zero, 0), support.with_diff(bundles.abelian(2), zero, 0)
    twist = Matrix.diagonal([1, 2])  # diagonal, so the dual side's maps are its transposes too
    return {
        "unknown flavour": (ld, rd, "lie", ValueError),
        "missing nijenhuis": (bundles.aff2(), support.scalar_op(bundles.abelian(2), 1), "nijenhuis",
                              bundles.MissingField),
        "missing differential": (bundles.aff2(), rd, "differential", bundles.MissingField),
        "unequal weights": (ld, support.with_diff(bundles.abelian(2), zero, 1), "differential", WeightMismatch),
        "non-identity maps": (dataclasses.replace(ld, alpha=twist, kind="bihom-lie"),
                              dataclasses.replace(rd, alpha=twist, kind="bihom-lie"), "differential",
                              PreconditionFailed),
    }


def _semidirect(left, right, flavor):
    return semidirect_product(left, support.adjoint_rep(left, eta=I2, xi=Matrix.zeros(2, 2)), flavor)


_FLAVOUR_ENTRY_POINTS = {
    "check_matched_pair": lambda l, r, f: check_matched_pair(coadjoint_matched_pair(l, r), f),
    "bicrossed_product": lambda l, r, f: bicrossed_product(coadjoint_matched_pair(l, r), f),
    "coadjoint_double": coadjoint_double,
    "semidirect_product": _semidirect,
    "triad": lambda l, r, f: {"nijenhuis": triad_nijenhuis_bihom, "differential": triad_differential}[f](l, r),
}
#: (entry point, rule) pairs that cannot be broken: a semidirect product's module
#: takes the algebra's weight, and the triads take no flavour name
_UNBREAKABLE = {("semidirect_product", "unequal weights"), ("triad", "unknown flavour")}


@pytest.mark.parametrize("entry_point,rule", [(e, r) for e in _FLAVOUR_ENTRY_POINTS for r in _flavour_inputs()
                                               if (e, r) not in _UNBREAKABLE])
def test_every_entry_point_enforces_each_flavour_rule(entry_point, rule):
    left, right, flavor, exc = _flavour_inputs()[rule]
    with pytest.raises(ValueError) as err:
        _FLAVOUR_ENTRY_POINTS[entry_point](left, right, flavor)
    assert type(err.value) is exc
