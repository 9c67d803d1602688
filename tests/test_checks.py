"""Identity checkers: trivial cases, fixture claims, and cross-validation
against the independent brute-force evaluators."""

import dataclasses
from fractions import Fraction

import pytest

import naive
import support
from bihomlie import bundles, checks
from bihomlie.bundles import (
    BialgebraBundle,
    CoalgebraBundle,
    Differential,
    FormBundle,
    MissingField,
    RepresentationBundle,
)
from bihomlie.constructions import coadjoint_matched_pair, dualize
from bihomlie.exact import Matrix, SingularMatrix, Tensor3, scalar

FIXTURES = [bundles.aff2(), bundles.sl2(), bundles.abelian(2), bundles.abelian(3), bundles.bihom2(2, 3)]


# -- algebra suite ------------------------------------------------------------------


def test_bihom_lie_abelian_with_commuting_maps():
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([2, 3]),
                            beta=Matrix.diagonal([5, 7]), kind="bihom-lie")
    assert checks.check_bihom_lie(b).ok


def test_bihom_lie_golden_fixture_all_parameters():
    for m, n in ((2, 3), (3, 5), (-1, 2), (Fraction(1, 2), Fraction(1, 3))):
        assert checks.check_bihom_lie(bundles.bihom2(m, n)).ok


def test_golden_fixture_family_sampled_parameters():
    r = support.rng(14)
    seen = 0
    while seen < 20:
        m, n = support.rational(r), support.rational(r)
        if m == 0 or n == 0 or n == 1:
            continue
        b = bundles.bihom2(m, n)
        assert checks.check_bihom_lie(b).ok and checks.check_nijenhuis_operator(b).ok, f"(m, n) = ({m}, {n})"
        seen += 1


def test_bihom_lie_sl2_cross_validated_by_direct_expansion():
    b = bundles.sl2()
    assert checks.check_bihom_lie(b).ok
    anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
    assert anti and jac


def test_identity_maps_reduce_to_classical_checks():
    # verdict equality with the independent evaluator, incl. broken instances
    r = support.rng(11)
    cases = [bundles.aff2(), bundles.sl2(), bundles.abelian(3)]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(10)]
    for b in cases:
        anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
        assert checks.check_bihom_lie(b).ok == (anti and jac)


def test_nijenhuis_identity_on_trivial_operators():
    for base in FIXTURES:
        if not checks.check_bihom_lie(base).ok:
            continue
        assert checks.check_nijenhuis_operator(dataclasses.replace(base, nijenhuis=Matrix.identity(base.dim))).ok


def test_nijenhuis_scalar_operators_always_pass():
    r = support.rng(12)
    for base in FIXTURES:
        for _ in range(20):
            c = support.rational(r)
            b = dataclasses.replace(base, nijenhuis=Matrix.identity(base.dim).scale(c))
            assert checks.check_nijenhuis_operator(b).ok


def test_nijenhuis_golden_fixture():
    assert checks.check_nijenhuis_operator(bundles.bihom2(2, 3)).ok


def test_nijenhuis_missing_field():
    with pytest.raises(MissingField):
        checks.check_nijenhuis_operator(bundles.aff2())


def test_involution():
    assert checks.check_involution(bundles.aff2()).ok
    diag = dataclasses.replace(bundles.abelian(2), alpha=Matrix.diagonal([1, -1]), kind="bihom-lie")
    assert checks.check_involution(diag).ok
    b = bundles.bihom2(2, 3)
    alpha2 = b.alpha @ b.alpha  # squared by hand: not the identity
    assert alpha2 != Matrix.identity(2)
    assert not checks.check_involution(b).ok


# -- coalgebra suite -------------------------------------------------------------------


def test_coalgebra_zero_comultiplication():
    co = CoalgebraBundle(3, Tensor3.zeros((3, 3, 3)), Matrix.identity(3), Matrix.identity(3))
    assert checks.check_bihom_coalgebra(co).ok


def test_coalgebra_dual_of_aff2():
    co = dualize(bundles.aff2())
    assert co.comul.entries[1][0][1] == 1 and co.comul.entries[1][1][0] == -1
    assert checks.check_bihom_coalgebra(co).ok


def test_coalgebra_symmetric_comultiplication_fails_antisymmetry():
    t = Tensor3.from_entries([[[0, 0], [0, 0]], [[0, 1], [1, 0]]])  # D(e2) = e1 x e2 + e2 x e1
    co = CoalgebraBundle(2, t, Matrix.identity(2), Matrix.identity(2))
    rep = checks.check_bihom_coalgebra(co)
    assert not rep.ok
    anti = [e for e in rep.entries if e.identity == "co_antisymmetry"][0]
    # residual is 2 (e1 x e2 + e2 x e1) at the source vector e2
    assert ((1, 0, 1), scalar(2)) in anti.residual.nonzeros
    assert ((1, 1, 0), scalar(2)) in anti.residual.nonzeros


def test_coalgebra_duality_verdicts_match_algebra_side():
    r = support.rng(13)
    cases = [bundles.aff2(), bundles.sl2(), bundles.bihom2(2, 3), bundles.abelian(2)]
    cases += [support.perturb_algebra(b, r) for b in cases for _ in range(10)]
    for b in cases:
        assert checks.check_bihom_coalgebra(dualize(b)).ok == checks.check_bihom_lie(b).ok


def test_nijenhuis_coalgebra_trivial_operators():
    co = dualize(bundles.aff2())
    for s in (Matrix.identity(2), Matrix.identity(2).scale(scalar("-5/3"))):
        assert checks.check_nijenhuis_coalgebra(dataclasses.replace(co, conijenhuis=s)).ok


def test_nijenhuis_coalgebra_dual_of_golden_fixture():
    co = dualize(bundles.bihom2(2, 3))
    assert co.conijenhuis == bundles.bihom2(2, 3).nijenhuis.transpose()
    assert checks.check_nijenhuis_coalgebra(co).ok


def test_nijenhuis_coalgebra_missing_field():
    with pytest.raises(MissingField):
        checks.check_nijenhuis_coalgebra(dualize(bundles.aff2()))


# -- bialgebra cocycle ----------------------------------------------------------------


def _aff2_bialgebra(comul_cells):
    return BialgebraBundle(bundles.aff2(),
                           CoalgebraBundle(2, Tensor3.from_entries(comul_cells), Matrix.identity(2), Matrix.identity(2)))


def test_cocycle_zero_comultiplication():
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert checks.check_bialgebra_cocycle(b).ok


def test_cocycle_dual_bracket_comultiplication_passes():
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[0, 1], [-1, 0]]])
    rep = checks.check_bialgebra_cocycle(b)
    assert rep.ok
    # cross-validation: the classical compatibility residual vanishes entrywise
    c = naive.as_cells(b.algebra.bracket)
    t = naive.as_cells(b.coalgebra.comul)
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for row in naive.cocycle_residual(c, t, i, j) for x in row)


def test_cocycle_swapped_comultiplication_is_a_coboundary_and_passes():
    # direct expansion shows this comultiplication is compatible as well
    b = _aff2_bialgebra([[[0, 1], [-1, 0]], [[0, 0], [0, 0]]])
    c = naive.as_cells(b.algebra.bracket)
    t = naive.as_cells(b.coalgebra.comul)
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for row in naive.cocycle_residual(c, t, i, j) for x in row)
    assert checks.check_bialgebra_cocycle(b).ok


def test_cocycle_failure_cases():
    # e1 x e1 on the source e2 breaks compatibility over the nonabelian bracket
    b = _aff2_bialgebra([[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    assert not checks.check_bialgebra_cocycle(b).ok
    # antisymmetric failing instance in dimension 3
    cells = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cells[0][1][2] = 1
    cells[0][2][1] = -1
    b3 = BialgebraBundle(bundles.sl2(),
                         CoalgebraBundle(3, Tensor3.from_entries(cells), Matrix.identity(3), Matrix.identity(3)))
    assert not checks.check_bialgebra_cocycle(b3).ok


def test_cocycle_two_expansions_agree_on_twisted_fixture():
    from bihomlie.constructions import yau_twist

    alpha = Matrix.diagonal([1, 2, scalar("1/2")])
    tw, _ = yau_twist(bundles.sl2(), alpha, alpha)
    co = dualize(dataclasses.replace(tw, nijenhuis=None))
    bial = BialgebraBundle(tw, dataclasses.replace(co, comul=Tensor3.zeros((3, 3, 3))))
    rep = checks.check_bialgebra_cocycle(bial)
    primary = [e for e in rep.entries if not e.advisory][0]
    advisory = [e for e in rep.entries if e.advisory][0]
    assert primary.residual == advisory.residual


def test_cocycle_requires_invertible_alpha():
    alg = dataclasses.replace(bundles.abelian(2), alpha=Matrix.zeros(2, 2), kind="bihom-lie")
    co = CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), Matrix.zeros(2, 2), Matrix.identity(2))
    with pytest.raises(SingularMatrix):
        checks.check_bialgebra_cocycle(BialgebraBundle(alg, co))


# -- representations ------------------------------------------------------------------


def test_representation_trivial():
    rep = support.zero_rep(bundles.sl2(), 2)
    assert checks.check_representation(rep).ok


def test_representation_adjoint_sl2():
    assert checks.check_representation(support.adjoint_rep(bundles.sl2())).ok


def test_representation_adjoint_golden_fixture():
    b = bundles.bihom2(2, 3)
    rep = support.adjoint_rep(b)  # p = alpha, q = beta
    assert checks.check_representation(rep).ok


def test_representation_broken_entry_detected():
    rep = support.adjoint_rep(bundles.sl2())
    r = support.rng(21)
    rho = list(rep.rho)
    rho[0] = support.perturb_matrix(rho[0], r)
    assert not checks.check_representation(dataclasses.replace(rep, rho=tuple(rho))).ok


def test_nijenhuis_representation_identity_eta():
    b = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.diagonal([1, 2, 3]))
    if not checks.check_nijenhuis_operator(b).ok:
        b = dataclasses.replace(b, nijenhuis=Matrix.identity(3))
    rep = support.adjoint_rep(b, eta=Matrix.identity(3))
    assert checks.check_nijenhuis_representation(rep).ok


def test_nijenhuis_representation_eta_equals_operator_on_golden_fixture():
    b = bundles.bihom2(2, 3)
    rep = support.adjoint_rep(b, eta=b.nijenhuis)
    assert checks.check_nijenhuis_representation(rep).ok


def test_nijenhuis_representation_zero_eta():
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    rep = support.adjoint_rep(b, eta=Matrix.zeros(2, 2))
    assert checks.check_nijenhuis_representation(rep).ok


# -- admissibility ---------------------------------------------------------------------


def test_admissible_eta_identity():
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.from_rows([[1, 1], [0, 2]]))
    rep = support.adjoint_rep(b, eta=Matrix.identity(2))
    assert checks.check_eta_admissible(rep).ok


def test_admissible_adjoint_s_equals_n_on_identity_operator():
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    assert checks.check_adjoint_admissible(b, b.nijenhuis).ok


def test_admissible_adjoint_s_equals_n_is_not_automatic():
    # a genuine operator for which taking S = N fails the admissibility identity
    b = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.diagonal([1, 0]))
    assert checks.check_nijenhuis_operator(b).ok
    assert not checks.check_adjoint_admissible(b, b.nijenhuis).ok
    g = bundles.bihom2(2, 3)
    assert checks.check_nijenhuis_operator(g).ok
    assert not checks.check_adjoint_admissible(g, g.nijenhuis).ok


def test_admissible_dual_zero_comultiplication():
    z = Tensor3.zeros((2, 2, 2))
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert checks.check_dual_admissible(z, m, m.transpose()).ok


def test_admissibility_involution_note():
    b = bundles.bihom2(2, 3)
    rep = checks.check_adjoint_admissible(b, Matrix.identity(2))
    assert any("involutive" in n for n in rep.notes)


# -- forms ------------------------------------------------------------------------------


def test_form_standard_double_gram():
    from bihomlie.constructions import double_construction, standard_double_form

    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    dbl, _ = double_construction(left, right, "nijenhuis")
    rep = checks.check_form(dbl.total, dbl.form)
    assert rep.ok
    assert standard_double_form(2).gram == Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_form_killing_invariance_on_sl2():
    b = bundles.sl2()
    gram = Matrix.from_rows(naive.killing_gram(naive.as_cells(b.bracket)))
    assert gram == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert checks.check_form(b, FormBundle(gram)).ok


def test_form_identity_gram_on_aff2_fails_invariance():
    rep = checks.check_form(bundles.aff2(), FormBundle(Matrix.identity(2)))
    assert not rep.ok
    bracket_entry = [e for e in rep.entries if e.case == "bracket"][0]
    # B([e1,e2],e2) = 1 while B(e1,[e2,e2]) = 0
    assert ((0, 1, 1), scalar(1)) in bracket_entry.residual.nonzeros


# -- differential checkers ----------------------------------------------------------------


def test_diff_leibniz_zero_map():
    b = support.with_diff(bundles.sl2(), Matrix.zeros(3, 3), "7/3")
    assert checks.check_diff_leibniz(b).ok


def test_diff_leibniz_identity_weight_minus_one():
    b = support.with_diff(bundles.aff2(), Matrix.identity(2), -1)
    assert checks.check_diff_leibniz(b).ok


def test_diff_leibniz_inner_derivation_sl2():
    b = bundles.sl2()
    ad_h = Matrix.from_columns([b.bracket_basis(0, k) for k in range(3)])
    assert checks.check_diff_leibniz(support.with_diff(b, ad_h, 0)).ok
    anti, jac = naive.classical_checks(naive.as_cells(b.bracket))
    assert anti and jac  # the direct expansion backing the inner-derivation rule


def test_diff_leibniz_weight_sensitivity():
    b = support.with_diff(bundles.aff2(), Matrix.identity(2), 0)  # identity needs weight -1
    assert not checks.check_diff_leibniz(b).ok


def test_diff_rep_adjoint():
    d = support.aff2_derivation(1, 2)
    alg = support.with_diff(bundles.aff2(), d, 0)
    rep = support.adjoint_rep(alg, xi=d)
    assert checks.check_diff_rep(rep).ok


def test_diff_coalgebra_and_dual_admissible_trivial():
    co = dualize(support.with_diff(bundles.abelian(2), Matrix.from_rows([[1, 2], [3, 4]]), 2))
    assert checks.check_diff_coalgebra(co).ok
    assert checks.check_diff_dual_admissible(co, Matrix.from_rows([[5, 0], [1, 1]])).ok


def test_diff_zeta_and_pi_trivial():
    alg = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 3)
    rep = support.adjoint_rep(alg)
    assert checks.check_diff_zeta(rep, Matrix.zeros(2, 2)).ok
    assert checks.check_diff_pi(alg, Matrix.identity(2).scale(scalar("5/2"))).ok
    assert not checks.check_diff_pi(alg, Matrix.from_rows([[1, 1], [0, 1]])).ok


# -- matched pairs ---------------------------------------------------------------------


def test_matched_pair_direct_product():
    left = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.identity(3))
    right = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    mp = support._zero_actions(left, right)
    assert checks.check_matched_pair(mp, "nijenhuis").ok
    assert checks.check_matched_pair(mp, "bihom").ok


def test_matched_pair_coadjoint_on_abelian_dual():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    mp = coadjoint_matched_pair(left, right)
    assert checks.check_matched_pair(mp, "nijenhuis").ok


def test_matched_pair_perturbed_action_fails():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.identity(2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.identity(2))
    mp = coadjoint_matched_pair(left, right)
    rho = list(mp.rho)
    # a diagonal shift of rho(e1) breaks rho([e1,e2]) = [rho(e1), rho(e2)]
    rho[0] = rho[0].add(Matrix.from_rows([[1, 0], [0, 0]]))
    assert not checks.check_matched_pair(dataclasses.replace(mp, rho=tuple(rho)), "nijenhuis").ok


def test_matched_pair_differential_verbatim_variant_reported():
    left = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    right = support.with_diff(support.antisym_dual2(0, 1), Matrix.zeros(2, 2), 0)
    mp = coadjoint_matched_pair(left, right)
    rep = checks.check_matched_pair(mp, "differential")
    assert rep.ok  # symmetrized reading counts
    advisory = [e for e in rep.entries if e.advisory and e.identity == "diff_mp_right"][0]
    assert not advisory.ok  # the as-printed reading fails on this valid pair
    flipped = checks.check_matched_pair(mp, "differential", symmetrized=False)
    assert not flipped.ok


def test_matched_pair_weight_mismatch():
    left = support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0)
    right = support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 1)
    mp = coadjoint_matched_pair(left, right)
    with pytest.raises(checks.WeightMismatch):
        checks.check_matched_pair(mp, "differential")


def test_matched_pair_differential_needs_identity_maps():
    # the differential identities are untwisted; a twisted pair is refused as
    # bicrossed_product refuses it, not read as if its maps were identities
    from bihomlie.constructions import PreconditionFailed, bicrossed_product

    left = dataclasses.replace(support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), 0),
                               alpha=Matrix.diagonal([1, 2]), kind="bihom-lie")
    right = support.with_diff(bundles.abelian(2), Matrix.zeros(2, 2), 0)
    mp = coadjoint_matched_pair(left, right)
    with pytest.raises(PreconditionFailed, match="identity structure maps"):
        checks.check_matched_pair(mp, "differential")
    with pytest.raises(PreconditionFailed, match="identity structure maps"):
        bicrossed_product(mp, "differential")
    assert checks.check_matched_pair(mp, "bihom").entries[0].identity == "mp_left"
