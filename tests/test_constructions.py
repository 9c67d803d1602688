"""Constructions: duals, twists, products, doubles, form adjoints."""

import dataclasses
import itertools

import pytest

import naive
import support
from bihomlie import bundles, checks, constructions
from bihomlie.bundles import BialgebraBundle, CoalgebraBundle, FormBundle
from bihomlie.constructions import (
    PreconditionFailed,
    adjoint_map_wrt_form,
    bicrossed_product,
    coadjoint_matched_pair,
    coadjoint_rep,
    double_construction,
    dual_representation,
    dualize,
    hom_specialize,
    semidirect_product,
    standard_double_form,
    untwist,
    yau_twist,
)
from bihomlie.exact import Matrix, SingularMatrix, Tensor3, block_diag, scalar

I2 = Matrix.identity(2)


# -- duals -----------------------------------------------------------------------


def test_dualize_abelian_gives_zero_comultiplication():
    assert dualize(bundles.abelian(3)).comul.is_zero()


def test_dualize_aff2_frozen_values():
    # pairing oracle: <Delta(e2), f1 x f2> = <e2, [f1,f2]> = 1, antisymmetric partner -1
    co = dualize(bundles.aff2())
    assert co.comul.entries[0] == Tensor3.zeros((2, 2, 2)).entries[0]
    assert co.comul.entries[1][0][1] == 1
    assert co.comul.entries[1][1][0] == -1


def test_dualize_is_involutive_both_directions():
    for b in (bundles.aff2(), bundles.sl2(), bundles.bihom2(2, 3)):
        b = dataclasses.replace(b, differential=bundles.Differential(b.alpha, scalar(2)))
        assert dualize(dualize(b)) == b
    co = dualize(bundles.bihom2(2, 3))
    assert dualize(dualize(co)) == co


def test_dual_representation_zero_and_involution():
    rep = support.zero_rep(bundles.sl2(), 2)
    dual = dual_representation(rep)
    assert all(m.is_zero() for m in dual.rho)
    rep2 = support.adjoint_rep(bundles.bihom2(2, 3), eta=bundles.bihom2(2, 3).nijenhuis)
    assert dual_representation(dual_representation(rep2)) == rep2


def test_dual_representation_pairing_example():
    # <ad*(e1) f2, e2> = -<f2, [e1, e2]> = -1 on aff2
    rep = support.adjoint_rep(bundles.aff2())
    dual = dual_representation(rep)
    assert dual.rho[0].entries[1][1] == -1


# -- coadjoint actions ------------------------------------------------------------


def test_coadjoint_rep_pairing_identity():
    b = bundles.aff2()
    rho = coadjoint_rep(b)
    c = naive.as_cells(b.bracket)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                # <e_i . f_j, e_k> = -<f_j, [e_i, e_k]>
                lhs = rho[i].entries[k][j]
                assert lhs == -naive.bracket_eval(c, naive.basis(2, i), naive.basis(2, k))[j]
    assert rho[0].entries[1][1] == -1  # the frozen example entry


def test_coadjoint_rep_pairing_identity_on_dual_side_fixtures():
    # entrywise on all basis triples, on every fixture used as a dual-side algebra
    fixtures = [support.antisym_dual2(1, "-1/2"), bundles.aff2(), bundles.sl2(),
                bundles.abelian(3), bundles.bihom2(2, 3)]
    for dual in fixtures:
        n = dual.dim
        c = naive.as_cells(dual.bracket)
        rho = coadjoint_rep(dual)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    pairing = naive.bracket_eval(c, naive.basis(n, i), naive.basis(n, k))[j]
                    assert rho[i].entries[k][j] == -pairing


def test_coadjoint_action_zero_for_abelian_dual():
    h = coadjoint_rep(bundles.abelian(2))
    assert all(m.is_zero() for m in h)
    assert not all(m.is_zero() for m in coadjoint_rep(bundles.aff2()))


def test_plus_convention_breaks_the_classical_double():
    # with the sign as printed (< f . x, g > = + < x, [f, g] >) for the dual
    # side's action the mixed Jacobi fails on a non-abelian dual
    left = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    right = dataclasses.replace(support.antisym_dual2(0, 1), nijenhuis=I2)
    good, _ = double_construction(left, right, "nijenhuis")
    plus = bundles.MatchedPairBundle(left, right, coadjoint_rep(left), tuple(m.neg() for m in coadjoint_rep(right)))
    bad, _ = bicrossed_product(plus, "nijenhuis")
    assert checks.check_bihom_lie(good.total).ok
    assert not checks.check_bihom_lie(bad).ok


# -- twists -----------------------------------------------------------------------


def _sl2_auto(s):
    s = scalar(s)
    return Matrix.diagonal([1, s, 1 / s])


def _aff2_auto(v):
    return Matrix.diagonal([1, scalar(v)])


def test_yau_twist_identity_maps_is_noop():
    out, rep = yau_twist(bundles.sl2(), Matrix.identity(3), Matrix.identity(3))
    assert rep.ok
    assert out.bracket == bundles.sl2().bracket


def test_yau_twist_sl2_frozen_value_and_suite():
    alpha = _sl2_auto(2)
    out, rep = yau_twist(bundles.sl2(), alpha, Matrix.identity(3))
    assert rep.ok
    # {e, f} = [2e, f] = 2h
    assert out.bracket.entries[1][2] == (scalar(2), scalar(0), scalar(0))
    assert checks.check_bihom_lie(out).ok


def test_yau_twist_rejects_non_endomorphism():
    bad = Matrix.from_rows([[1, 1], [0, 1]])  # not a bracket endomorphism of aff2
    with pytest.raises(PreconditionFailed) as err:
        yau_twist(bundles.aff2(), bad, I2)
    assert err.value.report is not None and not err.value.report.ok


def test_yau_twist_rejects_twisted_input():
    with pytest.raises(PreconditionFailed):
        yau_twist(bundles.bihom2(2, 3), I2, I2)


def test_twist_preconditions_name_the_structure():
    bad = Matrix.diagonal([2, 1])  # an endomorphism neither of aff2's bracket nor of its dual's comultiplication
    co, twisted = dualize(bundles.aff2()), bundles.bihom2(2, 3)
    for b, structure in ((bundles.aff2(), "bracket"), (co, "comultiplication"),
                         (BialgebraBundle(bundles.aff2(), co), "bialgebra")):
        with pytest.raises(PreconditionFailed, match=f"^supplied maps are not commuting {structure} endomorphisms$"):
            yau_twist(b, bad, I2)
    for b, kind in ((twisted, "algebra"), (dualize(twisted), "coalgebra"),
                    (BialgebraBundle(twisted, CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), twisted.alpha,
                                                              twisted.beta)), "bialgebra")):
        with pytest.raises(PreconditionFailed, match=f"^{kind} must carry identity structure maps before twisting$"):
            yau_twist(b, I2, I2)
    with pytest.raises(PreconditionFailed, match="^supplied map is not a bialgebra endomorphism$"):
        hom_specialize(BialgebraBundle(bundles.aff2(), co), bad)
    for twist in (lambda x: yau_twist(x, I2, I2), untwist):
        with pytest.raises(TypeError, match="FormBundle"):
            twist(FormBundle(I2))


def test_yau_twist_of_a_bialgebra_refuses_only_a_singular_alpha(monkeypatch):
    zero = BialgebraBundle(bundles.abelian(2), CoalgebraBundle(2, Tensor3.zeros((2, 2, 2)), I2, I2))
    with pytest.raises(PreconditionFailed, match="^alpha must be invertible to twist a bialgebra: matrix is singular$"):
        yau_twist(zero, Matrix.zeros(2, 2), I2)

    def broken(m):
        raise RuntimeError("fault inside invert")

    monkeypatch.setattr(constructions, "invert", broken)
    with pytest.raises(RuntimeError, match="fault inside invert"):  # a program fault is never a failed hypothesis
        yau_twist(zero, I2, I2)


def test_yau_twist_coalgebra_passes_coalgebra_suite():
    co = dualize(bundles.sl2())
    alpha = _sl2_auto("1/3")
    beta = _sl2_auto(5)
    out, rep = yau_twist(co, alpha, beta)
    assert rep.ok
    assert checks.check_bihom_coalgebra(out).ok


def test_untwist_roundtrip_many_pairs():
    pairs = []
    for s in ("2", "3", "1/2", "-1", "5", "-2/3", "7", "1/7", "-5", "4"):
        for t in ("3", "1/5"):
            pairs.append((bundles.sl2(), _sl2_auto(s), _sl2_auto(t)))
    for v in ("2", "-3"):
        for w in ("5", "1/2"):
            pairs.append((bundles.aff2(), _aff2_auto(v), _aff2_auto(w)))
    assert len(pairs) >= 20
    for base, alpha, beta in pairs:
        twisted, rep = yau_twist(base, alpha, beta)
        assert rep.ok and checks.check_bihom_lie(twisted).ok
        assert untwist(twisted) == base


def test_untwist_identity_input_unchanged():
    assert untwist(bundles.sl2()) == bundles.sl2()


def test_retwist_recovers_twisted_bundle():
    # the reverse roundtrip: untwist, then twist with the bundle's own maps
    y = bundles.bihom2(2, 3)
    plain = untwist(y)
    retwisted, rep = yau_twist(plain, y.alpha, y.beta)
    assert rep.ok
    assert retwisted == y


def test_untwist_golden_fixture_passes_classical_checks():
    out = untwist(bundles.bihom2(2, 3))
    assert out.alpha == I2 and out.beta == I2
    anti, jac = naive.classical_checks(naive.as_cells(out.bracket))
    assert anti and jac
    assert checks.check_bihom_lie(out).ok


def test_untwist_singular_raises():
    b = dataclasses.replace(bundles.abelian(2), alpha=Matrix.zeros(2, 2), kind="bihom-lie")
    with pytest.raises(SingularMatrix):
        untwist(b)


def test_yau_twist_bialgebra_and_roundtrip():
    alg = bundles.aff2()
    co = dualize(support.antisym_dual2(0, 1))
    bial = BialgebraBundle(alg, co)
    alpha = _aff2_auto(3)
    beta = _aff2_auto("1/2")
    twisted, rep = yau_twist(bial, alpha, beta)
    assert rep.ok
    assert checks.check_bialgebra_cocycle(twisted).ok
    back = untwist(twisted)
    assert back == bial


def test_hom_specialize_sl2_frozen_value():
    alg = bundles.sl2()
    bial = BialgebraBundle(alg, CoalgebraBundle(3, Tensor3.zeros((3, 3, 3)), Matrix.identity(3), Matrix.identity(3)))
    alpha = _sl2_auto(2)
    out, rep = hom_specialize(bial, alpha)
    assert rep.ok
    # [e,f]_alpha = alpha(h) = h
    assert out.algebra.bracket.entries[1][2] == (scalar(1), scalar(0), scalar(0))


def test_hom_specialize_zero_map_gives_abelian():
    alg = bundles.aff2()
    bial = BialgebraBundle(alg, dualize(support.antisym_dual2(1, 0)))
    out, _ = hom_specialize(bial, Matrix.zeros(2, 2))
    assert out.algebra.bracket.is_zero()
    assert out.coalgebra.comul.is_zero()


def test_hom_specialize_agrees_with_twist_for_endomorphisms():
    alg = bundles.sl2()
    bial = BialgebraBundle(alg, CoalgebraBundle(3, Tensor3.zeros((3, 3, 3)), Matrix.identity(3), Matrix.identity(3)))
    alpha = _sl2_auto("1/2")
    hom_out, _ = hom_specialize(bial, alpha)
    twist_out, _ = yau_twist(bial, alpha, alpha)
    assert hom_out.algebra.bracket == twist_out.algebra.bracket
    assert hom_out.coalgebra.comul == twist_out.coalgebra.comul


# -- semidirect products ----------------------------------------------------------


def test_semidirect_trivial_representation_direct_sum():
    alg = dataclasses.replace(bundles.sl2(), nijenhuis=Matrix.identity(3))
    rep = support.zero_rep(alg, 2, eta=Matrix.zeros(2, 2))
    out, rep_report = semidirect_product(alg, rep, "nijenhuis")
    assert rep_report.ok
    assert checks.check_bihom_lie(out).ok and checks.check_nijenhuis_operator(out).ok
    for i in range(3):
        for b in range(2):
            assert all(x == 0 for x in out.bracket.entries[i][3 + b])


def test_semidirect_aff2_adjoint_passes_and_matches_direct_jacobi():
    alg = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    rep = support.adjoint_rep(alg, eta=I2)
    out, rep_report = semidirect_product(alg, rep, "nijenhuis")
    assert rep_report.ok
    assert out.dim == 4
    anti, jac = naive.classical_checks(naive.as_cells(out.bracket))
    assert anti and jac
    assert checks.check_bihom_lie(out).ok and checks.check_nijenhuis_operator(out).ok


def test_semidirect_broken_representation_fails_product():
    alg = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    rep = support.adjoint_rep(alg, eta=I2)
    rho = list(rep.rho)
    rho[0] = rho[0].add(Matrix.from_rows([[1, 0], [0, 0]]))
    broken = dataclasses.replace(rep, rho=tuple(rho))
    out, rep_report = semidirect_product(alg, broken, "nijenhuis")
    assert not rep_report.ok
    assert not checks.check_bihom_lie(out).ok


def test_semidirect_requires_invertible_q():
    alg = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    rep = support.zero_rep(alg, 2, q=Matrix.zeros(2, 2), eta=Matrix.zeros(2, 2))
    with pytest.raises(SingularMatrix):
        semidirect_product(alg, rep, "nijenhuis")


def test_semidirect_differential():
    d = support.aff2_derivation(1, "1/2")
    alg = support.with_diff(bundles.aff2(), d, 0)
    rep = support.adjoint_rep(alg, xi=d)
    out, rep_report = semidirect_product(alg, rep, "differential")
    assert rep_report.ok
    assert checks.check_bihom_lie(out).ok and checks.check_diff_leibniz(out).ok


def test_semidirect_bihom_flavour_reads_no_operator():
    # the bihom flavour, as for bicrossed products and doubles: the same
    # bracket, no operator block, and the module axioms alone as hypotheses
    alg = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    rep = support.adjoint_rep(alg, eta=I2)
    out, rep_report = semidirect_product(alg, rep, "bihom")
    assert out.nijenhuis is None and out.differential is None
    assert out.bracket == semidirect_product(alg, rep, "nijenhuis")[0].bracket
    assert rep_report == checks.check_representation(rep)


# -- doubles and bicrossed products --------------------------------------------------


def test_double_abelian_inputs():
    left = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.zeros(2, 2))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.zeros(2, 2))
    dbl, rep = double_construction(left, right, "nijenhuis")
    assert rep.ok
    assert dbl.total.bracket.is_zero()
    form_rep = checks.check_form(dbl.total, dbl.form)
    assert form_rep.ok


def test_double_aff2_abelian_matches_hand_assembled_semidirect():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=I2)
    dbl, rep = double_construction(left, right, "nijenhuis")
    assert rep.ok
    total = dbl.total
    # hand-assembled values: [e1, f2] = -f2, [e2, f2] = f1, [e1, f1] = 0, [e2, f1] = 0
    assert total.bracket.entries[0][3] == (0, 0, 0, scalar(-1))
    assert total.bracket.entries[1][3] == (0, 0, scalar(1), 0)
    assert all(x == 0 for x in total.bracket.entries[0][2])
    assert all(x == 0 for x in total.bracket.entries[1][2])
    anti, jac = naive.classical_checks(naive.as_cells(total.bracket))
    assert anti and jac
    assert checks.check_bihom_lie(total).ok
    assert checks.check_form(total, dbl.form).ok


def test_double_differential_reduces_to_plain_double_when_maps_vanish():
    z = Matrix.zeros(2, 2)
    left = support.with_diff(bundles.aff2(), z, 0)
    right = support.with_diff(support.antisym_dual2(2, 1), z, 0)
    diff_dbl, _ = double_construction(left, right, "differential")
    plain_left = dataclasses.replace(left, differential=None)
    plain_right = dataclasses.replace(right, differential=None)
    plain_dbl, _ = double_construction(plain_left, plain_right, "bihom")
    assert diff_dbl.total.bracket == plain_dbl.total.bracket


def test_bicrossed_coadjoint_pair_equals_double():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=I2.scale(scalar(2)))
    right = dataclasses.replace(support.antisym_dual2(1, 3), nijenhuis=I2.scale(scalar("1/2")))
    mp = coadjoint_matched_pair(left, right)
    bic, _ = bicrossed_product(mp, "nijenhuis")
    dbl, _ = double_construction(left, right, "nijenhuis")
    assert bic.bracket == dbl.total.bracket
    assert bic.nijenhuis == dbl.total.nijenhuis


def test_bicrossed_bihom_flavor_is_the_double_of_a_twisted_pair():
    # the double is the bicrossed product of the coadjoint matched pair, also
    # with non-involutive structure maps and in the operator-free flavour
    alpha, beta = Matrix.diagonal([1, 2]), Matrix.diagonal([1, 3])
    left, _ = yau_twist(bundles.aff2(), alpha, beta)
    right = dataclasses.replace(bundles.abelian(2), alpha=alpha, beta=beta, kind="bihom-lie")
    mp = coadjoint_matched_pair(left, right)
    bic, hyp = bicrossed_product(mp, "bihom")
    dbl, _ = double_construction(left, right, "bihom")
    assert bic == dbl.total
    assert bic.nijenhuis is None and bic.kind == "bihom-lie"
    assert hyp == checks.check_matched_pair(mp, "bihom")


def test_bicrossed_broken_pair_fails_suite():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=I2)
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=I2)
    mp = coadjoint_matched_pair(left, right)
    rho = list(mp.rho)
    rho[0] = rho[0].add(Matrix.from_rows([[1, 0], [0, 0]]))
    broken = dataclasses.replace(mp, rho=tuple(rho))
    out, hyp = bicrossed_product(broken, "nijenhuis")
    assert not hyp.ok
    assert not checks.check_bihom_lie(out).ok


# -- twisted products: the product of a twisted pair is the twisted product ---------
#
# For commuting automorphisms A, B of L and P, Q of V that intertwine the
# actions, twisting the pair (L, V, rho, h) to (L_AB, V_PQ, rho(A -) Q,
# h(P -) B) and then taking the bicrossed product gives the Yau twist of the
# untwisted product by A + P and B + Q.  The identity holds for every choice
# of such maps, involutive or not, so it pins both off-diagonal blocks.


def test_twisted_bicrossed_product_is_the_twisted_product():
    mismatches = []
    for v in ("1", "2", "-1/2"):
        mp = coadjoint_matched_pair(bundles.aff2(), support.antisym_dual2(0, v))
        assert checks.check_matched_pair(mp, "bihom").ok
        product, _ = bicrossed_product(mp, "bihom")
        for t, s in support.TORI:
            a, b = _aff2_auto(t), _aff2_auto(s)
            p, q = _aff2_auto(1 / scalar(t)), _aff2_auto(1 / scalar(s))  # the contragredient tori
            want, _ = yau_twist(product, block_diag(a, p), block_diag(b, q))
            got, _ = bicrossed_product(support.twisted_pair(mp, a, b, p, q), "bihom")
            if got != want:
                mismatches.append((v, t, s))
    assert mismatches == []


def _twisted_coadjoint_pairs():
    """The 24 twisted coadjoint pairs above: aff2 on antisym_dual2(0, v) under every torus of support.TORI."""
    for v in ("1", "2", "-1/2"):
        mp = coadjoint_matched_pair(bundles.aff2(), support.antisym_dual2(0, v))
        for t, s in support.TORI:
            yield support.twisted_pair(mp, _aff2_auto(t), _aff2_auto(s), _aff2_auto(1 / scalar(t)),
                                       _aff2_auto(1 / scalar(s)))


def _cells(residual):
    return dict(residual.nonzeros)


def _perturbed(items, perturb, seed):
    """Each item with one field moved by perturb, drawn from one seeded stream."""
    r = support.rng(seed)
    return [perturb(item, r) for item in items]


def test_mixed_identities_match_the_naive_oracle():
    # both mixed identities and the as-printed reading of the second, on the twisted coadjoint pairs (half of them
    # with beta not an involution) and on one-field perturbations of them; the as-printed reading, which only the
    # differential flavour (identity maps) reports, is read here with the pair's own maps
    pairs = list(_twisted_coadjoint_pairs())
    pairs += _perturbed(pairs, lambda mp, r: support._perturb_mp(mp, r, True), 26)
    failing = 0
    for mp in pairs:
        L, V = mp.left, mp.right
        first, second, printed = naive.mixed(
            naive.as_cells(L.bracket), naive.as_cells(V.bracket), [naive.mat_cells(m) for m in mp.rho],
            [naive.mat_cells(m) for m in mp.h], *(naive.mat_cells(m) for m in (L.alpha, L.beta, V.alpha, V.beta)))
        got = {e.identity: _cells(e.residual) for e in checks.check_matched_pair(mp, "bihom").entries}
        assert got["mp_left"] == naive.nonzero_cells(first) and got["mp_right"] == naive.nonzero_cells(second)
        assert _cells(checks._composed(checks._mixed(mp.swapped)[1])) == naive.nonzero_cells(printed)
        failing += bool(got["mp_left"] or got["mp_right"])
    assert 24 < failing < 48


def test_representation_identity_matches_the_naive_oracle():
    # rep_bracket on adjoint modules (p = alpha, q = beta, neither an involution) of torus-twisted gl(2) and sl2, and
    # on modules with one entry of rho or of q moved
    modules = [support.adjoint_rep(support.gl_torus(2, t, s)) for t, s in (([1, 2], [1, 3]), (["1/2", 3], [5, -1]))]
    modules.append(support.adjoint_rep(support.twisted(bundles.sl2(), [1, 2, "1/2"], [1, 3, "1/3"])))

    def perturb(rep, r):
        if r.random() < 0.5:
            return dataclasses.replace(rep, q=support.perturb_matrix(rep.q, r))
        rho = list(rep.rho)
        k = r.randrange(len(rho))
        rho[k] = support.perturb_matrix(rho[k], r)
        return dataclasses.replace(rep, rho=tuple(rho))

    modules += _perturbed(modules * 3, perturb, 27)
    failing = 0
    for rep in modules:
        alg = rep.algebra
        want = naive.rep_bracket(naive.as_cells(alg.bracket), [naive.mat_cells(m) for m in rep.rho],
                                 naive.mat_cells(alg.alpha), naive.mat_cells(alg.beta), naive.mat_cells(rep.q))
        got = [e for e in checks.check_representation(rep).entries if e.identity == "rep_bracket"][0].residual
        assert got.shape == (alg.dim, alg.dim, rep.vdim, rep.vdim) and _cells(got) == naive.nonzero_cells(want)
        failing += not got.is_zero
    assert failing >= 6


def test_cocycle_matches_the_naive_oracle():
    # both expansions of the cocycle on yau_twist bialgebras, aff2 over the dual of antisym_dual2(0, v) and the
    # standard sl2 bialgebra, Delta(e) = e ^ h and Delta(f) = f ^ h, each under every torus of support.TORI, and on
    # bialgebras with one entry of the bracket or of Delta moved
    bases = [(BialgebraBundle(bundles.aff2(), dualize(support.antisym_dual2(0, v))), _aff2_auto) for v in ("1", "-1/2")]
    bases.append((support.sl2_standard_bialgebra(), _sl2_auto))
    bialgebras = [yau_twist(b, torus(t), torus(s))[0] for b, torus in bases for t, s in support.TORI]

    def perturb(b, r):
        if r.random() < 0.5:
            return dataclasses.replace(b, algebra=support.perturb_algebra(b.algebra, r))
        return dataclasses.replace(b, coalgebra=dataclasses.replace(
            b.coalgebra, comul=support.perturb_tensor3(b.coalgebra.comul, r)))

    bialgebras += _perturbed(bialgebras, perturb, 28)
    failing = 0
    for b in bialgebras:
        c, t = naive.as_cells(b.algebra.bracket), naive.as_cells(b.coalgebra.comul)
        maps = naive.mat_cells(b.algebra.alpha), naive.mat_cells(b.algebra.beta)
        report = checks.check_bialgebra_cocycle(b)
        assert [(e.case, _cells(e.residual)) for e in report.entries] == [
            ("", naive.nonzero_cells(naive.bihom_cocycle(c, t, *maps))),
            ("twisted-argument-form", naive.nonzero_cells(naive.bihom_cocycle(c, t, *maps, twisted_argument=True)))]
        failing += not report.ok
    assert failing >= 12 and all(checks.check_bialgebra_cocycle(b).ok for b in bialgebras[:24])


def _residuals(mp, flavor):
    return {(e.identity, e.case): e.residual for e in checks.check_matched_pair(mp, flavor).entries}


def test_the_second_mixed_identity_is_the_first_on_the_swapped_pair():
    # (L, V, rho, h) and (V, L, h, rho) are the same matched pair read from its
    # two sides, so each mixed identity of one is the other's, cell for cell
    pairs = [("bihom", "mp_left", "", "mp_right", "", mp)
             for mp in (support.bicrossed_valid(60) + support.bicrossed_broken(60)
                        + [support.reproducer_pair(1), support.reproducer_pair(2)] + list(_twisted_coadjoint_pairs()))]
    pairs += [("differential", "diff_mp_left", "", "diff_mp_right", "symmetrized", mp)
              for mp in support.bicrossed_diff_valid(60) + support.bicrossed_diff_broken(60)]
    assert len(pairs) == 260
    nonzero = 0
    for flavor, first, first_case, second, second_case, mp in pairs:
        got = _residuals(mp, flavor)
        swapped = _residuals(bundles.MatchedPairBundle(mp.right, mp.left, mp.h, mp.rho), flavor)
        assert got[second, second_case] == swapped[first, first_case]
        assert got[first, first_case] == swapped[second, second_case]
        nonzero += not got[second, second_case].is_zero
    assert nonzero > 20  # 32 pairs fail the second identity, so not only empty residuals are compared


def test_mixed_identities_are_blocks_of_the_products_jacobi_identity():
    # with L = e_1..e_n and V = f_1..f_m, mp_left is the L-part of the product's
    # Jacobi identity on (L, L, V) and mp_right its V-part on (V, V, L)
    mismatches = []
    for mp in support.bicrossed_valid(60) + support.bicrossed_broken(60):
        n, m = mp.left.dim, mp.right.dim
        product, report = bicrossed_product(mp, "nijenhuis")
        c, alpha, beta = naive.as_cells(product.bracket), naive.mat_cells(product.alpha), naive.mat_cells(product.beta)
        left, right = range(n), range(n, n + m)

        def block_is_zero(xs, ys, zs, part):
            cells = (naive.bihom_jacobi(c, alpha, beta, i, j, k) for i in xs for j in ys for k in zs)
            return all(cell[r] == 0 for cell in cells for r in part)

        verdicts = {e.identity: e.ok for e in report.entries if e.identity in ("mp_left", "mp_right")}
        blocks = {"mp_left": block_is_zero(left, left, right, left),
                  "mp_right": block_is_zero(right, right, left, right)}
        if verdicts != blocks:
            mismatches.append((mp, verdicts, blocks))
    assert mismatches == []


def test_twisted_semidirect_product_is_the_twisted_product():
    # h = 0: the bicrossed product of the twisted pair, the semidirect product
    # of the twisted module and the twisted untwisted product coincide
    for alg, autos in ((bundles.aff2(), [_aff2_auto(t) for t in (-1, 2, "1/3")]),
                       (bundles.sl2(), [_sl2_auto(t) for t in (-1, 2, "1/3")])):
        alg = support.scalar_op(alg, 2)
        n, eta = alg.dim, Matrix.identity(alg.dim).scale(3)
        v = dataclasses.replace(bundles.abelian(n), nijenhuis=eta)
        rho = support.adjoint_rep(alg).rho
        mp = bundles.MatchedPairBundle(alg, v, rho, tuple(Matrix.zeros(n, n) for _ in range(n)))
        product, _ = bicrossed_product(mp, "nijenhuis")
        for a, b in itertools.product(autos, repeat=2):
            want, _ = yau_twist(product, block_diag(a, a), block_diag(b, b))
            twisted_mp = support.twisted_pair(mp, a, b, a, b)
            bic, _ = bicrossed_product(twisted_mp, "nijenhuis")
            module = bundles.RepresentationBundle(twisted_mp.left, n, twisted_mp.rho, a, b, eta=eta)
            sd, rep_report = semidirect_product(twisted_mp.left, module, "nijenhuis")
            assert rep_report.ok
            assert bic == want and sd == want
    for c in (1, 2):
        out, hyp = bicrossed_product(support.reproducer_pair(c), "nijenhuis")
        assert hyp.ok and checks.check_bihom_lie(out).ok


# -- adjoint maps of forms -------------------------------------------------------------


def test_adjoint_map_identity_gram_is_transpose():
    n = Matrix.from_rows([[1, 2], [3, 4]])
    f = FormBundle(I2)
    assert adjoint_map_wrt_form(n, f) == n.transpose()


def test_adjoint_map_scalar_operator_fixed():
    f = FormBundle(Matrix.from_rows([[2, 1], [1, 1]]))
    n = I2.scale(scalar("7/3"))
    assert adjoint_map_wrt_form(n, f) == n


def test_adjoint_map_satisfies_pairing_identity_and_involution():
    f = FormBundle(Matrix.from_rows([[0, 1], [1, 0]]))
    n = Matrix.from_rows([[1, 2], [3, "5/2"]])
    adj = adjoint_map_wrt_form(n, f)
    g = f.gram
    for i in range(2):
        for j in range(2):
            lhs = sum(n.entries[a][i] * g.entries[a][j] for a in range(2))
            rhs = sum(g.entries[i][a] * adj.entries[a][j] for a in range(2))
            assert lhs == rhs
    assert adjoint_map_wrt_form(adj, f) == n


def test_adjoint_map_on_double_is_blockwise_swap():
    left = dataclasses.replace(bundles.aff2(), nijenhuis=Matrix.from_rows([[2, 0], [0, 2]]))
    right = dataclasses.replace(bundles.abelian(2), nijenhuis=Matrix.from_rows([[1, 1], [0, 1]]))
    dbl, _ = double_construction(left, right, "nijenhuis")
    adj = adjoint_map_wrt_form(dbl.total.nijenhuis, dbl.form)
    from bihomlie.exact import block_diag

    assert adj == block_diag(right.nijenhuis.transpose(), left.nijenhuis.transpose())


def test_adjoint_map_degenerate_gram_raises():
    with pytest.raises(SingularMatrix):
        adjoint_map_wrt_form(I2, FormBundle(Matrix.from_rows([[1, 1], [1, 1]])))
