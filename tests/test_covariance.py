"""Basis-change covariance: no verdict moves under an invertible change of basis.

Every identity the paper states is basis-free, but the kernel is not: diagonal structure maps take folded paths
(``contract_sum``'s per-row factors, products, inverses and commutators entry by entry) and c I folds into a
multiplier.  Each diagonal instance here is compared with its conjugate by a seeded invertible integer P, whose
maps are dense and take the general paths, so each side is the other's oracle: every report entry must keep its
identity, its case and whether its residual is zero.
"""

import dataclasses

import pytest

import support
from bihomlie import bundles
from bihomlie.checks import SUITES
from bihomlie.constructions import dualize
from bihomlie.equivalence import iff_harness
from bihomlie.exact import Matrix, invert


def _bases():
    yield "gl_torus(2)", support.gl_torus(2, [1, 3], [1, "1/2"])
    yield "gl_torus(3)", support.gl_torus(3, [1, 2, 5], [1, 3, "1/2"])
    yield "sl2 twisted", support.twisted(bundles.sl2(), [1, 2, "1/2"], [1, -3, "-1/3"])
    for t, s in support.TORI:
        yield f"aff2 torus {t}, {s}", support.twisted(bundles.aff2(), [1, t], [1, s])


def _instances():
    """Each base, and one perturbation of it, with no operator, with 2 I and with alpha beta as N."""
    r = support.rng(23)
    for name, base in _bases():
        for label, alg in ((name, base), (f"{name} perturbed", support.perturb_algebra(base, r))):
            yield label, alg
            yield f"{label}, N = 2 I", support.scalar_op(alg, 2)
            yield f"{label}, N = alpha beta", dataclasses.replace(alg, nijenhuis=alg.alpha @ alg.beta)


def _block_commutant():
    """gl_torus(3, [1, 1, 2], [1, 1, 3]): alpha and beta repeat their entries on the blocks {E00, E01, E10, E11, E22},
    {E02, E12} and {E20, E21}, so any N within those blocks commutes with both without being diagonal; N moved off
    the blocks no longer does."""
    alg = support.gl_torus(3, [1, 1, 2], [1, 1, 3])
    blocks = [(0, 1, 3, 4, 8), (2, 5), (6, 7)]
    r = support.rng(19)
    rows = [[0] * 9 for _ in range(9)]
    for block in blocks:
        for i in block:
            for j in block:
                rows[i][j] = r.randint(-2, 2)
    yield "gl_torus(3, [1, 1, 2]), block N", dataclasses.replace(alg, nijenhuis=Matrix.from_rows(rows))
    rows[0][2] = 1
    yield "gl_torus(3, [1, 1, 2]), N off the blocks", dataclasses.replace(alg, nijenhuis=Matrix.from_rows(rows))


CASES = list(_instances()) + list(_block_commutant())


def _verdicts(report):
    return [(e.identity, e.case, e.ok) for e in report.entries], report.notes


def test_the_corpus_has_fifty_diagonal_instances():
    assert len(CASES) >= 50
    assert all(alg.alpha.diag is not None and alg.beta.diag is not None for _, alg in CASES)


@pytest.mark.parametrize("seed, alg", list(enumerate(alg for _, alg in CASES)), ids=[name for name, _ in CASES])
def test_no_verdict_moves_under_a_change_of_basis(seed, alg):
    p = support.change_of_basis(alg.dim, support.rng(seed))
    moved = support.transported(alg, p)
    for before, after in ((alg.alpha, moved.alpha), (alg.beta, moved.beta)):
        assert (after.diag is None) == (before.scalar_multiple is None)  # only c I stays diagonal
    assert _verdicts(SUITES["algebra", "auto"].run(moved)) == _verdicts(SUITES["algebra", "auto"].run(alg))
    # the dual moves by P^-T: transport and dualize commute
    dual = dualize(alg)
    moved_dual = support.transported_coalgebra(dual, invert(p).transpose())
    assert moved_dual == dualize(moved)
    assert _verdicts(SUITES["coalgebra", "auto"].run(moved_dual)) == _verdicts(SUITES["coalgebra", "auto"].run(dual))
    got, want = iff_harness("dual_algebra", algebra=moved), iff_harness("dual_algebra", algebra=alg)
    assert _verdicts(got.first_report) == _verdicts(want.first_report)
    assert _verdicts(got.second_report) == _verdicts(want.second_report)
