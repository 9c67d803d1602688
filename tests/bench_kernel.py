"""Timings of the exact kernel and the Jacobi and co-Jacobi checkers
(pytest-benchmark; not part of the test suite).

Run from the repository root with

    python -m pytest tests/bench_kernel.py --benchmark-only

Each benchmark times one call on operands built beforehand and checks its
result, so a fast wrong answer fails.
"""

import itertools
import random
from fractions import Fraction

import naive
import pytest
import support
from bihomlie.checks import check_bihom_coalgebra, check_bihom_lie
from bihomlie.constructions import dualize
from bihomlie.exact import Matrix, contract, invert


def _dense(n: int, seed: int) -> Matrix:
    r = random.Random(seed)
    return Matrix.from_rows([[Fraction(r.randint(-3, 3), r.randint(1, 2)) for _ in range(n)] for _ in range(n)])


def _diagonal(n: int, seed: int) -> Matrix:
    r = random.Random(seed)
    return Matrix.diagonal([Fraction(r.randint(1, 5), r.randint(1, 3)) for _ in range(n)])


def test_matmul_diagonal_dense_dim16(benchmark):
    a, b = _diagonal(16, 1), _dense(16, 2)
    expected = naive.mat_mul(naive.mat_cells(a), naive.mat_cells(b))
    assert naive.mat_cells(benchmark(a.__matmul__, b)) == expected


def test_matmul_dense_dense_dim16(benchmark):
    a, b = _dense(16, 3), _dense(16, 4)
    expected = naive.mat_mul(naive.mat_cells(a), naive.mat_cells(b))
    assert naive.mat_cells(benchmark(a.__matmul__, b)) == expected


def test_contract_gl4_bracket(benchmark):
    c = support.gl(4).bracket
    m = _dense(16, 16)  # invertible, so its inverse undoes the contraction
    back = invert(m)
    assert contract(benchmark(contract, c, 1, m), 1, back) == c


def test_contract_gl4_bracket_fractional_map(benchmark):
    c = support.gl(4).bracket
    m = _diagonal(16, 5) @ _dense(16, 6)  # fractional entries over several denominators
    expected = naive.contract(naive.as_cells(c), 2, naive.mat_cells(m))
    assert naive.as_cells(benchmark(contract, c, 2, m)) == expected


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("kind", ["identity", "torus"])
def test_contract_gl4_bracket_diagonal_map(benchmark, kind, axis):
    c = support.gl(4).bracket
    m = Matrix.identity(16) if kind == "identity" else _diagonal(16, 7)
    expected = naive.contract(naive.as_cells(c), axis, naive.mat_cells(m))
    assert naive.as_cells(benchmark(contract, c, axis, m)) == expected


def test_check_bihom_lie_gl4(benchmark):
    a = support.gl(4)
    assert benchmark(check_bihom_lie, a).ok


def test_check_bihom_lie_gl5(benchmark):
    a = support.gl(5)
    assert benchmark(check_bihom_lie, a).ok


def test_check_bihom_lie_gl4_torus_twisted(benchmark):
    a = support.gl_torus(4, [1, 2, 5, "1/3"], [1, 3, "1/2", 7])  # non-involutive maps, real denominators
    assert benchmark(check_bihom_lie, a).ok


def test_check_bihom_coalgebra_gl4_dual(benchmark):
    co = dualize(support.gl(4))
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_coalgebra_gl5_dual(benchmark):
    co = dualize(support.gl(5))
    assert benchmark(check_bihom_coalgebra, co).ok


def test_check_bihom_coalgebra_gl4_torus_twisted_dual(benchmark):
    co = dualize(support.gl_torus(4, [1, 2, 5, "1/3"], [1, 3, "1/2", 7]))
    assert benchmark(check_bihom_coalgebra, co).ok


def _perturbed_gl4():
    """gl(4) with one bracket entry moved: twisted antisymmetry fails, so Jacobi runs per rotation orbit."""
    return support.perturb_algebra(support.gl(4), support.rng(4))


def _entry(report, identity):
    return [e for e in report.entries if e.identity == identity][0].residual


def test_check_bihom_lie_gl4_perturbed(benchmark):
    a = _perturbed_gl4()
    assert a.alpha.is_identity() and a.beta.is_identity()
    # naive.bihom_jacobi at alpha = beta = id, with the brackets [e_j, e_k] made once: the full oracle
    # re-multiplies the 16 x 16 maps for each of the 4096 tuples
    c, n = naive.as_cells(a.bracket), a.dim
    e = [naive.basis(n, i) for i in range(n)]
    inner = [[naive.bracket_eval(c, e[j], e[k]) for k in range(n)] for j in range(n)]
    want = []
    for i, j, k in itertools.product(range(n), repeat=3):
        terms = (naive.bracket_eval(c, e[x], inner[y][z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j)))
        want += [((i, j, k, r), v) for r, v in enumerate(map(sum, zip(*terms))) if v]
    assert list(_entry(benchmark(check_bihom_lie, a), "bihom_jacobi").nonzeros) == want != []


def test_check_bihom_coalgebra_gl4_perturbed_dual(benchmark):
    co = dualize(_perturbed_gl4())
    cells = naive.co_jacobi(naive.as_cells(co.comul), naive.mat_cells(co.alpha), naive.mat_cells(co.beta))
    want = [(idx, cells[idx[0]][idx[1]][idx[2]][idx[3]]) for idx in itertools.product(range(co.dim), repeat=4)]
    assert list(_entry(benchmark(check_bihom_coalgebra, co), "co_jacobi").nonzeros) == [c for c in want if c[1]] != []
