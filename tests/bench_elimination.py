"""Timings of the elimination kernel and of the linear systems around it (pytest-benchmark; not
part of the test suite).

Run from the repository root with

    python -m pytest tests/bench_elimination.py --benchmark-only

Each benchmark times one call and checks its result, so a fast wrong answer
fails.  The elimination timers solve a system built beforehand; on the
derivation systems of gl(4), gl(5) and a twisted gl(3), one timer takes the
assembly alone (``search._System``) and one the whole
``solve_linear_identity`` call, so the two show how a solve splits between
assembly and elimination.
"""

import random
from fractions import Fraction

import pytest

import naive
import support
from bihomlie import checks, search
from bihomlie.exact import Matrix, invert, solve


def test_nullspace_gl4_derivation_system(benchmark):
    # the Leibniz rule solved for the unknown map: 3252 equations, 256 unknowns
    system = search._System(support.gl(4).bracket, checks._leibniz(checks.Unknown(), 0))
    m = Matrix(len(system.rows), system.nvars, tuple(system.rows))
    assert len(benchmark(solve, m)[1]) == 16


_DERIVATION_SYSTEMS = {  # the Leibniz rule on gl(4), gl(5) (derivation spaces of dimension n^2) and twisted gl(3)
    "gl4": (lambda: support.gl(4), 16),
    "gl5": (lambda: support.gl(5), 25),
    "gl3-twisted": (lambda: support.gl_torus(3, [1, 2, 5], [1, 3, "1/2"]), None),
}


def _derivation_system(name):
    """The algebra and the dimension of its derivation space."""
    make, expected = _DERIVATION_SYSTEMS[name]
    algebra = make()
    if expected is None:
        expected = naive.gauss_nullity(naive.derivation_rows(naive.as_cells(algebra.bracket)), algebra.dim ** 2)
    return algebra, expected


@pytest.mark.parametrize("name", list(_DERIVATION_SYSTEMS))
def test_assemble_derivation_system(benchmark, name):
    # the assembly alone: the contractions and the equations, no elimination
    algebra, expected = _derivation_system(name)
    system = benchmark(search._System, algebra.bracket, checks._leibniz(checks.Unknown(), 0))
    assert system.solve().dimension == expected


@pytest.mark.parametrize("name", list(_DERIVATION_SYSTEMS))
def test_solve_derivation_system(benchmark, name):
    # the assembly and the elimination: one whole solve_linear_identity call
    algebra, expected = _derivation_system(name)
    assert benchmark(search.solve_linear_identity, "derivation", algebra=algebra).dimension == expected


def test_nullspace_abelian9_zero_system(benchmark):
    # 729 all-zero equations, 81 unknowns; the derivation form of abelian(9) has no nonzero, so no equation
    assert len(benchmark(solve, Matrix.zeros(729, 81))[1]) == 81


def test_invert_dim16(benchmark):
    r = random.Random(16)
    m = Matrix.from_rows([[Fraction(r.randint(-3, 3), r.randint(1, 2)) for _ in range(16)] for _ in range(16)])
    assert benchmark(invert, m) @ m == Matrix.identity(16)
