"""Timings of the elimination kernel (pytest-benchmark; not part of the test suite).

Run from the repository root with

    python -m pytest tests/bench_elimination.py --benchmark-only

Each benchmark times one kernel call on a system built beforehand and checks
its result, so a fast wrong answer fails.
"""

import random
from fractions import Fraction

import support
from bihomlie import checks, search
from bihomlie.exact import Matrix, invert, solve


def test_nullspace_gl4_derivation_system(benchmark):
    # the Leibniz rule solved for the unknown map: 3252 equations, 256 unknowns
    system = search._System(support.gl(4).bracket, checks._leibniz(checks.Unknown(), 0))
    m = Matrix(len(system.rows), system.nvars, tuple(system.rows))
    assert len(benchmark(solve, m)[1]) == 16


def test_nullspace_abelian9_zero_system(benchmark):
    # 729 all-zero equations, 81 unknowns; the derivation form of abelian(9) has no nonzero, so no equation
    assert len(benchmark(solve, Matrix.zeros(729, 81))[1]) == 81


def test_invert_dim16(benchmark):
    r = random.Random(16)
    m = Matrix.from_rows([[Fraction(r.randint(-3, 3), r.randint(1, 2)) for _ in range(16)] for _ in range(16)])
    assert benchmark(invert, m) @ m == Matrix.identity(16)
