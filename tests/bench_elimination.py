"""Timings of the elimination kernel and of the linear systems around it (pytest-benchmark).

Run from the repository root with

    python -m pytest tests/bench_elimination.py --benchmark-enable --benchmark-only

The test suite collects this file with timing off (``addopts = "--benchmark-disable"`` in
``pyproject.toml``), so each timed call runs once there and its result is checked; ``--benchmark-enable``
turns timing on.  Each benchmark times one call and checks its result, so a fast wrong answer fails:

- three kernel calls, on systems built beforehand:
  - ``exact.solve`` of the homogeneous gl(4) derivation system in the form ``search._System`` writes it,
    ``(nvars, rows)``: 1572 integer rows over 256 unknowns, one per residual cell (i, j, k) with i < j that the
    Leibniz terms reach (the bracket is antisymmetric, so ``search._System`` writes no mirror cell; all cells
    would give 3252), so the timed call makes them primitive, drops the repeats and eliminates the rest;
  - ``exact.solve`` of an all-zero 729 x 81 ``Matrix`` (``Matrix.zeros``: the Leibniz terms on abelian(9)
    reach no cell, so its own system has no equation); these two are each checked by the size of the kernel;
  - ``invert`` of a dense 16 x 16 matrix, checked by its product with the matrix.
- on the derivation systems of gl(4), gl(5) and the torus-twisted ``gl_torus(3, ...)``, two timers, each
  checked by the dimension of the solution space (n^2 for gl(n), the naive elimination's nullity for the
  twisted gl(3)):
  - the assembly alone, ``search._System(bracket, terms)``: the contractions and one integer row per
    reached cell;
  - the whole ``solve_linear_identity("derivation", ...)`` call.

  The two show how a solve splits between assembly and ``exact.solve``.
"""
import pytest

import naive
import support
from bihomlie import checks, search
from bihomlie.exact import Matrix, invert, solve


def test_nullspace_gl4_derivation_system(benchmark):
    # the Leibniz rule solved for the unknown map: 1572 equations (its cells i < j), 256 unknowns, as the integer
    # rows the assembly writes, each normalized, deduplicated and eliminated inside the timed call
    system = search._System(support.gl(4).bracket, checks._leibniz(checks.Unknown(), 0))
    assert len(benchmark(solve, (system.nvars, system.rows))[1]) == 16


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
    m = support.dense_matrix(16, 16)
    assert benchmark(invert, m) @ m == Matrix.identity(16)
