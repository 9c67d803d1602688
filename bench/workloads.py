"""Seeded inputs, op lists and oracles for the four benchmark workloads.

Every input is built here from the seed with ``random.Random``: nothing uses
``hash()`` and nothing imports the test suite, so neither the interpreter's
hash seed nor an edit to the tests can move the benchmark.  Bundles are built
directly from the data model (``AlgebraBundle`` and friends); the program's
constructions are never used to make inputs, only measured on them.

Each workload is a fixed op list: the seed changes the values (scalars, twist
parameters, perturbed entries, shuffle order) but never the number of ops of
each kind and size, so one pass costs about the same for every seed.

An op carries its oracle.  ``verdict(op, result)`` returns ``"ok"``,
``"known"`` (a failure of the kind ROADMAP item 4 records: a twisted bicrossed
instance whose two sides disagree) or ``"fail"``.  Oracles run outside the
timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable

from bihomlie import bundles, checks, constructions, equivalence, search
from bihomlie.bundles import AlgebraBundle, Differential, MatchedPairBundle, RepresentationBundle
from bihomlie.exact import Matrix, Tensor3

Q = Fraction
ZERO = Q(0)
ONE = Q(1)

WORKLOADS = ("corpus", "ladder", "solve", "cli")

#: nonzero operator scalars (a zero operator would make an instance's cost
#: depend on the draw)
OPERATORS = tuple(Q(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3/2", "2/3"))
#: torus parameters: the seed permutes them and picks signs, so every draw has
#: the same arithmetic size; none squares to one, so every twist is
#: non-involutive
TORUS = (Q(2), Q(3), Q(5), Q(7))
#: scalars of one arithmetic size, for workloads with few ops per pass
SIZED = (Q(2), Q(-2), Q(1, 2), Q(-1, 2))


@dataclass
class Op:
    """One closed-loop call into the program, with its oracle.

    ``run`` receives the op itself and returns the program's result;
    ``check`` maps that result to a boolean verdict.  ``twisted_bicrossed``
    marks the instances whose disagreement is the defect ROADMAP item 4
    records.
    """

    kind: str
    size: str
    inputs: tuple
    run: Callable[["Op"], Any]
    check: Callable[["Op", Any], bool]
    twisted_bicrossed: bool = False
    state: dict = field(default_factory=dict)


def verdict(op: Op, result: Any) -> str:
    if isinstance(result, BaseException):
        return "fail"
    if op.check(op, result):
        return "ok"
    if op.twisted_bicrossed and not result.agree:
        return "known"
    return "fail"


# -- algebras -----------------------------------------------------------------


def _algebra(dim: int, brackets: dict[tuple[int, int], list], kind: str = "lie") -> AlgebraBundle:
    """Antisymmetric bracket from its entries for i < j."""
    cells = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), out in brackets.items():
        cells[i][j] = [Q(x) for x in out]
        cells[j][i] = [-Q(x) for x in out]
    ident = Matrix.identity(dim)
    return AlgebraBundle(dim, Tensor3.from_entries(cells), ident, ident, kind=kind)


def abelian(n: int) -> AlgebraBundle:
    return _algebra(n, {})


def aff2() -> AlgebraBundle:
    return _algebra(2, {(0, 1): [0, 1]})


def sl2() -> AlgebraBundle:
    return _algebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})


def gl(n: int) -> AlgebraBundle:
    """gl(n) on the basis E_ij (index i*n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    d = n * n
    cells = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    out = cells[i * n + j][k * n + m]
                    if j == k:
                        out[i * n + m] += 1
                    if m == i:
                        out[k * n + j] -= 1
    ident = Matrix.identity(d)
    return AlgebraBundle(d, Tensor3.from_entries(cells), ident, ident, kind="lie")


def dual_plane(u: Fraction, v: Fraction) -> AlgebraBundle:
    """Two-dimensional algebra on the dual space: [f1, f2] = u f1 + v f2."""
    return _algebra(2, {(0, 1): [u, v]})


BASES: dict[str, Callable[[], AlgebraBundle]] = {
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "aff2": aff2,
    "sl2": sl2,
    "gl2": lambda: gl(2),
}


def torus(base: str, r: random.Random, offset: int = 0) -> list[Fraction]:
    """Diagonal entries of a non-involutive automorphism of a base algebra,
    from the torus parameters starting at ``offset``."""
    def draws(n: int) -> list[Fraction]:
        values = list(TORUS[offset:offset + n])
        r.shuffle(values)
        return [x if r.random() < 0.5 else -x for x in values]

    if base.startswith("abelian"):
        return draws(int(base[len("abelian"):]))
    s = draws(1)[0] ** r.choice((1, -1))
    if base == "aff2":
        return [ONE, s]
    if base == "sl2":
        return [ONE, s, 1 / s]
    if base.startswith("gl"):
        n = int(base[2:])
        t = [ONE] + draws(n - 1)
        return [t[i] / t[j] for i in range(n) for j in range(n)]
    raise ValueError(base)


def twist(a: AlgebraBundle, alpha: list[Fraction], beta: list[Fraction]) -> AlgebraBundle:
    """Yau twist by diagonal maps, computed directly: {e_i, e_j} = a_i b_j [e_i, e_j]."""
    n = a.dim
    cells = [[[alpha[i] * beta[j] * x for x in a.bracket.entries[i][j]] for j in range(n)] for i in range(n)]
    return replace(a, bracket=Tensor3.from_entries(cells), alpha=Matrix.diagonal(alpha),
                   beta=Matrix.diagonal(beta), kind="bihom-lie")


def scalar_op(a: AlgebraBundle, c: Fraction) -> AlgebraBundle:
    return replace(a, nijenhuis=Matrix.identity(a.dim).scale(c))


def with_diff(a: AlgebraBundle, d: Matrix, w: Fraction) -> AlgebraBundle:
    return replace(a, differential=Differential(d, Q(w)))


def rational(r: random.Random) -> Fraction:
    return Q(r.randint(-3, 3), r.randint(1, 3))


def nonzero_rational(r: random.Random) -> Fraction:
    while True:
        x = rational(r)
        if x:
            return x


def random_matrix(n: int, r: random.Random) -> Matrix:
    return Matrix.from_rows([[rational(r) for _ in range(n)] for _ in range(n)])


def ad_rep(a: AlgebraBundle, eta: Matrix | None = None, xi: Matrix | None = None) -> RepresentationBundle:
    """Adjoint module: rho = ad, p = alpha, q = beta."""
    n = a.dim
    rho = tuple(Matrix.from_columns([a.bracket.entries[i][k] for k in range(n)]) for i in range(n))
    return RepresentationBundle(a, n, rho, a.alpha, a.beta, eta=eta, xi=xi)


def zero_rep(a: AlgebraBundle, vdim: int, p: Matrix | None = None, eta: Matrix | None = None,
             xi: Matrix | None = None) -> RepresentationBundle:
    rho = tuple(Matrix.zeros(vdim, vdim) for _ in range(a.dim))
    ident = Matrix.identity(vdim)
    return RepresentationBundle(a, vdim, rho, p or ident, ident, eta=eta, xi=xi)


def coadjoint_pair(left: AlgebraBundle, right: AlgebraBundle) -> MatchedPairBundle:
    """Both coadjoint actions, written out from the pairing (representation sign)."""
    n = left.dim
    rho = tuple(Matrix.from_rows([[-left.bracket.entries[i][k][j] for j in range(n)] for k in range(n)])
                for i in range(n))
    h = tuple(Matrix.from_rows([[-right.bracket.entries[i][k][j] for j in range(n)] for k in range(n)])
              for i in range(n))
    return MatchedPairBundle(left, right, rho, h)


def zero_pair(left: AlgebraBundle, right: AlgebraBundle) -> MatchedPairBundle:
    rho = tuple(Matrix.zeros(right.dim, right.dim) for _ in range(left.dim))
    h = tuple(Matrix.zeros(left.dim, left.dim) for _ in range(right.dim))
    return MatchedPairBundle(left, right, rho, h)


# -- perturbations: one entry moved by a nonzero rational ---------------------------


def perturb_matrix(m: Matrix, r: random.Random) -> Matrix:
    rows = [list(row) for row in m.entries]
    rows[r.randrange(m.rows)][r.randrange(m.cols)] += nonzero_rational(r)
    return Matrix.from_rows(rows)


def perturb_bracket(a: AlgebraBundle, r: random.Random) -> AlgebraBundle:
    n = a.dim
    cells = [[list(row) for row in plane] for plane in a.bracket.entries]
    cells[r.randrange(n)][r.randrange(n)][r.randrange(n)] += nonzero_rational(r)
    return replace(a, bracket=Tensor3.from_entries(cells), kind="bihom-lie")


def perturb_algebra(a: AlgebraBundle, r: random.Random) -> AlgebraBundle:
    """Perturb the bracket or an operator, never alpha/beta."""
    targets = ["bracket"] + (["nijenhuis"] if a.nijenhuis is not None else []) + \
        (["differential"] if a.differential is not None else [])
    which = r.choice(targets)
    if which == "bracket":
        return perturb_bracket(a, r)
    if which == "nijenhuis":
        return replace(a, nijenhuis=perturb_matrix(a.nijenhuis, r), kind="bihom-lie")
    return replace(a, differential=Differential(perturb_matrix(a.differential.matrix, r), a.differential.weight))


def perturb_rep(rep: RepresentationBundle, r: random.Random, fields: list[str]) -> RepresentationBundle:
    which = r.choice(fields)
    if which == "rho":
        rho = list(rep.rho)
        i = r.randrange(len(rho))
        rho[i] = perturb_matrix(rho[i], r)
        return replace(rep, rho=tuple(rho))
    return replace(rep, **{which: perturb_matrix(getattr(rep, which), r)})


def perturb_pair(mp: MatchedPairBundle, r: random.Random, fields: list[str]) -> MatchedPairBundle:
    which = r.choice(fields)
    if which in ("rho", "h"):
        acts = list(getattr(mp, which))
        i = r.randrange(len(acts))
        acts[i] = perturb_matrix(acts[i], r)
        return replace(mp, **{which: tuple(acts)})
    if which == "left_diff":
        d = mp.left.differential
        return replace(mp, left=replace(mp.left, differential=Differential(perturb_matrix(d.matrix, r), d.weight)))
    return replace(mp, **{which: perturb_algebra(getattr(mp, which), r)})


# -- corpus ---------------------------------------------------------------------------
#
# Ten kinds, eight instances each per pass: four generated-valid and four
# perturbed.  Each of the four has a fixed shape (base algebra, module or
# pair type) so a pass costs the same for every seed; the seed picks the
# values.  For the six Nijenhuis/bihom-flavour kinds the first shape is
# twisted by two distinct commuting non-involutive diagonal automorphisms
# (the shape of the ROADMAP item 4 reproducer), so a quarter of their
# instances, valid and perturbed, are twisted.

BIHOM_KINDS = ("dual_algebra", "dual_nijenhuis", "dual_rep", "semidirect", "bicrossed", "triad_nijenhuis_bihom")
DIFF_KINDS = ("dual_differential", "semidirect_diff", "bicrossed_diff", "triad_differential")

#: (u, v) brackets of the dual plane and (N, S) scalars whose coadjoint pairs
#: with aff2 are valid matched pairs and valid Nijenhuis triads
PLANE_BRACKETS = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "-1"), ("2", "1/2"), ("-1", "1/3"))
PLANE_OPERATORS = (("0", "0"), ("1", "1"), ("2", "1/2"), ("-3/2", "1"), ("1", "0"))
#: the base algebra of each of the four shapes; shape 0 is twisted
ALGEBRA_SHAPES = {
    "dual_algebra": ("sl2", "abelian1", "aff2", "gl2"),
    "dual_nijenhuis": ("aff2", "sl2", "abelian3", "gl2"),
    "dual_rep": ("aff2", "sl2", "abelian2", "gl2"),
    "semidirect": ("sl2", "aff2", "abelian3", "gl2"),
}


def _twisted_base(r: random.Random, name: str) -> tuple[AlgebraBundle, list, list]:
    """A base algebra and two commuting torus automorphisms drawn from
    different parameters, so that alpha beta^-1 is not an involution either
    (when it is, alpha^-1 beta = alpha beta^-1 and the twisted formulas of
    every construction coincide)."""
    return BASES[name](), torus(name, r), torus(name, r, offset=1)


def _diagonal(n: int, r: random.Random, nonzero: bool) -> Matrix:
    return Matrix.diagonal([nonzero_rational(r) if nonzero else rational(r) for _ in range(n)])


def _bihom_instance(kind: str, shape: int, r: random.Random) -> dict[str, Any]:
    """A generated-valid instance of a Nijenhuis/bihom-flavour kind."""
    c = r.choice(OPERATORS)
    if kind in ALGEBRA_SHAPES:
        name = ALGEBRA_SHAPES[kind][shape]
        if shape == 0:
            base, alpha, beta = _twisted_base(r, name)
            alg = twist(scalar_op(base, c), alpha, beta)
        else:
            alg = scalar_op(BASES[name](), c)
        if kind == "dual_algebra":
            return {"algebra": replace(alg, nijenhuis=None)}
        if kind == "dual_nijenhuis":
            return {"algebra": alg}
        if kind == "dual_rep":
            if shape == 2:
                return {"rep": zero_rep(alg, 3, p=_diagonal(3, r, True))}
            return {"rep": ad_rep(alg)}
        if shape == 2:
            return {"algebra": alg, "rep": zero_rep(alg, 2, p=_diagonal(2, r, True), eta=_diagonal(2, r, False))}
        return {"algebra": alg, "rep": ad_rep(alg, eta=Matrix.identity(alg.dim).scale(c))}
    if kind == "bicrossed":
        if shape == 0:
            # the reproducer: twisted L, abelian V with p = alpha, q = beta,
            # rho = ad, h = 0, scalar operators on both sides
            base, alpha, beta = _twisted_base(r, "sl2")
            left = twist(scalar_op(base, c), alpha, beta)
            right = replace(scalar_op(abelian(left.dim), c), alpha=left.alpha, beta=left.beta, kind="bihom-lie")
            zero = tuple(Matrix.zeros(left.dim, left.dim) for _ in range(left.dim))
            return {"mp": MatchedPairBundle(left, right, ad_rep(left).rho, zero)}
        if shape < 3:
            (u, v), (n_op, s_op) = r.choice(PLANE_BRACKETS), r.choice(PLANE_OPERATORS)
            return {"mp": coadjoint_pair(scalar_op(aff2(), Q(n_op)), scalar_op(dual_plane(Q(u), Q(v)), Q(s_op)))}
        return {"mp": zero_pair(scalar_op(sl2(), c), scalar_op(aff2(), c))}
    if kind == "triad_nijenhuis_bihom":
        if shape == 0:
            base, alpha, beta = _twisted_base(r, "aff2")
            return {"left": twist(scalar_op(base, c), alpha, beta),
                    "right": twist(scalar_op(abelian(2), r.choice(OPERATORS)), alpha, beta)}
        if shape == 2:
            (u, v), (n_op, s_op) = r.choice(PLANE_BRACKETS[1:]), r.choice((("1", "1"), ("-2", "1/3")))
            return {"left": scalar_op(aff2(), Q(n_op)), "right": scalar_op(dual_plane(Q(u), Q(v)), Q(s_op))}
        return {"left": scalar_op(aff2(), c), "right": scalar_op(abelian(2), r.choice(OPERATORS))}
    raise ValueError(kind)


def _aff2_derivation(r: random.Random) -> Matrix:
    """The general derivation of aff2: first column free in the e2 slot."""
    return Matrix.from_rows([[0, 0], [nonzero_rational(r), nonzero_rational(r)]])


def _diff_instance(kind: str, shape: int, r: random.Random) -> dict[str, Any]:
    """A generated-valid instance of a differential kind (identity maps)."""
    w = nonzero_rational(r)
    if kind in ("dual_differential", "semidirect_diff"):
        if shape == 0:
            alg = with_diff(aff2(), _aff2_derivation(r), ZERO)
        elif shape == 3:
            alg = with_diff(sl2(), Matrix.zeros(3, 3), w)
        else:
            alg = with_diff(abelian(shape + 1), random_matrix(shape + 1, r), w)
        if kind == "dual_differential":
            return {"algebra": alg}
        if shape == 0:
            return {"algebra": alg, "rep": ad_rep(alg, xi=alg.differential.matrix)}
        return {"algebra": alg, "rep": zero_rep(alg, 2, xi=random_matrix(2, r))}
    if kind == "bicrossed_diff":
        if shape < 2:
            left = with_diff(aff2(), Matrix.zeros(2, 2), w)
            return {"mp": coadjoint_pair(left, with_diff(abelian(2), Matrix.identity(2).scale(r.choice(OPERATORS)), w))}
        n = shape
        return {"mp": zero_pair(with_diff(abelian(n), random_matrix(n, r), w),
                                with_diff(abelian(n), random_matrix(n, r), w))}
    if kind == "triad_differential":
        if shape < 2:
            return {"left": with_diff(aff2(), Matrix.zeros(2, 2), w),
                    "right": with_diff(abelian(2), Matrix.identity(2).scale(r.choice(OPERATORS)), w)}
        if shape == 2:
            u, v = r.choice((("0", "1"), ("1", "-1")))
            return {"left": with_diff(aff2(), Matrix.zeros(2, 2), w),
                    "right": with_diff(dual_plane(Q(u), Q(v)), Matrix.zeros(2, 2), w)}
        return {"left": with_diff(abelian(2), random_matrix(2, r), w),
                "right": with_diff(abelian(2), random_matrix(2, r), w)}
    raise ValueError(kind)


def _perturb(kind: str, data: dict[str, Any], r: random.Random, twisted: bool) -> dict[str, Any]:
    if "mp" in data and twisted:
        # a bracket entry of either factor: both sides then fail
        side = r.choice(("left", "right"))
        return {"mp": replace(data["mp"], **{side: perturb_bracket(getattr(data["mp"], side), r)})}
    if "mp" in data:
        fields = ["rho", "h", "left", "right"] if kind == "bicrossed" else ["rho", "h", "left_diff"]
        return {**data, "mp": perturb_pair(data["mp"], r, fields)}
    if "rep" in data:
        rep = data["rep"]
        if kind == "dual_rep":
            fields = ["rho", "p"]
        elif kind == "semidirect":
            fields = ["rho", "eta", "p"]
        else:
            fields = ["rho", "xi"]
        return {**data, "rep": perturb_rep(rep, r, fields)}
    if "left" in data:
        side = r.choice(("left", "right"))
        return {**data, side: perturb_algebra(data[side], r)}
    return {"algebra": perturb_algebra(data["algebra"], r)}


def _dimension(data: dict[str, Any]) -> int:
    """Dimension of the space an instance lives on (a product: both factors)."""
    if "mp" in data:
        return data["mp"].left.dim + data["mp"].right.dim
    if "rep" in data:
        return data["rep"].algebra.dim + data["rep"].vdim
    if "left" in data:
        return 2 * data["left"].dim
    return data["algebra"].dim


def _hypothesis_unmet(res: Any) -> bool:
    notes = res.notes if hasattr(res, "notes") else res.first_report.notes + res.second_report.notes
    return any(note.startswith("hypothesis not met") for note in notes)


def _harness_op(kind: str, data: dict[str, Any], valid: bool, twisted: bool) -> Op:
    size = f"dim{_dimension(data)}"
    if kind.startswith("triad"):
        def run(op):
            fn = equivalence.triad_nijenhuis_bihom if op.kind == "triad_nijenhuis_bihom" else equivalence.triad_differential
            return fn(**op.state["data"])
    else:
        def run(op):
            return equivalence.iff_harness(op.kind, **op.state["data"])

    def check(op, res):
        # a theorem whose hypothesis fails (involutivity) claims nothing: the
        # harness must then say so in a note, and may disagree
        if _hypothesis_unmet(res):
            return True
        if not res.agree:
            return False
        if not valid:
            return True
        return res.all_ok if kind.startswith("triad") else (res.first_ok and res.second_ok)

    op = Op(kind, size, tuple(sorted(data.items())), run, check,
            twisted_bicrossed=twisted and kind == "bicrossed")
    op.state["data"] = data
    return op


def corpus_ops(r: random.Random, smoke: bool) -> list[Op]:
    ops = []
    for kind in BIHOM_KINDS + DIFF_KINDS:
        for shape in range(2 if smoke else 4):
            twisted = kind in BIHOM_KINDS and shape == 0
            data = _bihom_instance(kind, shape, r) if kind in BIHOM_KINDS else _diff_instance(kind, shape, r)
            ops.append(_harness_op(kind, data, True, twisted))
            ops.append(_harness_op(kind, _perturb(kind, data, r, twisted), False, twisted))
    return ops


# -- ladder -------------------------------------------------------------------------
#
# One op is a full algebra suite, a twist/untwist roundtrip or a dual_algebra
# iff, on sl2 and gl(n) and their torus twists E_ij -> (t_i/t_j) E_ij, each with
# a seeded scalar Nijenhuis operator.

#: (algebra, op kind, twisted, count per pass).  The counts put the median op
#: in the middle of the gl(2) suites and the 90th percentile among the gl(3)
#: ops, away from the jumps in cost between sizes.  gl(4) enters through its
#: twist roundtrip only: its full suite is one call of several seconds, longer
#: than the machine's speed stays put (bench/README.md, "Reference time").
LADDER = (
    ("sl2", "suite", False, 4), ("sl2", "suite", True, 3), ("sl2", "roundtrip", True, 3), ("sl2", "dual", False, 1),
    ("sl2", "dual", True, 2),
    ("gl2", "suite", False, 4), ("gl2", "suite", True, 4), ("gl2", "roundtrip", True, 2), ("gl2", "dual", False, 2),
    ("gl2", "dual", True, 2),
    ("gl3", "suite", False, 4), ("gl3", "suite", True, 4), ("gl3", "roundtrip", True, 2), ("gl3", "dual", True, 1),
    ("gl4", "roundtrip", True, 1),
)
LADDER_SMOKE = (("sl2", "suite", True, 1), ("sl2", "roundtrip", True, 1), ("sl2", "dual", True, 1),
                ("gl2", "suite", False, 1))


def _ladder_base(name: str) -> AlgebraBundle:
    return sl2() if name == "sl2" else gl(int(name[2:]))


def _ladder_op(name: str, what: str, twisted: bool, r: random.Random) -> Op:
    base = scalar_op(_ladder_base(name), r.choice(SIZED))
    alpha, beta = torus(name, r), torus(name, r, offset=1)
    size = f"{name}{'-twisted' if twisted else ''}"
    alg = twist(base, alpha, beta) if twisted else base
    if what == "suite":
        op = Op("suite", size, (alg,), lambda op: checks.full_algebra_suite(op.state["alg"]),
                lambda op, rep: rep.ok)
    elif what == "dual":
        alg = replace(alg, nijenhuis=None)
        op = Op("dual", size, (alg,), lambda op: equivalence.iff_harness("dual_algebra", algebra=op.state["alg"]),
                lambda op, res: res.agree and res.first_ok and res.second_ok)
    else:
        def run(op):
            twisted_alg, hyp = constructions.yau_twist(op.state["base"], Matrix.diagonal(op.state["alpha"]),
                                                       Matrix.diagonal(op.state["beta"]))
            return twisted_alg, hyp, constructions.untwist(twisted_alg)

        def check(op, res):
            twisted_alg, hyp, back = res
            return hyp.ok and twisted_alg == op.state["alg"] and back == op.state["base"]

        op = Op("roundtrip", size, (base, tuple(alpha), tuple(beta)), run, check)
        op.state.update(base=base, alpha=alpha, beta=beta)
    op.state["alg"] = alg
    return op


def ladder_ops(r: random.Random, smoke: bool) -> list[Op]:
    return [_ladder_op(name, what, twisted, r)
            for name, what, twisted, count in (LADDER_SMOKE if smoke else LADDER) for _ in range(count)]


# -- solve ---------------------------------------------------------------------------
#
# One op is one solve_linear_identity call.  Oracles: every basis matrix (and
# particular + basis matrix, for inhomogeneous kinds) re-verifies through the
# matching checker; gl(n) derivation spaces have dimension n^2.


def _derivation_op(alg: AlgebraBundle, size: str, expected_dim: int | None) -> Op:
    def check(op, sol):
        if expected_dim is not None and sol.dimension != expected_dim:
            return False
        base = replace(alg, differential=None)
        return not sol.is_empty and all(
            checks.check_diff_leibniz(base, m, ZERO).ok for m in sol.basis_matrices())

    return Op("derivation", size, (alg,), lambda op: search.solve_linear_identity("derivation", algebra=alg), check)


def _affine_members(sol) -> list[Matrix]:
    """The particular solution and particular + each basis vector."""
    if sol.is_empty:
        return []
    zero = tuple(ZERO for _ in sol.basis)
    out = [sol.sample(zero)]
    for i in range(len(sol.basis)):
        out.append(sol.sample(tuple(ONE if j == i else ZERO for j in range(len(sol.basis)))))
    return out


def _diff_algebra(n: int, r: random.Random, abelian_base: bool) -> AlgebraBundle:
    """A differential algebra of dimension n: abelian with any map and weight,
    or aff2 (+ abelian summand) with a derivation of weight zero.  Both make
    the pi and zeta systems consistent (-d solves them on the second)."""
    if not abelian_base:
        cells = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        cells[0][1][1], cells[1][0][1] = ONE, -ONE
        d = [[ZERO] * n for _ in range(n)]
        d[1][0], d[1][1] = r.choice(SIZED), r.choice(SIZED)
        for k in range(2, n):
            d[k][k] = r.choice(SIZED)
        alg = AlgebraBundle(n, Tensor3.from_entries(cells), Matrix.identity(n), Matrix.identity(n), kind="lie")
        return with_diff(alg, Matrix.from_rows(d), ZERO)
    d = Matrix.from_rows([[r.choice(SIZED) for _ in range(n)] for _ in range(n)])
    return with_diff(abelian(n), d, r.choice(SIZED))


def _pi_op(n: int, r: random.Random, abelian_base: bool = False) -> Op:
    alg = _diff_algebra(n, r, abelian_base)
    w = alg.differential.weight

    def check(op, sol):
        members = _affine_members(sol)
        return bool(members) and all(checks.check_diff_pi(alg, m, w).ok for m in members)

    return Op("pi", f"dim{n}", (alg,), lambda op: search.solve_linear_identity("pi", w, algebra=alg), check)


def _zeta_op(n: int, r: random.Random, abelian_base: bool = False) -> Op:
    alg = _diff_algebra(n, r, abelian_base)
    rep = ad_rep(alg)
    w = alg.differential.weight

    def check(op, sol):
        members = _affine_members(sol)
        return bool(members) and all(checks.check_diff_zeta(rep, m, w).ok for m in members)

    return Op("zeta", f"dim{n}", (rep,), lambda op: search.solve_linear_identity("zeta", w, rep=rep), check)


def _conijenhuis_op(name: str, r: random.Random) -> Op:
    """Dualized operator algebra: the comultiplication of the dual of a base
    algebra with a scalar operator, solved for the coalgebra-side operator."""
    c = r.choice(SIZED)
    alg = scalar_op(BASES[name](), c)
    n = alg.dim
    comul = Tensor3.from_entries([[[alg.bracket.entries[i][j][k] for j in range(n)] for i in range(n)]
                                  for k in range(n)])
    nmap = Matrix.identity(n).scale(c)

    def check(op, sol):
        members = _affine_members(sol)
        return bool(members) and all(checks.check_dual_admissible(comul, nmap, m).ok for m in members)

    return Op("conijenhuis", name, (comul, nmap),
              lambda op: search.solve_linear_identity("conijenhuis", comul=comul, nmap=nmap), check)


def solve_ops(r: random.Random, smoke: bool) -> list[Op]:
    if smoke:
        return [_derivation_op(sl2(), "sl2", None), _pi_op(2, r), _zeta_op(2, r), _conijenhuis_op("aff2", r)]
    ops = [_derivation_op(gl(3), "gl3", 9)]
    for _ in range(2):
        ops.append(_derivation_op(sl2(), "sl2", 3))
        ops.append(_derivation_op(gl(2), "gl2", 4))
        ops.append(_derivation_op(twist(gl(2), torus("gl2", r), torus("gl2", r, offset=1)), "gl2-twisted", None))
    for n in range(2, 10):
        ops.append(_derivation_op(abelian(n), f"abelian{n}", n * n))
    for n in (2, 3, 4, 5, 6):
        ops.append(_pi_op(n, r))
        ops.append(_zeta_op(n, r))
    ops.append(_pi_op(4, r, abelian_base=True))
    ops.append(_zeta_op(4, r, abelian_base=True))
    for name in ("aff2", "sl2", "gl2", "gl2"):
        ops.append(_conijenhuis_op(name, r))
    return ops


# -- cli -----------------------------------------------------------------------------
#
# One op is one ``python -m bihomlie.cli`` process, run to completion before the
# next starts.  Set-up writes the bundle files; every op writes --out.


def double6(left: AlgebraBundle, s: Fraction) -> AlgebraBundle:
    """L + L* for an algebra L with operator c.id against the abelian dual
    with operator s.id: [x, f] is the coadjoint action, [f, g] = 0."""
    n, c = left.dim, left.bracket.entries
    cells = [[[ZERO] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            cells[i][j][:n] = c[i][j]
            for k in range(n):
                cells[i][n + j][n + k] = -c[i][k][j]
                cells[n + j][i][n + k] = c[i][k][j]
    ident = Matrix.identity(2 * n)
    op = Matrix.diagonal([left.nijenhuis.entries[0][0]] * n + [s] * n)
    return AlgebraBundle(2 * n, Tensor3.from_entries(cells), ident, ident, nijenhuis=op, kind="lie")


def cli_files(r: random.Random, workdir: str) -> dict[str, tuple[str, bool]]:
    """Write the bundle files; returns name -> (path, generated-valid)."""
    left, right = scalar_op(sl2(), r.choice(OPERATORS)), scalar_op(abelian(3), r.choice(OPERATORS))
    left2, right2 = scalar_op(sl2(), r.choice(OPERATORS)), scalar_op(abelian(3), r.choice(OPERATORS))
    gl3 = scalar_op(gl(3), r.choice(OPERATORS))
    (u, v), (n_op, s_op) = r.choice(PLANE_BRACKETS), r.choice(PLANE_OPERATORS)
    c = r.choice(OPERATORS)
    pair3 = zero_pair(scalar_op(sl2(), c), scalar_op(abelian(3), c))
    files = {
        "gl3": (gl3, True),
        "gl3_twisted": (twist(gl3, torus("gl3", r), torus("gl3", r, offset=1)), True),
        "gl3_broken": (perturb_bracket(gl3, r), False),
        "left": (left, True),
        "right": (right, True),
        "left_broken": (perturb_bracket(left, r), False),
        "left2": (left2, True),
        "right2": (right2, True),
        "double6": (double6(left, right.nijenhuis.entries[0][0]), True),
        "pair": (coadjoint_pair(scalar_op(aff2(), Q(n_op)), scalar_op(dual_plane(Q(u), Q(v)), Q(s_op))), True),
        "pair_broken": (replace(pair3, left=perturb_bracket(pair3.left, r)), False),
    }
    out = {}
    for name, (bundle, valid) in files.items():
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bundles.dumps(bundle))
        out[name] = (path, valid)
    alpha = torus("sl2", r)
    maps = os.path.join(workdir, "maps.json")
    with open(maps, "w", encoding="utf-8") as fh:
        json.dump({"alpha": [[str(alpha[i]) if i == j else "0" for j in range(3)] for i in range(3)],
                   "beta": [[str(alpha[i] ** 2) if i == j else "0" for j in range(3)] for i in range(3)]}, fh)
    out["maps"] = (maps, True)
    return out


def _cli_plan(files: dict[str, tuple[str, bool]], smoke: bool) -> list[tuple[str, list[str], int, int | None]]:
    """(kind, argv without --out, expected exit code, expected search dimension).

    A check exits 1 exactly on the files with a perturbed bracket entry: with
    diagonal structure maps that always breaks twisted antisymmetry."""
    f = {name: path for name, (path, _) in files.items()}
    code = {name: 0 if valid else 1 for name, (_, valid) in files.items()}
    if smoke:
        return [("check", ["check", f["left"], "--suite", "nijenhuis"], 0, None),
                ("triad", ["triad", f["left"], f["right"]], 0, None)]
    plan = [("check", ["check", f[name], "--suite", "lie"], code[name], None) for name in ("gl3_twisted", "gl3_broken")]
    plan += [("check", ["check", f[name], "--suite", "nijenhuis"], code[name], None)
             for name in ("left", "left2", "right", "left_broken", "double6")]
    plan += [("check", ["check", f[name]], code[name], None) for name in ("pair", "pair_broken")]
    plan += [("construct", ["construct", "dual", f[name]], 0, None) for name in ("gl3", "double6", "left", "right2")]
    plan += [("construct", ["construct", "twist", f[name], "--maps", f["maps"]], 0, None) for name in ("left", "left2")]
    plan += [("construct", ["construct", "double", f[a], f[b], "--flavor", "nijenhuis"], 0, None)
             for a, b in (("left", "right"), ("left2", "right2"))]
    plan += [("triad", ["triad", f[a], f["right"], "--flavor", "nijenhuis"], code[a], None)
             for a in ("left", "left_broken")]
    plan += [("search", ["search", f[name], "--mode", "derivations"], 0, dim)
             for name, dim in (("left", 3), ("left2", 3), ("right", 9), ("double6", None))]
    return plan


def cli_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliResult:
    code: int
    written: dict[str, bytes]
    stderr: bytes
    wall: float


def cli_ops(r: random.Random, smoke: bool, workdir: str, root: str) -> list[Op]:
    files = cli_files(r, workdir)
    env = cli_env(root)
    ops = []
    for idx, (kind, argv, expected, dim) in enumerate(_cli_plan(files, smoke)):
        out = os.path.join(workdir, f"out{idx}.json")

        def run(op, argv=argv, out=out):
            child_trace = op.state.get("child_trace")
            if child_trace:
                cmd = [sys.executable, os.path.join(root, "bench", "cli_child.py"), child_trace, *argv, "--out", out]
            else:
                cmd = [sys.executable, "-m", "bihomlie.cli", *argv, "--out", out]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            wall = time.perf_counter() - t0
            written = {}
            for path in (out, out + ".report.json", out + ".form.json"):
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        written[os.path.basename(path)] = fh.read()
                    os.remove(path)
            return CliResult(proc.returncode, written, proc.stderr, wall)

        def check(op, res, expected=expected, dim=dim, out=out):
            if res.code != expected or not res.written or res.stderr:
                return False
            # every repeat of one argv writes the same bytes
            if op.state.setdefault("first_bytes", res.written) != res.written:
                return False
            if dim is not None:
                return json.loads(res.written[os.path.basename(out)])["dimension"] == dim
            return True

        inputs = tuple(os.path.basename(a) for a in argv)
        ops.append(Op(kind, argv[1] if kind == "construct" else kind, inputs, run, check))
    return ops


# -- entry points ------------------------------------------------------------------------


def build(workload: str, seed: int, smoke: bool, workdir: str, root: str) -> list[Op]:
    """The workload's op list for a seed, shuffled by the same seed."""
    r = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        ops = corpus_ops(r, smoke)
    elif workload == "ladder":
        ops = ladder_ops(r, smoke)
    elif workload == "solve":
        ops = solve_ops(r, smoke)
    elif workload == "cli":
        ops = cli_ops(r, smoke, workdir, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    r.shuffle(ops)
    return ops


def warm_up(workload: str, root: str) -> None:
    """A fixed, seed-independent first call into each layer the workload uses."""
    if workload == "cli":
        subprocess.run([sys.executable, "-m", "bihomlie.cli", "check", "fixture:sl2"], env=cli_env(root),
                       cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return
    checks.full_algebra_suite(scalar_op(sl2(), ONE))
    equivalence.iff_harness("dual_algebra", algebra=aff2())
    search.solve_linear_identity("derivation", algebra=aff2())


def serialized_inputs(workload: str, seed: int, smoke: bool, workdir: str, root: str) -> bytes:
    """Canonical bytes of every input the program receives, in op order, plus
    the files set-up wrote."""
    ops = build(workload, seed, smoke, workdir, root)
    parts = [f"{op.kind} {op.size} {op.inputs!r}".encode() for op in ops]
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            parts.append(name.encode() + b"\n" + fh.read())
    return b"\n".join(parts)
