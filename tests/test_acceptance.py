"""Acceptance gate: one test per criterion, exact tolerances (zero) throughout.

Each test prints one PASS line when its criterion holds; any failure is a
plain assertion failure naming the instance.
"""

import dataclasses
import json

import naive
import support
from bihomlie import bundles, checks, search
from bihomlie.bundles import Differential
from bihomlie.cli import main as cli_main
from bihomlie.constructions import coadjoint_double, untwist, yau_twist
from bihomlie.equivalence import double_adjoint_report, iff_harness, triad_differential, triad_nijenhuis_bihom
from bihomlie.exact import Matrix, scalar


def test_criterion_1_golden_fixture_exact():
    """Parametric two-dimensional fixture: all four admissible parameter pairs
    pass both the bracket axioms and the operator identity with zero residuals."""
    from fractions import Fraction

    for m, n in ((2, 3), (3, 5), (-1, 2), (Fraction(1, 2), Fraction(1, 3))):
        b = bundles.bihom2(m, n)
        lie = checks.check_bihom_lie(b)
        nij = checks.check_nijenhuis_operator(b)
        assert lie.ok and nij.ok, f"(m, n) = ({m}, {n})"
        for e in lie.entries + nij.entries:
            assert e.residual.is_zero
    print("ACCEPT-1 PASS: golden fixture exact at all four parameter pairs")


#: one fixed seed per duality kind (string hashes vary between processes)
DUALITY_SEEDS = {"dual_algebra": 901, "dual_nijenhuis": 902, "dual_differential": 903, "dual_rep": 904}


def _duality_corpus(kind):
    r = support.rng(DUALITY_SEEDS[kind])
    if kind == "dual_rep":
        base = [support.adjoint_rep(bundles.aff2()), support.adjoint_rep(bundles.sl2()),
                support.adjoint_rep(bundles.abelian(3)),
                support.zero_rep(bundles.aff2(), 2, p=Matrix.diagonal([1, -1]), q=Matrix.diagonal([-1, -1]))]
        out = []
        while len(out) < 200:
            rep = base[r.randrange(len(base))]
            which = r.random()
            if which < 0.4:
                idx = r.randrange(len(rep.rho))
                rho = list(rep.rho)
                rho[idx] = support.perturb_matrix(rho[idx], r)
                out.append(dataclasses.replace(rep, rho=tuple(rho)))
            elif which < 0.7:
                out.append(dataclasses.replace(rep, p=support.perturb_matrix(rep.p, r)))
            else:
                out.append(rep)
        return [("rep", x) for x in out]
    if kind == "dual_differential":
        base = []
        for w in ("0", "1", "-2", "1/2", "3"):
            base.append(support.with_diff(bundles.aff2(), Matrix.zeros(2, 2), w))
            base.append(support.with_diff(bundles.abelian(3), Matrix.from_rows(
                [[support.rational(r) for _ in range(3)] for _ in range(3)]), w))
            base.append(support.with_diff(bundles.sl2(), Matrix.zeros(3, 3), w))
    elif kind == "dual_nijenhuis":
        base = [bundles.bihom2(2, 3), support.scalar_op(bundles.aff2(), 2),
                support.scalar_op(bundles.sl2(), "1/2"), support.scalar_op(bundles.abelian(3), "-3")]
    else:
        base = [bundles.aff2(), bundles.sl2(), bundles.abelian(2), bundles.abelian(3), bundles.bihom2(2, 3)]
    out = []
    while len(out) < 200:
        b = base[r.randrange(len(base))]
        out.append(support.perturb_algebra(b, r) if r.random() < 0.75 else b)
    return [("algebra", x) for x in out]


def test_criterion_2_duality_iff_suites():
    """Both sides of every duality equivalence report identical verdicts over
    the fixture catalog plus 200 random perturbations each."""
    for kind in ("dual_algebra", "dual_nijenhuis", "dual_differential", "dual_rep"):
        disagreements = passing = failing = 0
        for label, data in _duality_corpus(kind):
            rep = iff_harness(kind, **{label: data})
            disagreements += not rep.agree
            passing += rep.first_ok
            failing += not rep.first_ok
        assert disagreements == 0, f"{kind}: {disagreements} disagreements"
        assert passing >= 1 and failing >= 1, f"{kind}: corpus must include both verdicts"
    print("ACCEPT-2 PASS: zero disagreements across all four duality suites")


def test_criterion_3_twist_soundness_and_roundtrip():
    """Twisted fixtures pass the full twisted-bracket suite; untwist undoes the
    twist exactly on the structure constants for 20+ commuting pairs."""
    def sl2_auto(s):
        s = scalar(s)
        return Matrix.diagonal([1, s, 1 / s])

    def aff2_auto(v):
        return Matrix.diagonal([1, scalar(v)])

    pairs = []
    for s in ("2", "3", "1/2", "-1", "5", "-2/3", "7", "1/7"):
        for t in ("3", "1/5"):
            pairs.append((bundles.sl2(), sl2_auto(s), sl2_auto(t)))
    for v in ("2", "-3"):
        for w in ("5", "1/2"):
            pairs.append((bundles.aff2(), aff2_auto(v), aff2_auto(w)))
    assert len(pairs) >= 20
    for base, alpha, beta in pairs:
        twisted, hyp = yau_twist(base, alpha, beta)
        assert hyp.ok
        assert checks.check_bihom_lie(twisted).ok
        assert untwist(twisted) == base
    print(f"ACCEPT-3 PASS: twist soundness and exact roundtrip on {len(pairs)} pairs")


def _run_iff_corpus(kind, valid, broken, payload):
    passing = 0
    failing = 0
    for inst in valid:
        rep = iff_harness(kind, **payload(inst))
        assert rep.agree, f"{kind} disagreement on a valid instance"
        passing += rep.first_ok
    for inst in broken:
        rep = iff_harness(kind, **payload(inst))
        assert rep.agree, f"{kind} disagreement on a broken instance"
        failing += not rep.first_ok
    assert passing >= 50, f"{kind}: only {passing} genuinely passing instances"
    assert failing >= 50, f"{kind}: only {failing} genuinely failing instances"
    return passing, failing


def test_criterion_4_semidirect_and_bicrossed_iffs():
    """Verdict equality on 50+ passing and 50+ deliberately broken instances
    for each of the four product constructions."""
    counts = {}
    counts["semidirect"] = _run_iff_corpus(
        "semidirect", support.semidirect_valid(55), support.semidirect_broken(75),
        lambda inst: {"algebra": inst[0], "rep": inst[1]})
    counts["semidirect_diff"] = _run_iff_corpus(
        "semidirect_diff", support.semidirect_diff_valid(55), support.semidirect_diff_broken(75),
        lambda inst: {"algebra": inst[0], "rep": inst[1]})
    counts["bicrossed"] = _run_iff_corpus(
        "bicrossed", support.bicrossed_valid(55), support.bicrossed_broken(80),
        lambda mp: {"mp": mp})
    counts["bicrossed_diff"] = _run_iff_corpus(
        "bicrossed_diff", support.bicrossed_diff_valid(55), support.bicrossed_diff_broken(80),
        lambda mp: {"mp": mp})
    print(f"ACCEPT-4 PASS: product equivalences agree; counts {counts}")


def test_criterion_5_triad_agreement(tmp_path):
    """Three-way agreement over the coadjoint family and its perturbations,
    with at least one all-true and one all-false instance per triad; the
    disagreement exit code never occurs."""
    r = support.rng(55)
    stats = {}
    cli_checked = 0
    for flavor, family, run in (
        ("nijenhuis", support.nijenhuis_triad_family(), triad_nijenhuis_bihom),
        ("differential", support.differential_triad_family(), triad_differential),
    ):
        seen_true = seen_false = 0
        instances = []
        for left, right in family:
            instances.append((left, right))
            for _ in range(4):
                instances.append((support.perturb_algebra(left, r), right))
                instances.append((left, support.perturb_algebra(right, r)))
        for idx, (left, right) in enumerate(instances):
            t = run(left, right)
            assert t.agree, f"{flavor} triad disagreement"
            seen_true += t.all_ok
            seen_false += not t.all_ok
            if idx % 10 == 0:
                lp, rp = tmp_path / f"{flavor}{idx}l.json", tmp_path / f"{flavor}{idx}r.json"
                lp.write_text(bundles.dumps(left), encoding="utf-8")
                rp.write_text(bundles.dumps(right), encoding="utf-8")
                code = cli_main(["triad", str(lp), str(rp), "--flavor", flavor])
                assert code in (0, 1), f"triad CLI exit {code}"
                assert code == (0 if t.all_ok else 1)
                cli_checked += 1
        assert seen_true >= 1 and seen_false >= 1
        stats[flavor] = (len(instances), seen_true, seen_false)
    print(f"ACCEPT-5 PASS: triads agree everywhere; instances (total, true, false) {stats}; {cli_checked} CLI runs, exit 3 never seen")


def test_criterion_6_double_adjoint_block_identity():
    """On every valid operator double in the corpus the form-adjoint of the
    combined operator equals the swapped block operator, and both factor
    admissibility conditions hold."""
    valid_doubles = 0
    for left, right in support.nijenhuis_triad_family():
        t = triad_nijenhuis_bihom(left, right)
        if not t.all_ok:
            continue
        dbl = coadjoint_double(left, right, "nijenhuis")
        rep = double_adjoint_report(dbl)
        assert rep.ok, "block adjoint identity failed on a valid double"
        valid_doubles += 1
    assert valid_doubles >= 5
    print(f"ACCEPT-6 PASS: block adjoint identity on {valid_doubles} valid doubles")


def test_criterion_7_linear_solver_oracles():
    """Derivation-space dimensions match an independent elimination; every
    solver output re-verifies through the corresponding checker."""
    expected = {"abelian(2)": 4, "abelian(3)": 9, "aff2": 2, "sl2": 3}
    fixtures = {"abelian(2)": bundles.abelian(2), "abelian(3)": bundles.abelian(3),
                "aff2": bundles.aff2(), "sl2": bundles.sl2()}
    for name, fixture in fixtures.items():
        sol = search.solve_linear_identity("derivation", algebra=fixture)
        rows = naive.derivation_rows(naive.as_cells(fixture.bracket))
        independent = naive.gauss_nullity(rows, fixture.dim ** 2)
        assert sol.dimension == expected[name] == independent, name
        base = support.with_diff(fixture, Matrix.zeros(fixture.dim, fixture.dim), 0)
        for m in sol.basis_matrices():
            assert checks.check_diff_leibniz(dataclasses.replace(base, differential=Differential(m, scalar(0)))).ok
    b = bundles.bihom2(2, 3)
    grid = [scalar(x) for x in ("1", "0", "-3/2", "2")]
    for m in search.grid_search_nijenhuis(b, grid):
        assert checks.check_nijenhuis_operator(dataclasses.replace(b, nijenhuis=m)).ok
    print("ACCEPT-7 PASS: solver dimensions match the independent elimination and outputs re-verify")


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical reports across repeated runs."""
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(bundles.dumps(support.scalar_op(bundles.aff2(), 1)), encoding="utf-8")
    right.write_text(bundles.dumps(support.scalar_op(bundles.abelian(2), 1)), encoding="utf-8")
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps({"alpha": [["1", "0"], ["0", "2"]]}), encoding="utf-8")
    plain = tmp_path / "plain.json"
    plain.write_text(bundles.dumps(bundles.aff2()), encoding="utf-8")
    commands = [
        ["check", str(left), "--suite", "nijenhuis"],
        ["check", "fixture:bihom2(2,3)", "--suite", "auto"],
        ["construct", "dual", str(left)],
        ["construct", "twist", str(plain), "--maps", str(maps)],
        ["construct", "double", str(left), str(right), "--flavor", "nijenhuis"],
        ["triad", str(left), str(right), "--flavor", "nijenhuis"],
        ["search", str(plain), "--mode", "derivations"],
        ["search", str(plain), "--mode", "nijenhuis-grid", "--grid", "0,1,-1"],
    ]
    for idx, argv in enumerate(commands):
        a = tmp_path / f"run_a_{idx}.json"
        b = tmp_path / f"run_b_{idx}.json"
        code_a = cli_main(argv + ["--out", str(a)])
        code_b = cli_main(argv + ["--out", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes(), f"nondeterministic output for {argv}"
    print(f"ACCEPT-8 PASS: byte-identical reports across repeated runs for {len(commands)} commands")
