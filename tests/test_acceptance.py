"""Acceptance gate: ten end-to-end checks, one test (and one result line) each.

Everything here runs with exact rational arithmetic; every assertion is an
equality or a set membership, never a tolerance.
"""

import io
import json
import pathlib
import sys

from fractions import Fraction

from leibnizalg import cli
from leibnizalg.algebra import InternalCheckError
from leibnizalg.decompose import complete_reducibility_necessary, decompose
from leibnizalg.fileio import parse_algebra, parse_rep, serialize_algebra, serialize_rep
from leibnizalg.irreducible import irreducibility
from leibnizalg.linalg import (
    Matrix,
    Subspace,
    envelope_dimension,
    subspace_intersect,
    subspace_sum,
)
from leibnizalg.modules import (
    abelian_algebra,
    adjoint_rep,
    dichotomy_classify,
    direct_sum_algebra,
    equivalence,
    example_5_3,
    example_5_5,
    h_gap_positions,
    is_invariant,
    module_restriction,
    solve_lowering_left,
    sym_span,
)
from leibnizalg.reps import Representation
from leibnizalg.sl2 import (
    check_sl2_constraints,
    classify_extension_irreps,
    extension_rep_solve,
    simple_ext_algebra,
    sl2_algebra,
    sl2_leibniz_irrep,
)

VARIANTS = ("zero_lambda", "anti_symmetric")


def unit_span(n, indices):
    vecs = [tuple(1 if j == i else 0 for j in range(n)) for i in indices]
    return Subspace.from_vectors(n, vecs)


def algebra_catalog():
    out = [sl2_algebra(), example_5_3()[0], abelian_algebra(1),
           abelian_algebra(3), direct_sum_algebra(sl2_algebra(), abelian_algebra(2))]
    out += [simple_ext_algebra(n) for n in range(5, 10)]
    return out


def rep_catalog():
    out = [adjoint_rep(sl2_algebra()), example_5_5(),
           example_5_5("anti_symmetric", "anti_symmetric")]
    for m in range(0, 6):
        for v in VARIANTS:
            out.append(sl2_leibniz_irrep(m, v))
    for n, m in [(5, 1), (5, 2), (6, 1), (6, 2), (7, 1)]:
        out.extend(classify_extension_irreps(n, m))
    return out


def test_criterion_01_ladder_family_axioms_envelope_and_exactly_two():
    for m in range(0, 9):
        reps = {v: sl2_leibniz_irrep(m, v) for v in VARIANTS}
        for rep in reps.values():
            assert rep.is_valid
        if m == 0:
            assert reps["zero_lambda"].left == reps["anti_symmetric"].left
            continue
        for rep in reps.values():
            size = (m + 1) ** 2
            assert envelope_dimension(rep.action_matrices(), m + 1) == size
            assert irreducibility(rep).value == "abs_irreducible"
            # no third kind: the left action must land on one of the two
            assert dichotomy_classify(rep) in VARIANTS
        verdict = equivalence(reps["zero_lambda"], reps["anti_symmetric"])
        assert verdict.value == "not_equivalent"


def test_criterion_02_twelve_identity_suite_and_left_coefficient_forcing():
    for m in range(0, 6):
        for v in VARIANTS:
            report = check_sl2_constraints(sl2_leibniz_irrep(m, v))
            assert report.failing_identities == ()
            assert all(report.identity_ok)

    # overwrite the left action of the lowering element with the right one
    base = sl2_leibniz_irrep(2, "zero_lambda")
    left = list(base.left)
    left[1] = base.right[1]
    broken = Representation(base.algebra, base.right, left, name="injected")
    report = check_sl2_constraints(broken)
    assert 12 in report.failing_identities
    assert report.failing_identities == (4, 5, 10, 11, 12)

    # scaling the whole left action by a works only when a + a^2 = 0
    for a in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
              Fraction(1, 2), Fraction(1), Fraction(2)):
        scaled = Representation(
            base.algebra, base.right, [r.scale(a) for r in base.right])
        assert scaled.is_valid == (a + a * a == 0)


def test_criterion_03_extension_forcing_kills_tail_actions():
    for n in range(5, 10):
        for m in range(1, 5):
            sol = extension_rep_solve(n, m)
            assert sol.obstruction is None
            assert sol.free_parameters == 0
            zero = Matrix.zeros(m + 1, m + 1)
            assert sol.forced_rho_I is not None
            assert all(mat == zero for mat in sol.forced_rho_I)
            assert all(mat == zero for mat in sol.forced_lambda_I)
            if n % 2 == 1:
                assert not sol.used_quadratic_stage
            else:
                # the linear stage may already be conclusive ((8, 1));
                # otherwise the square-pattern stage has to finish the job
                assert sol.used_quadratic_stage or sol.stage1_free_parameters == 0
            assert sol.lambda_sl2_coefficients == (Fraction(-1), Fraction(0))


def test_criterion_04_classified_reps_have_lie_shape():
    for n in range(5, 8):
        for m in range(0, 4):
            for rep in classify_extension_irreps(n, m):
                assert rep.is_valid
                d = rep.space_dim
                zero = Matrix.zeros(d, d)
                # kernel elements act as zero on both sides
                for k in range(3, n):
                    assert rep.right[k] == zero
                    assert rep.left[k] == zero
                # negated right action is a Lie homomorphism on the top copy
                alg = rep.algebra
                for i in range(3):
                    for j in range(3):
                        phi_br = rep.rho_of(alg.table[i][j]).scale(-1)
                        lie_br = (rep.right[i].scale(-1) * rep.right[j].scale(-1)
                                  - rep.right[j].scale(-1) * rep.right[i].scale(-1))
                        assert phi_br == lie_br
                top_left = [rep.left[j] for j in range(3)]
                assert (all(mat == zero for mat in top_left)
                        or all(rep.left[j] == rep.right[j].scale(-1)
                               for j in range(3)))


def test_criterion_05_simple_benchmark_blocks_reducibility():
    alg, adj = example_5_3()
    assert alg.is_valid
    assert alg.is_simple().value == "yes"
    kern = alg.leibniz_kernel()
    assert kern == unit_span(5, [3, 4])

    verdict = complete_reducibility_necessary(adj)
    assert not verdict.ok
    assert verdict.witness_side == "lambda"
    assert verdict.witness_matrix is not None
    assert not verdict.witness_matrix.is_zero()

    result = decompose(adj)
    assert result.verdict == "indecomposable"
    assert result.obstruction == "kernel acts nontrivially"

    full = alg.full_space()
    for i in range(5):
        closure = alg.ideal_closure([tuple(
            1 if j == i else 0 for j in range(5))])
        assert closure in (kern, full)


def test_criterion_06_split_benchmark_decomposes_into_3_plus_2():
    for top in VARIANTS:
        for bottom in VARIANTS:
            rep = example_5_5(top, bottom)
            result = decompose(rep)
            assert result.verdict == "decomposed"
            assert [c.dim for c in result.components] == [3, 2]

            # left lowering action vanishes off the diagonal-weight steps
            rho_h = rep.right[2]
            allowed = set(h_gap_positions(rho_h, 2))
            lam_f = rep.left[1]
            for i in range(5):
                for j in range(5):
                    if (i, j) not in allowed:
                        assert lam_f.entry(i, j) == 0

            big, small = result.components
            expected = {3: sl2_leibniz_irrep(2, top),
                        2: sl2_leibniz_irrep(1, bottom)}
            for comp in (big, small):
                sub = module_restriction(rep, comp)
                assert equivalence(sub, expected[comp.dim]).value == "equivalent"

    # the constraint solver reaches the same support pattern on its own
    rep = example_5_5()
    rho_h = rep.right[2]
    space = solve_lowering_left(rho_h)
    allowed = set(h_gap_positions(rho_h, 2))
    for row in space.basis.data:
        for pos, value in enumerate(row):
            if value != 0:
                assert (pos // 5, pos % 5) in allowed


def test_criterion_07_structure_property_suite_over_catalog():
    for alg in algebra_catalog():
        assert alg.is_valid
        full = alg.full_space()

        # descending powers multiply like indices add
        powers = [None, full]
        for _ in range(5):
            powers.append(alg.product_space(powers[-1], full))
        for i in range(1, 6):
            for j in range(1, 7 - i):
                prod = alg.product_space(powers[i], powers[j])
                assert powers[i + j].contains_subspace(prod)

        kern = alg.leibniz_kernel()
        assert alg.product_space(kern, kern).is_zero()
        assert alg.is_ideal(kern)
        quot, _ = alg.quotient(kern)
        assert quot.is_lie()

        rad = alg.radical()
        assert rad.contains_subspace(kern)
        if not rad.is_zero():
            assert alg.subalgebra_on(rad).is_solvable()
        assert alg.is_semisimple() == (rad == kern)
        if alg.is_nilpotent():
            assert alg.is_solvable()

        inner = alg.inner_derivations()
        assert alg.derivations().contains_subspace(inner)
        assert alg.check_inn_ideal()


def test_criterion_08_levi_complements():
    semisimple = [alg for alg in algebra_catalog() if alg.is_semisimple()]
    names = {alg.name for alg in semisimple}
    assert "sl2" in names and "simple_ext5" in names

    for alg in semisimple:
        levi = alg.levi_subalgebra()
        kern = alg.leibniz_kernel()
        assert subspace_sum(levi, kern).is_full()
        assert subspace_intersect(levi, kern).is_zero()
        assert alg.is_subalgebra(levi)
        assert alg.subalgebra_on(levi).is_lie()
        if alg.name.startswith("simple_ext"):
            assert levi == unit_span(alg.dim, [0, 1, 2])
    assert sl2_algebra().levi_subalgebra().is_full()


def test_criterion_09_irreducible_dichotomy():
    seen = 0
    for rep in rep_catalog():
        if irreducibility(rep).value != "abs_irreducible":
            continue
        seen += 1
        sym = sym_span(rep)
        assert is_invariant(rep, sym)
        assert sym.is_zero() or sym.is_full()
        d = rep.space_dim
        if sym.is_zero():
            assert all(rep.left[j] == rep.right[j].scale(-1)
                       for j in range(rep.algebra.dim))
        else:
            assert all(rep.left[j] == Matrix.zeros(d, d)
                       for j in range(rep.algebra.dim))
    assert seen >= 20


def test_criterion_10_io_round_trips_and_cli_contract(monkeypatch, tmp_path):
    for alg in algebra_catalog():
        assert parse_algebra(serialize_algebra(alg)) == alg
    for rep in rep_catalog():
        back = parse_rep(serialize_rep(rep))
        assert back.algebra == rep.algebra
        assert back.right == rep.right
        assert back.left == rep.left

    def run(argv, stdin_text=None):
        out, err = io.StringIO(), io.StringIO()
        old = sys.stdout, sys.stderr, sys.stdin
        sys.stdout, sys.stderr = out, err
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.run_command(argv)
        finally:
            sys.stdout, sys.stderr, sys.stdin = old
        return code, out.getvalue(), err.getvalue()

    sl2_path = tmp_path / "sl2.json"
    sl2_path.write_text(serialize_algebra(sl2_algebra()))
    code, out, _ = run(["check", str(sl2_path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["leibniz"], report["lie"], report["kernel_dim"]) == (
        True, True, 0)

    code, ext5, _ = run(["gen", "simple-ext", "--n", "5"])
    assert code == 0
    code, out, _ = run(["rep", "classify", "-", "--m", "2", "--json"],
                       stdin_text=ext5)
    assert code == 0
    assert [r["variant"] for r in json.loads(out)["reps"]] == list(VARIANTS)

    code, e55, _ = run(["gen", "example-5-5"])
    code, out, _ = run(["rep", "decompose", "-", "--json"], stdin_text=e55)
    assert code == 0
    assert json.loads(out)["component_dims"] == [3, 2]

    golden = pathlib.Path(__file__).parent / "golden"
    assert ext5 == (golden / "simple_ext5.alg.json").read_text()
    repeat = run(["rep", "decompose", "-", "--json"], stdin_text=e55)
    assert repeat == (code, out, "")
    assert out == (golden / "decompose_e55.json").read_text()

    assert run(["gen", "simple-ext", "--n", "4"])[0] == 1
    assert run(["check", str(tmp_path / "absent.json")])[0] == 1

    def boom(rep):
        raise InternalCheckError("synthetic failure")
    # the layer, not the package: `leibnizalg.decompose` is the function
    monkeypatch.setattr(sys.modules["leibnizalg.decompose"], "decompose", boom)
    code, _, err = run(["rep", "decompose", "-"], stdin_text=e55)
    assert code == 2 and err.startswith("internal check failed:")
