"""Ladder representations, the twelve constraint identities, and the
forced-representation solve for the simple extension family."""

import random
import re
from fractions import Fraction

import pytest
import sympy

from leibnizalg import sl2
from leibnizalg.algebra import InternalCheckError
from leibnizalg.irreducible import irreducibility
from leibnizalg.linalg import Matrix, Subspace, nullspace
from leibnizalg.modules import abelian_algebra, direct_sum_algebra, equivalence, restrict
from leibnizalg.reps import Representation
from leibnizalg.sl2 import (
    ExtensionSolution,
    _reduce_quadratics,
    _tail_quadratic_matrices,
    _sl2_left_block_check,
    _tail_stage1_basis,
    catalogue_irreps,
    check_sl2_constraints,
    classify_extension_irreps,
    extension_rep_solve,
    simple_ext_algebra,
    sl2_algebra,
    sl2_irrep_rho,
    sl2_leibniz_irrep,
)

from bases import change_algebra_basis, random_invertible

Q = Fraction


def mat(rows):
    return Matrix([[Q(x) for x in row] for row in rows])


# -- base algebra --

def test_sl2_table_frozen():
    alg = sl2_algebra()
    assert alg.basis_names == ("e", "f", "h")
    assert alg.is_valid
    assert alg.is_lie()
    e, f, h = (0, 0), (0, 1), (0, 2)
    assert alg.bracket((Q(1), Q(0), Q(0)), (Q(0), Q(0), Q(1))) == (Q(2), Q(0), Q(0))
    assert alg.bracket((Q(0), Q(0), Q(1)), (Q(0), Q(1), Q(0))) == (Q(0), Q(2), Q(0))
    assert alg.bracket((Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))) == (Q(0), Q(0), Q(1))
    assert alg.leibniz_kernel().is_zero()
    assert alg.killing_form() == mat([[0, -4, 0], [-4, 0, 0], [0, 0, 8]])


# -- ladder matrices --

def test_ladder_matrices_frozen_small():
    e0, f0, h0 = sl2_irrep_rho(0)
    assert e0.is_zero() and f0.is_zero() and h0.is_zero()
    e1, f1, h1 = sl2_irrep_rho(1)
    assert e1 == mat([[0, 1], [0, 0]])
    assert f1 == mat([[0, 0], [-1, 0]])
    assert h1 == mat([[1, 0], [0, -1]])
    e2, f2, h2 = sl2_irrep_rho(2)
    assert e2 == mat([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert f2 == mat([[0, 0, 0], [-1, 0, 0], [0, -1, 0]])
    assert h2 == mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


def test_ladder_superdiagonal_weights():
    # the raising matrix walks m, 2(m-1), 3(m-2), ... down its superdiagonal
    for m in range(1, 7):
        e, _, _ = sl2_irrep_rho(m)
        diag = [e.entry(i, i + 1) for i in range(m)]
        assert diag == [Q((i + 1) * (m - i)) for i in range(m)]
        assert diag[0] == m and diag[-1] == m


def test_ladder_commutators_against_sympy():
    # independent route: rebuild in sympy and check the bracket relations
    for m in range(0, 6):
        e, f, h = [sympy.Matrix([[sympy.Rational(x) for x in row] for row in M.data])
                   for M in sl2_irrep_rho(m)]
        assert f * e - e * f == h
        assert h * e - e * h == 2 * e
        assert f * h - h * f == 2 * f


def test_ladder_reps_valid_both_variants():
    for m in range(0, 5):
        for variant in ("zero_lambda", "anti_symmetric"):
            rep = sl2_leibniz_irrep(m, variant)
            assert rep.is_valid
            assert rep.space_dim == m + 1
    with pytest.raises(ValueError):
        sl2_leibniz_irrep(2, "symmetric")
    with pytest.raises(ValueError):
        sl2_irrep_rho(-1)


def test_ladder_variants_coincide_only_at_zero():
    z0 = sl2_leibniz_irrep(0, "zero_lambda")
    a0 = sl2_leibniz_irrep(0, "anti_symmetric")
    assert z0.right == a0.right and z0.left == a0.left
    z1 = sl2_leibniz_irrep(1, "zero_lambda")
    a1 = sl2_leibniz_irrep(1, "anti_symmetric")
    assert z1.left != a1.left


# -- the twelve identities --

def test_identities_clean_on_ladders():
    for m in range(0, 6):
        for variant in ("zero_lambda", "anti_symmetric"):
            report = check_sl2_constraints(sl2_leibniz_irrep(m, variant))
            assert report.failing_identities == ()
            assert all(report.identity_ok)
            assert len(report.identity_ok) == 12


def _with_left_f_injected(m):
    base = sl2_leibniz_irrep(m, "zero_lambda")
    left = list(base.left)
    left[1] = base.right[1]  # slot 1 is f
    return Representation(sl2_algebra(), base.right, left)


def test_identities_flag_left_f_injection_m1():
    # at ladder size 2 the square of the lowering matrix vanishes, so the
    # last identity stays clean and only the mixed ones break
    rep = _with_left_f_injected(1)
    report = check_sl2_constraints(rep)
    assert report.failing_identities == (4, 5, 10, 11)


def test_identities_flag_left_f_injection_m2():
    rep = _with_left_f_injected(2)
    report = check_sl2_constraints(rep)
    assert report.failing_identities == (4, 5, 10, 11, 12)


def test_identities_flag_scaled_raising_matrix():
    base = sl2_leibniz_irrep(2, "zero_lambda")
    right = list(base.right)
    right[0] = right[0].scale(Q(2))
    report = check_sl2_constraints(Representation(sl2_algebra(), right, base.left))
    assert report.failing_identities == (1,)


def test_identities_flag_left_e_and_h_injections_and_scaled_weights():
    # together with the cases above, every identity fails somewhere
    z2, z1 = sl2_leibniz_irrep(2, "zero_lambda"), sl2_leibniz_irrep(1, "zero_lambda")
    a2 = sl2_leibniz_irrep(2, "anti_symmetric")
    cases = [
        (z2.right, (z2.right[0],) + z2.left[1:], (4, 5, 7, 8, 9)),
        (z1.right, z1.left[:2] + (z1.right[2],), (4, 5, 6, 7, 8, 10, 11)),
        (a2.right[:2] + (a2.right[2].scale(Q(3)),), a2.left, (1, 2, 3, 6, 7, 8, 10, 11)),
        ((z1.right[0] + z1.right[2],) + z1.right[1:], z1.left, (1, 2)),
    ]
    for right, left, failing in cases:
        report = check_sl2_constraints(Representation(sl2_algebra(), right, left))
        assert report.failing_identities == failing


def test_identities_require_the_sl2_table():
    from leibnizalg.modules import adjoint_rep
    with pytest.raises(ValueError):
        check_sl2_constraints(adjoint_rep(simple_ext_algebra(5)))


# -- extension algebras --

def test_extension_table_frozen_dim5():
    alg = simple_ext_algebra(5)
    assert alg.basis_names == ("e", "f", "h", "x0", "x1")

    def unit(i):
        return tuple(Q(1) if j == i else Q(0) for j in range(5))

    e, f, h, x0, x1 = (unit(i) for i in range(5))
    assert alg.bracket(x0, h) == x0
    assert alg.bracket(x1, h) == tuple(-c for c in x1)
    assert alg.bracket(x0, f) == x1
    assert alg.bracket(x1, e) == tuple(-c for c in x0)
    assert all(c == 0 for c in alg.bracket(h, x0))
    assert all(c == 0 for c in alg.bracket(x0, x1))
    assert all(c == 0 for c in alg.bracket(e, x1))


def test_extension_requires_dim_at_least_5():
    with pytest.raises(ValueError):
        simple_ext_algebra(4)


def test_extension_structure_invariants():
    for n in range(5, 10):
        alg = simple_ext_algebra(n)
        assert alg.is_valid
        assert not alg.is_lie()
        kern = alg.leibniz_kernel()
        assert kern.dim == n - 3
        for k in range(n - 3):
            unit = tuple(Q(1) if j == 3 + k else Q(0) for j in range(n))
            assert kern.contains(unit)
        assert alg.radical() == kern
        assert alg.is_semisimple()
        verdict = alg.is_simple()
        assert verdict.value == "yes"
        quot, _ = alg.quotient(kern)
        assert quot == sl2_algebra()


def test_extension_levi_is_the_sl2_span():
    for n in (5, 7, 8):
        alg = simple_ext_algebra(n)
        levi = alg.levi_subalgebra()
        assert levi.dim == 3
        for i in range(3):
            unit = tuple(Q(1) if j == i else Q(0) for j in range(n))
            assert levi.contains(unit)


# -- quadratic peeling, synthetic cases --

def test_reduce_quadratics_single_square():
    # (t - u)^2 = 0 leaves one free direction
    s = mat([[1, -1], [-1, 1]])
    assert _reduce_quadratics([s], 2) == (1, None)


def test_reduce_quadratics_two_squares_one_round():
    a = mat([[1, -1], [-1, 1]])
    b = mat([[1, 0], [0, 0]])
    assert _reduce_quadratics([a, b], 2) == (0, None)
    # no stage-1 parameters: no tail-tail quadratics and nothing free
    assert _tail_quadratic_matrices([], 3) == []
    assert _reduce_quadratics([], 0) == (0, None)


def test_reduce_quadratics_needs_second_round():
    # the second equation only becomes a square after t = u is imposed
    a = mat([[1, -1], [-1, 1]])
    c = mat([[0, 1], [1, 1]])
    assert c.rank() == 2
    assert _reduce_quadratics([a, c], 2) == (0, None)


def test_reduce_quadratics_reports_obstruction():
    s = mat([[1, 0], [0, -1]])
    free, obstruction = _reduce_quadratics([s], 2)
    assert free == 2
    assert obstruction is not None


# -- the forced solve --

def sympy_stage1_dim(n, m):
    """Independent route: assemble the linear tail system symbolically."""
    alg = simple_ext_algebra(n)
    rho = [sympy.Matrix([[sympy.Rational(x) for x in row] for row in M.data])
           for M in sl2_irrep_rho(m)]
    d = m + 1
    nx = n - 3
    xs = [sympy.Matrix(d, d, lambda r, s, k=k: sympy.Symbol(f"t{k}_{r}_{s}"))
          for k in range(nx)]
    eqs = []
    for k in range(nx):
        for y in range(3):
            combo = sympy.zeros(d, d)
            cvec = alg.table[3 + k][y]
            for t in range(nx):
                c = cvec[3 + t]
                if c:
                    combo = combo + sympy.Rational(c) * xs[t]
            resid = combo - (rho[y] * xs[k] - xs[k] * rho[y])
            eqs.extend(list(resid))
    syms = [sym for x in xs for sym in x]
    a, _ = sympy.linear_eq_to_matrix(eqs, syms)
    return len(syms) - a.rank()


# Reference versions of the linear stages as they were first written: the
# one-term bracket-with-h equations cut the unknowns down to the entries of
# matching weight, and the remaining equations are assembled over those.

def weight_cut_positions(c, d):
    return [(i, j) for i in range(d) for j in range(d) if c == 2 * (j - i)]


def weight_cut_space(kept, equations, rho, d, slots):
    """Solutions over the kept (slot, i, j) unknowns of
    sum_t c_t X_t + X_i rho_y - rho_y X_i = 0, zero-padded to every entry
    of every slot; each equation is (c by slot, the slot i, the index y)."""
    index = {key: pos for pos, key in enumerate(kept)}
    rows = []
    for cvec, slot, y in equations:
        ry = rho[y]
        for r in range(d):
            for s in range(d):
                row = [Q(0)] * len(kept)
                for t, c in enumerate(cvec):
                    if c != 0 and (t, r, s) in index:
                        row[index[(t, r, s)]] += c
                for a in range(d):
                    if ry.entry(a, s) != 0 and (slot, r, a) in index:
                        row[index[(slot, r, a)]] += ry.entry(a, s)
                    if ry.entry(r, a) != 0 and (slot, a, s) in index:
                        row[index[(slot, a, s)]] -= ry.entry(r, a)
                if any(x != 0 for x in row):
                    rows.append(row)
    space = nullspace(Matrix(rows)) if rows else Subspace.full(len(kept))
    padded = []
    for v in space.basis.data:
        full = [Q(0)] * (slots * d * d)
        for x, (slot, i, j) in zip(v, kept):
            full[(slot * d + i) * d + j] = x
        padded.append(full)
    return padded


def test_stage1_basis_equals_the_weight_cut_version():
    for n in (5, 6, 8, 9, 12):
        for m in (1, 2, 3, 4):
            alg = simple_ext_algebra(n)
            rho = sl2_irrep_rho(m)
            d, nx = m + 1, n - 3
            kept = [(k, i, j) for k in range(nx)
                    for (i, j) in weight_cut_positions(n - 4 - 2 * k, d)]
            equations = [(alg.table[3 + k][y][3:], k, y)
                         for k in range(nx) for y in range(3)]
            padded = weight_cut_space(kept, equations, rho, d, nx)
            expected = [[Matrix.from_flat(v[k * d * d:(k + 1) * d * d], d, d)
                         for k in range(nx)] for v in padded]
            assert _tail_stage1_basis(n, m) == expected, (n, m)


def test_left_block_space_equals_the_weight_cut_version():
    table = sl2_algebra().table
    for m in range(0, 7):
        rho = sl2_irrep_rho(m)
        d = m + 1
        kept = [(slot, i, j) for slot, w in enumerate((2, -2, 0))
                for (i, j) in weight_cut_positions(w, d)]
        equations = [(table[x][y], x, y) for x in range(3) for y in range(3)]
        padded = weight_cut_space(kept, equations, rho, d, 3)
        assert _sl2_left_block_check(m) == Subspace.from_vectors(3 * d * d, padded)


def test_left_block_check_catches_a_corrupted_raising_matrix(monkeypatch):
    ladder = sl2.sl2_irrep_rho

    def corrupted(m):
        e, f, h = ladder(m)
        rows = [list(row) for row in e.data]
        rows[0][1] += 1
        return Matrix(rows), f, h

    monkeypatch.setattr(sl2, "sl2_irrep_rho", corrupted)
    for m in (1, 2, 3, 4):
        with pytest.raises(InternalCheckError):
            _sl2_left_block_check(m)


def test_stage1_dimension_matches_sympy():
    for n, m in ((5, 1), (6, 1), (6, 2), (8, 1), (8, 2)):
        sol = extension_rep_solve(n, m)
        assert sol.stage1_free_parameters == sympy_stage1_dim(n, m)


def test_solve_odd_dimensions_are_linear_only():
    for n in (5, 7, 9):
        for m in (1, 2, 3):
            sol = extension_rep_solve(n, m)
            assert sol.stage1_free_parameters == 0
            assert not sol.used_quadratic_stage
            assert sol.free_parameters == 0
            assert sol.obstruction is None
            assert all(x.is_zero() for x in sol.forced_rho_I)
            assert all(x.is_zero() for x in sol.forced_lambda_I)
            assert sol.lambda_sl2_coefficients == (Q(-1), Q(0))


def test_solve_even_dimensions_use_the_quadratic_stage():
    sol = extension_rep_solve(6, 1)
    assert sol.stage1_free_parameters == 1
    assert sol.used_quadratic_stage
    assert sol.free_parameters == 0
    assert sol.obstruction is None
    assert all(x.is_zero() for x in sol.forced_rho_I)
    assert all(x.is_zero() for x in sol.forced_lambda_I)

    sol62 = extension_rep_solve(6, 2)
    assert sol62.stage1_free_parameters == 1
    assert sol62.used_quadratic_stage
    assert sol62.free_parameters == 0

    sol82 = extension_rep_solve(8, 2)
    assert sol82.used_quadratic_stage
    assert sol82.free_parameters == 0


def test_solve_dim8_ladder2_is_trivially_linear():
    # the would-be free diagonal sits on an empty superdiagonal here
    sol = extension_rep_solve(8, 1)
    assert sol.stage1_free_parameters == 0
    assert not sol.used_quadratic_stage
    assert sol.free_parameters == 0
    assert all(x.is_zero() for x in sol.forced_rho_I)


def test_solve_input_validation():
    with pytest.raises(ValueError):
        extension_rep_solve(4, 1)
    with pytest.raises(ValueError):
        extension_rep_solve(5, 0)
    with pytest.raises(ValueError, match="starts at dimension 5"):
        classify_extension_irreps(4, -1)
    with pytest.raises(ValueError, match="ladder size parameter must be nonnegative"):
        classify_extension_irreps(5, -1)


# -- the catalogue --

def test_classify_returns_two_reps():
    reps = classify_extension_irreps(5, 2)
    assert len(reps) == 2
    zero, anti = reps
    assert zero.is_valid and anti.is_valid
    assert zero.space_dim == 3
    d = 3
    for k in range(2):
        assert zero.right[3 + k].is_zero()
        assert zero.left[3 + k].is_zero()
        assert anti.right[3 + k].is_zero()
        assert anti.left[3 + k].is_zero()
    assert all(x.is_zero() for x in zero.left)
    assert anti.left[0] == -anti.right[0]
    assert equivalence(zero, anti).value == "not_equivalent"


def test_classify_single_rep_at_ladder_zero():
    reps = classify_extension_irreps(7, 0)
    assert len(reps) == 1
    assert all(x.is_zero() for x in reps[0].right)
    assert all(x.is_zero() for x in reps[0].left)


def test_classified_reps_restrict_to_ladders():
    for n in range(5, 9):
        sl2_span_rows = [tuple(Q(1) if j == i else Q(0) for j in range(n))
                         for i in range(3)]
        span3 = Subspace.from_vectors(n, sl2_span_rows)
        for m in range(5):
            reps = classify_extension_irreps(n, m)
            variants = ("zero_lambda", "anti_symmetric")[:1 if m == 0 else 2]
            assert len(reps) == len(variants)
            tail = (Matrix.zeros(m + 1, m + 1),) * (n - 3)
            for rep, variant in zip(reps, variants):
                # the ladder module extended by zero on the tail
                base = sl2_leibniz_irrep(m, variant)
                assert rep.right == base.right + tail
                assert rep.left == base.left + tail
                assert rep.name == f"ext{n}-ladder{m}[{variant}]"
                cut = restrict(rep, span3)
                assert cut.right == base.right
                assert cut.left == base.left
                assert cut.algebra == sl2_algebra()


CATALOGUE_ONLY = "classification covers the (e, f, h) table and its simple extensions only"


def dense_simple_ext5():
    """simple_ext(5) after a seeded dense integer change of basis."""
    return change_algebra_basis(simple_ext_algebra(5), random_invertible(random.Random(5), 5))


def test_catalogue_irreps_names_the_family_and_pairs_each_module_with_its_variant():
    def shape(modules):
        return [(v, rep.name, rep.right, rep.left) for v, rep in modules]

    for m in range(4):
        variants = ("zero_lambda", "anti_symmetric")[:1 if m == 0 else 2]
        family, modules = catalogue_irreps(sl2_algebra(), m)
        assert family == "sl2"
        assert shape(modules) == shape((v, sl2_leibniz_irrep(m, v)) for v in variants)
        for n in range(5, 9):
            family, modules = catalogue_irreps(simple_ext_algebra(n), m)
            assert family == "simple_ext"
            assert shape(modules) == shape(zip(variants, classify_extension_irreps(n, m)))


def test_catalogue_irreps_refuses_every_other_table():
    dense = dense_simple_ext5()
    assert dense.is_valid and not dense.same_table(simple_ext_algebra(5))
    for alg in (dense, direct_sum_algebra(sl2_algebra(), abelian_algebra(1))):
        with pytest.raises(ValueError, match=re.escape(CATALOGUE_ONLY)):
            catalogue_irreps(alg, 1)


def test_the_solver_checks_its_roots_against_the_catalogue_function(monkeypatch):
    # with one variant missing from the catalogue the two roots of a + a^2 differ
    def one_variant(alg, m):
        family, modules = catalogue_irreps(alg, m)
        return family, modules[:1]

    monkeypatch.setattr(sl2, "catalogue_irreps", one_variant)
    with pytest.raises(InternalCheckError, match="solver roots differ"):
        extension_rep_solve(5, 1)


def test_classified_reps_are_absolutely_irreducible():
    for n, m in ((5, 1), (6, 2)):
        for rep in classify_extension_irreps(n, m):
            assert irreducibility(rep).value == "abs_irreducible"


def tail_quadratics_by_dense_grids(basis_mats, nx, d):
    """Reference tail-tail quadratics: every (k, l, r, s) grid built densely."""
    p = len(basis_mats)
    dim = 2 * p
    half = Q(1, 2)
    prod = {(i, k, j, l): basis_mats[i][k] * basis_mats[j][l]
            for i in range(p) for j in range(p) for k in range(nx) for l in range(nx)}
    out = []
    for k in range(nx):
        for l in range(nx):
            for r in range(d):
                for s in range(d):
                    s1 = [[Q(0)] * dim for _ in range(dim)]
                    s2 = [[Q(0)] * dim for _ in range(dim)]
                    s3 = [[Q(0)] * dim for _ in range(dim)]
                    for i in range(p):
                        for j in range(p):
                            ll = prod[(i, k, j, l)].entry(r, s)
                            lr = prod[(j, l, i, k)].entry(r, s)
                            comm = lr - ll
                            s1[i][j] += comm * half
                            s1[j][i] += comm * half
                            s2[p + i][j] += comm * half
                            s2[j][p + i] += comm * half
                            s3[p + i][j] += lr * half
                            s3[j][p + i] += lr * half
                            s3[p + i][p + j] += ll * half
                            s3[p + j][p + i] += ll * half
                    for grid in (s1, s2, s3):
                        mat = Matrix(grid)
                        if not mat.is_zero():
                            out.append(mat)
    return out


def test_tail_quadratics_match_the_dense_grids():
    for n in (6, 8, 10, 12):
        for m in (1, 2, 3, 4):
            basis = _tail_stage1_basis(n, m)
            assert (_tail_quadratic_matrices(basis, n - 3)
                    == tail_quadratics_by_dense_grids(basis, n - 3, m + 1)), (n, m)


def test_tail_quadratics_match_the_dense_grids_on_random_bases():
    # several stage-1 parameters, so the grids mix distinct pairs (i, j)
    import random
    rng = random.Random(3119)
    for p, nx, d in ((2, 2, 2), (3, 2, 3), (2, 3, 2), (4, 1, 2)):
        for _ in range(3):
            basis = [[Matrix([[rng.choice([0, 0, 1, -1, Q(1, 2), Q(-3, 2)]) for _ in range(d)]
                              for _ in range(d)]) for _ in range(nx)] for _ in range(p)]
            ours = _tail_quadratic_matrices(basis, nx)
            assert ours == tail_quadratics_by_dense_grids(basis, nx, d), (p, nx, d)
            assert ours  # random products do not all cancel
