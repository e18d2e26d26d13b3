"""Exact linear algebra tests.

Expected values were fixed ahead of time: small cases by hand elimination,
larger sweeps against sympy, which serves as the independent oracle
throughout this file.
"""

from fractions import Fraction
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from leibnizalg.linalg import (
    Echelon,
    _eliminate,
    _rational_factors,
    _axiom_rows,
    _dense,
    _matrix_of,
    _norton,
    _poly_at,
    _shift,
    _solutions,
    _unflatten,
    Matrix,
    Subspace,
    char_poly,
    envelope_dimension,
    intertwiner_space,
    linear_combination,
    matrix_commutant,
    minimal_polynomial,
    nullspace,
    poly_eval,
    rational_roots,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
    vec,
)
from leibnizalg.reps import direct_sum
from leibnizalg.sl2 import sl2_leibniz_irrep

QQ = Fraction


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator) for x in m.flatten()])


def from_sympy(m: sympy.Matrix) -> Matrix:
    return Matrix([[QQ(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)]
                   for i in range(m.rows)])


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix([[QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                   for _ in range(rows)])


def ladder_sum(*sizes: int, variant: str = "zero_lambda"):
    """Direct sum of the sl2 ladder modules of the given sizes (dimension m + 1 each)."""
    rep = sl2_leibniz_irrep(sizes[0], variant)
    for m in sizes[1:]:
        rep = direct_sum(rep, sl2_leibniz_irrep(m, variant))
    return rep


def commutator_equation_rows(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Dense rows of the linear map X -> X a - b X on flattened X."""
    width = b.rows * a.cols
    return [list(_dense(row, width))
            for row in _axiom_rows([((), 0, a, b)], b.rows, a.cols)]


def oracle_matrices(rng: random.Random, count: int) -> list[Matrix]:
    """count small random matrices, then the shapes the sparse kernel meets:
    a tall, very sparse commutant system, wide matrices, zero rows, a zero
    matrix, and entries with large numerators and denominators."""
    out = [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(count)]
    rep = ladder_sum(1, 1, 2, variant="anti_symmetric")
    out.append(Matrix([row for m in rep.action_matrices()
                       for row in commutator_equation_rows(m, m)]))  # 294 x 49
    out += [random_matrix(rng, rng.randint(1, 3), rng.randint(7, 12)) for _ in range(4)]
    for _ in range(3):
        m = random_matrix(rng, 5, 4)
        keep = rng.sample(range(5), 3)
        out.append(Matrix([row if i in keep else [0] * 4 for i, row in enumerate(m.data)]))
    out += [Matrix.zeros(3, 4), Matrix.zeros(1, 1)]
    for _ in range(4):
        n = rng.randint(2, 5)
        out.append(Matrix([[QQ(rng.randint(-10**30, 10**30), rng.randint(1, 10**20))
                            for _ in range(n)] for _ in range(rng.randint(2, 5))]))
    return out


def mat_poly(coeffs, m: Matrix) -> Matrix:
    acc = Matrix.zeros(m.rows, m.cols)
    power = Matrix.identity(m.rows)
    for c in coeffs:
        acc = acc + power.scale(c)
        power = power * m
    return acc


# ---- frozen small cases ----


def test_rref_hand_case():
    # hand elimination: R2 -= R1/2 then normalize
    m = Matrix([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert m.rank() == 1


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_nullspace_hand_case():
    # x + y = 0, kernel is the line through (1, -1); rank-nullity gives dim 1
    ker = nullspace(Matrix([[1, 1]]))
    assert ker.dim == 1
    assert ker.basis == Matrix([[1, -1]])


def test_solve_by_substitution():
    a = Matrix([[1, 2], [3, 4]])
    particular, hom = solve(a, vec([5, 11]))
    assert particular == vec([1, 2])
    assert hom.is_zero()


def test_solve_inconsistent():
    a = Matrix([[1, 1], [1, 1]])
    particular, hom = solve(a, vec([0, 1]))
    assert particular is None
    assert hom.dim == 1


def test_solve_underdetermined():
    a = Matrix([[1, 1]])
    particular, hom = solve(a, vec([3]))
    assert particular is not None
    assert a.apply(particular) == vec([3])
    assert hom.dim == 1


def test_subspace_canonical_equality():
    u1 = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    u2 = Subspace.from_vectors(3, [[2, 2, 2], [0, 0, -5]])
    assert u1 == u2
    assert u1.contains(vec([3, 3, 7]))
    assert not u1.contains(vec([1, 0, 0]))


def test_subspace_sum_intersect_hand_case():
    x_axis = Subspace.from_vectors(3, [[1, 0, 0]])
    y_axis = Subspace.from_vectors(3, [[0, 1, 0]])
    plane = subspace_sum(x_axis, y_axis)
    assert plane.dim == 2
    diag = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    meet = subspace_intersect(plane, diag)
    assert meet == Subspace.from_vectors(3, [[1, 1, 0]])


def test_minimal_polynomial_frozen():
    assert minimal_polynomial(Matrix.identity(2)) == (QQ(-1), QQ(1))
    assert minimal_polynomial(Matrix.zeros(2, 2)) == (QQ(0), QQ(1))
    assert minimal_polynomial(Matrix([[1, 0], [0, 2]])) == (QQ(2), QQ(-3), QQ(1))
    assert minimal_polynomial(Matrix([[0, 1], [0, 0]])) == (QQ(0), QQ(0), QQ(1))


def test_char_poly_frozen():
    # det(tI - diag(1,2)) = (t-1)(t-2) = t^2 - 3t + 2
    assert char_poly(Matrix([[1, 0], [0, 2]])) == (QQ(2), QQ(-3), QQ(1))


def test_rational_roots_frozen():
    assert rational_roots([QQ(2), QQ(-3), QQ(1)]) == (QQ(1), QQ(2))
    assert rational_roots([QQ(-2), QQ(0), QQ(1)]) == ()
    assert rational_roots([QQ(0), QQ(-1), QQ(0), QQ(1)]) == (QQ(-1), QQ(0), QQ(1))
    # clears denominators: (t - 1/2)(t + 3) = t^2 + 5/2 t - 3/2
    assert rational_roots([QQ(-3, 2), QQ(5, 2), QQ(1)]) == (QQ(-3), QQ(1, 2))


def envelope_by_products(generators, dim: int) -> int:
    """Reference envelope dimension: breadth-first search over dense word
    matrices, each product flattened and inserted into an Echelon."""
    ech = Echelon(dim * dim)
    frontier = []
    for m in [Matrix.identity(dim)] + list(generators):
        if ech.insert(m.flatten()):
            frontier.append(m)
    while frontier and ech.dim < dim * dim:
        fresh = []
        for m in frontier:
            for g in generators:
                prod = m * g
                if ech.insert(prod.flatten()):
                    fresh.append(prod)
        frontier = fresh
    return ech.dim


def conjugate(mats, p: Matrix) -> list[Matrix]:
    p_inv = p.inverse()
    return [p * m * p_inv for m in mats]


def test_envelope_dimension_hand_cases():
    # no generators: only the identity
    assert envelope_dimension([], 2) == 1
    # words in E12, E21 reach E11 and E22, hence all of M_2
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    assert envelope_dimension([e12, e21], 2) == 4
    # single idempotent: span{I, E11}
    e11 = Matrix([[1, 0], [0, 0]])
    assert envelope_dimension([e11], 2) == 2
    # duplicated, negated, zero and scalar generators add nothing
    zero, two = Matrix.zeros(2, 2), Matrix.identity(2).scale(QQ(2))
    for gens, expected in [([e12, e12], 2), ([e12, -e12, zero], 2),
                           ([zero, two], 1), ([two, e11, -e11, zero, e11], 2),
                           ([zero, e12, two, e21, -e21, e12], 4)]:
        assert envelope_dimension(gens, 2) == expected == envelope_by_products(gens, 2)
    # Burnside: a ladder of dimension d gives M_d, a sum of distinct ladders
    # the block diagonal, and equal ladders one diagonal copy of M_d; a
    # dense integer change of basis keeps the dimension
    p = {d: Matrix([[(i * j + i + 2 * j) % 5 - 2 + (i == j) * 3 for j in range(d)]
                    for i in range(d)]) for d in (4, 5)}
    cases = [((1,), 4), ((2,), 9), ((3,), 16), ((4,), 25), ((1, 2), 13),
             ((2, 2), 9), ((1, 1, 2), 13)]
    for sizes, expected in cases:
        for variant in ("zero_lambda", "anti_symmetric"):
            mats = ladder_sum(*sizes, variant=variant).action_matrices()
            d = mats[0].rows
            assert envelope_dimension(mats, d) == expected
            if d in p:
                assert p[d].is_invertible()
                dense = conjugate(mats, p[d])
                assert envelope_dimension(dense, d) == expected
                assert envelope_by_products(dense, d) == expected
            else:
                assert envelope_by_products(mats, d) == expected


def test_norton_hand_cases():
    e11, e12 = Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    # E12 has nullity 1; its kernel vector and that of E12^T both spin to QQ^2
    assert _norton([e12, e21], 2) and envelope_dimension([e12, e21], 2) == 4
    # E11 and E21 keep the kernel line of E11: the first spin is proper
    assert not _norton([e11, e21], 2)
    # E11 and E12 keep the line of e_1, but the kernel vector e_2 of E11
    # spins to QQ^2: only the spin of the kernel vector of E11^T sees it
    assert not _norton([e11, e12], 2)
    assert _norton([e11, e12 + e21], 2)
    # no theta of nullity 1: the zero matrix on QQ^2 and the identity
    assert not _norton([Matrix.zeros(2, 2), Matrix.identity(2)], 2)
    # on QQ^1 the zero matrix has nullity 1 and everything is irreducible
    assert _norton([Matrix.zeros(1, 1)], 1)
    # ladders pass, before and after a dense change of basis; sums never do
    p = Matrix([[(i * j + i + 2 * j) % 5 - 2 + (i == j) * 3 for j in range(5)]
                for i in range(5)])
    for variant in ("zero_lambda", "anti_symmetric"):
        mats = ladder_sum(4, variant=variant).action_matrices()
        assert _norton(mats, 5) and _norton(conjugate(mats, p), 5)
        assert not _norton(ladder_sum(1, 2, variant=variant).action_matrices(), 5)
        assert not _norton(conjugate(ladder_sum(2, 1, variant=variant).action_matrices(), p), 5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), count=st.integers(1, 3), split=st.integers(0, 3),
       data=st.data())
def test_norton_true_means_full_envelope(d, count, split, data):
    """Soundness: the certificate never says yes short of M_d(QQ). With
    0 < split < d the lower-left block is zero, so the first split unit
    vectors span an invariant subspace and the answer must be no; a dense
    change of basis hides the block."""
    entries = st.lists(st.integers(-1, 1), min_size=d * d, max_size=d * d)
    mats = []
    for _ in range(count):
        flat = data.draw(entries)
        mats.append(Matrix([[0 if i >= split > j else flat[i * d + j] for j in range(d)]
                            for i in range(d)]))
    p = Matrix([data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
                for _ in range(d)])
    if p.is_invertible():
        mats = conjugate(mats, p)
    if _norton(mats, d):
        assert not 0 < split < d
        assert envelope_dimension(mats, d) == d * d == envelope_by_products(mats, d)


def test_matrix_commutant_hand_cases():
    assert len(matrix_commutant([Matrix.identity(3)], 3)) == 9
    # distinct diagonal: commutant is the diagonal matrices
    comm = matrix_commutant([Matrix([[1, 0], [0, 2]])], 2)
    assert len(comm) == 2
    for c in comm:
        assert c.entry(0, 1) == 0 and c.entry(1, 0) == 0
    # generators of M_2: commutant is the scalars
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    comm = matrix_commutant([e12, e21], 2)
    assert len(comm) == 1
    assert comm[0] == Matrix.identity(2)


def test_intertwiner_space_conjugation():
    g = Matrix([[1, 1], [0, 1]])
    a = Matrix([[2, 1], [0, 3]])
    b = g * a * g.inverse()
    space = intertwiner_space([(a, b)], 2, 2)
    # g itself must lie in the space
    flat_span = Subspace.from_vectors(4, [x.flatten() for x in space])
    assert flat_span.contains(g.flatten())
    for x in space:
        assert x * a == b * x


def intertwiners_one_shot(pairs, rows_dim: int, cols_dim: int) -> list[Matrix]:
    """Reference: the rows of every pair in one system, with no pair skipped."""
    rows = _axiom_rows([((), 0, a, b) for a, b in pairs], rows_dim, cols_dim)
    ker = _solutions(rows, rows_dim * cols_dim)
    return [_matrix_of(_unflatten(row, cols_dim), rows_dim, cols_dim)
            for row in ker.rows.values()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows_dim=st.integers(1, 3), cols_dim=st.integers(1, 3), data=st.data())
def test_intertwiner_space_skips_only_redundant_pairs(rows_dim, cols_dim, data):
    """Skipping the pairs that the solutions so far satisfy gives the same
    canonical basis as the one-shot system, on pair lists with zero
    matrices, duplicates, negated duplicates, a != b and a == b."""
    def matrix(rows, cols):
        flat = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                                  max_size=rows * cols))
        return Matrix.from_flat(flat, rows, cols)

    pairs = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(
            ["new", "zero", "same", "duplicate", "negated"] if pairs else ["new", "zero", "same"]))
        if kind == "new":
            pairs.append((matrix(cols_dim, cols_dim), matrix(rows_dim, rows_dim)))
        elif kind == "zero":
            pairs.append((Matrix.zeros(cols_dim, cols_dim), Matrix.zeros(rows_dim, rows_dim)))
        elif kind == "same" and rows_dim == cols_dim:
            a = matrix(cols_dim, cols_dim)
            pairs.append((a, a))
        elif kind in ("duplicate", "negated"):
            a, b = data.draw(st.sampled_from(pairs))
            pairs.append((-a, -b) if kind == "negated" else (a, b))
    ours = intertwiner_space(pairs, rows_dim, cols_dim)
    assert ours == intertwiners_one_shot(pairs, rows_dim, cols_dim)
    assert all(only_fractions(x) for x in ours)
    for x in ours:
        assert all(x * a == b * x for a, b in pairs)


def test_intertwiner_space_of_benchmark_modules_matches_one_shot():
    """The commutants that `decompose` and `is_simple` solve, where most
    pairs are implied by the first ones (rho(h) lies in the span of the
    products of rho(e) and rho(f), and lambda = -rho or 0)."""
    for rep in (ladder_sum(2, 3, 4, 4), ladder_sum(3, 3, variant="anti_symmetric"),
                ladder_sum(5, 0, 2, variant="anti_symmetric")):
        mats, d = rep.action_matrices(), rep.space_dim
        pairs = [(m, m) for m in mats]
        assert matrix_commutant(mats, d) == intertwiners_one_shot(pairs, d, d)
    with pytest.raises(ValueError, match="unknown shape"):
        intertwiner_space([(Matrix.identity(2), Matrix.identity(2)),
                           (Matrix.zeros(3, 3), Matrix.zeros(2, 2))], 2, 2)


def axiom_value(equation, xs: list[Matrix]) -> Matrix:
    """sum_t c_t X_t + X_i a - b X_i by matrix arithmetic."""
    coeffs, i, a, b = equation
    value = xs[i] * a - b * xs[i]
    for t, c in enumerate(coeffs):
        value = value + xs[t].scale(c)
    return value


def test_axiom_rows_evaluate_the_linear_map():
    rng = random.Random(2024)
    # (rows, cols, unknowns): square, rectangular both ways, one and several unknowns
    for rows_dim, cols_dim, count in ((2, 2, 1), (3, 3, 3), (2, 4, 2), (4, 1, 2), (3, 2, 4)):
        for _ in range(5):
            xs = [random_matrix(rng, rows_dim, cols_dim) for _ in range(count)]
            flat = [x for m in xs for x in m.flatten()]
            equations = []
            for _ in range(rng.randint(1, 4)):
                coeffs = [QQ(rng.randint(-3, 3)) for _ in range(rng.randint(0, count))]
                equations.append((coeffs, rng.randrange(count),
                                  random_matrix(rng, cols_dim, cols_dim),
                                  random_matrix(rng, rows_dim, rows_dim)))
            got = _axiom_rows(equations, rows_dim, cols_dim)
            expected = [x for eq in equations for x in axiom_value(eq, xs).flatten()]
            assert len(got) == len(expected)
            for row, e in zip(got, expected):
                assert all(x != 0 and 0 <= c < len(flat) for c, x in row.items())
                assert sum(x * flat[c] for c, x in row.items()) == e


def test_axiom_rows_store_no_cancelled_entries():
    # entry (r, s) of 2X + X a - b X is (2 + a_ss - b_rr) X[r][s]
    a = Matrix([[1, 0], [0, 3]])
    b = Matrix([[3, 0], [0, 1]])
    assert _axiom_rows([((2,), 0, a, b)], 2, 2) == [{}, {1: 2}, {2: 2}, {3: 4}]
    # X_1 a - b X_1 with a = b = I cancels everywhere; the c_0 X_0 terms stay
    one = Matrix.identity(2)
    assert _axiom_rows([((5,), 1, one, one)], 2, 2) == [{0: 5}, {1: 5}, {2: 5}, {3: 5}]
    # the X_i a and b X_i terms cancel each other where a_ss = b_rr
    assert _axiom_rows([((), 0, a, a)], 2, 2) == [{}, {1: 2}, {2: -2}, {}]
    with pytest.raises(ValueError):
        _axiom_rows([((), 0, a, Matrix.identity(3))], 2, 2)


def test_subspace_induced_matrix():
    m = Matrix([[1, 2, 0], [0, 3, 0], [4, 5, 6]])
    w = Subspace.from_vectors(3, [[0, 0, 1]])  # m e_2 = 6 e_2
    assert w.induced(m) == Matrix([[6]])
    u = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert u.induced(m) is None  # m e_0 has an e_2 component
    assert Subspace.full(3).induced(m) == m
    assert Subspace.zero(3).induced(m) == Matrix([])


def test_echelon_incremental():
    ech = Echelon(3)
    assert ech.insert([1, 0, 1])
    assert ech.insert([0, 1, 0])
    assert not ech.insert([2, 3, 2])
    assert ech.dim == 2
    assert ech.subspace() == Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 0]])


# ---- sweeps against the sympy oracle ----


def test_rref_matches_sympy_and_is_idempotent():
    rng = random.Random(101)
    for m in oracle_matrices(rng, 40):
        ours, pivots = rref(m)
        smat, spivots = to_sympy(m).rref()
        assert ours == from_sympy(smat)
        assert pivots == tuple(spivots)
        assert m.rank() == len(spivots)
        again, _ = rref(ours)
        assert again == ours
        # row by row insertion spans what the one-shot elimination spans
        ech = Echelon(m.cols)
        for row in m.data:
            ech.insert(row)
        assert ech.dim == len(spivots)
        assert ech.subspace() == Subspace.from_vectors(m.cols, m.data)
        assert ech.subspace().basis == from_sympy(smat[:len(spivots), :])


def test_inverse_matches_sympy():
    rng = random.Random(111)
    for m in oracle_matrices(rng, 40):
        if not m.is_square():
            continue
        if to_sympy(m).rank() < m.rows:
            assert not m.is_invertible()
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv == from_sympy(to_sympy(m).inv())
        assert m * inv == Matrix.identity(m.rows)


def test_nullspace_matches_sympy():
    rng = random.Random(202)
    for m in oracle_matrices(rng, 40):
        cols = m.cols
        ker = nullspace(m)
        assert ker.dim == cols - m.rank()
        for v in ker.basis.data:
            assert all(x == 0 for x in m.apply(v))
        sbasis = [from_sympy(v.T).row(0) for v in to_sympy(m).nullspace()]
        assert ker == Subspace.from_vectors(cols, sbasis)


def test_solve_exactness_sweep():
    rng = random.Random(303)
    for a in oracle_matrices(rng, 40):
        x_true = tuple(QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(a.cols))
        b = a.apply(x_true)
        particular, hom = solve(a, b)
        assert particular is not None
        assert a.apply(particular) == b
        assert hom == nullspace(a)
        # sympy's solution with every free parameter set to zero
        sol, params = to_sympy(a).gauss_jordan_solve(to_sympy(Matrix([b]).transpose()))
        sol = sol.subs({p: 0 for p in params})
        assert particular == from_sympy(sol.T).row(0)
        # a right hand side off the column space
        b_off = tuple(QQ(rng.randint(-3, 3)) for _ in range(a.rows))
        particular, hom = solve(a, b_off)
        try:
            to_sympy(a).gauss_jordan_solve(to_sympy(Matrix([b_off]).transpose()))
        except ValueError:
            assert particular is None
        else:
            assert a.apply(particular) == b_off
        assert hom == nullspace(a)


def test_subspace_dimension_law():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(1, 5)
        u = Subspace.from_vectors(
            n, [random_matrix(rng, 1, n).row(0) for _ in range(rng.randint(0, 3))])
        w = Subspace.from_vectors(
            n, [random_matrix(rng, 1, n).row(0) for _ in range(rng.randint(0, 3))])
        total = subspace_sum(u, w)
        meet = subspace_intersect(u, w)
        assert total.dim + meet.dim == u.dim + w.dim
        assert total.contains_subspace(u) and total.contains_subspace(w)
        assert u.contains_subspace(meet) and w.contains_subspace(meet)


def test_minimal_polynomial_properties_sweep():
    rng = random.Random(505)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        mp = minimal_polynomial(m)
        assert mp[-1] == 1
        assert mat_poly(mp, m).is_zero()
        # independent route: first Krylov dependency computed with sympy
        flats = []
        power = sympy.eye(n)
        sm = to_sympy(m)
        degree = None
        for k in range(n + 1):
            candidate = sympy.Matrix([power[i, j] for i in range(n) for j in range(n)])
            if flats:
                stacked = sympy.Matrix.hstack(*flats)
                try:
                    stacked.gauss_jordan_solve(candidate)
                except ValueError:
                    pass  # inconsistent: powers still independent
                else:
                    degree = k
                    break
            flats.append(candidate)
            power = power * sm
        assert degree == len(mp) - 1


def test_char_poly_matches_sympy():
    rng = random.Random(606)
    t = sympy.Symbol("lambda")
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        cp = char_poly(m)
        spoly = to_sympy(m).charpoly(t)
        scoeffs = list(reversed(spoly.all_coeffs()))
        assert [sympy.Rational(c.numerator, c.denominator) for c in cp] == scoeffs
        assert mat_poly(cp, m).is_zero()  # Cayley-Hamilton


def test_rational_roots_sweep():
    rng = random.Random(707)
    for _ in range(30):
        roots = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        coeffs = [QQ(1)]
        for r in roots:
            coeffs = [QQ(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        found = rational_roots(coeffs)
        assert set(found) == set(roots)
        for r in found:
            assert poly_eval(coeffs, r) == 0


def poly_mul(f, g):
    out = [QQ(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def test_rational_factors_rebuild_the_polynomial():
    """Random products of (t - a)^e and a factor without rational roots,
    scaled by a rational: the roots come back in ascending order with their
    multiplicities, and the cofactor times the (t - a)^e is the input. The
    numerators stay small, since the candidates come from trial division of
    the end coefficients; random 20-digit coefficients wait for the p-adic
    root finder of ROADMAP item 1, which removes that stall."""
    t = sympy.Symbol("t")
    rootless = [[QQ(1)], [QQ(1), QQ(0), QQ(1)], [QQ(-2), QQ(0), QQ(1)], [QQ(1), QQ(1), QQ(3)]]
    rng = random.Random(4471)
    for _ in range(60):
        roots = sorted({QQ(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))})
        mults = [rng.randint(1, 3) for _ in roots]
        rest = [QQ(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6))]
        for _ in range(rng.randint(0, 2)):
            rest = poly_mul(rest, rng.choice(rootless))
        linears = [[-a, QQ(1)] for a, e in zip(roots, mults) for _ in range(e)]
        coeffs = rest
        for f in linears:
            coeffs = poly_mul(coeffs, f)
        found, cofactor = _rational_factors(coeffs)
        assert found == list(zip(roots, mults))
        rebuilt = list(cofactor)
        for f in linears:
            rebuilt = poly_mul(rebuilt, f)
        assert rebuilt == coeffs and all(x.__class__ is QQ for x in cofactor)
        assert not sympy.Poly(list(reversed(cofactor)), t, domain="QQ").ground_roots()
        assert rational_roots(coeffs) == tuple(roots)
    with pytest.raises(ValueError, match="zero polynomial"):
        _rational_factors([QQ(0), QQ(0)])


def test_envelope_of_single_matrix_is_minpoly_degree():
    # the unital algebra generated by one matrix is QQ[m]
    rng = random.Random(808)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        degree = len(minimal_polynomial(m)) - 1
        assert envelope_dimension([m], n) == degree == envelope_by_products([m], n)
        # m, -m, 0 and scalars generate the same algebra as m alone
        assert envelope_dimension([m, -m, Matrix.zeros(n, n), m.scale(QQ(3, 2)),
                                   Matrix.identity(n).scale(QQ(-5))], n) == degree


def test_commutant_members_commute():
    rng = random.Random(909)
    for _ in range(15):
        n = rng.randint(1, 3)
        mats = [random_matrix(rng, n, n) for _ in range(rng.randint(1, 3))]
        for c in matrix_commutant(mats, n):
            for m in mats:
                assert c * m == m * c


def test_commutant_of_ladder_sum_2_3_4_4():
    rep = ladder_sum(2, 3, 4, 4)  # dimension 3 + 4 + 5 + 5 = 17
    mats = rep.action_matrices()
    comm = matrix_commutant(mats, 17)
    # Schur: one scalar per distinct ladder, M_2 on the repeated ladder 4
    assert len(comm) == 1 + 1 + 2 ** 2
    for c in comm:
        for m in mats:
            assert c * m == m * c


def test_commutator_equation_rows_shape():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    rows = commutator_equation_rows(a, b)
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    # the rows evaluate X a - b X entrywise
    x = Matrix([[5, 6], [7, 8]])
    expected = (x * a - b * x).flatten()
    for row, e in zip(rows, expected):
        assert sum(c * v for c, v in zip(row, x.flatten())) == e


def test_subspace_pivots_are_kept_outside_the_fields():
    s = Subspace.from_vectors(4, [(0, 2, 1, 0), (0, 0, 0, 3), (0, 4, 2, 3)])
    fresh = Subspace.from_vectors(4, [(0, 1, QQ(1, 2), 0), (0, 0, 0, 1)])
    assert s.pivots == (1, 3)
    assert s.pivots is s.pivots  # computed once
    assert s == fresh and hash(s) == hash(fresh)
    assert s.reduce((1, 1, 1, 1)) == (1, 0, QQ(1, 2), 0)
    assert s.coordinates_of((0, 2, 1, 5)) == (2, 5)
    assert Subspace.zero(3).pivots == () and Subspace.full(2).pivots == (0, 1)


# ---- the one invariance test and the matrix polynomials ----


def induced_by_coordinates(w: Subspace, m: Matrix):
    """Reference for Subspace.induced: the coordinates of m v for each basis
    vector v, one dense product at a time."""
    cols = []
    for v in w.basis.data:
        coords = w.coordinates_of(m.apply(v))
        if coords is None:
            return None
        cols.append(coords)
    return Matrix([[col[t] for col in cols] for t in range(w.dim)], cols=w.dim)


def random_rational_vectors(rng: random.Random, count: int, n: int) -> list:
    return [random_matrix(rng, 1, n).row(0) for _ in range(count)]


def spun(m: Matrix, seeds) -> Subspace:
    """Span of the seeds and their images under every power of m."""
    vecs, frontier = list(seeds), list(seeds)
    for _ in range(m.rows):
        frontier = [m.apply(v) for v in frontier]
        vecs += frontier
    return Subspace.from_vectors(m.rows, vecs)


def test_induced_matches_the_coordinate_reference():
    rng = random.Random(6151)
    invariant = proper_invariant = outside = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        # p b p^-1 with b block upper triangular keeps the span of the
        # first k columns of p invariant
        b = random_matrix(rng, n, n)
        b = Matrix([[0 if i >= k and j < k else x for j, x in enumerate(row)]
                    for i, row in enumerate(b.data)])
        p = random_matrix(rng, n, n)
        if not p.is_invertible():
            continue
        m = p * b * p.inverse()
        if rng.random() < 0.3:  # sparse matrices take the zero-skipping paths
            m = Matrix([[x if rng.random() < 0.4 else 0 for x in row] for row in m.data])
        seeds = random_rational_vectors(rng, rng.randint(1, n), n)
        cases = [Subspace.zero(n), Subspace.full(n),
                 Subspace.from_vectors(n, seeds),  # rarely invariant
                 Subspace.from_vectors(n, [p.col(j) for j in range(k)]),
                 spun(m, seeds[:1])]
        for w in cases:
            expected = induced_by_coordinates(w, m)
            assert w.induced(m) == expected
            if expected is None:
                outside += 1
            else:
                invariant += 1
                proper_invariant += 0 < w.dim < n
                assert expected.rows == expected.cols == w.dim
    assert invariant > 200 and proper_invariant > 30 and outside > 30


def test_induced_rejects_a_matrix_of_the_wrong_shape():
    m = Matrix([[1, 2], [3, 4]])
    for w in (Subspace.zero(3), Subspace.from_vectors(3, [[1, 0, 0]]), Subspace.full(3)):
        for bad in (m, Matrix.identity(4), Matrix.zeros(3, 2), Matrix.zeros(2, 3)):
            with pytest.raises(ValueError, match="does not act on"):
                w.induced(bad)


def test_poly_at_matches_the_sum_of_powers():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(0, 5)
        m = random_matrix(rng, n, n)
        coeffs = [QQ(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(rng.randint(0, 6))]
        assert _poly_at(coeffs, m) == mat_poly(coeffs, m)
        c = coeffs[0] if coeffs else QQ(-7, 3)
        assert _shift(m, c) == m + Matrix.identity(n).scale(c)


# -- the one sparse form --

def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """Reference for Matrix * Matrix: a dense accumulation loop."""
    out = []
    for row in a.data:
        acc = [QQ(0)] * b.cols
        for x, brow in zip(row, b.data):
            for j, y in enumerate(brow):
                acc[j] += x * y
        out.append(acc)
    return Matrix(out, cols=b.cols)


def dense_combination(coeffs, mats, rows: int, cols: int) -> Matrix:
    """Reference for linear_combination: a dense accumulation loop."""
    acc = [[QQ(0)] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        for arow, mrow in zip(acc, m.data):
            for j, x in enumerate(mrow):
                arow[j] += c * x
    return Matrix(acc, cols=cols)


def dense_sum(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """Reference for a + b (sign 1) and a - b (sign -1): the dense loop."""
    return Matrix([[x + sign * y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, b.data)])


def dense_scale(m: Matrix, c) -> Matrix:
    return Matrix([[c * x for x in row] for row in m.data])


def dense_apply(m: Matrix, v) -> tuple:
    out = []
    for row in m.data:
        s = QQ(0)
        for a, x in zip(row, v):
            if a != 0 and x != 0:
                s += a * x
        out.append(s)
    return tuple(out)


def dense_transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.data)) if m.rows else [()] * m.cols, cols=m.rows)


def dense_trace(m: Matrix):
    return sum((m.data[i][i] for i in range(m.rows)), QQ(0))


def scrambled(m: Matrix, rng: random.Random) -> Matrix:
    """The same matrix through _matrix_of, its rows and their columns
    stored in a random order."""
    rows = rng.sample(sorted(m.nz.items()), len(m.nz))
    return _matrix_of({r: dict(rng.sample(sorted(row.items()), len(row))) for r, row in rows},
                      m.rows, m.cols)


def holey_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    """Random rational matrix with many zero entries and some zero rows and columns."""
    zero_rows = {r for r in range(rows) if rng.random() < 0.3}
    zero_cols = {c for c in range(cols) if rng.random() < 0.3}
    return Matrix([[QQ(rng.randint(-3, 3), rng.randint(1, 3))
                    if r not in zero_rows and c not in zero_cols and rng.random() < 0.6
                    else QQ(0) for c in range(cols)] for r in range(rows)], cols=cols)


def only_fractions(m: Matrix) -> bool:
    return all(x.__class__ is Fraction for row in m.data for x in row)


def test_product_and_combination_match_the_dense_loops():
    rng = random.Random(6011)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(80)]
    for r, k, c in shapes:
        a, b = holey_matrix(rng, r, k), holey_matrix(rng, k, c)
        prod = a * b
        assert (prod.rows, prod.cols) == (r, c) and only_fractions(prod)
        assert prod == dense_product(a, b)
        mats = [holey_matrix(rng, r, c) for _ in range(rng.randint(0, 4))]
        coeffs = [QQ(rng.randint(-2, 2), rng.randint(1, 2)) for _ in mats]
        combo = linear_combination(coeffs, mats, r, c)
        assert (combo.rows, combo.cols) == (r, c) and only_fractions(combo)
        assert combo == dense_combination(coeffs, mats, r, c)
        # entries that cancel come back as zeros
        assert linear_combination([1, -1], [a, a], r, k) == Matrix.zeros(r, k)
        # the sparse arithmetic against the dense loops it replaced
        other, c2 = holey_matrix(rng, r, k), QQ(rng.randint(-3, 3), rng.randint(1, 3))
        v = random_rational_vectors(rng, 1, k)[0]
        results = [(a + other, dense_sum(a, other, 1), (r, k)),
                   (a - other, dense_sum(a, other, -1), (r, k)),
                   (-a, dense_scale(a, -1), (r, k)), (a.scale(c2), dense_scale(a, c2), (r, k)),
                   (c2 * a, dense_scale(a, c2), (r, k)), (a * 2, dense_scale(a, 2), (r, k)),
                   (a.transpose(), dense_transpose(a), (k, r))]
        for got, expected, shape in results:
            assert got == expected and (got.rows, got.cols) == shape and only_fractions(got)
        assert a.apply(v) == dense_apply(a, v)
        assert all(x.__class__ is Fraction for x in a.apply(v))
        assert a.is_zero() == all(x == 0 for row in a.data for x in row)
        square = holey_matrix(rng, r, r)
        assert square.trace() == dense_trace(square) and square.trace().__class__ is Fraction
    with pytest.raises(ValueError, match="cannot multiply"):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


def test_nz_is_sparse_and_matrix_of_inverts_it():
    """nz is the stored form, and a == b exactly when a.data == b.data,
    equal matrices hashing equal, whichever way the rows were built or ordered."""
    rng = random.Random(6012)
    shapes = [(0, 4), (4, 0), (1, 1), (3, 3)] + [(rng.randint(0, 6), rng.randint(0, 6))
                                                 for _ in range(80)]
    previous = []
    for r, c in shapes:
        m = holey_matrix(rng, r, c)
        s = m.nz
        assert all(row and all(x != 0 and x.__class__ is Fraction for x in row.values())
                   for row in s.values())
        assert sorted(s) == [i for i, row in enumerate(m.data) if any(row)]
        assert all(m.entry(i, j) == x for i, row in s.items() for j, x in row.items())
        assert all(m.row(i) == row and m.col(j) == tuple(row[j] for row in m.data)
                   for i, row in enumerate(m.data) for j in range(c))
        assert _matrix_of(s, m.rows, m.cols) == m
        assert Matrix.zeros(r, c).nz == {}
        forms = [m, Matrix([[str(x) for x in row] for row in m.data], cols=c), scrambled(m, rng),
                 scrambled(m, rng), m.transpose().transpose(), Matrix.from_flat(m.flatten(), r, c),
                 m + Matrix.zeros(r, c), m.scale(QQ(1))]
        for f in forms:
            assert f == m and hash(f) == hash(m) and f.data == m.data and only_fractions(f)
        assert len(set(forms)) == 1
        for other in previous[-6:] + [holey_matrix(rng, r, c)]:
            assert (other == m) == (other.data == m.data)
            assert other != m or hash(other) == hash(m)
        previous.append(m)
    # a matrix with no rows has no width to compare
    assert Matrix.zeros(0, 4) == Matrix.zeros(0, 0) == Matrix([]) == Matrix([], cols=4)
    assert hash(Matrix.zeros(0, 4)) == hash(Matrix([]))
    assert Matrix.zeros(2, 0) != Matrix.zeros(3, 0) and Matrix.zeros(2, 3) != Matrix.zeros(2, 4)
    assert Matrix([[1, 0]]) != Matrix([[1, 0, 0]]) and Matrix([[1], [0]]) != Matrix([[1]])
    with pytest.raises(AttributeError, match="immutable"):
        Matrix.identity(2).nz = {}
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="cols hint"):
        Matrix([[1, 2]], cols=3)


# -- the sparse Subspace --

def dense_reduce(s: Subspace, v) -> tuple:
    """Reference for Subspace.reduce: the dense elimination loop over the basis."""
    w = list(vec(v))
    for row, p in zip(s.basis.data, s.pivots):
        f = w[p]
        if f != 0:
            for j, x in enumerate(row):
                if x != 0:
                    w[j] -= f * x
    return tuple(w)


def intersect_by_nullspace(a: Subspace, b: Subspace) -> Subspace:
    """Reference for subspace_intersect: the kernel of [A^T | -B^T] gives the
    coefficients of the common vectors in the basis of a."""
    n, ra, rb = a.ambient_dim, a.dim, b.dim
    if ra == 0 or rb == 0:
        return Subspace.zero(n)
    m = Matrix([[a.basis.entry(k, i) for k in range(ra)]
                + [-b.basis.entry(k, i) for k in range(rb)] for i in range(n)])
    coeffs = Matrix([u[:ra] for u in nullspace(m).basis.data], cols=ra)
    return Subspace.from_vectors(n, (coeffs * a.basis).data)


def subspace_pairs(rng: random.Random, n: int) -> list[tuple[Subspace, Subspace]]:
    """Pairs over QQ^n: with the zero and the full subspace, random spans of
    every dimension, sparse spans, and spans that share a random part."""
    spans = [Subspace.zero(n), Subspace.full(n)]
    spans += [Subspace.from_vectors(n, random_rational_vectors(rng, k, n)) for k in range(n + 1)]
    spans += [Subspace.from_vectors(n, holey_matrix(rng, rng.randint(1, 3), n).data)
              for _ in range(2)]
    shared = random_rational_vectors(rng, rng.randint(1, max(1, n - 1)), n)
    spans += [Subspace.from_vectors(n, shared + random_rational_vectors(rng, rng.randint(0, 2), n))
              for _ in range(2)]
    return [(a, b) for a in spans for b in spans]


def test_reduce_and_intersect_match_the_dense_references():
    rng = random.Random(7011)
    proper = inside = outside = 0
    for n in [0, 0, 1, 1] + [rng.randint(2, 6) for _ in range(14)]:
        for a, b in subspace_pairs(rng, n):
            meet = subspace_intersect(a, b)
            expected = intersect_by_nullspace(a, b)
            assert meet == expected and meet.pivots == expected.pivots
            assert meet.basis == expected.basis
            proper += 0 < meet.dim < min(a.dim, b.dim)
            vectors = list(b.basis.data) + random_rational_vectors(rng, 2, n) + [(0,) * n]
            for v in vectors:
                remainder = a.reduce(v)
                assert remainder == dense_reduce(a, v) and only_fractions(Matrix([remainder]))
                assert a.contains(v) == (not any(remainder))
                coords = a.coordinates_of(v)
                if coords is None:
                    outside += 1
                else:
                    inside += 1
                    combo = [sum((c * row[j] for c, row in zip(coords, a.basis.data)), QQ(0))
                             for j in range(n)]
                    assert tuple(combo) == vec(v)
            assert a.contains_subspace(b) == all(a.contains(v) for v in b.basis.data)
            assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert proper > 40 and inside > 400 and outside > 400
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace.full(3).contains_subspace(Subspace.full(2))
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace.full(3).reduce((1, 2))


def test_subspace_form_ignores_the_spanning_vectors():
    """Equality and hash do not depend on the order or the scaling of the
    spanning vectors, nor on the constructor; basis is the view of rows."""
    rng = random.Random(7012)
    for n in [0, 1, 2] + [rng.randint(2, 6) for _ in range(40)]:
        vectors = random_rational_vectors(rng, rng.randint(0, n + 1), n)
        s = Subspace.from_vectors(n, vectors)
        scales = [QQ(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in vectors]
        shuffled = [tuple(c * x for x in v)
                    for c, v in zip(scales, rng.sample(vectors, len(vectors)))]
        combos = [tuple(sum(x) for x in zip(*vectors[:k])) for k in range(2, len(vectors) + 1)]
        ech = Echelon(n)
        for v in reversed(shuffled + combos):
            ech.insert(v)
        forms = [s, Subspace.from_vectors(n, shuffled + combos), ech.subspace(),
                 Subspace(n, s.basis), Subspace(n, Matrix(s.basis.data, cols=n)),
                 Subspace(n, scrambled(s.basis, rng)),
                 Subspace(n, Matrix(shuffled + combos, cols=n))]
        if s.is_full():
            forms += [Subspace.full(n), Subspace(n, Matrix.identity(n))]
        for f in forms:
            assert f == s and hash(f) == hash(s) and f.pivots == s.pivots
            assert f.basis == _matrix_of(f.rows, f.dim, n) == s.basis
            assert (f.basis.rows, f.basis.cols) == (f.dim, n) and only_fractions(f.basis)
            assert sorted(f.rows) == list(range(f.dim))
            for p, row in zip(f.pivots, f.rows.values()):
                assert row[p] == 1 and min(row) == p and all(x != 0 for x in row.values())
                assert not set(row) & (set(f.pivots) - {p})
        assert len(set(forms)) == 1
        assert repr(forms[2]) == repr(s) == f"Subspace(ambient_dim={n}, basis={s.basis!r})"


def test_subspace_constructor_canonicalises_its_basis():
    """Subspace(n, basis) is the span of the rows of any basis, not only of
    a reduced one with no zero row; the random spanning sets of the test
    above are the other cases."""
    upper = Subspace(2, Matrix([[1, 1], [0, 1]]))
    assert upper.dim == 2 and upper.contains([1, 0]) and upper == Subspace.full(2)
    assert Subspace(2, Matrix([[2, 0]])) == Subspace.from_vectors(2, [[1, 0]])
    lower = Subspace(2, Matrix([[0, 0], [1, 0]]))
    assert lower.rows == {0: {0: 1}} and lower.basis == Matrix([[1, 0]])
    assert Subspace(3, Matrix([], cols=2)) == Subspace.zero(3)
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace(3, Matrix([[1, 0]]))
