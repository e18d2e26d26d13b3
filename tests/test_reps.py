"""Representation-level tests.

The weight-ladder action matrices used here were derived by hand from the
commutation requirements and frozen; the constructor's eager axiom check is
itself the first gate. Intertwiner dimensions are cross-checked against a
sympy oracle that assembles the commutation equations symbolically.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from leibnizalg import irreducible
from leibnizalg.algebra import LeibnizAlgebra, algebra_from_brackets
from leibnizalg.irreducible import IrreducibilityVerdict, irreducibility
from leibnizalg.linalg import Matrix, Subspace, _norton, envelope_dimension, nullspace
from leibnizalg.modules import (
    EquivalenceVerdict,
    abelian_algebra,
    adjoint_rep,
    dichotomy_classify,
    direct_sum,
    equivalence,
    example_5_5,
    from_lie_rep,
    is_invariant,
    module_restriction,
    restrict,
    sym_span,
)
from leibnizalg.poly import minimal_polynomial, rational_roots
from leibnizalg.reps import AxiomViolationError, Representation, spin_submodule
from leibnizalg.sl2 import sl2_leibniz_irrep

from bases import change_rep_basis, random_invertible

F = Fraction


def sl2():
    return algebra_from_brackets(
        ["e", "f", "h"],
        {
            ("e", "h"): {"e": 2}, ("h", "e"): {"e": -2},
            ("h", "f"): {"f": 2}, ("f", "h"): {"f": -2},
            ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
        },
        name="sl2",
    )


def ext5():
    return algebra_from_brackets(
        ["e", "f", "h", "x0", "x1"],
        {
            ("e", "h"): {"e": 2}, ("h", "e"): {"e": -2},
            ("h", "f"): {"f": 2}, ("f", "h"): {"f": -2},
            ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
            ("x0", "h"): {"x0": 1}, ("x1", "h"): {"x1": -1},
            ("x0", "f"): {"x1": 1}, ("x1", "e"): {"x0": -1},
        },
        name="ext5",
    )


def ladder_rho(m):
    """Right-action matrices of e, f, h on the weight ladder of size m + 1."""
    d = m + 1
    e_rows = [[F(0)] * d for _ in range(d)]
    for r in range(m):
        e_rows[r][r + 1] = F((r + 1) * (m - r))
    f_rows = [[F(0)] * d for _ in range(d)]
    for r in range(1, d):
        f_rows[r][r - 1] = F(-1)
    h_rows = [[F(0)] * d for _ in range(d)]
    for r in range(d):
        h_rows[r][r] = F(m - 2 * r)
    return Matrix(e_rows), Matrix(f_rows), Matrix(h_rows)


def ladder_rep(m, variant):
    rho = ladder_rho(m)
    d = m + 1
    if variant == "anti_symmetric":
        left = tuple(-x for x in rho)
    else:
        left = tuple(Matrix.zeros(d, d) for _ in rho)
    return Representation(sl2(), rho, left, name=f"ladder{m}[{variant}]")


# -- construction and axiom checking --

def test_ladder_reps_satisfy_axioms():
    for m in (0, 1, 2, 3, 5):
        for variant in ("anti_symmetric", "zero_lambda"):
            rep = ladder_rep(m, variant)
            assert rep.is_valid, (m, variant)
            assert rep.space_dim == m + 1


def test_ladder_rho_frozen_m1():
    e, f, h = ladder_rho(1)
    assert e == Matrix([[0, 1], [0, 0]])
    assert f == Matrix([[0, 0], [-1, 0]])
    assert h == Matrix([[1, 0], [0, -1]])


def test_axiom_violation_detected_and_blocks():
    rho = list(ladder_rho(1))
    rho[0] = rho[0] + Matrix([[1, 0], [0, 0]])
    rep = Representation(sl2(), rho, [-x for x in rho])
    assert not rep.is_valid
    assert any(v[0] == 1 for v in rep.axiom_violations)
    with pytest.raises(AxiomViolationError):
        irreducibility(rep)


def test_rep_shape_errors():
    rho = ladder_rho(1)
    with pytest.raises(ValueError):
        Representation(sl2(), rho[:2], [-x for x in rho])
    with pytest.raises(ValueError):
        Representation(sl2(), rho, [Matrix.zeros(2, 3)] * 3)


def test_adjoint_rep_valid_everywhere():
    nilp2 = algebra_from_brackets(["a", "b"], {("a", "a"): {"b": 1}})
    for alg in [sl2(), ext5(), nilp2]:
        rep = adjoint_rep(alg)
        assert rep.is_valid, alg.name
        assert rep.space_dim == alg.dim


def test_right_action_of_kernel_vanishes():
    # forced by the first axiom, so it doubles as a convention check
    for alg in [ext5(), algebra_from_brackets(["a", "b"], {("a", "a"): {"b": 1}})]:
        rep = adjoint_rep(alg)
        for v in alg.leibniz_kernel().basis.data:
            assert rep.rho_of(v).is_zero()


def test_an_action_needs_one_coordinate_per_algebra_basis_vector():
    rep = sl2_leibniz_irrep(1, "anti_symmetric")
    assert rep.rho_of((0, 0, 1)) == rep.right[2]
    assert rep.lambda_of((0, 0, 1)) == rep.left[2]
    for x in ((1,), (1, 0), (1, 0, 0, 5, 7), ()):
        for action in (rep.rho_of, rep.lambda_of):
            with pytest.raises(ValueError, match="algebra dimension"):
                action(x)
        with pytest.raises(ValueError, match="algebra dimension"):
            rep.algebra.bracket(x, x)


def test_from_lie_rep_matches_direct_construction():
    rho = ladder_rho(2)
    phi = [-x for x in rho]
    rep = from_lie_rep(sl2(), phi, "anti_symmetric")
    assert rep.right == tuple(rho)
    assert rep.left == tuple(phi)
    zl = from_lie_rep(sl2(), phi, "zero_lambda")
    assert zl.right == tuple(rho)
    assert all(m.is_zero() for m in zl.left)


def test_from_lie_rep_rejections():
    rho = ladder_rho(1)
    with pytest.raises(ValueError):
        from_lie_rep(ext5(), [Matrix.zeros(2, 2)] * 5, "zero_lambda")
    with pytest.raises(ValueError):
        from_lie_rep(sl2(), list(rho), "anti_symmetric")  # rho itself is not Lie
    with pytest.raises(ValueError, match=r"not a Lie homomorphism at pair \(0,1\)"):
        from_lie_rep(sl2(), list(rho), "zero_lambda")
    with pytest.raises(ValueError):
        from_lie_rep(sl2(), [-x for x in rho], "sideways")


# -- sums, restrictions, invariance --

def test_direct_sum_blocks_and_projections():
    a = ladder_rep(1, "anti_symmetric")
    b = ladder_rep(2, "anti_symmetric")
    s = direct_sum(a, b)
    assert s.is_valid and s.space_dim == 5
    first = Subspace.from_vectors(5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    assert is_invariant(s, first)
    cut = module_restriction(s, first)
    assert cut.right == a.right and cut.left == a.left


def test_direct_sum_needs_common_algebra():
    other = algebra_from_brackets(["a", "b"], {("a", "b"): {"a": 1},
                                               ("b", "a"): {"a": -1}})
    one_dim = Representation(other,
                             [Matrix.zeros(1, 1), Matrix([[1]])],
                             [Matrix.zeros(1, 1), Matrix([[-1]])])
    assert one_dim.is_valid
    with pytest.raises(ValueError):
        direct_sum(ladder_rep(1, "zero_lambda"), one_dim)


def test_module_restriction_requires_invariance():
    s = direct_sum(ladder_rep(1, "anti_symmetric"), ladder_rep(2, "anti_symmetric"))
    diag = Subspace.from_vectors(5, [(1, 0, 1, 0, 0)])
    with pytest.raises(ValueError, match="not invariant under both actions"):
        module_restriction(s, diag)
    with pytest.raises(ValueError, match="wrong ambient space"):
        module_restriction(s, Subspace.full(4))


def test_restrict_to_subalgebra():
    alg = ext5()
    rep = adjoint_rep(alg)
    levi = Subspace.from_vectors(5, [tuple(F(t == c) for t in range(5))
                                     for c in (0, 1, 2)])
    cut = restrict(rep, levi)
    assert cut.is_valid
    assert cut.algebra == sl2()
    assert cut.space_dim == 5


def test_kernel_module_of_extension_matches_ladder():
    # the tail of the 5-dim simple algebra carries the 2-dim ladder with
    # vanishing left action, up to an invertible intertwiner
    alg = ext5()
    rep = adjoint_rep(alg)
    levi = Subspace.from_vectors(5, [tuple(F(t == c) for t in range(5))
                                     for c in (0, 1, 2)])
    over_sl2 = restrict(rep, levi)
    kernel = Subspace.from_vectors(5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert is_invariant(over_sl2, kernel)
    tail = module_restriction(over_sl2, kernel)
    assert all(m.is_zero() for m in tail.left)
    verdict = equivalence(tail, ladder_rep(1, "zero_lambda"))
    assert verdict.value == "equivalent"


# -- irreducibility and the dichotomy --

def test_irreducibility_ladder():
    for m in (0, 1, 2, 3):
        for variant in ("anti_symmetric", "zero_lambda"):
            v = irreducibility(ladder_rep(m, variant))
            assert v.value == "abs_irreducible", (m, variant)


def test_irreducibility_adjoint_sl2():
    assert irreducibility(adjoint_rep(sl2())).value == "abs_irreducible"


def test_irreducibility_reducible_cases():
    s = direct_sum(ladder_rep(1, "anti_symmetric"), ladder_rep(2, "anti_symmetric"))
    v = irreducibility(s)
    assert v.value == "reducible"
    assert v.witness is not None and 0 < v.witness.dim < 5
    assert is_invariant(s, v.witness)

    v5 = irreducibility(adjoint_rep(ext5()))
    assert v5.value == "reducible"
    assert v5.witness is not None and v5.witness.dim == 2


def test_reducible_although_the_kernel_vector_spins_to_everything():
    # [x, y] = y acting by phi(x) = E11, phi(y) = E12 keeps the line of e_1.
    # The kernel vector e_2 of rho(x) = -E11 spins to QQ^2; only the spin of
    # the kernel vector of rho(x)^T sees the invariant line.
    alg = algebra_from_brackets(["x", "y"], {("x", "y"): {"y": 1},
                                             ("y", "x"): {"y": -1}})
    e11, e12 = Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]])
    for variant in ("zero_lambda", "anti_symmetric"):
        rep = from_lie_rep(alg, [e11, e12], variant)
        assert spin_submodule(rep, [(0, 1)]).is_full()
        assert not _norton(rep.action_matrices(), 2)
        v = irreducibility(rep)
        assert v.value == "reducible"
        assert v.witness == Subspace.from_vectors(2, [(1, 0)])


def spin_by_fixed_point(rep, seeds):
    """Reference spin: apply every action matrix to the whole span until
    the dimension stops growing."""
    span = Subspace.from_vectors(rep.space_dim, seeds)
    while True:
        grown = list(span.basis.data)
        grown += [m.apply(v) for v in span.basis.data for m in rep.action_matrices()]
        bigger = Subspace.from_vectors(rep.space_dim, grown)
        if bigger.dim == span.dim:
            return span
        span = bigger


def test_spin_submodule_frozen():
    s = direct_sum(ladder_rep(1, "zero_lambda"), ladder_rep(1, "zero_lambda"))
    sub = spin_submodule(s, [(1, 0, 0, 0)])
    assert sub == Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # against the fixed point, on canonical and dense bases
    rng = random.Random(3301)
    sums = [direct_sum(ladder_rep(1, v), ladder_rep(2, v))
            for v in ("zero_lambda", "anti_symmetric")]
    sums += [s, direct_sum(ladder_rep(2, "anti_symmetric"), ladder_rep(0, "anti_symmetric")),
             adjoint_rep(ext5())]
    for rep in sums + [conjugate_rep(r, random_invertible(rng, r.space_dim)) for r in sums]:
        d = rep.space_dim
        seed_lists = [[tuple(F(t == i) for t in range(d))] for i in range(d)]
        seed_lists += [[tuple(F(rng.randint(-2, 2)) for _ in range(d))
                        for _ in range(rng.randint(0, 2))] for _ in range(4)]
        for seeds in seed_lists:
            assert spin_submodule(rep, seeds) == spin_by_fixed_point(rep, seeds)


def test_maps_act_on_column_vectors_not_transposed():
    # the Jordan block J kills e_0 and maps e_1 to e_0; read transposed, as
    # J^T, it would map e_0 to e_1 and spin e_0 to everything
    jordan = Matrix([[0, 1], [0, 0]])
    rep = Representation(abelian_algebra(1), [jordan], [Matrix.zeros(2, 2)])
    assert rep.is_valid
    assert spin_submodule(rep, [(1, 0)]) == Subspace.from_vectors(2, [(1, 0)])
    assert spin_submodule(rep, [(0, 1)]).is_full()
    assert irreducibility(rep) == IrreducibilityVerdict(
        "reducible", Subspace.from_vectors(2, [(1, 0)]), "proper invariant subspace found")
    # Norton on {J}: ker J = e_0 spins under J to itself, so no certificate.
    # Spun the wrong way, ker J under J^T and ker J^T = e_1 under J would
    # both reach QQ^2 and certify a reducible module
    assert not _norton([jordan], 2)
    assert _norton([jordan, jordan.transpose()], 2)
    assert envelope_dimension([jordan], 2) == 2


def test_is_invariant_agrees_with_induced_on_catalog_submodules():
    rng = random.Random(6007)
    sums = [direct_sum(ladder_rep(1, v), ladder_rep(2, v))
            for v in ("zero_lambda", "anti_symmetric")]
    sums += [direct_sum(ladder_rep(2, "anti_symmetric"), ladder_rep(2, "anti_symmetric")),
             adjoint_rep(ext5())]
    seen = {True: 0, False: 0}
    for rep in sums + [conjugate_rep(r, random_invertible(rng, r.space_dim)) for r in sums]:
        d = rep.space_dim
        mats = rep.action_matrices()
        subs = [spin_submodule(rep, [tuple(F(t == i) for t in range(d))]) for i in range(d)]
        subs += [spin_submodule(rep, [tuple(F(rng.randint(-2, 2)) for _ in range(d))])
                 for _ in range(2)]
        subs += [Subspace.from_vectors(d, [tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                                                 for _ in range(d)) for _ in range(k)])
                 for k in range(1, d)]
        for w in subs:
            verdict = is_invariant(rep, w)
            assert verdict == all(w.induced(m) is not None for m in mats)
            # the dense formulation: every image of every basis vector stays inside
            assert verdict == all(w.contains(m.apply(v)) for m in mats for v in w.basis.data)
            if verdict:
                assert module_restriction(rep, w).space_dim == w.dim
            seen[verdict] += 1
        with pytest.raises(ValueError):
            is_invariant(rep, Subspace.full(d + 1))
    assert seen[True] > 30 and seen[False] > 30


def test_sym_span_frozen():
    assert sym_span(ladder_rep(2, "anti_symmetric")).is_zero()
    assert sym_span(ladder_rep(2, "zero_lambda")).is_full()


def test_dichotomy_classification():
    assert dichotomy_classify(ladder_rep(1, "anti_symmetric")) == "anti_symmetric"
    assert dichotomy_classify(ladder_rep(2, "zero_lambda")) == "zero_lambda"
    assert dichotomy_classify(adjoint_rep(sl2())) == "anti_symmetric"


def test_dichotomy_requires_irreducible():
    s = direct_sum(ladder_rep(1, "anti_symmetric"), ladder_rep(1, "anti_symmetric"))
    with pytest.raises(ValueError):
        dichotomy_classify(s)


def test_one_dimensional_reps():
    solv = algebra_from_brackets(["a", "b"], {("a", "b"): {"a": 1},
                                              ("b", "a"): {"a": -1}})
    rep = Representation(solv, [Matrix.zeros(1, 1), Matrix([[1]])],
                         [Matrix.zeros(1, 1), Matrix([[-1]])])
    assert rep.is_valid
    assert irreducibility(rep).value == "abs_irreducible"
    assert dichotomy_classify(rep) == "anti_symmetric"


# -- equivalence --

def conjugate_rep(rep, p):
    pinv = p.inverse()
    return Representation(rep.algebra,
                          [p * m * pinv for m in rep.right],
                          [p * m * pinv for m in rep.left])


def test_equivalence_of_conjugates():
    rng = random.Random(9203)
    for m in (1, 2):
        rep = ladder_rep(m, "anti_symmetric")
        p = random_invertible(rng, m + 1)
        other = conjugate_rep(rep, p)
        verdict = equivalence(rep, other)
        assert verdict.value == "equivalent"
        t = verdict.certificate
        assert t is not None and t.is_invertible()
        for j in range(3):
            assert t * rep.right[j] == other.right[j] * t
            assert t * rep.left[j] == other.left[j] * t


def test_not_equivalent_cases():
    assert equivalence(ladder_rep(1, "anti_symmetric"),
                       ladder_rep(2, "anti_symmetric")).value == "not_equivalent"
    # same right action, different left action: only the zero intertwiner
    assert equivalence(ladder_rep(1, "anti_symmetric"),
                       ladder_rep(1, "zero_lambda")).value == "not_equivalent"


def test_equivalence_undetermined_on_singular_intertwiners():
    # 1+1+2 against 2+2+0 (d = 7): Hom is the 2-dimensional space of maps
    # from the one ladder2 into the two, and none is invertible. The
    # dimension criterion of ROADMAP item 3 (dim End V, dim Hom(V, W) and
    # dim End W are 5, 2 and 5) should turn this into not_equivalent.
    ladders = [ladder_rep(m, "zero_lambda") for m in range(3)]
    v = direct_sum(direct_sum(ladders[1], ladders[1]), ladders[2])
    w = direct_sum(direct_sum(ladders[2], ladders[2]), ladders[0])
    assert v.space_dim == w.space_dim == 7
    assert equivalence(v, w) == EquivalenceVerdict(
        "undetermined", None, "intertwiners exist but none of the sampled ones is invertible")


def test_equivalence_needs_common_algebra():
    solv = algebra_from_brackets(["a", "b"], {("a", "b"): {"a": 1},
                                              ("b", "a"): {"a": -1}})
    rep = Representation(solv, [Matrix.zeros(1, 1), Matrix([[1]])],
                         [Matrix.zeros(1, 1), Matrix([[-1]])])
    with pytest.raises(ValueError):
        equivalence(rep, ladder_rep(0, "zero_lambda"))


def sympy_intertwiner_dim(a, b):
    """Assemble T rho_a = rho_b T and T lam_a = lam_b T symbolically."""
    d1, d2 = a.space_dim, b.space_dim
    t = sp.Matrix(d2, d1, lambda i, j: sp.Symbol(f"t_{i}_{j}"))

    def to_sp(m):
        return sp.Matrix(m.rows, m.cols, lambda i, j: sp.Rational(m.entry(i, j)))

    eqs = []
    for j in range(a.algebra.dim):
        eqs.extend(list(t * to_sp(a.right[j]) - to_sp(b.right[j]) * t))
        eqs.extend(list(t * to_sp(a.left[j]) - to_sp(b.left[j]) * t))
    syms = list(t)
    mat, _ = sp.linear_eq_to_matrix(eqs, syms)
    return len(syms) - mat.rank()


def test_intertwiner_dims_match_sympy_oracle():
    pairs = [
        (ladder_rep(1, "anti_symmetric"), ladder_rep(1, "anti_symmetric"), 1),
        (ladder_rep(1, "anti_symmetric"), ladder_rep(1, "zero_lambda"), 0),
        (ladder_rep(2, "zero_lambda"), ladder_rep(2, "zero_lambda"), 1),
        (ladder_rep(1, "anti_symmetric"), ladder_rep(2, "anti_symmetric"), 0),
    ]
    from leibnizalg.equations import intertwiner_space
    for a, b, expected in pairs:
        sys_pairs = [(a.right[j], b.right[j]) for j in range(3)]
        sys_pairs += [(a.left[j], b.left[j]) for j in range(3)]
        ours = len(intertwiner_space(sys_pairs, b.space_dim, a.space_dim))
        assert ours == expected
        assert sympy_intertwiner_dim(a, b) == expected


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(0, 3), min_size=1, max_size=2),
       variant=st.sampled_from(["zero_lambda", "anti_symmetric"]),
       data=st.data())
def test_verdict_and_envelope_survive_integer_conjugation(sizes, variant, data):
    rep = ladder_rep(sizes[0], variant)
    for m in sizes[1:]:
        rep = direct_sum(rep, ladder_rep(m, variant))
    d = rep.space_dim
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d))
    p = Matrix([entries[i * d:(i + 1) * d] for i in range(d)])
    assume(p.is_invertible())
    other = conjugate_rep(rep, p)
    assert other.is_valid
    mats = rep.action_matrices()
    assert (envelope_dimension(other.action_matrices(), d)
            == envelope_dimension(mats, d)
            == sum((m + 1) ** 2 for m in set(sizes)))
    assert irreducibility(other).value == irreducibility(rep).value


def test_invariants_survive_conjugation():
    rng = random.Random(5218)
    for m, variant in [(1, "anti_symmetric"), (2, "zero_lambda")]:
        rep = ladder_rep(m, variant)
        for _ in range(2):
            other = conjugate_rep(rep, random_invertible(rng, m + 1))
            assert other.is_valid
            assert irreducibility(other).value == "abs_irreducible"
            assert dichotomy_classify(other) == dichotomy_classify(rep)


# -- the sparse integer axiom check against the dense products --

def axiom_violations_by_dense_products(rep):
    """Reference axiom check: dense Fraction products, basis pair by basis pair."""
    alg = rep.algebra
    bad = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            rho_br = rep.rho_of(alg.table[i][j])
            lam_br = rep.lambda_of(alg.table[i][j])
            ri, rj = rep.right[i], rep.right[j]
            li, lj = rep.left[i], rep.left[j]
            if rho_br != rj * ri - ri * rj:
                bad.append((1, i, j))
            if lam_br != rj * li - li * rj:
                bad.append((2, i, j))
            if lam_br != rj * li + li * lj:
                bad.append((3, i, j))
    return tuple(bad)


def rescale_algebra(rep, scales):
    """The same module over the basis s_i b_i, where
    [s_i b_i, s_j b_j] = sum_t (s_i s_j / s_t) c_ij^t (s_t b_t)."""
    alg = rep.algebra
    n = alg.dim
    table = [[[F(scales[i]) * scales[j] / scales[t] * alg.table[i][j][t] for t in range(n)]
              for j in range(n)] for i in range(n)]
    return Representation(LeibnizAlgebra(alg.basis_names, table),
                          [m.scale(F(s)) for m, s in zip(rep.right, scales)],
                          [m.scale(F(s)) for m, s in zip(rep.left, scales)])


def random_fractional_invertible(rng, n):
    while True:
        m = Matrix([[rng.choice([-1, 0, 1, F(1, 2), F(-2, 3), F(3, 2)]) for _ in range(n)]
                    for _ in range(n)])
        if m.is_invertible():
            return m


CORRUPTIONS = (F(1), F(-1), F(1, 2), F(-2, 3), F(3))


def corrupt(rep, changes):
    """Copy of rep with each (side, k, r, c, x) adding x at entry (r, c) of
    the right (side 0) or left (side 1) action of basis element k."""
    sides = [[[list(row) for row in m.data] for m in rep.right],
             [[list(row) for row in m.data] for m in rep.left]]
    for side, k, r, c, x in changes:
        sides[side][k][r][c] += x
    return Representation(rep.algebra, [Matrix(m) for m in sides[0]],
                          [Matrix(m) for m in sides[1]])


def one_dimensional_modules():
    line = algebra_from_brackets(["a"], {})
    rot = Matrix([[0, -1], [1, 0]])
    return [Representation(line, [rot], [-rot]),
            Representation(line, [rot], [Matrix.zeros(2, 2)])]


def axiom_check_modules():
    rng = random.Random(6301)
    mods = [ladder_rep(m, v) for m in (0, 1, 2, 3)
            for v in ("anti_symmetric", "zero_lambda")]
    mods += [direct_sum(ladder_rep(1, v), ladder_rep(2, v))
             for v in ("anti_symmetric", "zero_lambda")]
    mods += [conjugate_rep(ladder_rep(2, v), random_invertible(rng, 3))
             for v in ("anti_symmetric", "zero_lambda")]
    mods += [conjugate_rep(ladder_rep(m, v), random_fractional_invertible(rng, m + 1))
             for m, v in ((1, "anti_symmetric"), (2, "zero_lambda"))]
    mods += [rescale_algebra(ladder_rep(2, v), (F(1, 2), 3, F(-2, 3)))
             for v in ("anti_symmetric", "zero_lambda")]
    mods += [adjoint_rep(ext5()), adjoint_rep(sl2())]
    mods += one_dimensional_modules()
    return mods


def test_axiom_check_matches_dense_products_on_corrupted_modules():
    rng = random.Random(4417)
    found = set()
    for rep in axiom_check_modules():
        assert rep.axiom_violations == axiom_violations_by_dense_products(rep) == ()
        n, d = rep.algebra.dim, rep.space_dim
        for _ in range(10):
            changes = [(rng.randrange(2), rng.randrange(n), rng.randrange(d),
                        rng.randrange(d), rng.choice(CORRUPTIONS))
                       for _ in range(rng.randint(1, 3))]
            bad = corrupt(rep, changes)
            assert bad.axiom_violations == axiom_violations_by_dense_products(bad)
            found.update(a for a, _, _ in bad.axiom_violations)
    assert found == {1, 2, 3}  # the corruptions break every axiom


def test_axiom_check_matches_dense_products_with_some_zero_left_actions():
    # one nonzero left action among zero ones, and one zero among nonzero ones
    zero = Matrix.zeros(3, 3)
    rho = ladder_rep(2, "zero_lambda").right
    for k in range(3):
        lefts = [[zero if t == k else -m for t, m in enumerate(rho)]]
        for x in (Matrix.identity(3).scale(F(-1, 2)), -rho[(k + 1) % 3]):
            lefts.append([x if t == k else zero for t in range(3)])
        for left in lefts:
            rep = Representation(sl2(), rho, left)
            assert rep.axiom_violations
            assert rep.axiom_violations == axiom_violations_by_dense_products(rep)


def test_axiom_check_on_dense_actions_stays_small():
    # one pair at a time: no table of the n(n - 1) products R_a R_b
    rng = random.Random(24)
    d = 24
    rho = [Matrix([[rng.choice([-2, -1, 1, 2, F(1, 2)]) for _ in range(d)] for _ in range(d)])
           for _ in range(8)]
    lam = [Matrix.zeros(d, d)] * 8
    algebra = abelian_algebra(8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = Representation(algebra, rho, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.axiom_violations
    assert peak < 1_000_000, peak


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 2),
       variant=st.sampled_from(["zero_lambda", "anti_symmetric"]),
       extra=st.sampled_from([None, 0, 1]),
       scales=st.sampled_from([None, (1, -1, 2), (F(1, 2), 3, F(-2, 3))]),
       data=st.data())
def test_axiom_check_matches_dense_products_property(m, variant, extra, scales, data):
    rep = ladder_rep(m, variant)
    if extra is not None:
        rep = direct_sum(rep, ladder_rep(extra, variant))
    d = rep.space_dim
    entries = data.draw(st.lists(st.sampled_from([-1, 0, 1, 2, F(1, 2), F(-2, 3)]),
                                 min_size=d * d, max_size=d * d))
    p = Matrix([entries[i * d:(i + 1) * d] for i in range(d)])
    assume(p.is_invertible())
    rep = conjugate_rep(rep, p)
    if scales is not None:
        rep = rescale_algebra(rep, scales)
    changes = data.draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, d - 1),
                  st.integers(0, d - 1), st.sampled_from(CORRUPTIONS)), max_size=3))
    bad = corrupt(rep, changes)
    assert bad.axiom_violations == axiom_violations_by_dense_products(bad)


# -- Norton's certificate against the envelope-first verdict --

def irreducibility_by_envelope(rep):
    """Reference verdict: the envelope closure first, then the spins of the
    coordinate vectors and of the rational eigenvectors."""
    d = rep.space_dim
    if d == 0:
        return IrreducibilityVerdict("reducible", Subspace.zero(0), "zero module")
    env = envelope_dimension(rep.action_matrices(), d)
    if env == d * d:
        return IrreducibilityVerdict("abs_irreducible", None, f"envelope dimension {env}")
    candidates = list(Matrix.identity(d).data)
    for m in rep.action_matrices():
        for root in rational_roots(minimal_polynomial(m)):
            candidates += nullspace(m - Matrix.identity(d).scale(root)).basis.data
    for v in candidates:
        sub = spin_submodule(rep, [v])
        if 0 < sub.dim < d:
            return IrreducibilityVerdict("reducible", sub, "proper invariant subspace found")
    return IrreducibilityVerdict(
        "undetermined", None, f"envelope dimension {env} below {d * d} but no witness found")


def test_irreducibility_matches_the_envelope_first_reference():
    rng = random.Random(1414)
    variants = ("zero_lambda", "anti_symmetric")
    modules = [ladder_rep(m, v) for m in range(17) for v in variants]
    modules += [direct_sum(ladder_rep(a, v), ladder_rep(b, v))
                for a, b in ((0, 0), (1, 1), (1, 2), (3, 5), (5, 5), (2, 0)) for v in variants]
    modules += [direct_sum(direct_sum(ladder_rep(1, v), ladder_rep(2, v)), ladder_rep(2, v))
                for v in variants]
    modules += [example_5_5(top, bottom) for top in variants for bottom in variants]
    modules += [adjoint_rep(sl2()), adjoint_rep(ext5())] + one_dimensional_modules()
    # dense module and algebra bases, odd and even dimension: on odd d a
    # generic element has a kernel line and the certificate decides, on even
    # d only a nilpotent one has, and mostly the envelope decides
    for m in (1, 2, 3, 4, 5, 6):
        for v in variants:
            rep = conjugate_rep(ladder_rep(m, v), random_invertible(rng, m + 1))
            modules += [rep, change_rep_basis(rep, q=random_invertible(rng, 3))]
    for a, b in ((1, 2), (1, 1), (2, 2)):
        rep = direct_sum(ladder_rep(a, "zero_lambda"), ladder_rep(b, "zero_lambda"))
        modules.append(change_rep_basis(
            conjugate_rep(rep, random_invertible(rng, a + b + 2)), q=random_invertible(rng, 3)))
    decided = {True: 0, False: 0}
    for rep in modules:
        verdict = irreducibility(rep)
        assert verdict == irreducibility_by_envelope(rep), rep
        if verdict.value == "abs_irreducible":
            decided[_norton(rep.action_matrices(), rep.space_dim)] += 1
    assert decided[True] > 20 and decided[False] > 4


def test_ladder_in_a_dense_module_basis_skips_the_envelope(monkeypatch):
    # the envelope closure would eliminate over 13^2 = 169 columns
    rep = conjugate_rep(ladder_rep(12, "zero_lambda"), random_invertible(random.Random(12), 13))
    monkeypatch.setattr(irreducible, "envelope_dimension", None)
    assert irreducibility(rep) == IrreducibilityVerdict(
        "abs_irreducible", None, "envelope dimension 169")


def test_ladders_and_their_sums_never_call_the_envelope(monkeypatch):
    monkeypatch.setattr(irreducible, "envelope_dimension", None)
    for m in (5, 10, 16):
        for v in ("zero_lambda", "anti_symmetric"):
            assert irreducibility(ladder_rep(m, v)).value == "abs_irreducible"
    for (a, b), v in (((5, 5), "anti_symmetric"), ((5, 10), "zero_lambda")):
        assert irreducibility(direct_sum(ladder_rep(a, v), ladder_rep(b, v))).value == "reducible"
