"""Kernel-action necessary condition, commutant splitting, and the two
benchmark five-dimensional modules."""

from fractions import Fraction
import random
import sys

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from leibnizalg.algebra import InternalCheckError
from leibnizalg.decompose import (
    DecompositionResult,
    _lift,
    commutant,
    complete_reducibility_necessary,
    decompose,
)
from leibnizalg.equations import _primary_components
from leibnizalg.irreducible import irreducibility
from leibnizalg.linalg import Matrix, Subspace, linear_combination, nullspace, subspace_intersect
from leibnizalg.modules import (
    abelian_algebra,
    adjoint_rep,
    direct_sum,
    equivalence,
    example_5_3,
    example_5_5,
    h_gap_positions,
    module_restriction,
    solve_lowering_left,
)
from leibnizalg.poly import minimal_polynomial
from leibnizalg.reps import Representation
from leibnizalg.sl2 import simple_ext_algebra, sl2_algebra, sl2_leibniz_irrep

from bases import abelian_module, change_rep_basis, draw_invertible, random_invertible
import poly_reference

Q = Fraction


def mat(rows):
    return Matrix([[Q(x) for x in row] for row in rows])


def unit(i, n):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


# -- benchmark algebra --

def test_benchmark_algebra_structure():
    alg, rep = example_5_3()
    assert alg.is_valid
    assert alg.basis_names == ("e", "f", "h", "x", "y")
    kern = alg.leibniz_kernel()
    assert kern.dim == 2
    assert kern.contains(unit(3, 5))
    assert kern.contains(unit(4, 5))
    assert alg.is_simple().value == "yes"
    assert rep.is_valid
    assert rep.space_dim == 5


def test_benchmark_algebra_matches_extension_table():
    alg, _ = example_5_3()
    assert alg.same_table(simple_ext_algebra(5))


def test_benchmark_ideal_closures():
    alg, _ = example_5_3()
    kern = alg.leibniz_kernel()
    for i in range(5):
        closure = alg.ideal_closure([unit(i, 5)])
        assert closure == kern or closure.is_full()


# -- necessary condition --

def test_kernel_action_blocks_benchmark_adjoint():
    _, rep = example_5_3()
    report = complete_reducibility_necessary(rep)
    assert not report.ok
    assert report.witness_side == "lambda"
    assert not report.witness_matrix.is_zero()
    kern = rep.algebra.leibniz_kernel()
    assert kern.contains(report.witness_vector)


def test_kernel_action_vacuous_for_lie_algebra():
    report = complete_reducibility_necessary(adjoint_rep(sl2_algebra()))
    assert report.ok
    assert report.witness_vector is None


def test_kernel_action_clean_on_catalogue_reps():
    from leibnizalg.sl2 import classify_extension_irreps
    for rep in classify_extension_irreps(6, 2):
        assert complete_reducibility_necessary(rep).ok


# -- commutant --

def sympy_commutant_dim(rep):
    d = rep.space_dim
    p = sympy.Matrix(d, d, lambda r, s: sympy.Symbol(f"p{r}_{s}"))
    eqs = []
    for m in rep.action_matrices():
        sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.data])
        eqs.extend(list(p * sm - sm * p))
    syms = list(p)
    a, _ = sympy.linear_eq_to_matrix(eqs, syms)
    return len(syms) - a.rank()


def test_commutant_of_irreducible_is_scalars():
    rep = sl2_leibniz_irrep(2, "zero_lambda")
    basis = commutant(rep)
    assert len(basis) == 1
    assert len(basis) == sympy_commutant_dim(rep)


def test_commutant_of_split_module_is_block_scalars():
    rep = example_5_5()
    basis = commutant(rep)
    assert len(basis) == 2
    assert len(basis) == sympy_commutant_dim(rep)
    for p in basis:
        # block-diagonal with scalar blocks of sizes 3 and 2
        for i in range(5):
            for j in range(5):
                if i != j and p.entry(i, j) != 0:
                    pytest.fail("off-diagonal commutant entry")
        assert p.entry(0, 0) == p.entry(1, 1) == p.entry(2, 2)
        assert p.entry(3, 3) == p.entry(4, 4)


def test_commutant_of_zero_rep_is_everything():
    alg = abelian_algebra(2)
    zero = Matrix.zeros(3, 3)
    rep = Representation(alg, (zero, zero), (zero, zero))
    assert len(commutant(rep)) == 9


# -- decompose --

def test_split_module_decomposes_into_3_plus_2():
    rep = example_5_5()
    result = decompose(rep)
    assert result.verdict == "decomposed"
    assert result.obstruction is None
    dims = [c.dim for c in result.components]
    assert dims == [3, 2]
    top = module_restriction(rep, result.components[0])
    bottom = module_restriction(rep, result.components[1])
    assert equivalence(top, sl2_leibniz_irrep(2, "zero_lambda")).value == "equivalent"
    assert equivalence(bottom, sl2_leibniz_irrep(1, "zero_lambda")).value == "equivalent"
    rebuilt = direct_sum(top, bottom)
    assert equivalence(rebuilt, rep).value == "equivalent"


def test_split_module_variants_decompose_too():
    rep = example_5_5("anti_symmetric", "zero_lambda")
    assert rep.is_valid
    result = decompose(rep)
    assert result.verdict == "decomposed"
    assert [c.dim for c in result.components] == [3, 2]
    top = module_restriction(rep, result.components[0])
    assert equivalence(top, sl2_leibniz_irrep(2, "anti_symmetric")).value == "equivalent"


def test_irreducible_module_is_indecomposable():
    for m, variant in ((1, "zero_lambda"), (2, "anti_symmetric")):
        result = decompose(sl2_leibniz_irrep(m, variant))
        assert result.verdict == "indecomposable"
        assert result.obstruction == "commutant dimension 1"
        assert len(result.components) == 1
        assert result.components[0].is_full()


def test_benchmark_adjoint_has_no_irreducible_decomposition():
    _, rep = example_5_3()
    result = decompose(rep)
    assert result.verdict == "indecomposable"
    assert result.obstruction == "kernel acts nontrivially"


def test_equal_copies_split_via_basis_fallback():
    # the generic commutant element has an irrational spectrum here; a basis
    # projection still separates the copies
    single = sl2_leibniz_irrep(1, "zero_lambda")
    rep = direct_sum(single, single)
    result = decompose(rep)
    assert result.verdict == "decomposed"
    assert [c.dim for c in result.components] == [2, 2]
    for comp in result.components:
        cut = module_restriction(rep, comp)
        assert equivalence(cut, single).value == "equivalent"


def test_rootless_commutant_reports_undetermined():
    # a single action matrix with irrational eigenvalues: the commutant is a
    # quadratic field, no rational idempotent exists
    alg = abelian_algebra(1)
    rho = mat([[0, 2], [1, 0]])
    rep = Representation(alg, (rho,), (Matrix.zeros(2, 2),))
    assert rep.is_valid
    result = decompose(rep)
    assert result.verdict == "undetermined"
    assert result.obstruction == "commutant splitting found no rational idempotent"
    assert len(result.components) == 1


# -- the splitting loop against a per-piece reference --

def decompose_by_restriction(rep):
    """Reference: every piece is rebuilt as a module (axioms checked again),
    its commutant split, and the leaves proved pairwise independent by
    intersecting them."""
    d = rep.space_dim
    full = Subspace.full(d)
    if not complete_reducibility_necessary(rep).ok:
        return DecompositionResult("indecomposable", (full,), "kernel acts nontrivially")
    leaves, stuck, stack = [], False, [full]
    while stack:
        piece = stack.pop()
        basis = commutant(module_restriction(rep, piece))
        if len(basis) == 1:
            leaves.append(piece)
            continue
        k = piece.dim
        generic = linear_combination(range(1, len(basis) + 1), basis, k, k)
        split = next((pieces for pieces in map(_primary_components, [generic] + basis)
                      if len(pieces) >= 2), None)
        if split is None:
            stuck = True
            leaves.append(piece)
        else:
            stack.extend(_lift(s, piece) for s in split)
    leaves.sort(key=lambda p: (-p.dim, p.pivots))
    assert sum(p.dim for p in leaves) == d
    assert Subspace.from_vectors(d, [v for p in leaves for v in p.basis.data]).is_full()
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            assert subspace_intersect(leaves[i], leaves[j]).is_zero()
    if stuck:
        return DecompositionResult("undetermined", tuple(leaves),
                                   "commutant splitting found no rational idempotent")
    if len(leaves) == 1:
        return DecompositionResult("indecomposable", tuple(leaves), "commutant dimension 1")
    return DecompositionResult("decomposed", tuple(leaves))


def ladder_sum(ms, variant):
    rep = sl2_leibniz_irrep(ms[0], variant)
    for m in ms[1:]:
        rep = direct_sum(rep, sl2_leibniz_irrep(m, variant))
    return rep


@pytest.mark.parametrize("ms", [(1, 2), (2, 2)], ids=["1+2", "2+2"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_decided_decomposition_does_not_depend_on_the_basis(ms, data):
    """After a dense change of the module basis and of the algebra basis,
    with entries in [-2, 2], a decided verdict and the dimensions of its
    components are those of the canonical basis."""
    rep = ladder_sum(ms, "zero_lambda")

    def shape(result):
        return result.verdict, [c.dim for c in result.components]

    p = draw_invertible(data, rep.space_dim)
    verdict = shape(decompose(change_rep_basis(rep, p, draw_invertible(data, 3))))
    assert verdict[0] == "undetermined" or verdict == shape(decompose(rep))


def test_decompose_matches_the_per_piece_reference():
    rng = random.Random(1817)
    sums = [ladder_sum(ms, v) for ms, v in (((2, 3, 4, 4), "zero_lambda"),
                                           ((1, 1), "anti_symmetric"), ((0, 3), "zero_lambda"))]
    signed = [change_rep_basis(rep, Matrix([[rng.choice((1, -1)) if i == j else 0
                                             for j in range(rep.space_dim)]
                                            for i in range(rep.space_dim)]))
              for rep in sums]
    variants = ("zero_lambda", "anti_symmetric")
    rotation = abelian_module([[0, 2], [1, 0]])
    # a dense module basis
    dense = change_rep_basis(ladder_sum((1, 2), "zero_lambda"),
                             random_invertible(random.Random(5), 5))
    cases = [*sums, *signed, *(example_5_5(t, b) for t in variants for b in variants),
             example_5_3()[1], rotation, dense]
    verdicts = []
    for rep in cases:
        result = decompose(rep)
        assert result == decompose_by_restriction(rep)  # components in the same order
        verdicts.append(result.verdict)
    assert verdicts == ["decomposed"] * 10 + ["indecomposable", "undetermined", "decomposed"]


def test_dense_sums_of_three_ladders_decompose():
    # ladders 1 + 2 + 3 (d = 9) in a dense module basis, then a dense
    # algebra basis, both the first invertible matrices with entries in
    # [-2, 2] drawn from Random(seed): the minimal polynomial of the generic
    # commutant element has 76-bit coefficients
    rep = ladder_sum((1, 2, 3), "zero_lambda")
    for seed in range(5):
        rng = random.Random(seed)
        p = random_invertible(rng, 9)
        result = decompose(change_rep_basis(rep, p, random_invertible(rng, 3)))
        assert result.verdict == "decomposed", seed
        assert [c.dim for c in result.components] == [4, 3, 2], seed


def test_the_reference_cases_never_reach_the_quaternion_step(monkeypatch):
    # the quaternion step runs only where the candidate elements are stuck,
    # so with its entry point made to raise every case keeps its answer
    def unreachable(*args):
        raise AssertionError("quaternion step reached")

    monkeypatch.setattr(sys.modules["leibnizalg.conic"], "quaternion_idempotent", unreachable)
    test_decompose_matches_the_per_piece_reference()


def test_partition_check_rejects_bad_leaves(monkeypatch):
    module = sys.modules["leibnizalg.equations"]  # the splitter's home layer
    single = sl2_leibniz_irrep(1, "zero_lambda")
    rep = direct_sum(single, single)
    first = Subspace.from_vectors(4, [unit(0, 4), unit(1, 4)])
    assert all(first.induced(m) is not None for m in rep.action_matrices())
    monkeypatch.setattr(module, "_try_split", lambda mats, d: [first, first] if d == 4 else None)
    with pytest.raises(InternalCheckError, match="components do not partition the module"):
        decompose(rep)
    mixed = [Subspace.from_vectors(4, [unit(0, 4), unit(2, 4)]),
             Subspace.from_vectors(4, [unit(1, 4), unit(3, 4)])]
    assert not all(w.induced(m) is not None for w in mixed for m in rep.action_matrices())
    monkeypatch.setattr(module, "_try_split", lambda mats, d: mixed if d == 4 else None)
    with pytest.raises(InternalCheckError, match="component is not invariant"):
        decompose(rep)


# -- primary components against the power loop --

def primary_by_powers(c):
    """Reference: (c - aI)^e as e products for each rational root a of
    multiplicity e, found in rational arithmetic, and the rootless leftover
    by Horner over dense products; one kernel each."""
    d = c.rows
    roots, poly = poly_reference.rational_factors(minimal_polynomial(c))
    pieces = []
    for a, e in roots:
        acc = Matrix.identity(d)
        for _ in range(e):
            acc = acc * (c - Matrix.identity(d).scale(a))
        pieces.append(nullspace(acc))
    if len(poly) > 1:
        acc = Matrix.zeros(d, d)
        for coeff in reversed(poly):
            acc = acc * c + Matrix.identity(d).scale(coeff)
        pieces.append(nullspace(acc))
    return pieces


def block_diagonal(*blocks):
    d = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[Q(0)] * at + list(row) + [Q(0)] * (d - at - b.rows) for row in b.data]
        at += b.rows
    return Matrix(rows)


def jordan(a, k):
    return Matrix([[Q(a) if i == j else Q(i + 1 == j) for j in range(k)] for i in range(k)])


def test_primary_components_match_the_power_loop():
    rotation = mat([[0, -1], [1, 0]])  # t^2 + 1, no rational root
    cases = [
        block_diagonal(jordan(3, 2), jordan(3, 1), jordan(Q(-1, 2), 3)),
        block_diagonal(jordan(0, 3), rotation, jordan(2, 2)),
        block_diagonal(rotation, mat([[0, 2], [1, 0]])),  # t^2 + 1 times t^2 - 2
        block_diagonal(jordan(5, 1), jordan(5, 1), jordan(-5, 2), rotation),
        jordan(7, 4),
        mat([[1, 1], [0, 1]]),
    ]
    rng = random.Random(2718)
    for base in list(cases):
        d = base.rows
        for _ in range(3):
            p = random_invertible(rng, d)
            cases.append(p * base * p.inverse())
    for c in cases:
        pieces = _primary_components(c)
        assert pieces == primary_by_powers(c)
        assert sum(p.dim for p in pieces) == c.rows
        assert all(p.dim > 0 and p.induced(c) is not None for p in pieces)
    dims = [p.dim for p in _primary_components(cases[0])]
    assert dims == [3, 3]  # roots -1/2 and 3, each with its full multiplicity


# -- weight-gap bookkeeping --

def test_gap_positions_of_split_module():
    rep = example_5_5()
    rho_h = rep.right[2]
    assert rho_h == mat([
        [2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, -2, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, -1]])
    assert h_gap_positions(rho_h) == [(1, 0), (2, 1), (4, 3)]


def test_lowering_left_solution_matches_gap_support():
    rep = example_5_5()
    rho_h = rep.right[2]
    space = solve_lowering_left(rho_h)
    positions = h_gap_positions(rho_h)
    assert space.dim == len(positions)
    for v in space.basis.data:
        x = Matrix.from_flat(v, 5, 5)
        for i in range(5):
            for j in range(5):
                if x.entry(i, j) != 0:
                    assert (i, j) in positions


def test_cross_block_gaps_never_appear():
    # odd total dimension split as even + odd: diagonal parities differ
    # across blocks, so every gap-2 pair stays inside one block
    for n in range(1, 5):
        for m in range(1, n + 1):
            top = sl2_leibniz_irrep(2 * m - 1, "zero_lambda").right[2]
            bottom = sl2_leibniz_irrep(2 * n - 2 * m, "zero_lambda").right[2]
            d1, d2 = top.rows, bottom.rows
            assert d1 % 2 == 0 and d2 % 2 == 1
            rows = [[Q(0)] * (d1 + d2) for _ in range(d1 + d2)]
            for i in range(d1):
                rows[i][i] = top.entry(i, i)
            for i in range(d2):
                rows[d1 + i][d1 + i] = bottom.entry(i, i)
            diag = Matrix(rows)
            for (i, j) in h_gap_positions(diag):
                assert (i < d1) == (j < d1)


def test_irreducibility_of_split_components():
    rep = example_5_5()
    result = decompose(rep)
    for comp in result.components:
        cut = module_restriction(rep, comp)
        assert irreducibility(cut).value == "abs_irreducible"


def test_lift_matches_the_dense_product():
    """_lift takes the product of two reduced forms as reduced; the reference
    row-reduces the dense product of the bases."""
    rng = random.Random(7013)

    def span(n, k):
        return Subspace.from_vectors(n, [[Q(rng.randint(-3, 3), rng.randint(1, 3))
                                          for _ in range(n)] for _ in range(k)])

    for _ in range(60):
        n = rng.randint(1, 7)
        piece = span(n, rng.randint(0, n))
        for sub in (span(piece.dim, rng.randint(0, piece.dim)), Subspace.zero(piece.dim),
                    Subspace.full(piece.dim)):
            lifted = _lift(sub, piece)
            expected = Subspace.from_vectors(n, (sub.basis * piece.basis).data)
            assert lifted == expected and lifted.pivots == expected.pivots
            assert hash(lifted) == hash(expected) and lifted.basis == expected.basis
