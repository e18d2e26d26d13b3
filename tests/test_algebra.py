"""Structure-level tests for LeibnizAlgebra.

Frozen values (Killing matrices, radical dimensions, derivation counts) were
computed by hand and cross-checked against sympy oracles that rebuild the
relevant linear systems symbolically, independent of the package's own
matrix code.
"""

import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from leibnizalg.algebra import (
    InternalCheckError,
    InvalidAlgebraError,
    LeibnizAlgebra,
    algebra_from_brackets,
)
from leibnizalg.equations import intertwiner_space
from leibnizalg.fileio import MAX_DIM, frac_str, serialize_algebra
from leibnizalg.linalg import (Matrix, Subspace, linear_combination, nullspace,
                              subspace_intersect, subspace_sum)
from leibnizalg.modules import abelian_algebra, adjoint_rep, direct_sum_algebra, restrict
from leibnizalg.structure import SimplicityVerdict, _lie_radical

from bases import change_algebra_basis, draw_invertible, random_invertible

F = Fraction


# -- fixtures --

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


def nilp2():
    # two-dimensional nilpotent non-Lie algebra: the square of a spans the rest
    return algebra_from_brackets(["a", "b"], {("a", "a"): {"b": 1}}, name="nilp2")


def solv2():
    # solvable non-nilpotent Lie algebra
    return algebra_from_brackets(
        ["a", "b"], {("a", "b"): {"a": 1}, ("b", "a"): {"a": -1}}, name="solv2")


def heisenberg():
    return algebra_from_brackets(
        ["x", "y", "z"],
        {("x", "y"): {"z": 1}, ("y", "x"): {"z": -1}},
        name="heis3")


def ext5():
    # five-dimensional simple non-Lie algebra: sl2 acting on a 2-dim tail
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


def zoo():
    return [sl2(), nilp2(), solv2(), heisenberg(), ext5(),
            abelian_algebra(2), direct_sum_algebra(sl2(), abelian_algebra(1))]


# -- sympy oracles --

def sympy_killing(names, brackets):
    """Killing matrix assembled from the raw bracket dict, bypassing Matrix."""
    n = len(names)
    idx = {s: i for i, s in enumerate(names)}

    def ad(i):
        m = sp.zeros(n, n)
        for (left, right), res in brackets.items():
            if idx[left] == i:
                for lab, c in res.items():
                    m[idx[lab], idx[right]] += sp.Rational(c)
        return m

    ads = [ad(i) for i in range(n)]
    return sp.Matrix(n, n, lambda i, j: (ads[i] * ads[j]).trace())


def sympy_derivation_dim(alg):
    """Dimension of the derivation space via symbolic equation assembly."""
    n = alg.dim
    D = sp.Matrix(n, n, lambda i, j: sp.Symbol(f"d_{i}_{j}"))

    def br(u, v):
        out = sp.zeros(n, 1)
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                for t, c in enumerate(alg.table[i][j]):
                    if c:
                        out[t] += u[i] * v[j] * sp.Rational(c)
        return out

    eqs = []
    for p in range(n):
        ep = sp.Matrix([1 if t == p else 0 for t in range(n)])
        for q in range(n):
            eq = sp.Matrix([1 if t == q else 0 for t in range(n)])
            diff = D * br(ep, eq) - br(D * ep, eq) - br(ep, D * eq)
            eqs.extend(list(diff))
    syms = list(D)
    a, _ = sp.linear_eq_to_matrix(eqs, syms)
    return len(syms) - a.rank()


# -- construction and validity --

def test_valid_tables_construct_clean():
    for alg in zoo():
        assert alg.is_valid, alg.name
        assert alg.check_leibniz() == ()


def test_invalid_table_detected():
    bad = algebra_from_brackets(["a"], {("a", "a"): {"a": 1}})
    assert not bad.is_valid
    assert (0, 0, 0) in bad.leibniz_violations
    with pytest.raises(InvalidAlgebraError):
        bad.leibniz_kernel()


def violations_by_products(alg):
    """Reference Leibniz check: column i of R_k R_j - R_j R_k - sum_t c_t R_t,
    with R_j the matrix of v -> [v, b_j] and [b_j, b_k] = sum_t c_t b_t,
    is [[b_i,b_j],b_k] - [[b_i,b_k],b_j] - [b_i,[b_j,b_k]]."""
    n = alg.dim
    rights = [alg.right_mult_matrix_basis(j) for j in range(n)]
    bad = []
    for j in range(n):
        for k in range(n):
            residual = rights[k] * rights[j] - rights[j] * rights[k]
            for t, c in enumerate(alg.table[j][k]):
                residual = residual - rights[t].scale(c)
            bad.extend((i, j, k) for i in range(n) if any(residual.col(i)))
    return tuple(bad)


def test_violations_match_the_product_residual_on_corrupted_tables():
    rng = random.Random(77)
    found = 0
    for alg in zoo() + [ext5()]:
        n = alg.dim
        for _ in range(8):
            table = [[list(v) for v in row] for row in alg.table]
            for _ in range(rng.randint(1, 3)):
                i, j, t = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                table[i][j][t] += rng.choice([F(1), F(-1), F(1, 2), F(-2, 3), F(3)])
            corrupted = LeibnizAlgebra(alg.basis_names, table)
            assert corrupted.leibniz_violations == violations_by_products(corrupted)
            found += len(corrupted.leibniz_violations)
    assert found > 100  # the corruptions do break the identity
    constants = [F(1), F(-1), F(1, 2), F(-2, 3), F(3)]
    broken = Counter()
    for n in range(3, 7):
        names = [f"x{i}" for i in range(n)]
        for _ in range(4):
            # dense, and with the right multiplications by the first labels
            # zero while their brackets with the others are not
            dense = [[[rng.choice(constants) for _ in range(n)] for _ in range(n)]
                     for _ in range(n)]
            vanish = rng.randint(1, n - 1)
            sparse = [[[rng.choice(constants) if j >= vanish and rng.random() < 0.3 else 0
                        for _ in range(n)] for j in range(n)] for _ in range(n)]
            for kind, table in (("dense", dense), ("sparse", sparse)):
                alg = LeibnizAlgebra(names, table)
                assert alg.leibniz_violations == violations_by_products(alg)
                broken[kind] += bool(alg.leibniz_violations)
    assert broken["dense"] == 16 and broken["sparse"] > 8


def test_identity_check_on_a_dense_table_stays_small():
    # one (j, k) pair at a time: the check holds O(n^2) integers, not O(n^4)
    rng = random.Random(12)
    n = 12
    table = [[[rng.choice([-2, -1, 1, 2, F(1, 2)]) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        alg = LeibnizAlgebra([f"x{i}" for i in range(n)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.leibniz_violations
    assert peak < 1_000_000, peak


def test_shape_errors():
    with pytest.raises(ValueError):
        LeibnizAlgebra(["a", "a"], [[[0, 0]] * 2] * 2)
    with pytest.raises(ValueError):
        LeibnizAlgebra(["a", "b"], [[[0, 0]] * 2])
    with pytest.raises(ValueError):
        algebra_from_brackets(["a"], {("a", "q"): {"a": 1}})


def test_equality_ignores_name():
    a = sl2()
    b = sl2()
    b.name = "other"
    assert a == b
    assert a.same_table(b)
    c = algebra_from_brackets(["x", "y", "z"], {("x", "y"): {"z": 1},
                                                ("y", "x"): {"z": -1}})
    assert a != c


def test_bracket_bilinear_evaluation():
    alg = sl2()
    e = (F(1), F(0), F(0))
    f = (F(0), F(1), F(0))
    h = (F(0), F(0), F(1))
    assert alg.bracket(e, f) == h
    assert alg.bracket(f, e) == (F(0), F(0), F(-1))
    # [2e + f, h] = 4e - 2f
    assert alg.bracket((F(2), F(1), F(0)), h) == (F(4), F(-2), F(0))


def test_is_lie_flags():
    assert sl2().is_lie()
    assert solv2().is_lie()
    assert heisenberg().is_lie()
    assert not nilp2().is_lie()
    assert not ext5().is_lie()


# -- kernel, products, ideals --

def test_kernel_frozen_cases():
    assert sl2().leibniz_kernel().is_zero()
    k = nilp2().leibniz_kernel()
    assert k.dim == 1 and k.contains((F(0), F(1)))
    k5 = ext5().leibniz_kernel()
    assert k5.dim == 2
    assert k5.contains((0, 0, 0, 1, 0)) and k5.contains((0, 0, 0, 0, 1))


def test_kernel_invariants_zoo():
    for alg in zoo():
        kernel = alg.leibniz_kernel()
        assert alg.is_ideal(kernel), alg.name
        # bracket with a kernel element on the right always vanishes
        for v in kernel.basis.data:
            for j in range(alg.dim):
                ej = tuple(F(t == j) for t in range(alg.dim))
                assert alg.bracket(ej, v) == tuple([F(0)] * alg.dim)
        # kernel sits inside the derived subalgebra unless it is zero
        derived = alg.product_space(alg.full_space(), alg.full_space())
        assert derived.contains_subspace(kernel)
        quo, _ = alg.quotient(kernel)
        assert quo.is_lie(), alg.name


def ideal_by_fixed_point(alg, seeds):
    """Reference ideal closure: bracket the whole span with every basis
    vector on both sides until the dimension stops growing."""
    n = alg.dim
    units = [tuple(F(t == j) for t in range(n)) for j in range(n)]
    span = Subspace.from_vectors(n, seeds)
    while True:
        grown = list(span.basis.data)
        for v in span.basis.data:
            for e in units:
                grown += [alg.bracket(v, e), alg.bracket(e, v)]
        bigger = Subspace.from_vectors(n, grown)
        if bigger.dim == span.dim:
            return span
        span = bigger


def test_ideal_closure_frozen():
    alg = ext5()
    tail = alg.ideal_closure([(0, 0, 0, 1, 0)])
    assert tail == alg.leibniz_kernel()
    everything = alg.ideal_closure([(1, 0, 0, 0, 0)])
    assert everything.is_full()
    # against the fixed point, on the zoo and after dense changes of basis
    rng = random.Random(6151)
    algs = zoo() + [change_algebra_basis(a, random_invertible(rng, a.dim))
                    for a in (ext5(), heisenberg(), direct_sum_algebra(sl2(), nilp2()))]
    for alg in algs:
        n = alg.dim
        seed_lists = [[tuple(F(t == i) for t in range(n))] for i in range(n)]
        seed_lists += [[tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
                        for _ in range(rng.randint(0, 2))] for _ in range(4)]
        for seeds in seed_lists:
            assert alg.ideal_closure(seeds) == ideal_by_fixed_point(alg, seeds)


def test_subalgebra_and_ideal_predicates():
    alg = sl2()
    borel = Subspace.from_vectors(3, [(F(1), F(0), F(0)), (F(0), F(0), F(1))])
    assert alg.is_subalgebra(borel)
    assert not alg.is_ideal(borel)
    line_e = Subspace.from_vectors(3, [(F(1), F(0), F(0))])
    assert alg.is_subalgebra(line_e)


def test_quotient_requires_ideal():
    with pytest.raises(ValueError):
        sl2().quotient(Subspace.from_vectors(3, [(F(1), F(0), F(0))]))


def test_quotient_of_direct_sum_recovers_sl2():
    alg = direct_sum_algebra(sl2(), abelian_algebra(1))
    rad = alg.radical()
    assert rad.dim == 1 and rad.contains((0, 0, 0, 1))
    quo, proj = alg.quotient(rad)
    assert quo == sl2()
    assert proj.rows == 3 and proj.cols == 4
    # projection kills the summand and fixes sl2 coordinates
    assert proj.apply((F(0), F(0), F(0), F(5))) == (F(0), F(0), F(0))
    assert proj.apply((F(1), F(2), F(3), F(4))) == (F(1), F(2), F(3))


def test_subalgebra_on_recovers_table():
    alg = ext5()
    span = Subspace.from_vectors(5, [tuple(F(t == c) for t in range(5))
                                     for c in (0, 1, 2)])
    sub = alg.subalgebra_on(span)
    assert sub == sl2()
    with pytest.raises(ValueError):
        # e and f generate h, so their span is not closed
        alg.subalgebra_on(Subspace.from_vectors(5, [(1, 0, 0, 0, 0),
                                                    (0, 1, 0, 0, 0)]))


# -- series and solvability --

def test_series_frozen():
    rep = nilp2().lower_central_series()
    assert rep.stabilized and len(rep.terms) == 3
    assert [t.dim for t in rep.terms] == [2, 1, 0]
    der = nilp2().derived_series()
    assert der.terminal.is_zero()

    s = solv2()
    assert s.is_solvable() and not s.is_nilpotent()
    assert [t.dim for t in s.lower_central_series().terms] == [2, 1]
    assert [t.dim for t in s.derived_series().terms] == [2, 1, 0]

    assert heisenberg().is_nilpotent()
    assert not sl2().is_solvable()
    assert ext5().derived_series().terms == (ext5().full_space(),)


# -- Killing form and radical --

def test_killing_sl2_frozen():
    k = sl2().killing_form()
    expected = Matrix([[0, -4, 0], [-4, 0, 0], [0, 0, 8]])
    assert k == expected


def test_killing_matches_sympy_oracle():
    cases = [
        (["e", "f", "h"], {
            ("e", "h"): {"e": 2}, ("h", "e"): {"e": -2},
            ("h", "f"): {"f": 2}, ("f", "h"): {"f": -2},
            ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1}}),
        (["a", "b"], {("a", "b"): {"a": 1}, ("b", "a"): {"a": -1}}),
        (["x", "y", "z"], {("x", "y"): {"z": 1}, ("y", "x"): {"z": -1}}),
    ]
    for names, brackets in cases:
        alg = algebra_from_brackets(names, brackets)
        ours = alg.killing_form()
        oracle = sympy_killing(names, brackets)
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert sp.Rational(ours.entry(i, j)) == oracle[i, j]


def test_killing_solv2_degenerate_frozen():
    assert solv2().killing_form() == Matrix([[0, 0], [0, 1]])


def test_killing_rejects_non_lie():
    with pytest.raises(ValueError):
        ext5().killing_form()


def test_radical_solvability_check_fires(monkeypatch):
    # a Killing complement claimed to be all of sl2 lifts to a perfect ideal
    import leibnizalg.structure as structure_module
    monkeypatch.setattr(structure_module, "_lie_radical", lambda lie: lie.full_space())
    with pytest.raises(InternalCheckError, match="radical is not solvable"):
        sl2().radical()


def test_radical_frozen_cases():
    assert sl2().radical().is_zero()
    assert solv2().radical().is_full()
    assert heisenberg().radical().is_full()
    assert nilp2().radical().is_full()
    assert ext5().radical() == ext5().leibniz_kernel()
    mixed = direct_sum_algebra(sl2(), abelian_algebra(1))
    rad = mixed.radical()
    assert rad.dim == 1 and rad.contains((0, 0, 0, 1))


def test_semisimple_flags():
    assert sl2().is_semisimple()
    assert ext5().is_semisimple()
    assert not solv2().is_semisimple()
    assert not nilp2().is_semisimple()
    assert not direct_sum_algebra(sl2(), abelian_algebra(1)).is_semisimple()


def test_radical_is_solvable_ideal_zoo():
    for alg in zoo():
        rad = alg.radical()
        assert alg.is_ideal(rad), alg.name
        assert rad.contains_subspace(alg.leibniz_kernel())
        if rad.dim:
            assert alg.subalgebra_on(rad).is_solvable(), alg.name


# -- simplicity --

def test_simple_verdicts_frozen():
    assert sl2().is_simple().value == "yes"
    assert ext5().is_simple().value == "yes"

    v = nilp2().is_simple()
    assert v.value == "no" and v.reason == "[L,L] equals the kernel"

    v = solv2().is_simple()
    assert v.value == "no"

    v = abelian_algebra(2).is_simple()
    assert v.value == "no"

    v = direct_sum_algebra(sl2(), abelian_algebra(1)).is_simple()
    assert v.value == "no" and v.witness is not None and v.witness.dim == 1


def test_simple_no_for_sl2_square():
    two = direct_sum_algebra(sl2(), sl2())
    v = two.is_simple()
    assert v.value == "no"
    assert v.witness is not None and v.witness.dim == 3
    # the witness really is a proper two-sided ideal
    assert two.is_ideal(v.witness)


@pytest.mark.parametrize("parts, seeds", [
    (("sl2", "sl2"), range(20)), (("ext5", "sl2"), range(20)), (("ext5", "ext5"), range(20)),
    (("sl2", "sl2", "sl2"), range(10)), (("ext5",), range(20)),
], ids=["sl2+sl2", "ext5+sl2", "ext5+ext5", "sl2+sl2+sl2", "ext5"])
def test_simple_decides_dense_bases(parts, seeds):
    # a direct sum answers "no" in every basis, with a proper ideal other
    # than the kernel as witness, and ext5 answers "yes"; the basis is the
    # first invertible matrix with entries in [-2, 2] from Random(seed)
    base = {"sl2": sl2, "ext5": ext5}[parts[0]]()
    for part in parts[1:]:
        base = direct_sum_algebra(base, {"sl2": sl2, "ext5": ext5}[part]())
    for seed in seeds:
        alg = change_algebra_basis(base, random_invertible(random.Random(seed), base.dim))
        verdict = alg.is_simple()
        if len(parts) == 1:
            assert verdict.value == "yes", seed
            continue
        w = verdict.witness
        assert verdict.value == "no" and alg.is_ideal(w), seed
        assert not w.is_zero() and not w.is_full() and w != alg.leibniz_kernel(), seed


def _ideal_seed_candidates(alg):
    """The unit vectors, then the sums of two of them."""
    units = Matrix.identity(alg.dim).data
    return list(units) + [tuple(a + b for a, b in zip(units[i], units[j]))
                          for i in range(alg.dim) for j in range(i + 1, alg.dim)]


def test_simple_yes_leaves_no_ideal_for_the_seeds():
    # an independent oracle of "yes": the ideal closure of every unit vector
    # and of every sum of two is the kernel, zero or everything, and the
    # left multiplications vanish on the kernel
    from leibnizalg.modules import example_5_3
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(9091)
    catalog = zoo() + [simple_ext_algebra(n) for n in range(5, 8)] + [example_5_3()[0]]
    catalog += [direct_sum_algebra(sl2(), sl2()), direct_sum_algebra(ext5(), ext5()),
                direct_sum_algebra(ext5(), abelian_algebra(1))]
    yes = 0
    for base in catalog:
        for alg in [base] + [change_algebra_basis(base, random_invertible(rng, base.dim))
                             for _ in range(2)]:
            if alg.is_simple().value != "yes":
                continue
            yes += 1
            kernel, full = alg.leibniz_kernel(), alg.full_space()
            for seed in _ideal_seed_candidates(alg):
                closure = alg.ideal_closure([seed])
                assert closure in (kernel, full) or closure.is_zero(), base.name
            for j in range(alg.dim):
                left = kernel.induced(alg.left_mult_matrix_basis(j))
                assert left is not None and left.is_zero(), base.name
    assert yes == 18  # sl2, ext5, simple_ext(5..7) and example 5.3, three bases each


def test_simple_verdicts_match_the_envelope_only_certificate(monkeypatch):
    # Norton's certificate decides the kernel module where it can (odd
    # kernel dimension); switched off, the envelope closure gives the same
    # verdicts, on canonical and dense bases
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(1616)
    algs = zoo() + [simple_ext_algebra(n) for n in range(5, 10)]
    algs += [change_algebra_basis(simple_ext_algebra(n), random_invertible(rng, n))
             for n in range(5, 10)]
    algs += [direct_sum_algebra(ext5(), ext5()), direct_sum_algebra(ext5(), abelian_algebra(1))]
    verdicts = [alg.is_simple() for alg in algs]
    assert Counter(v.value for v in verdicts) == Counter(yes=12, no=7)
    monkeypatch.setattr("leibnizalg.structure._norton", lambda mats, d: False)
    assert [alg.is_simple() for alg in algs] == verdicts


def test_simple_ext_kernel_module_skips_the_envelope(monkeypatch):
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(1717)
    algs = [simple_ext_algebra(n) for n in (5, 10, 16)]
    algs += [change_algebra_basis(simple_ext_algebra(n), random_invertible(rng, n))
             for n in (8, 10)]
    # Norton's certificate decides each kernel module, so the splitter
    # only ever runs on the adjoint module of the Lie quotient, sl2
    splitter = sys.modules["leibnizalg.equations"]._try_split

    def quotient_only(mats, d):
        if d != 3:
            raise AssertionError(f"splitter called on a kernel module of dimension {d}")
        return splitter(mats, d)

    monkeypatch.setattr(sys.modules["leibnizalg.equations"], "_try_split", quotient_only)
    assert [alg.is_simple().value for alg in algs] == ["yes"] * 5


def test_simple_reports_a_short_kernel_envelope(monkeypatch):
    # sl2 over two copies of the tail of simple_ext(5): the kernel module is
    # ladder1 + ladder1, where no action matrix has nullity 1 and the
    # envelope is M_2(QQ) inside M_4(QQ); the splitter decides without the
    # envelope, and the copy z0, z1 of the tail is the ideal
    from leibnizalg.sl2 import _SL2_BRACKETS
    brackets = dict(_SL2_BRACKETS)
    for y in "xz":
        brackets.update({(f"{y}0", "h"): {f"{y}0": 1}, (f"{y}1", "h"): {f"{y}1": -1},
                         (f"{y}0", "f"): {f"{y}1": 1}, (f"{y}1", "e"): {f"{y}0": -1}})
    alg = algebra_from_brackets(["e", "f", "h", "x0", "x1", "z0", "z1"], brackets)

    def unreachable(mats, d):
        raise AssertionError("envelope closure reached")

    monkeypatch.setattr("leibnizalg.linalg.envelope_dimension", unreachable)
    verdict = alg.is_simple()
    kernel = alg.leibniz_kernel()
    assert verdict.value == "no" and verdict.witness.dim == 2
    assert verdict.witness == Subspace.from_vectors(7, [Matrix.identity(7).row(k) for k in (5, 6)])
    assert alg.is_ideal(verdict.witness)
    assert verdict.witness != kernel and not verdict.witness.is_zero()
    assert verdict.reason == "the kernel module splits"


# -- derivations --

def test_derivations_frozen_dims():
    der = sl2().derivations()
    inn = sl2().inner_derivations()
    assert der.dim == 3 and inn.dim == 3 and der == inn

    assert abelian_algebra(2).derivations().dim == 4
    assert abelian_algebra(2).inner_derivations().dim == 0

    n = nilp2()
    assert n.derivations().dim == 2
    assert n.inner_derivations().dim == 1


def test_derivations_match_sympy_oracle():
    for alg in [sl2(), nilp2(), solv2(), heisenberg()]:
        assert alg.derivations().dim == sympy_derivation_dim(alg), alg.name


def test_derivation_members_satisfy_rule():
    alg = ext5()
    der = alg.derivations()
    for flat in der.basis.data:
        d = Matrix.from_flat(flat, alg.dim, alg.dim)
        for p in range(alg.dim):
            ep = tuple(F(t == p) for t in range(alg.dim))
            for q in range(alg.dim):
                eq = tuple(F(t == q) for t in range(alg.dim))
                lhs = d.apply(alg.bracket(ep, eq))
                rhs_vec = tuple(
                    x + y for x, y in zip(alg.bracket(d.apply(ep), eq),
                                          alg.bracket(ep, d.apply(eq))))
                assert lhs == rhs_vec


def derivations_by_dense_rows(alg):
    """Reference derivation space: one dense row per (p, q, r), through nullspace."""
    from leibnizalg.linalg import nullspace
    n = alg.dim
    rows = []
    for p in range(n):
        for q in range(n):
            cpq = alg.table[p][q]
            for r in range(n):
                row = [F(0)] * (n * n)
                for s in range(n):
                    row[r * n + s] += cpq[s]
                    row[s * n + p] -= alg.table[s][q][r]
                    row[s * n + q] -= alg.table[p][s][r]
                rows.append(row)
    return nullspace(Matrix(rows, cols=n * n))


def test_derivations_match_the_dense_rows():
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(2718)
    algs = zoo() + [direct_sum_algebra(sl2(), nilp2()), abelian_algebra(1),
                    simple_ext_algebra(6), simple_ext_algebra(7)]
    algs += [change_algebra_basis(ext5(), random_invertible(rng, 5)),
             change_algebra_basis(heisenberg(), random_invertible(rng, 3))]
    for alg in algs:
        assert alg.derivations() == derivations_by_dense_rows(alg), alg.name


def derivations_on_every_pair(alg):
    """Reference: the derivation rule imposed at every basis pair (p, q), on
    the sparse rows that a nonzero structure constant reaches."""
    from leibnizalg.linalg import _solutions
    n, nz = alg.dim, alg._int_table
    rows = []
    for p in range(n):
        for q in range(n):
            for r in range(n):
                row = Counter({r * n + s: c for s, c in nz[p][q]})
                for s in range(n):
                    row[s * n + p] -= dict(nz[s][q]).get(r, 0)
                    row[s * n + q] -= dict(nz[p][s]).get(r, 0)
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return _solutions(rows, n * n)


def test_derivations_on_generators_match_every_pair():
    from leibnizalg.sl2 import simple_ext_algebra, sl2_algebra
    from leibnizalg.structure import _generators
    rng = random.Random(3141)
    catalogue = [sl2_algebra(), simple_ext_algebra(5), simple_ext_algebra(6),
                 simple_ext_algebra(7)]
    non_lie = direct_sum_algebra(nilp2(), heisenberg())
    assert not non_lie.is_lie()
    for base in catalogue + [non_lie]:
        for alg in (base, change_algebra_basis(base, random_invertible(rng, base.dim))):
            assert alg.derivations() == derivations_on_every_pair(alg), base.name
    # generators picked in label order: e and f generate sl2, and x0 the tail
    # of an extension; the nilpotent sum needs a, x and y
    assert _generators(sl2_algebra()) == [0, 1]
    assert _generators(simple_ext_algebra(7)) == [0, 1, 3]
    assert _generators(non_lie) == [0, 2, 3]
    assert _generators(abelian_algebra(3)) == [0, 1, 2]


def subalgebra_by_fixed_point(alg, vectors):
    """Reference: the span of the vectors, grown by the brackets of its basis
    vectors until it stops growing."""
    span = Subspace.from_vectors(alg.dim, vectors)
    while True:
        basis = span.basis.data
        grown = Subspace.from_vectors(
            alg.dim, [*basis, *(alg.bracket(x, y) for x in basis for y in basis)])
        if grown == span:
            return span
        span = grown


def generator_bases():
    from leibnizalg.sl2 import simple_ext_algebra, sl2_algebra
    return [sl2_algebra(), *(simple_ext_algebra(n) for n in range(5, 9)),
            direct_sum_algebra(nilp2(), heisenberg())]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(generator_bases()) - 1), st.data())
def test_generators_are_the_greedy_picks_on_dense_bases(which, data):
    """Index k is picked exactly when b_k lies outside the subalgebra that the
    picks before it generate, and the picks generate the algebra."""
    from leibnizalg.structure import _generators
    base = generator_bases()[which]
    n = base.dim
    # a dense basis p = l u, with l and u unitriangular and so invertible
    lower, upper = (data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
                    for _ in range(2))
    l = Matrix([[lower[i * n + j] if j < i else int(i == j) for j in range(n)] for i in range(n)])
    u = Matrix([[upper[i * n + j] if j > i else int(i == j) for j in range(n)] for i in range(n)])
    alg = change_algebra_basis(base, l * u)
    gens, units = _generators(alg), Matrix.identity(alg.dim).data
    for k in range(alg.dim):
        earlier = subalgebra_by_fixed_point(alg, [units[g] for g in gens if g < k])
        assert (k in gens) == (not earlier.contains(units[k])), (base.name, k, gens)
    assert subalgebra_by_fixed_point(alg, [units[g] for g in gens]).is_full()


def inn_ideal_by_commutators(alg) -> bool:
    """Reference for check_inn_ideal: every [D, R_j] over a derivation basis is inner."""
    der = alg.derivations()
    inn = alg.inner_derivations()
    if not der.contains_subspace(inn):
        return False
    n = alg.dim
    for dflat in der.basis.data:
        d = Matrix.from_flat(dflat, n, n)
        for j in range(n):
            r = alg.right_mult_matrix_basis(j)
            if not inn.contains((d * r - r * d).flatten()):
                return False
    return True


def test_inner_derivations_form_ideal():
    for alg in [sl2(), nilp2(), solv2(), ext5(), abelian_algebra(2), heisenberg()]:
        assert alg.check_inn_ideal() is inn_ideal_by_commutators(alg) is True, alg.name
        # the identity check_inn_ideal rests on: D R_j - R_j D = R_{D b_j}
        rights = [alg.right_mult_matrix_basis(k) for k in range(alg.dim)]
        for dflat in alg.derivations().basis.data:
            d = Matrix.from_flat(dflat, alg.dim, alg.dim)
            for j, r in enumerate(rights):
                assert d * r - r * d == linear_combination(d.col(j), rights, alg.dim, alg.dim)


# -- Levi complements --

def test_levi_of_extension_is_sl2_span():
    alg = ext5()
    levi = alg.levi_subalgebra()
    expected = Subspace.from_vectors(5, [tuple(F(t == c) for t in range(5))
                                         for c in (0, 1, 2)])
    assert levi == expected
    assert alg.subalgebra_on(levi) == sl2()


def test_levi_trivial_cases():
    assert sl2().levi_subalgebra().is_full()
    with pytest.raises(ValueError):
        solv2().levi_subalgebra()


def test_levi_after_basis_change():
    rng = random.Random(1311)
    base = ext5()
    for _ in range(3):
        alg = change_algebra_basis(base, random_invertible(rng, 5))
        kernel = alg.leibniz_kernel()
        assert kernel.dim == 2
        levi = alg.levi_subalgebra()
        assert levi.dim == 3
        assert alg.is_subalgebra(levi)
        assert alg.subalgebra_on(levi).is_lie()
        assert subspace_intersect(levi, kernel).is_zero()
        assert subspace_sum(levi, kernel).is_full()


def test_levi_pinned_where_the_correction_is_not_unique():
    from leibnizalg.sl2 import simple_ext_algebra
    alg = change_algebra_basis(simple_ext_algebra(6), random_invertible(random.Random(6), 6))
    kernel = alg.leibniz_kernel()
    quo, _ = alg.quotient(kernel)
    comp = [c for c in range(6) if c not in kernel.pivots]
    # the homogeneous Levi system C_b X = X A_b^T has a line of solutions
    pairs = [(kernel.induced(alg.right_mult_matrix_basis(comp[b])).transpose(),
              Matrix([quo.table[a][b] for a in range(3)])) for b in range(3)]
    assert len(intertwiner_space(pairs, 3, 3)) == 1
    expected = [[1, 0, 0, F(-6, 7), F(19, 28), F(-4, 21)],
                [0, 1, 0, F(3, 7), F(-89, 56), F(16, 21)],
                [0, 0, 1, F(-4, 7), F(15, 28), F(2, 21)]]
    assert alg.levi_subalgebra() == Subspace.from_vectors(6, expected)


# -- basis-change invariance sweep --

def test_structure_is_basis_free():
    rng = random.Random(427)
    for base in [sl2(), nilp2(), solv2(), ext5()]:
        for _ in range(3):
            alg = change_algebra_basis(base, random_invertible(rng, base.dim))
            assert alg.is_valid
            assert alg.leibniz_kernel().dim == base.leibniz_kernel().dim
            assert alg.radical().dim == base.radical().dim
            assert alg.is_solvable() == base.is_solvable()
            assert alg.is_nilpotent() == base.is_nilpotent()
            assert alg.is_semisimple() == base.is_semisimple()


def test_simplicity_survives_basis_change():
    rng = random.Random(771)
    alg = change_algebra_basis(ext5(), random_invertible(rng, 5))
    assert alg.is_simple().value == "yes"


@pytest.mark.parametrize("base", [direct_sum_algebra(sl2(), sl2()), ext5(),
                                  direct_sum_algebra(ext5(), sl2())],
                         ids=["sl2+sl2", "ext5", "ext5+sl2"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_decided_simplicity_verdict_does_not_depend_on_the_basis(base, data):
    """After a dense change of basis with entries in [-2, 2], a decided
    verdict and the dimension of its witness are those of the canonical
    basis. ext5 is simple_ext(5)."""
    def shape(verdict):
        return verdict.value, None if verdict.witness is None else verdict.witness.dim

    verdict = shape(change_algebra_basis(base, draw_invertible(data, base.dim)).is_simple())
    assert verdict in (shape(base.is_simple()), ("undetermined", None))


def test_simplicity_is_undetermined_on_sl2_over_the_gaussian_rationals():
    # sl2(QQ(i)) as a 6-dimensional QQ-algebra on x and ix: [ix, y] = [x, iy]
    # = i[x, y] and [ix, iy] = -[x, y]. It is simple, but its centroid QQ(i)
    # holds no rational idempotent, so the splitter cannot decide it
    sl2_brackets = sl2().table
    names = ["e", "f", "h", "ie", "if", "ih"]
    table = [[[F(0)] * 6 for _ in range(6)] for _ in range(6)]
    for a in range(3):
        for b in range(3):
            for t, c in enumerate(sl2_brackets[a][b]):
                table[a][b][t] = c
                table[a + 3][b][t + 3] = table[a][b + 3][t + 3] = c
                table[a + 3][b + 3][t] = -c
    alg = LeibnizAlgebra(names, table)
    assert alg.is_lie() and alg.killing_form().rank() == 6
    assert alg.is_simple() == SimplicityVerdict(
        "undetermined", None,
        "commutant splitting of the adjoint module of the Lie quotient is stuck")


def test_semisimple_quotients_have_nondegenerate_killing_forms():
    # is_simple relies on this instead of checking the rank itself
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(5507)
    catalog = zoo() + [simple_ext_algebra(n) for n in range(5, 9)]
    catalog += [direct_sum_algebra(sl2(), nilp2()), direct_sum_algebra(sl2(), sl2())]
    semisimple = 0
    for base in catalog:
        for alg in [base] + [change_algebra_basis(base, random_invertible(rng, base.dim))
                             for _ in range(2)]:
            kernel = alg.leibniz_kernel()
            if alg.radical() == kernel:
                quo, _ = alg.quotient(kernel)
                assert quo.killing_form().rank() == quo.dim
                semisimple += 1
    assert semisimple >= 21


# -- direct sums and reports --

def test_direct_sum_name_clash_suffixes():
    two = direct_sum_algebra(sl2(), sl2())
    assert two.basis_names == ("e_1", "f_1", "h_1", "e_2", "f_2", "h_2")
    plain = direct_sum_algebra(sl2(), abelian_algebra(1))
    assert plain.basis_names == ("e", "f", "h", "a0")


def test_structure_report_ext5():
    rep = ext5().structure_report()
    assert not rep.is_lie
    assert rep.kernel.dim == 2
    assert rep.radical.dim == 2
    assert not rep.solvable and not rep.nilpotent
    assert rep.semisimple
    assert rep.simple.value == "yes"
    labels = [lab for lab, _ in rep.witnesses]
    assert "kernel" in labels and "radical" in labels


def test_structure_report_solv2():
    rep = solv2().structure_report()
    assert rep.is_lie and rep.solvable and not rep.semisimple
    assert rep.simple.value == "no"


# -- the sparse structure constants against the dense formulas --
# The references below are the dense-table formulas the package used before
# it kept only the sparse integer form; each reads a dense table given to it.

def dense_bracket(table, x, y):
    n = len(table)
    out = [F(0)] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for t, c in enumerate(table[i][j]):
                out[t] += F(xi) * F(yj) * c
    return tuple(out)


def dense_right_mult(table, j):
    n = len(table)
    return Matrix([[table[i][j][t] for i in range(n)] for t in range(n)])


def dense_left_mult(table, j):
    n = len(table)
    return Matrix([[table[j][i][t] for i in range(n)] for t in range(n)])


def dense_is_lie(table):
    n = len(table)
    return all(a + b == 0 for i in range(n) for j in range(n)
               for a, b in zip(table[i][j], table[j][i]))


def dense_kernel(table):
    n = len(table)
    return Subspace.from_vectors(n, [tuple(a + b for a, b in zip(table[i][j], table[j][i]))
                                     for i in range(n) for j in range(i, n)])


def dense_product_space(table, u, w):
    n = len(table)
    return Subspace.from_vectors(n, [dense_bracket(table, a, b)
                                     for a in u.basis.data for b in w.basis.data])


def dense_killing(table):
    n = len(table)
    ads = [dense_left_mult(table, i) for i in range(n)]
    return Matrix([[(ads[i] * ads[j]).trace() for j in range(n)] for i in range(n)])


def dense_quotient_table(table, proj, comp):
    return tuple(tuple(proj.apply(table[a][b]) for b in comp) for a in comp)


def dense_object(alg_name, names, table):
    n = len(table)
    brackets = []
    for i in range(n):
        for j in range(n):
            result = {names[t]: frac_str(c) for t, c in enumerate(table[i][j]) if c}
            if result:
                brackets.append({"left": names[i], "right": names[j], "result": result})
    return {"name": alg_name, "dim": n, "basis": list(names), "brackets": brackets}


def dense_change_basis(table, p):
    """The table in the basis of the columns of p, by the dense bracket."""
    pinv = p.inverse()
    cols = [p.col(i) for i in range(p.rows)]
    return tuple(tuple(pinv.apply(dense_bracket(table, a, b)) for b in cols) for a in cols)


def dense_cases():
    """(algebra, dense table) pairs: the zoo and simple_ext(5..8) with the
    table they were built from, and changes of basis with fractional
    constants, built from dense tables computed here."""
    from leibnizalg.sl2 import simple_ext_algebra
    rng = random.Random(8128)
    bases = zoo() + [simple_ext_algebra(n) for n in range(5, 9)]
    cases = [(alg, alg.table) for alg in bases]
    for base in (ext5(), heisenberg(), nilp2(), simple_ext_algebra(6),
                 direct_sum_algebra(sl2(), nilp2())):
        table = dense_change_basis(base.table, random_invertible(rng, base.dim))
        cases.append((LeibnizAlgebra([f"v{i}" for i in range(base.dim)], table), table))
    return cases


def test_sparse_readers_match_the_dense_formulas():
    rng = random.Random(3301)
    cases = dense_cases()
    assert sum(alg._den > 1 for alg, _ in cases) >= 3  # fractional constants are covered
    for alg, table in cases:
        n, label = alg.dim, alg.name or alg.basis_names
        assert alg.is_valid, label
        assert alg.table == table, label
        assert LeibnizAlgebra(alg.basis_names, alg.table).table == table, label
        for _ in range(6):
            x, y = ([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(2))
            assert alg.bracket(x, y) == dense_bracket(table, x, y), label
        for j in range(n):
            assert alg.right_mult_matrix_basis(j) == dense_right_mult(table, j), label
            assert alg.left_mult_matrix_basis(j) == dense_left_mult(table, j), label
        assert alg.is_lie() == dense_is_lie(table), label
        kernel = alg.leibniz_kernel()
        assert kernel == dense_kernel(table), label
        full = alg.full_space()
        spaces = [full, kernel, Subspace.from_vectors(n, [
            [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, 3))])]
        for u in spaces:
            for w in spaces:
                assert alg.product_space(u, w) == dense_product_space(table, u, w), label
        quo, proj = alg.quotient(kernel)
        comp = [c for c in range(n) if c not in kernel.pivots]
        quo_table = dense_quotient_table(table, proj, comp)
        assert quo.table == quo_table, label
        assert quo.killing_form() == dense_killing(quo_table), label
        if alg.is_lie():
            assert alg.killing_form() == dense_killing(table), label
        assert serialize_algebra(alg) == json.dumps(
            dense_object(alg.name, alg.basis_names, table), indent=2, sort_keys=True) + "\n"
        twin = LeibnizAlgebra(alg.basis_names, table, name="twin")
        assert twin == alg and hash(twin) == hash(alg) and twin.same_table(alg), label
        renamed = LeibnizAlgebra([f"w{i}" for i in range(n)], table)
        assert renamed != alg and renamed.same_table(alg), label
        nudged = [[list(v) for v in row] for row in table]
        nudged[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += F(1, 3)
        other = LeibnizAlgebra(alg.basis_names, nudged)
        assert other != alg and not other.same_table(alg), label


def test_identity_check_at_the_dimension_bound():
    rng = random.Random(99)
    for small in (ext5(), heisenberg(), sl2()):
        k = small.dim
        table = [[list(v) for v in row] for row in small.table]
        table[rng.randrange(k)][rng.randrange(k)][rng.randrange(k)] += F(-2, 3)
        corrupted = LeibnizAlgebra(small.basis_names, table)
        assert corrupted.leibniz_violations
        big = direct_sum_algebra(corrupted, abelian_algebra(MAX_DIM - k))
        assert big.dim == MAX_DIM
        assert big.leibniz_violations == corrupted.leibniz_violations
    big = direct_sum_algebra(sl2(), abelian_algebra(MAX_DIM - 3))
    assert big.is_valid and big.is_lie()
    assert big.leibniz_kernel().is_zero()
    assert big.product_space(big.full_space(), big.full_space()).dim == 3
    assert big.radical() == Subspace.from_vectors(
        MAX_DIM, [[F(i == j) for i in range(MAX_DIM)] for j in range(3, MAX_DIM)])


# -- the Levi chain against the dense routines it replaced --
# The references below are the routines the package used before the chain
# moved to the sparse form: the projection of a quotient by reducing every
# unit vector, the preimage of a quotient subspace by two nullspaces, and
# the induced table of a subalgebra by dense brackets and coordinates.

def quotient_reference(alg, ideal):
    comp = [c for c in range(alg.dim) if c not in ideal.pivots]
    reduced = [ideal.reduce(e) for e in Matrix.identity(alg.dim).data]
    proj = Matrix([[r[c] for r in reduced] for c in comp])
    table = dense_quotient_table(alg.table, proj, comp)
    return LeibnizAlgebra([alg.basis_names[c] for c in comp], table), proj


def lift_through_reference(alg, proj, target, kernel):
    if target.is_full():
        return alg.full_space()
    if target.is_zero():
        return kernel
    ann = nullspace(target.basis)  # rows orthogonal to the target
    return nullspace(ann.basis * proj)


def radical_reference(alg):
    kernel = alg.leibniz_kernel()
    quo, proj = quotient_reference(alg, kernel)
    return lift_through_reference(alg, proj, _lie_radical(quo), kernel)


def subalgebra_on_reference(alg, u):
    rows = u.basis.data
    table = [[u.coordinates_of(alg.bracket(a, b)) for b in rows] for a in rows]
    if any(coords is None for row in table for coords in row):
        raise ValueError("subspace is not closed under the bracket")
    names = [alg.basis_names[p] if len(u.rows[a]) == 1 else f"u{a}"
             for a, p in enumerate(u.pivots)]
    if len(set(names)) < len(names):
        names = [f"u{a}" for a in range(len(names))]
    return LeibnizAlgebra(names, table)


def test_levi_chain_matches_the_dense_routines():
    rng = random.Random(1729)
    refused = 0
    for alg, _ in dense_cases():
        n, label = alg.dim, alg.name or alg.basis_names
        kernel, rad = alg.leibniz_kernel(), alg.radical()
        assert rad == radical_reference(alg), label
        full = alg.full_space()
        closed = [kernel, rad, alg.product_space(full, full), full, Subspace.zero(n)]
        for ideal in closed:
            quo, proj = alg.quotient(ideal)
            quo_ref, proj_ref = quotient_reference(alg, ideal)
            assert quo == quo_ref and proj == proj_ref, label
            assert alg.subalgebra_on(ideal) == subalgebra_on_reference(alg, ideal), label
        if alg.is_semisimple():
            levi = alg.levi_subalgebra()
            assert alg.subalgebra_on(levi) == subalgebra_on_reference(alg, levi), label
        for _ in range(4):
            u = Subspace.from_vectors(n, [[F(rng.randint(-2, 2), rng.randint(1, 3))
                                           for _ in range(n)] for _ in range(rng.randint(1, 2))])
            try:
                expected = subalgebra_on_reference(alg, u)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match="not closed"):
                    alg.subalgebra_on(u)
            else:
                assert alg.subalgebra_on(u) == expected, label
    assert refused >= 10  # subspaces that are not closed are covered


def test_a_label_that_is_also_a_generated_name_renames_every_row():
    # span{b0, b1 + b2}: the unit row keeps its label unless that label is
    # the generated name of another row
    u = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 1)])
    for labels, names in ((["u1", "b", "c"], ("u0", "u1")), (["a", "b", "c"], ("a", "u1"))):
        alg = LeibnizAlgebra(labels, abelian_algebra(3).table)
        assert alg.subalgebra_on(u).basis_names == names
        assert alg.subalgebra_on(u) == subalgebra_on_reference(alg, u)


@pytest.mark.parametrize("label", ["u2", "e"])
def test_levi_complement_holds_whatever_the_labels(label):
    # simple_ext(5) in the basis (e, f, h + x0, x0, x1): the Levi complement
    # holds h = (h + x0) - x0, a row that is not a unit row and is named u2
    from leibnizalg.sl2 import simple_ext_algebra
    p = Matrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 1, 0],
                [0, 0, 0, 0, 1]])
    dense = change_algebra_basis(simple_ext_algebra(5), p)
    alg = LeibnizAlgebra([label, "f", "h", "x0", "x1"], dense.table)
    levi = alg.levi_subalgebra()
    assert levi.dim == 3 and levi.basis.data[2] == (0, 0, 1, -1, 0)
    assert alg.subalgebra_on(levi) == subalgebra_on_reference(alg, levi)


def test_levi_chain_is_computed_once(monkeypatch):
    from leibnizalg.sl2 import simple_ext_algebra
    alg = change_algebra_basis(simple_ext_algebra(7), random_invertible(random.Random(7), 7))
    calls = Counter()
    for name in ("leibniz_kernel", "quotient", "bracket"):
        def counted(self, *args, _name=name, _original=getattr(LeibnizAlgebra, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(LeibnizAlgebra, name, counted)
    report = alg.structure_report()
    levi = alg.levi_subalgebra()
    assert alg.is_semisimple() and report.semisimple and levi.dim == 3
    assert calls == {"leibniz_kernel": 1, "quotient": 1}


def test_the_kernel_is_eliminated_once_and_is_the_levi_chains(monkeypatch):
    from leibnizalg import algebra
    from leibnizalg.sl2 import simple_ext_algebra
    eliminations = []
    original = algebra._eliminate

    def counted(*args):
        eliminations.append(args)
        return original(*args)

    monkeypatch.setattr(algebra, "_eliminate", counted)
    rng = random.Random(11)
    algs = [ext5(), nilp2(), sl2(), direct_sum_algebra(ext5(), abelian_algebra(1)),
            change_algebra_basis(simple_ext_algebra(6), random_invertible(rng, 6))]
    for alg in algs:
        eliminations.clear()
        # the reads of check, kernel, radical and semisimple, twice over
        for _ in range(2):
            kernel = alg.leibniz_kernel()
            rad, semisimple = alg.radical(), alg.is_semisimple()
        assert len(eliminations) == 1, alg
        assert kernel is alg._levi_data[0] and kernel is alg.leibniz_kernel()
        assert semisimple == (rad == kernel)


def test_subspaces_of_another_ambient_dimension_are_refused():
    alg = sl2()
    full = alg.full_space()
    for u in (Subspace.full(2), Subspace.zero(2), Subspace.full(5), Subspace.zero(4)):
        for call in (lambda: alg.product_space(u, full), lambda: alg.product_space(full, u),
                     lambda: alg.product_space(u, u), lambda: alg.is_ideal(u),
                     lambda: alg.is_subalgebra(u), lambda: alg.quotient(u),
                     lambda: alg.subalgebra_on(u), lambda: restrict(adjoint_rep(alg), u)):
            with pytest.raises(ValueError, match="3-dimensional algebra"):
                call()
