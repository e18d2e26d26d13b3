"""Zeros of ternary quadratic forms and the quaternion step of `decompose`:
the solver against brute force and Legendre's theorem, factoring against
sympy, and the modules whose commutant is a quaternion algebra (split, or a
division algebra)."""

import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, nextprime
from sympy.ntheory import is_quad_residue

from leibnizalg.algebra import algebra_from_brackets
from leibnizalg.conic import _factor, quaternion_idempotent, ternary_zero
from leibnizalg.decompose import commutant, decompose
from leibnizalg.linalg import Matrix
from leibnizalg.modules import direct_sum, equivalence, from_lie_rep, module_restriction
from leibnizalg.reps import Representation
from leibnizalg.sl2 import sl2_leibniz_irrep

from bases import abelian_module, change_rep_basis, draw_invertible

DIVISION = "commutant is a quaternion division algebra"


# -- the solver --

def holzer_zero(a, b, c):
    """A nonzero zero with |x| <= sqrt|bc| and |y| <= sqrt|ca| by brute force,
    z solved for; None when the box holds none."""
    for x in range(isqrt(abs(b * c)) + 1):
        for y in range(isqrt(abs(c * a)) + 1):
            t, rem = divmod(-(a * x * x + b * y * y), c)
            if not rem and t >= 0 and isqrt(t) ** 2 == t and (x or y or t):
                return x, y, isqrt(t)
    return None


def assert_primitive_zero(form, zero):
    assert isinstance(zero, tuple) and len(zero) == 3 and any(zero), (form, zero)
    assert gcd(*zero) == 1, (form, zero)
    assert sum(k * v * v for k, v in zip(form, zero)) == 0, (form, zero)


def legendre_soluble(a, b, c):
    """Legendre's theorem, on sympy's factorizations: the squarefree parts
    made pairwise coprime (a prime p of two coefficients goes to the third:
    its variable is a multiple of p) must not all have one sign, and each
    -bc must be a square modulo |a|."""
    def squarefree(n):
        return {p for p, e in factorint(abs(n)).items() if e % 2}

    signs, primes = [1 if k > 0 else -1 for k in (a, b, c)], [squarefree(k) for k in (a, b, c)]
    shared = True
    while shared:
        shared = [(k, p) for k in range(3) for p in primes[k - 1] & primes[k - 2]]
        if shared:
            k, p = shared[0]
            for t in (k - 1, k - 2):
                primes[t].discard(p)
            primes[k] ^= {p}
    f = [s * prod(ps) for s, ps in zip(signs, primes)]
    return len(set(signs)) == 2 and all(
        is_quad_residue(-f[k - 1] * f[k - 2], abs(f[k])) for k in range(3))


def test_ternary_zero_agrees_with_brute_force_on_small_forms():
    signed = [s * k for k in range(1, 13) for s in (1, -1)]
    for a in signed:
        for b in signed:
            for c in signed:
                zero = ternary_zero(a, b, c)
                if holzer_zero(a, b, c) is not None or legendre_soluble(a, b, c):
                    assert_primitive_zero((a, b, c), zero)
                else:
                    assert zero == "anisotropic", (a, b, c)


def test_ternary_zero_on_forms_with_known_answers():
    assert ternary_zero(1, 1, 1) == "anisotropic"
    assert ternary_zero(-3, -5, -7) == "anisotropic"
    assert ternary_zero(1, 1, -3) == "anisotropic"  # 3 is not a sum of two rational squares
    assert ternary_zero(1, 1, -2) == (1, 1, 1)
    assert ternary_zero(1, -1, 0) == (0, 0, 1)
    for form in ((1, -17, 13), (1, 23, -174), (3, 5, -8), (7, -7, 4), (12, -3, 0)):
        assert_primitive_zero(form, ternary_zero(*form))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6).filter(bool), min_size=3, max_size=3))
def test_ternary_zero_decides_like_legendres_theorem(form):
    zero = ternary_zero(*form)
    if legendre_soluble(*form):
        assert_primitive_zero(form, zero)
    else:
        assert zero == "anisotropic", form


def test_ternary_zero_is_undecided_past_its_budgets():
    # a prime above _MR_LIMIT, where Miller-Rabin on fixed bases proves nothing
    assert ternary_zero(1, 1, -nextprime(10 ** 25)) is None
    # two 46-bit primes: rho needs about 2^23 steps to split their product
    assert ternary_zero(1, 1, -nextprime(2 ** 45) * nextprime(2 ** 46)) is None


def test_factor_matches_sympy_past_trial_division():
    rng = random.Random(271)
    primes = [1000003, 999999937, 2147483647, 4294967291, 1000000007]
    numbers = [1, 2, 1024, 3 ** 7 * 5, 999999937 ** 2, 1000003 * 999999937 * 12,
               4294967291 * 2147483647, 2 ** 61 - 1]
    numbers += [rng.choice(primes) * rng.choice(primes) * rng.randint(1, 10 ** 6)
                for _ in range(20)]
    for n in numbers:
        assert _factor(n) == factorint(n), n


# -- the quaternion step --

# (variant, algebra basis, module basis) of ladder1 + ladder1 where no
# candidate element of the commutant M_2(QQ) has a rational eigenvalue; the
# benchmark's dense workload holds these two modules
PINNED = (
    ("zero_lambda", [[-2, -1, 2], [2, -1, -1], [-1, 1, 1]],
     [[-1, -1, 2, 2], [0, 2, -1, 1], [-1, -1, -2, 0], [0, -2, 2, 2]]),
    ("anti_symmetric", [[1, 1, -2], [-2, -2, 1], [-1, 0, -2]],
     [[1, 0, 2, 2], [1, -1, 1, -1], [-1, 1, 1, 2], [2, -1, 2, 1]]),
)


def signs(rng, d):
    return Matrix([[rng.choice((1, -1)) if i == j else 0 for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("variant, q, p", PINNED, ids=[v for v, _, _ in PINNED])
def test_pinned_modules_split_into_two_ladders(variant, q, p, seed):
    rng = random.Random(seed)
    q, p = Matrix(q) * signs(rng, 3), Matrix(p) * signs(rng, 4)
    ladder = sl2_leibniz_irrep(1, variant)
    rep = change_rep_basis(direct_sum(ladder, ladder), p, q)
    assert len(commutant(rep)) == 4
    result = decompose(rep)
    assert result.verdict == "decomposed" and result.obstruction is None
    assert [c.dim for c in result.components] == [2, 2]
    ladder = change_rep_basis(ladder, q=q)
    for component in result.components:
        assert equivalence(module_restriction(rep, component), ladder).value == "equivalent"


def hamilton_module(variant):
    """Left multiplication by i, j, k on the quaternions QQ^4, a module over
    the Lie algebra [i, j] = 2k, [j, k] = 2i, [k, i] = 2j. Its commutant is
    the right multiplications: Hamilton's quaternions, a division algebra."""
    alg = algebra_from_brackets(["i", "j", "k"], {
        ("i", "j"): {"k": 2}, ("j", "i"): {"k": -2}, ("j", "k"): {"i": 2},
        ("k", "j"): {"i": -2}, ("k", "i"): {"j": 2}, ("i", "k"): {"j": -2}})
    # on the basis 1, i, j, k: column t is the product with the t-th unit
    left_i = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    left_j = Matrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    left_k = Matrix([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return from_lie_rep(alg, [left_i, left_j, left_k], variant)


@pytest.mark.parametrize("variant", ["zero_lambda", "anti_symmetric"])
def test_hamilton_module_is_indecomposable(variant):
    rep = hamilton_module(variant)
    assert len(commutant(rep)) == 4
    result = decompose(rep)
    assert result.verdict == "indecomposable"
    assert result.obstruction == DIVISION
    assert [c.dim for c in result.components] == [4]


def test_a_division_leaf_next_to_a_split_one_is_decomposed():
    # ladder1 + ladder1 splits; a Hamilton summand stays one leaf
    ham = hamilton_module("zero_lambda")
    alg = ham.algebra
    zero = Matrix.zeros(1, 1)
    trivial = Representation(alg, [zero] * 3, [zero] * 3)
    result = decompose(direct_sum(ham, trivial))
    assert result.verdict == "decomposed"
    assert [c.dim for c in result.components] == [4, 1]


def test_quaternion_step_turns_a_zero_with_x_zero_into_an_idempotent():
    # C = M_2(QQ) with i = [[0, 2], [1, 0]] and j = [[0, -2], [1, 0]] first in
    # the anticommutant: <1, -2, 2> has the zero (0, 1, 1), so e = qj / (2 z beta)
    i, j = Matrix([[0, 2], [1, 0]]), Matrix([[0, -2], [1, 0]])
    basis = [j, Matrix([[1, 0], [0, -1]]), Matrix.identity(2), Matrix([[0, 1], [0, 0]])]
    assert ternary_zero(1, -2, 2) == (0, 1, 1)
    e = quaternion_idempotent(basis, i, (-2, 0, 1))
    assert e * e == e and not e.is_zero() and e != Matrix.identity(2)


# rho = diag(r2, r3) with r_n^2 = n: the commutant is QQ(sqrt 2) x QQ(sqrt 3)
TWO_FIELDS = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
# one block [[r2, 1], [0, r2]]: the commutant is QQ[t]/((t^2 - 2)^2)
JORDAN = [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]]


@pytest.mark.parametrize("rho", [TWO_FIELDS, JORDAN], ids=["two fields", "jordan"])
def test_a_commutative_commutant_stays_undetermined(rho):
    rep = abelian_module(rho)
    assert len(commutant(rep)) == 4
    result = decompose(rep)
    assert result.verdict == "undetermined"
    assert result.obstruction == "commutant splitting found no rational idempotent"


def test_quaternion_step_rejects_what_it_cannot_certify():
    basis = commutant(abelian_module(JORDAN))
    rho = Matrix(JORDAN)
    # s = (rho^2 + 2) / (2 rho) has s^2 = 2, but nothing anticommutes with it
    s = (rho * rho + Matrix.identity(4).scale(2)) * rho.inverse() * Fraction(1, 2)
    assert s * s == Matrix.identity(4).scale(2)
    assert quaternion_idempotent(basis, s, (-2, 0, 1)) is None
    assert quaternion_idempotent(basis, rho, (4, 0, -4, 0, 1)) is None  # degree 4
    eight = commutant(abelian_module([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]))
    assert len(eight) == 8  # M_2(QQ(sqrt 2))
    assert quaternion_idempotent(eight, eight[0], (-1, 1)) is None


def kronecker(a, b):
    return Matrix([[x * y for x in row_a for y in row_b]
                   for row_a in a.data for row_b in b.data])


def test_quaternion_step_rejects_a_nilpotent_i_or_j():
    # the span of I (x) I, N (x) I, I (x) N and N (x) N, with N the 2 x 2
    # nilpotent: g = N (x) I gives i^2 = 0, no nonzero alpha
    one, n = Matrix.identity(2), Matrix([[0, 1], [0, 0]])
    basis = [kronecker(a, b) for a, b in ((one, one), (n, one), (one, n), (n, n))]
    assert quaternion_idempotent(basis, basis[1], (0, 0, 1)) is None
    # the regular representation of span(1, i, n, in) with i^2 = 2, n^2 = 0
    # and ni = -in: i^2 = 2, but the anticommutant span(n, in) squares to 0
    def product(x, y):  # index a + 2b stands for i^a n^b; (index, coefficient) of x y
        a, b, c, e = x % 2, x // 2, y % 2, y // 2
        if b + e > 1:
            return None
        return (a + c) % 2 + 2 * (b + e), (-1) ** (b * c) * 2 ** ((a + c) // 2)

    regular = []
    for x in range(4):
        cols = [product(x, y) for y in range(4)]
        regular.append(Matrix([[c[1] if c and c[0] == r else 0 for c in cols]
                               for r in range(4)]))
    assert regular[1] * regular[2] == -(regular[2] * regular[1])
    assert quaternion_idempotent(regular, regular[1], (-2, 0, 1)) is None


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([1, 2]), variant=st.sampled_from(["zero_lambda", "anti_symmetric"]),
       data=st.data())
def test_two_copies_of_a_ladder_split_in_any_dense_basis(k, variant, data):
    ladder = sl2_leibniz_irrep(k, variant)
    q = draw_invertible(data, 3)
    rep = change_rep_basis(direct_sum(ladder, ladder), draw_invertible(data, 2 * k + 2), q)
    result = decompose(rep)
    assert result.verdict == "decomposed"
    assert [c.dim for c in result.components] == [k + 1, k + 1]

