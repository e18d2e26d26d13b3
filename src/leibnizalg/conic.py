"""Zeros of diagonal ternary quadratic forms, and the quaternion step of the
commutant splitter.

`ternary_zero(a, b, c)` decides whether a x^2 + b y^2 + c z^2 = 0 has a
nonzero integer solution. Multiplied by a, the form becomes
X^2 = A Y^2 + B Z^2 with A = -ab and B = -ac, which for squarefree A and B
(their square parts go into the variables) Legendre's descent decides and
solves:
  - A = 1 or B = 1 has an obvious zero, and A, B < 0 has none over the reals;
  - otherwise, with |A| <= |B|, a zero needs a t with t^2 = A mod B, and then
    t^2 - A = B m k^2 with m squarefree and |m| < |B|. A zero (x, y, z) of
    (A, m) gives the zero (t x + A y, x + t y, m k z) of (A, B), since
    N(t + sqrt A) N(x + y sqrt A) = B (m k z)^2; and (A, B) has a zero
    exactly when (A, m) has one, as B m is a norm up to squares.
The descent needs the prime factors of A, B and each t^2 - A: trial division
below `TRIAL_DIVISION_BOUND`, then Pollard's rho for at most `RHO_BUDGET`
steps per split, with primality proved by Miller-Rabin on the first twelve
prime bases, which decide it below `_MR_LIMIT`. A factor that resists leaves
the form undecided. Every zero is checked by substitution.

`quaternion_idempotent` splits a 4-dimensional commutant C that is a
quaternion algebra (alpha, beta)_QQ, as nonzero i^2 = alpha, j^2 = beta and
ij = -ji make 1, i, j, ij independent: C is M_2(QQ), and so holds an
idempotent other than 0 and 1, exactly when x^2 - alpha y^2 - beta z^2 has
a nonzero zero; otherwise it is a division algebra. Only the commutant
splitter, `equations._try_split`, calls this layer, on a 4-dimensional
commutant where no candidate element split, so no other job compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import Sequence

from .algebra import InternalCheckError
from .linalg import (
    Matrix, _int_matrices, _matrix_of, _solutions, _sparse_combination, _sparse_matmul,
    linear_combination,
)

TRIAL_DIVISION_BOUND = 1 << 10  # trial divisors stay below this
RHO_BUDGET = 1 << 18  # Pollard rho steps per split at most
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981  # the bases prove primality below this


class _Unfactored(Exception):
    """A factor resisted the budgets, so the form stays undecided."""


def ternary_zero(a: int, b: int, c: int) -> tuple[int, int, int] | str | None:
    """A nonzero primitive integer zero (x, y, z) of a x^2 + b y^2 + c z^2,
    "anisotropic" when the form has none, None when a coefficient could not
    be factored."""
    coeffs = (a, b, c)
    if not all(coeffs):
        return tuple(int(k == coeffs.index(0)) for k in range(3))
    # (a x)^2 = A y^2 + B z^2, and A y^2 = fa (sa y)^2 for A = sa^2 fa
    try:
        (sa, fa, pa), (sb, fb, pb) = (_square_class(-a * k) for k in (b, c))
        zero = _descent(fa, pa, fb, pb)
    except _Unfactored:
        return None
    if zero is None:
        return "anisotropic"
    # (X / a, Y / sa, Z / sb) times a sa sb
    x, y, z = zero
    zero = (x * sa * sb, y * a * sb, z * a * sa)
    g = gcd(*zero)
    zero = tuple(v // g for v in zero)
    if not any(zero) or sum(k * v * v for k, v in zip(coeffs, zero)):
        raise InternalCheckError("ternary zero fails substitution")
    return zero


def _descent(a: int, pa: set, b: int, pb: set) -> tuple[int, int, int] | None:
    """A nonzero zero of X^2 = a Y^2 + b Z^2 for squarefree a and b with the
    prime factors pa and pb, None when there is none."""
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if a < 0 and b < 0:
        return None
    if abs(a) > abs(b):
        zero = _descent(b, pb, a, pa)
        return zero and (zero[0], zero[2], zero[1])
    t = _sqrt_mod(a, abs(b), pb)
    if t is None:
        return None
    k, m, pm = _square_class((t * t - a) // b)
    zero = _descent(a, pa, m, pm)
    if zero is None:
        return None
    x, y, z = zero
    return t * x + a * y, x + t * y, m * k * z


def _square_class(n: int) -> tuple[int, int, set]:
    """(s, f, primes) with n = s^2 f, f squarefree with the prime factors
    primes."""
    factors = _factor(abs(n))
    s, f = 1, 1 if n > 0 else -1
    for p, e in factors.items():
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f, {p for p, e in factors.items() if e % 2}


def _factor(n: int) -> dict[int, int]:
    """The prime factorization of n > 0 as {prime: exponent}; _Unfactored
    when a factor resists the rho budget or cannot be proved prime."""
    out: dict[int, int] = {}
    p = 2
    while p < TRIAL_DIVISION_BOUND and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        root = isqrt(m)
        # m has no factor below p, so below p^2 it is prime
        if m < p * p or (m < _MR_LIMIT and _probable_prime(m)):
            out[m] = out.get(m, 0) + 1
        elif root * root == m:
            stack += [root, root]
        elif _probable_prime(m):
            raise _Unfactored(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


def _probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n on the fixed bases: False proves n composite,
    and True proves it prime below _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n by Pollard's rho with Floyd's
    cycle search; _Unfactored after RHO_BUDGET steps."""
    steps = 0
    for c in count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
            steps += 1
            if steps > RHO_BUDGET:
                raise _Unfactored(n)
        if g != n:
            return g


def _sqrt_mod(a: int, n: int, primes: set) -> int | None:
    """A t with t^2 = a mod n and |t| <= n/2, for squarefree n > 1 with the
    given prime factors, by a root modulo each prime and the Chinese
    remainder theorem; None when a is not a square modulo n."""
    t, mod = 0, 1
    for p in sorted(primes):
        r = _sqrt_mod_prime(a % p, p)
        if r is None:
            return None
        # t = r mod p and t = t mod mod
        t += mod * ((r - t) * pow(mod, -1, p) % p)
        mod *= p
    return t - n if t > n // 2 else t


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p (Tonelli-Shanks), None when a
    is not a square."""
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def quaternion_idempotent(basis: Sequence[Matrix], g: Matrix,
                          minpoly: Sequence[Fraction]) -> Matrix | str | None:
    """An idempotent other than 0 and 1 in the 4-dimensional algebra C
    spanned by basis, "anisotropic" when C is a division quaternion algebra,
    None when C is not certified a quaternion algebra or the form is not
    decided.

    g is an element of C with minimal polynomial t^2 - tau t + nu. Then
    i = g - tau/2 has i^2 = alpha with alpha = tau^2/4 - nu; j is taken from
    the solutions in C of i y + y i = 0 and has j^2 = beta. Then 1, i, j and
    ij are independent, as conjugation by i fixes 1 and i, negates j and ij,
    and j is invertible, so C = (alpha, beta)_QQ. For a zero (x, y, z) of
    x^2 - alpha y^2 - beta z^2, q = x + y i + z j has q^2 = 2x q, so q/(2x)
    is idempotent; when x = 0, qj has (qj)^2 = 2 z beta qj instead. The
    products run on integer multiples I = di i and J = dj j, with
    I^2 = A = di^2 alpha and J^2 = B = dj^2 beta.
    """
    d = g.rows
    if len(basis) != 4 or len(minpoly) != 3:
        return None
    _, [i] = _int_matrices([linear_combination((1, minpoly[1] / 2),
                                               (g, Matrix.identity(d)), d, d)])
    a = _square_scalar(i, d)
    if a is None:
        return None
    # y = sum_k y_k basis[k]: one equation per entry of i y + y i
    anti = [_sparse_combination(((1, _sparse_matmul(i, m)), (1, _sparse_matmul(m, i))))
            for m in _int_matrices(basis)[1]]
    rows = [{k: m[r][s] for k, m in enumerate(anti) if s in m.get(r, {})}
            for r in range(d) for s in range(d)]
    sols = _solutions(rows, 4)
    if sols.dim != 2:
        return None
    _, [j] = _int_matrices([linear_combination(sols.basis.data[0], basis, d, d)])
    b = _square_scalar(j, d)
    if b is None:
        return None
    # alpha y^2 = A (y / di)^2 and beta z^2 = B (z / dj)^2, so for a zero
    # (x, Y, Z) of <1, -A, -B>, q = x + Y I + Z J
    zero = ternary_zero(1, -a, -b)
    if zero is None or isinstance(zero, str):
        return zero
    x, y, z = zero
    q = _sparse_combination(((x, _scalar(1, d)), (y, i), (z, j)))
    m, c = (q, 2 * x) if x else (_sparse_matmul(q, j), 2 * z * b)
    if not m or m == _scalar(c, d) or _sparse_matmul(m, m) != _sparse_combination(((c, m),)):
        raise InternalCheckError("quaternion zero gives no idempotent")
    return _matrix_of({r: {k: Fraction(v, c) for k, v in row.items()} for r, row in m.items()},
                      d, d)


def _scalar(c: int, d: int) -> dict:
    """c times the d x d identity as a sparse matrix."""
    return {r: {r: c} for r in range(d)} if c else {}


def _square_scalar(m: dict, d: int) -> int | None:
    """The nonzero integer c with m^2 = c, None when m^2 is no such scalar."""
    square = _sparse_matmul(m, m)
    c = square.get(0, {}).get(0, 0)
    return c if c and square == _scalar(c, d) else None
