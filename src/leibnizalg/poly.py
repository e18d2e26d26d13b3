"""Exact polynomials over the rationals and polynomials of matrices.

Polynomials are coefficient tuples in ascending degree order. Matrix
polynomials have one Horner routine, `_poly_at`, on one diagonal shift,
`_shift` (m + cI); the characteristic polynomial, the eigenvector
candidates of `irreducible.irreducibility` and the primary splitting in
`equations` evaluate their polynomials with them. `minimal_polynomial`
runs on the elimination kernel of `linalg`. One routine,
`_rational_factors`, finds the rational roots of a polynomial with their
multiplicities and the cofactor left after dividing them out, by p-adic
lifting; `rational_roots` is its list of roots. It works on primitive
integer polynomials from input to output, with one division, `_pdivmod`,
whose pseudo-remainders give the gcd and the root test and whose
pseudo-quotients give the squarefree part and the cofactor (exact up to a
unit, by Gauss's lemma): remainders over the rationals grow fractions at
every step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import isqrt
from typing import Sequence

from .linalg import (
    ONE, ZERO, Echelon, Matrix, _flat, _frac, _integral, _primitive, linear_combination,
)

Poly = tuple[Fraction, ...]


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic minimal polynomial of a square matrix, ascending coefficients.

    Found as the first linear dependency among I, m, m^2, ...: each power
    m^k enters one echelon form as flat(m^k) followed by a tag column e_k.
    The first row that reduces to zero on the flat part keeps the
    dependency in its tag columns, with a nonzero coefficient at e_k.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return (ZERO, ONE)
    tags = n * n
    ech = Echelon(tags + n + 1)
    power = Matrix.identity(n)
    for k in range(n + 1):
        if k:
            power = power * m
        row = _flat(power.nz, n)
        row[tags + k] = ONE
        ech.insert(row)
        last = max(ech.rows)
        if last >= tags:
            dep = ech.rows[last]
            return tuple(Fraction(dep.get(tags + j, 0), dep[tags + k])
                         for j in range(k)) + (ONE,)
    raise AssertionError("no dependency up to degree n; impossible over a field")


def _shift(m: Matrix, c: Fraction) -> Matrix:
    """m + c I for a square m."""
    return linear_combination((1, c), (m, Matrix.identity(m.rows)), m.rows, m.cols)


def _poly_at(coeffs: Sequence[Fraction], m: Matrix) -> Matrix:
    """sum_k coeffs[k] m^k for a square m, by Horner's rule."""
    acc = Matrix.zeros(m.rows, m.rows)
    for c in reversed(coeffs):
        acc = _shift(acc * m, c)
    return acc


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(tI - m) by the Faddeev-LeVerrier scheme."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    prod = Matrix.zeros(n, n)  # m times the last shift, zero before the first step
    for k in range(1, n + 1):
        prod = m * _shift(prod, coeffs[n - k + 1])
        coeffs[n - k] = -prod.trace() / k
    return tuple(coeffs)


def _pdivmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-quotient and pseudo-remainder of f by g, integer polynomials
    without trailing zeros, each divided by its content: nonzero rational
    multiples of the quotient and remainder of f by g, primitive and without
    trailing zeros. The remainder is empty exactly when g divides f."""
    rest, q = list(f), [0] * max(len(f) - len(g) + 1, 0)
    while len(rest) >= len(g):
        top, k = rest.pop(), len(rest) - len(g) + 1
        rest, q = [g[-1] * x for x in rest], [g[-1] * x for x in q]
        q[k] = top
        for j, x in enumerate(g[:-1]):
            rest[k + j] -= top * x
        while rest and not rest[-1]:
            rest.pop()
    return tuple(list(_primitive(dict(enumerate(p))).values()) for p in (q, rest))


def _at(g: Sequence[int], r: int, m: int) -> int:
    """g(r) mod m for an integer polynomial g."""
    return sum(c * pow(r, k, m) for k, c in enumerate(g)) % m


def _rational_factors(coeffs: Sequence) -> tuple[list[tuple[Fraction, int]], Poly]:
    """The rational roots of a nonzero polynomial in ascending order, each
    with its multiplicity, and the cofactor left after dividing them out.

    The candidates are p-adic roots of the squarefree part g = f / gcd(f, f')
    in primitive integers, at the first prime p not dividing its leading
    coefficient c where every root mod p is simple, lifted by Newton's step
    past 2 |c| (1 + max |g_i|), which bounds the integer c a for a root a.
    Each is divided out for as long as it is a root.
    """
    cs = [_frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    f = list(_integral(dict(enumerate(cs))).values())
    h, rest = f, [k * c for k, c in enumerate(f)][1:]
    while rest:  # Euclid on primitive remainders: h becomes gcd(f, f')
        h, rest = rest, _pdivmod(h, rest)[1]
    # a constant gcd leaves f squarefree
    g = f if len(h) == 1 else _pdivmod(f, h)[0]
    dg = [k * c for k, c in enumerate(g)][1:]
    for p in count(2):
        if g[-1] % p and all(p % q for q in range(2, isqrt(p) + 1)):
            lifts = [r for r in range(p) if _at(g, r, p) == 0]
            if all(_at(dg, r, p) for r in lifts):
                break
    bound, m = 2 * abs(g[-1]) * (1 + max(map(abs, g))), p
    while m <= bound:
        m *= m
        lifts = [(r - _at(g, r, m) * pow(_at(dg, r, m), -1, m)) % m for r in lifts]
    cands = sorted({Fraction((g[-1] * r + m // 2) % m - m // 2, g[-1]) for r in lifts})
    roots = []
    for a in cands:  # n/d is a root of f exactly when d t - n divides it
        e = 0
        while not (qr := _pdivmod(f, (-a.numerator, a.denominator)))[1]:
            f, e = qr[0], e + 1
        if e:
            roots.append((a, e))
    # f is a primitive multiple of the cofactor, whose leading coefficient is cs[-1]
    return roots, tuple(cs[-1] / f[-1] * c for c in f)


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """All rational roots of the polynomial, sorted."""
    return tuple(a for a, _ in _rational_factors(coeffs)[0])
