"""Exact polynomials over the rationals and polynomials of matrices.

Polynomials are coefficient tuples in ascending degree order. Matrix
polynomials have one Horner routine, `_poly_at`, on one diagonal shift,
`_shift` (m + cI); the characteristic polynomial, the eigenvector candidates
of `reps.irreducibility` and the primary splitting of `decompose` evaluate
their polynomials with them. `minimal_polynomial` runs on the elimination
kernel of `linalg`. One routine, `_rational_factors`, finds the rational
roots of a polynomial with their multiplicities and the cofactor left after
dividing them out; `rational_roots` is its list of roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .linalg import ONE, ZERO, Echelon, Matrix, _flat, _frac, _integral, linear_combination

Poly = tuple[Fraction, ...]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_divide_out_root(coeffs: list[Fraction], a: Fraction) -> list[Fraction]:
    """Synthetic division of an ascending-coefficient polynomial by (t - a)."""
    n = len(coeffs) - 1
    out = [ZERO] * n
    carry = ZERO
    for k in range(n - 1, -1, -1):
        carry = coeffs[k + 1] + a * carry
        out[k] = carry
    return out


def _rational_factors(coeffs: Sequence) -> tuple[list[tuple[Fraction, int]], Poly]:
    """The rational roots of a nonzero polynomial in ascending order, each
    with its multiplicity, and the cofactor left after dividing them out.

    Up to degree 2 the candidates are the roots in closed form, rational
    exactly when the discriminant is a square. Above it they are 0 and, by
    the rational root theorem, every +-p/q with p dividing the lowest and q
    the leading nonzero coefficient of the primitive integer form. Each is
    divided out for as long as it is a root.
    """
    cs = [_frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    ints = _integral({k: c for k, c in enumerate(cs) if c})
    c0, c1, c2 = (ints.get(k, 0) for k in range(3))
    if len(cs) == 2:
        cands = {Fraction(-c0, c1)}
    elif len(cs) == 3:
        disc = c1 * c1 - 4 * c2 * c0
        root = isqrt(disc) if disc >= 0 else -1
        cands = set() if root * root != disc else {
            Fraction(-c1 + s * root, 2 * c2) for s in (1, -1)}
    else:
        cands = {ZERO} | {Fraction(s * p, q) for p in _divisors(ints[min(ints)])
                          for q in _divisors(ints[max(ints)]) for s in (1, -1)}
    roots = []
    for a in sorted(cands):
        e = 0
        while poly_eval(cs, a) == 0:
            cs = _poly_divide_out_root(cs, a)
            e += 1
        if e:
            roots.append((a, e))
    return roots, tuple(cs)


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """All rational roots of the polynomial, sorted, by the rational root theorem."""
    return tuple(a for a, _ in _rational_factors(coeffs)[0])
