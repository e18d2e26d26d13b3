"""The reference for `poly._rational_factors`: the same p-adic root search
with Euclid's gcd, the division by each root and the root test all in
`Fraction` arithmetic, as the package ran it before it kept the polynomial
in primitive integers throughout."""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm


def poly_eval(coeffs, x):
    """The polynomial at x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def poly_divmod(f, g):
    """Quotient and remainder of f by g, whose last coefficient is nonzero,
    over the rationals; the remainder has no trailing zeros."""
    rest, q = [Fraction(c) for c in f], [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for k in reversed(range(len(q))):
        c = q[k] = rest[k + len(g) - 1] / g[-1]
        for j, x in enumerate(g):
            rest[k + j] -= c * x
    rest = rest[:len(g) - 1]
    while rest and not rest[-1]:
        rest.pop()
    return q, rest


def _primitive_integers(cs):
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    content = gcd(*ints)
    return [x // content for x in ints]


def _at(g, r, m):
    return sum(c * pow(r, k, m) for k, c in enumerate(g)) % m


def rational_factors(coeffs):
    """The rational roots of a nonzero polynomial in ascending order, each
    with its multiplicity, and the cofactor left after dividing them out."""
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    h, rest = cs, [k * c for k, c in enumerate(cs)][1:]
    while rest:  # Euclid on rational remainders: h becomes gcd(f, f')
        h, rest = rest, poly_divmod(h, rest)[1]
    g = _primitive_integers(cs if len(h) == 1 else poly_divmod(cs, h)[0])
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
    roots = []
    for a in sorted({Fraction((g[-1] * r + m // 2) % m - m // 2, g[-1]) for r in lifts}):
        e = 0
        while poly_eval(cs, a) == 0:
            cs = poly_divmod(cs, (-a, 1))[0]
            e += 1
        if e:
            roots.append((a, e))
    return roots, tuple(cs)
