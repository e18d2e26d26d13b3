"""Test modules and changes of basis: a module of the one-dimensional
abelian algebra, the seeded and the drawn dense integer bases, and the
algebras and modules written in a new basis."""

from hypothesis import assume, strategies as st

from leibnizalg.algebra import LeibnizAlgebra
from leibnizalg.linalg import Matrix
from leibnizalg.modules import abelian_algebra
from leibnizalg.reps import Representation


def abelian_module(rho):
    """The module of the one-dimensional abelian algebra with right action
    rho, a square integer matrix, and left action zero."""
    return Representation(abelian_algebra(1), (Matrix(rho),), (Matrix.zeros(len(rho), len(rho)),))


def random_invertible(rng, n):
    """The first invertible n x n matrix with entries randint(-2, 2), drawn
    row by row from rng."""
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.is_invertible():
            return p


def draw_invertible(data, n):
    """An invertible n x n matrix with entries in [-2, 2], drawn by hypothesis."""
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
    assume(p.is_invertible())
    return p


def change_algebra_basis(alg, q):
    """The algebra in the basis given by the columns of q, under the same labels."""
    qi, cols = q.inverse(), [q.col(i) for i in range(alg.dim)]
    return LeibnizAlgebra(alg.basis_names,
                          [[qi.apply(alg.bracket(a, b)) for b in cols] for a in cols])


def change_rep_basis(rep, p=None, q=None):
    """The module in the module basis given by the columns of p, over its
    algebra in the basis given by the columns of q; None keeps a basis."""
    alg, right, left = rep.algebra, rep.right, rep.left
    if q is not None:
        cols = [q.col(i) for i in range(alg.dim)]
        alg = change_algebra_basis(alg, q)
        right, left = [rep.rho_of(v) for v in cols], [rep.lambda_of(v) for v in cols]
    if p is not None:
        pi = p.inverse()
        right, left = [pi * m * p for m in right], [pi * m * p for m in left]
    return Representation(alg, right, left, name=rep.name)
