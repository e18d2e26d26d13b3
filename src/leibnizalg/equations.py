"""Particular solutions and linear equations in unknown matrices.

An inhomogeneous system keeps its right-hand side as one more column;
`_particular` reads the solution with every free variable zero off the
reduced form of the `linalg` kernel, for `solve` and for
`LeibnizAlgebra.levi_subalgebra`.

Linear equations in unknown matrices have one builder, `_axiom_rows`: the
sparse rows of (X_0, ..., X_{u-1}) -> sum_t c_t X_t + X_i a - b X_i, read
from the sparse forms of a^T and b, and `linalg._solutions` takes their
kernel. The commutant and intertwiner systems (no c_t), the linearised
pairing axioms in `sl2` (tail forcing and the left block over sl2),
`modules.solve_lowering_left` and the Sylvester equations of the Levi
correction all build their equations with it. `intertwiner_space` skips
each pair that the solutions so far satisfy: in a module lambda is often -rho
or 0, and rho(h) lies in the algebra that rho(e) and rho(f) generate.

The commutant splitter `_try_split` decides splitting for `decompose` and
`structure.is_simple`. `algebra`, `conic` and `poly` are bound without
loading them: only a commutant above dimension one compiles `poly`, and
only a stuck 4-dimensional one compiles `conic`.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from . import algebra, conic, poly
from .linalg import (
    ZERO, Echelon, Matrix, Subspace, Vector, _eliminate, _int_matrices, _integral, _kernel,
    _matrix_of, _sparse_matmul, _unflatten, linear_combination, nullspace, vec,
)


def _particular(rows: Iterable[dict], n: int) -> tuple[Vector | None, list]:
    """The solution with every free variable zero of sparse rows over
    QQ^(n+1) whose column n holds the right-hand side, None when they are
    inconsistent; and their reduced form, without the inconsistent row."""
    reduced = _eliminate(rows, n + 1).rref()
    if reduced and reduced[-1][0] == n:
        reduced.pop()
        return None, reduced
    x = [ZERO] * n
    for p, row in reduced:
        x[p] = row.get(n, ZERO)
    return tuple(x), reduced


def solve(a: Matrix, b: Vector) -> tuple[Vector | None, Subspace]:
    """Solve a x = b exactly.

    Returns (particular, homogeneous) where particular is None when the
    system is inconsistent, and otherwise the solution with all free
    variables set to zero. homogeneous is the kernel of a.
    """
    if len(b) != a.rows:
        raise ValueError("right hand side length does not match row count")
    n = a.cols
    if not a.rows:
        return (ZERO,) * n, Subspace.full(n)
    x, reduced = _particular([{**a.nz.get(r, {}), n: bv} if bv else a.nz.get(r, {})
                              for r, bv in enumerate(vec(b))], n)
    # with the last column dropped, this is the reduced form of a
    return x, _kernel([(p, {c: y for c, y in row.items() if c != n})
                       for p, row in reduced], n)


def _axiom_rows(equations: Iterable[tuple], rows: int, cols: int) -> list[dict]:
    """Sparse rows of (X_0, ..., X_{u-1}) -> sum_t c_t X_t + X_i a - b X_i.

    The unknowns are rows x cols matrices, flattened row-major one after the
    other: entry (r, s) of X_t is column t*rows*cols + r*cols + s. Each
    equation (coeffs, i, a, b) has c_t = coeffs[t] (zero past the end), a
    of shape cols x cols and b of shape rows x rows; it gives one row per
    entry (r, s), in row-major order. Entries that cancel are not stored,
    so a row may be empty. This is the one place where the linearised
    pairing axioms and the commutant systems become equations.
    """
    size = rows * cols
    out = []
    for coeffs, i, a, b in equations:
        if a.rows != cols or a.cols != cols or b.rows != rows or b.cols != rows:
            raise ValueError("equation factors do not match the unknown shape")
        at = i * size
        a_cols, b_rows = a.transpose().nz, b.nz
        for r in range(rows):
            # at entry (r, s), X_i a reads row r of X_i; the columns that
            # b X_i and the c_t X_t read are these offsets plus s
            base = r * cols
            terms = [(at + k * cols, -x) for k, x in b_rows.get(r, {}).items()]
            terms += [(t * size + base, c) for t, c in enumerate(coeffs) if c]
            for s in range(cols):
                row = {at + base + k: x for k, x in a_cols.get(s, {}).items()}
                for c, x in terms:
                    c += s
                    y = row.get(c, 0) + x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                out.append(row)
    return out


def matrix_commutant(mats: Sequence[Matrix], dim: int) -> list[Matrix]:
    """Basis of {X : X m = m X for every m in mats}, in RREF order."""
    if any(m.rows != dim or m.cols != dim for m in mats):
        raise ValueError("matrix shape does not match the ambient dimension")
    return intertwiner_space([(m, m) for m in mats], dim, dim)


def intertwiner_space(
    pairs: Sequence[tuple[Matrix, Matrix]], rows_dim: int, cols_dim: int
) -> list[Matrix]:
    """Basis of {X : X a = b X for every (a, b) pair}; X is rows_dim x cols_dim.

    The pairs join one elimination in turn, but a pair that every solution so
    far satisfies (tested in integers, on den * a and den * b) is skipped.
    """
    width = rows_dim * cols_dim
    ech, space, ker = Echelon(width), Subspace.full(width), []
    for a, b in pairs:
        if a.rows != cols_dim or b.rows != rows_dim:
            raise ValueError("equation factors do not match the unknown shape")
        _, (a_int, b_int) = _int_matrices((a, b))
        if ech.rows and all(_sparse_matmul(x, a_int) == _sparse_matmul(b_int, x) for x in ker):
            continue
        for row in _axiom_rows([((), 0, a, b)], rows_dim, cols_dim):
            ech.insert(row)
        space = _kernel(ech.rref(), width)
        ker = [_unflatten(_integral(row), cols_dim) for row in space.rows.values()]
    return [_matrix_of(_unflatten(row, cols_dim), rows_dim, cols_dim)
            for row in space.rows.values()]


def _primary_components(c: Matrix, minpoly: Sequence | None = None) -> list[Subspace]:
    """Primary decomposition of the space under c, as far as rational roots go.

    The minimal polynomial (computed unless given) is split into (t - a)^e
    factors for each rational root a plus a rootless leftover; the space is
    the direct sum of the kernels of the factors at c, none zero: each
    divides the minimal polynomial.
    """
    roots, rest = poly._rational_factors(minpoly or poly.minimal_polynomial(c))
    # (t - a)^e by the binomial theorem, then the leftover without rational roots
    factors = [[comb(e, k) * (-a) ** (e - k) for k in range(e + 1)] for a, e in roots]
    if len(rest) > 1:
        factors.append(rest)
    pieces = [nullspace(poly._poly_at(f, c)) for f in factors]
    if sum(p.dim for p in pieces) != c.rows:
        raise algebra.InternalCheckError("primary components do not fill the space")
    return pieces


def _try_split(mats: list[Matrix], d: int) -> list[Subspace] | str:
    """One commutant splitting round on the action matrices of a piece.

    Returns the obstruction that certifies the piece indecomposable (a
    trivial or a division commutant), an empty list when the commutant is
    nontrivial but nothing splits it rationally, and otherwise at least two
    primary components. A 4-dimensional commutant where no candidate splits
    goes to the quaternion step of `conic`: an idempotent other than 0 and 1
    splits it, an anisotropic norm form makes it a division algebra.
    """
    basis = matrix_commutant(mats, d)
    if len(basis) == 1:
        return "commutant dimension 1"
    generic = linear_combination(range(1, len(basis) + 1), basis, d, d)
    minpoly = poly.minimal_polynomial(generic)
    for cand, mp in [(generic, minpoly), *((b, None) for b in basis)]:
        pieces = _primary_components(cand, mp)
        if len(pieces) >= 2:
            return pieces
    if len(basis) == 4:
        e = conic.quaternion_idempotent(basis, generic, minpoly)
        if e == "anisotropic":
            return "commutant is a quaternion division algebra"
        if e is not None:
            return _primary_components(e, (0, -1, 1))
    return []
