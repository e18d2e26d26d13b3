"""Finite-dimensional Leibniz algebras over QQ, given by structure constants.

The bracket convention is the right one: every right multiplication
v -> [v, x] is a derivation, which is the content of the defining identity

    [[x, y], z] = [[x, z], y] + [x, [y, z]].

A LeibnizAlgebra keeps its structure constants scaled to integers, in two
forms built once: the brackets, which the bilinear reads use, and the
multiplication matrices R_k: v -> [v, b_k] and L_k: v -> [b_k, v], which
every linear read uses and no other layer builds. The dense table is a view
built on demand. The identity is validated eagerly on construction, with the
violating triples stored; operations beyond the checks refuse to run on an
invalid table. The identity is pairing axiom (1), R_[y,z] = R_z R_y - R_y R_z,
of the R_k, checked one pair at a time in O(n^2) memory.

This layer holds what every job runs: the constructor with its identity check,
the bracket, the multiplication matrices, the Leibniz kernel, eliminated once
per algebra, ideal closure and `algebra_from_brackets`, the parser's
constructor. The abelian and direct-sum constructors, which no job runs, live
in `modules`. The structure theory (ideals, quotients,
series, the Killing form, the Levi chain, simplicity and derivations) lives in
the `structure` layer, which holds each of those methods, body and contract,
as a function of the algebra. The class reads them from there under their
names through one descriptor, `_Structure`, which loads that layer on the
first read: so `LeibnizAlgebra.radical is structure.radical`, `alg.radical()`
calls it with the algebra first, and a module job never compiles the layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from . import structure
from .linalg import (
    Matrix, Subspace, Vector, _eliminate, _matrix_of, _pairing_defects, _sparse,
    _sparse_combination, _span_closure, _transpose, vec,
)

ZERO = Fraction(0)


class InvalidAlgebraError(ValueError):
    """Raised when an operation is asked to run on a non-Leibniz table."""


class InternalCheckError(RuntimeError):
    """A result failed its own verification; this signals a bug, not bad input."""


class LeibnizAlgebra:
    """Structure-constant model of a Leibniz algebra.

    The constants are stored once, scaled to integers by their common
    denominator _den: _int_table[i][j] lists the nonzero (t, c) of
    [b_i, b_j] = sum_t (c / _den) b_t in increasing t. The form is canonical,
    so equality and hash read it. _right[k] and _left[k] are _den R_k and
    _den L_k in the form of Matrix.nz. table[i][j] is built on first access.
    """

    def __init__(
        self,
        basis_names: Sequence[str],
        table: Sequence[Sequence[Sequence]],
        name: str = "",
    ):
        names = tuple(str(s) for s in basis_names)
        n = len(names)
        if len(table) != n:
            raise ValueError(f"table has {len(table)} rows, expected {n}")
        cells = {}
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"table row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                v = vec(v)
                if len(v) != n:
                    raise ValueError("structure constant vector of wrong length")
                cells[i, j] = {t: c for t, c in enumerate(v) if c}
        self._setup(names, cells, name)

    @staticmethod
    def _of(basis_names: Sequence[str], cells: dict, name: str = "") -> "LeibnizAlgebra":
        """Algebra over sparse rational brackets: cells[i, j] maps t to the
        coefficient of b_t in [b_i, b_j]; absent pairs and entries are zero."""
        alg = object.__new__(LeibnizAlgebra)
        alg._setup(tuple(str(s) for s in basis_names), cells, name)
        return alg

    def _setup(self, names: tuple[str, ...], cells: dict, name: str) -> None:
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        n = len(names)
        den = lcm(*[c.denominator for cell in cells.values() for c in cell.values()])
        self.basis_names = names
        self.name = name
        self.dim = n
        self._den = den
        self._int_table = tuple(tuple(
            tuple(sorted((t, c.numerator * (den // c.denominator))
                         for t, c in cells.get((i, j), {}).items() if c))
            for j in range(n)) for i in range(n))
        # column i of R_j and column j of L_i are [b_i, b_j]
        nz, every = self._int_table, range(n)
        self._right = [_transpose({i: dict(nz[i][j]) for i in every if nz[i][j]}) for j in every]
        self._left = [_transpose({j: dict(nz[i][j]) for j in every if nz[i][j]}) for i in every]
        self.leibniz_violations = self._find_violations()

    @cached_property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """table[i][j]: the coordinates of [b_i, b_j], built on first access."""
        n = self.dim
        return tuple(tuple(self._cell(i, j) for j in range(n)) for i in range(n))

    def _cell(self, i: int, j: int) -> Vector:
        """The coordinates of [b_i, b_j]."""
        out = [ZERO] * self.dim
        for t, c in self._int_table[i][j]:
            out[t] = Fraction(c, self._den)
        return tuple(out)

    # -- identity and validity --

    def _find_violations(self) -> tuple[tuple[int, int, int], ...]:
        """Triples (i, j, k), in (j, k, i) order, where
        [[b_i,b_j],b_k] - [[b_i,b_k],b_j] - [b_i,[b_j,b_k]] is not zero: column
        i of the defect of axiom (1) at (j, k) for the right multiplications."""
        bad = {(i, j, k) for j, k, defect in _pairing_defects(self._right, self._int_table, 1, 1)
               for row in defect.values() for i in row}
        return tuple(sorted(bad, key=lambda t: (t[1], t[2], t[0])))

    @property
    def is_valid(self) -> bool:
        return not self.leibniz_violations

    def check_leibniz(self) -> tuple[tuple[int, int, int], ...]:
        """Triples (i, j, k) where [[b_i,b_j],b_k] != [[b_i,b_k],b_j] + [b_i,[b_j,b_k]]."""
        return self.leibniz_violations

    def _require_valid(self, *spaces: Subspace) -> None:
        """Refuse an invalid table, and subspaces of another ambient dimension."""
        if not self.is_valid:
            raise InvalidAlgebraError(
                f"table violates the Leibniz identity at triples {self.leibniz_violations[:3]}...")
        if any(u.ambient_dim != self.dim for u in spaces):
            raise ValueError(f"subspace is not in the {self.dim}-dimensional algebra")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeibnizAlgebra):
            return NotImplemented
        return self.basis_names == other.basis_names and self.same_table(other)

    def __hash__(self) -> int:
        return hash((self.basis_names, self._den, self._int_table))

    def __repr__(self) -> str:
        label = self.name or "LeibnizAlgebra"
        return f"<{label} dim={self.dim} basis={','.join(self.basis_names)}>"

    def same_table(self, other: "LeibnizAlgebra") -> bool:
        """Equality of structure constants, ignoring basis labels and name."""
        return self._den == other._den and self._int_table == other._int_table

    # -- bracket and multiplication operators --

    def _product(self, x: dict, y: dict) -> dict:
        """_den [x, y] for sparse vectors {index: value}, as a sparse vector."""
        nz = self._int_table
        acc: dict = {}
        for i, a in x.items():
            row = nz[i]
            for j, b in y.items():
                ab = a * b
                for t, c in row[j]:
                    acc[t] = acc.get(t, 0) + ab * c
        return {t: v for t, v in acc.items() if v}

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x = vec(x)
        y = vec(y)
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("coordinate vectors must match the algebra dimension")
        out = [ZERO] * n
        for t, v in self._product(_sparse(x, n), _sparse(y, n)).items():
            out[t] = v / self._den
        return tuple(out)

    def right_mult_matrix_basis(self, j: int) -> Matrix:
        """Matrix of v -> [v, b_j]."""
        return _matrix_of(_sparse_combination([(Fraction(1, self._den), self._right[j])]),
                          self.dim, self.dim)

    def left_mult_matrix_basis(self, j: int) -> Matrix:
        """Matrix of v -> [b_j, v]."""
        return _matrix_of(_sparse_combination([(Fraction(1, self._den), self._left[j])]),
                          self.dim, self.dim)

    # -- basic structure --

    def is_lie(self) -> bool:
        """Antisymmetry of the whole table; with the Leibniz identity that is Lie."""
        nz = self._int_table
        return all(nz[i][j] == tuple((t, -c) for t, c in nz[j][i])
                   for i in range(self.dim) for j in range(i, self.dim))

    def leibniz_kernel(self) -> Subspace:
        """Span of the squares [x, x], or of those of b_i and b_i + b_j.

        Over QQ this is the smallest ideal with a Lie quotient; it is abelian
        and two-sided.
        """
        self._require_valid()
        return self._kernel

    @cached_property
    def _kernel(self) -> Subspace:
        n = self.dim
        seeds = ({i: 1, j: 1} for i in range(n) for j in range(i, n))
        return _eliminate((self._product(s, s) for s in seeds), n).subspace()

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def ideal_closure(self, seeds: Iterable[Sequence]) -> Subspace:
        """Smallest two-sided ideal containing the seed vectors."""
        self._require_valid()
        seeds = [_sparse(s, self.dim) for s in seeds]
        return _span_closure(seeds, self._right + self._left, self.dim).subspace()

    @cached_property
    def _levi_data(self) -> tuple[Subspace, tuple[int, ...], "LeibnizAlgebra", Subspace]:
        """The Levi chain (kernel, comp, Lie quotient, radical), computed once."""
        return structure._levi_chain(self)


class _Structure:
    """A method whose body and contract are the function of the same name in
    the `structure` layer, which loads on the first read: on the class the
    read gives that function, on an algebra the function bound to it."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, alg, cls):
        body = getattr(structure, self.name)
        return body if alg is None else body.__get__(alg, cls)


for _name in (
    "product_space", "is_subalgebra", "is_ideal", "quotient", "subalgebra_on",
    "lower_central_series", "derived_series", "is_solvable", "is_nilpotent", "killing_form",
    "radical", "is_semisimple", "is_simple", "derivations", "inner_derivations",
    "check_inn_ideal", "levi_subalgebra", "structure_report",
):
    setattr(LeibnizAlgebra, _name, _Structure(_name))
del _name


def algebra_from_brackets(
    basis_names: Sequence[str],
    brackets: dict[tuple[str, str], dict[str, Fraction | int | str]],
    name: str = "",
) -> LeibnizAlgebra:
    """Build an algebra from a sparse bracket dictionary; omitted pairs are zero."""
    index = {s: i for i, s in enumerate(basis_names)}
    cells = {}
    for (left, right), result in brackets.items():
        if left not in index or right not in index:
            raise ValueError(f"unknown basis label in bracket ({left}, {right})")
        cell = cells.setdefault((index[left], index[right]), {})
        for label, coeff in result.items():
            if label not in index:
                raise ValueError(f"unknown basis label {label!r} in a bracket result")
            cell[index[label]] = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
    return LeibnizAlgebra._of(basis_names, cells, name=name)
