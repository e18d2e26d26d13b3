"""Finite-dimensional Leibniz algebras over QQ, given by structure constants.

The bracket convention is the right one: every right multiplication
v -> [v, x] is a derivation, which is the content of the defining identity

    [[x, y], z] = [[x, z], y] + [x, [y, z]].

A LeibnizAlgebra keeps its structure constants in one sparse integer form,
which every operation reads; the dense table is a view built on demand. It
validates the identity eagerly on construction and stores the violating
triples; operations beyond the checks themselves refuse to run on an
invalid table. The identity is pairing axiom (1), R_[y,z] = R_z R_y - R_y R_z,
of the right multiplications, checked one pair at a time in O(n^2) memory.

This layer holds what every job runs: the constructor with its identity
check, the bracket, the multiplication matrices, the Leibniz kernel and
ideal closure. The structure theory (ideals, quotients, series, the Killing
form, the Levi chain, simplicity and derivations) lives in the `structure`
layer. The class keeps those methods under their names, each forwarding to
that layer, so a module job never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from . import structure
from .linalg import (
    Matrix, Subspace, Vector, _eliminate, _matrix_of, _pairing_defects, _sparse, _span_closure,
    vec,
)

if TYPE_CHECKING:
    from .structure import SeriesReport, SimplicityVerdict, StructureReport

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
    so equality and hash read it. table[i][j] is a view built on first access.
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
        i of the defect of axiom (1) at (j, k) for the right multiplications
        R_k: v -> [v, b_k]. Row i of R_k^T is [b_i, b_k]; with e = -1 their
        defects are the transposed ones, so the rows name the violating i."""
        n, nz = self.dim, self._int_table
        cols = [{i: dict(nz[i][k]) for i in range(n) if nz[i][k]} for k in range(n)]
        bad = [(i, j, k) for j, k, defect in _pairing_defects(cols, nz, -1, 1) for i in defect]
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
        return self._mult_matrix(row[j] for row in self._int_table)

    def left_mult_matrix_basis(self, j: int) -> Matrix:
        """Matrix of v -> [b_j, v]."""
        return self._mult_matrix(self._int_table[j])

    def _mult_matrix(self, cells: Iterable[tuple]) -> Matrix:
        """The matrix whose column i is the bracket with integer constants cells[i]."""
        out: dict = {}
        for i, cell in enumerate(cells):
            for t, c in cell:
                out.setdefault(t, {})[i] = Fraction(c, self._den)
        return _matrix_of(out, self.dim, self.dim)

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
        n = self.dim
        seeds = ({i: 1, j: 1} for i in range(n) for j in range(i, n))
        return _eliminate((self._product(s, s) for s in seeds), n).subspace()

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def ideal_closure(self, seeds: Iterable[Sequence]) -> Subspace:
        """Smallest two-sided ideal containing the seed vectors."""
        self._require_valid()
        n, nonzero = self.dim, self._int_table
        # column k of v -> [v, b_j] is [b_k, b_j]; of v -> [b_j, v] it is [b_j, b_k]
        maps = [{k: dict(nonzero[k][j]) for k in range(n) if nonzero[k][j]} for j in range(n)]
        maps += [{k: dict(cell) for k, cell in enumerate(nonzero[j]) if cell} for j in range(n)]
        return _span_closure([_sparse(s, n) for s in seeds], maps, n).subspace()

    # -- structure theory: each method below runs in the `structure` layer --

    def product_space(self, u: Subspace, w: Subspace) -> Subspace:
        """Span of [u', w'] over basis pairs of the two subspaces."""
        return structure.product_space(self, u, w)

    def is_subalgebra(self, u: Subspace) -> bool:
        return structure.is_subalgebra(self, u)

    def is_ideal(self, u: Subspace) -> bool:
        return structure.is_ideal(self, u)

    def quotient(self, ideal: Subspace) -> tuple["LeibnizAlgebra", Matrix]:
        """Quotient algebra and the projection matrix onto it.

        The quotient basis consists of the cosets of the unit vectors at the
        non-pivot coordinates comp of the ideal, so the construction is
        deterministic. b_comp[k] projects to e_k, a pivot to minus the rest
        of its RREF row.
        """
        return structure.quotient(self, ideal)

    def subalgebra_on(self, u: Subspace) -> "LeibnizAlgebra":
        """The induced table on a subspace closed under the bracket: a product
        with no remainder has its RREF coordinates at the pivots."""
        return structure.subalgebra_on(self, u)

    def lower_central_series(self) -> SeriesReport:
        return structure.lower_central_series(self)

    def derived_series(self) -> SeriesReport:
        return structure.derived_series(self)

    def is_solvable(self) -> bool:
        return structure.is_solvable(self)

    def is_nilpotent(self) -> bool:
        return structure.is_nilpotent(self)

    def killing_form(self) -> Matrix:
        """Gram matrix of (x, y) -> trace(ad x . ad y), summed from the integer
        constants as sum_{k,s} c_ik^s c_js^k. Lie algebras only."""
        return structure.killing_form(self)

    @cached_property
    def _levi_data(self) -> tuple[Subspace, tuple[int, ...], "LeibnizAlgebra", Subspace]:
        """The Levi chain (kernel, comp, Lie quotient, radical), computed once."""
        return structure._levi_chain(self)

    def radical(self) -> Subspace:
        """Largest solvable ideal, read off the verified Levi chain."""
        return structure.radical(self)

    def is_semisimple(self) -> bool:
        """Radical equal to the kernel."""
        return structure.is_semisimple(self)

    def is_simple(self) -> SimplicityVerdict:
        """Three-valued simplicity test.

        "no" comes with an explicit witness (a proper ideal other than the
        kernel, or the failing bracket/radical condition). "yes" is only
        reported when the Lie quotient is certifiably simple and the kernel
        module is absolutely irreducible. Anything else is "undetermined"
        with the blocking check named.
        """
        return structure.is_simple(self)

    def derivations(self) -> Subspace:
        """All d with d[x,y] = [dx,y] + [x,dy], flattened row-major into QQ^(n^2)."""
        return structure.derivations(self)

    def inner_derivations(self) -> Subspace:
        """Span of the right multiplications, flattened row-major."""
        return structure.inner_derivations(self)

    def check_inn_ideal(self) -> bool:
        """Inner derivations form an ideal of the derivation Lie algebra.

        For a derivation D and R_x: v -> [v, x], D R_x - R_x D = R_{Dx}, so
        the inner derivations are an ideal as soon as they are derivations.
        """
        return structure.check_inn_ideal(self)

    def levi_subalgebra(self) -> Subspace:
        """A Lie complement S to the kernel K in a semisimple algebra.

        The section s_a = e_comp[a] of the quotient (see _levi_data) is
        corrected to s_a + w_a with w_a in K. K is
        spanned by squares and [z, [y, y]] = 0 by the derivation rule, so
        [L, K] = 0 and closure, [s_a + w_a, s_b + w_b] = sum_t c_ab^t
        (s_t + w_t), is one Sylvester equation per quotient basis vector b:
        C_b X - X A_b^T = Gamma_b. Row a of the q x r matrix X holds the
        kernel coordinates of w_a, C_b[a][t] = c_ab^t, A_b is v -> [v, s_b]
        on K, and row a of Gamma_b is [s_a, s_b] - sum_t c_ab^t s_t in kernel
        coordinates: the entries of [s_a, s_b] at the pivots of K. The
        correction exists in characteristic zero, so failure to solve is
        reported as an internal error. The result is verified: S is a
        subalgebra with a Lie table, intersects the kernel trivially, and
        together they span everything.
        """
        return structure.levi_subalgebra(self)

    def structure_report(self) -> StructureReport:
        return structure.structure_report(self)


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


def abelian_algebra(n: int, name: str = "") -> LeibnizAlgebra:
    return LeibnizAlgebra._of([f"a{i}" for i in range(n)], {}, name=name or f"abelian{n}")


def direct_sum_algebra(a: LeibnizAlgebra, b: LeibnizAlgebra, name: str = "") -> LeibnizAlgebra:
    """External direct sum; clashing labels get _1 and _2 suffixes."""
    clash = set(a.basis_names) & set(b.basis_names)
    names_a = [f"{s}_1" if clash else s for s in a.basis_names]
    names_b = [f"{s}_2" if clash else s for s in b.basis_names]
    cells = {}
    for alg, shift in ((a, 0), (b, a.dim)):
        for i, row in enumerate(alg._int_table):
            for j, cell in enumerate(row):
                cells[shift + i, shift + j] = {shift + t: Fraction(c, alg._den) for t, c in cell}
    return LeibnizAlgebra._of(names_a + names_b, cells, name=name)
