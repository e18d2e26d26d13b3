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

The Levi chain, the kernel K, the Lie quotient Q = L/K and the radical, is
computed and verified once per algebra (`_levi_data`); `radical`,
`is_semisimple`, `is_simple`, `levi_subalgebra` and `structure_report` read
it. The radical is K plus the lift of the radical of Q by the section
e_k -> b_comp[k]. `quotient` reads its projection off the RREF rows of the
ideal, and `subalgebra_on` its table off the pivot entries of the products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .linalg import (
    Matrix,
    _axiom_rows,
    _eliminate,
    _integral,
    _matrix_of,
    _norton,
    _pairing_defects,
    _particular,
    _sparse,
    _sparse_combination,
    _sparse_matmul,
    _span_closure,
    Subspace,
    Vector,
    _solutions,
    matrix_commutant,
    envelope_dimension,
    nullspace,
    subspace_sum,
    vec,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class InvalidAlgebraError(ValueError):
    """Raised when an operation is asked to run on a non-Leibniz table."""


class InternalCheckError(RuntimeError):
    """A result failed its own verification; this signals a bug, not bad input."""


class SeriesReport(NamedTuple):
    kind: str  # "lower_central" or "derived"
    terms: tuple[Subspace, ...]
    stabilized: bool

    @property
    def terminal(self) -> Subspace:
        return self.terms[-1]


class SimplicityVerdict(NamedTuple):
    value: str  # "yes", "no", "undetermined"
    witness: Subspace | None = None
    reason: str = ""


class StructureReport(NamedTuple):
    is_lie: bool
    kernel: Subspace
    radical: Subspace
    solvable: bool
    nilpotent: bool
    semisimple: bool
    simple: SimplicityVerdict
    witnesses: tuple[tuple[str, Subspace], ...]


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

    def product_space(self, u: Subspace, w: Subspace) -> Subspace:
        """Span of [u', w'] over basis pairs of the two subspaces."""
        self._require_valid(u, w)
        n = self.dim
        us = [_integral(a) for a in u.rows.values()]
        ws = [_integral(b) for b in w.rows.values()]
        return _eliminate((self._product(a, b) for a in us for b in ws), n).subspace()

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

    def is_subalgebra(self, u: Subspace) -> bool:
        self._require_valid()
        return u.contains_subspace(self.product_space(u, u))

    def is_ideal(self, u: Subspace) -> bool:
        self._require_valid()
        full = self.full_space()
        return (u.contains_subspace(self.product_space(u, full))
                and u.contains_subspace(self.product_space(full, u)))

    # -- quotients and subalgebras --

    def quotient(self, ideal: Subspace) -> tuple["LeibnizAlgebra", Matrix]:
        """Quotient algebra and the projection matrix onto it.

        The quotient basis consists of the cosets of the unit vectors at the
        non-pivot coordinates comp of the ideal, so the construction is
        deterministic. b_comp[k] projects to e_k, a pivot to minus the rest
        of its RREF row.
        """
        self._require_valid()
        if not self.is_ideal(ideal):
            raise ValueError("subspace is not an ideal")
        pivots = set(ideal.pivots)
        index = {c: k for k, c in enumerate(c for c in range(self.dim) if c not in pivots)}
        images = {c: {k: ONE} for c, k in index.items()}  # images[t]: column t of proj
        for p, row in zip(ideal.pivots, ideal.rows.values()):
            images[p] = {index[c]: -x for c, x in row.items() if c != p}
        # [b_a, b_b] = sum_t c_ab^t b_t projects to sum_t c_ab^t images[t]
        cells = {}
        for ca, a in index.items():
            for cb, b in index.items():
                acc = cells[a, b] = {}
                for t, c in self._int_table[ca][cb]:
                    for k, x in images[t].items():
                        acc[k] = acc.get(k, 0) + Fraction(c, self._den) * x
        out = LeibnizAlgebra._of([self.basis_names[c] for c in index], cells)
        if not out.is_valid:
            raise InternalCheckError("quotient by an ideal produced an invalid table")
        proj = _matrix_of({t: col for t, col in images.items() if col}, self.dim, len(index))
        return out, proj.transpose()

    def subalgebra_on(self, u: Subspace) -> "LeibnizAlgebra":
        """The induced table on a subspace closed under the bracket: a product
        with no remainder has its RREF coordinates at the pivots."""
        self._require_valid(u)
        rows = list(u.rows.values())
        cells = {}
        for a, x in enumerate(rows):
            for b, y in enumerate(rows):
                w = self._product(x, y)
                if u._remainder(w):
                    raise ValueError("subspace is not closed under the bracket")
                cells[a, b] = {k: w[p] / self._den for k, p in enumerate(u.pivots) if p in w}
        # an RREF row with one entry is the unit vector at its pivot
        names = [self.basis_names[p] if len(u.rows[a]) == 1 else f"u{a}"
                 for a, p in enumerate(u.pivots)]
        return LeibnizAlgebra._of(names, cells)

    # -- series --

    def _series(self, term: Subspace, against: Subspace | None = None) -> tuple[Subspace, ...]:
        """term, [term, against], [[term, against], against], ... up to the
        first repeat; without against each term is bracketed with itself."""
        terms = [term]
        while True:
            nxt = self.product_space(term, term if against is None else against)
            if nxt == term:
                return tuple(terms)
            terms.append(nxt)
            term = nxt

    def lower_central_series(self) -> SeriesReport:
        self._require_valid()
        full = self.full_space()
        return SeriesReport("lower_central", self._series(full, full), True)

    def derived_series(self) -> SeriesReport:
        self._require_valid()
        return SeriesReport("derived", self._series(self.full_space()), True)

    def is_solvable(self) -> bool:
        return self.derived_series().terminal.is_zero()

    def is_nilpotent(self) -> bool:
        return self.lower_central_series().terminal.is_zero()

    # -- Killing form, radical, semisimplicity --

    def killing_form(self) -> Matrix:
        """Gram matrix of (x, y) -> trace(ad x . ad y), summed from the integer
        constants as sum_{k,s} c_ik^s c_js^k. Lie algebras only."""
        self._require_valid()
        if not self.is_lie():
            raise ValueError("Killing form is only computed on Lie tables")
        n, nz = self.dim, self._int_table
        ads = [{(s, k): c for k in range(n) for s, c in nz[i][k]} for i in range(n)]  # ad b_i
        return Matrix([[Fraction(sum(c * b.get((k, s), 0) for (s, k), c in a.items()),
                                 self._den ** 2) for b in ads] for a in ads])

    @cached_property
    def _levi_data(self) -> tuple[Subspace, tuple[int, ...], "LeibnizAlgebra", Subspace]:
        """The kernel K, its non-pivot columns comp, the Lie quotient Q = L/K,
        whose basis vector k is the coset of b_comp[k], and the radical: the
        preimage of the radical of Q, so K plus the rows of the radical of Q
        read at comp. The chain is computed and verified once."""
        kernel = self.leibniz_kernel()
        quo, _ = self.quotient(kernel)
        if not quo.is_lie():
            raise InternalCheckError("quotient by the kernel is not Lie")
        comp = tuple(c for c in range(self.dim) if c not in kernel.pivots)
        lifts = ({comp[k]: x for k, x in row.items()} for row in _lie_radical(quo).rows.values())
        rad = _eliminate([*kernel.rows.values(), *lifts], self.dim).subspace()
        if not self.is_ideal(rad):
            raise InternalCheckError("computed radical is not an ideal")
        if not self._series(rad)[-1].is_zero():
            raise InternalCheckError("computed radical is not solvable")
        return kernel, comp, quo, rad

    def radical(self) -> Subspace:
        """Largest solvable ideal, read off the verified Levi chain."""
        self._require_valid()
        return self._levi_data[3]

    def is_semisimple(self) -> bool:
        """Radical equal to the kernel."""
        return self.radical() == self._levi_data[0]

    # -- simplicity --

    def is_simple(self) -> SimplicityVerdict:
        """Three-valued simplicity test.

        "no" comes with an explicit witness (a proper ideal other than the
        kernel, or the failing bracket/radical condition). "yes" is only
        reported when the Lie quotient is certifiably simple and the kernel
        module is absolutely irreducible. Anything else is "undetermined"
        with the blocking check named.
        """
        self._require_valid()
        kernel, _, quo, rad = self._levi_data
        full = self.full_space()
        derived = self.product_space(full, full)
        if derived == kernel:
            return SimplicityVerdict("no", derived, "[L,L] equals the kernel")
        if rad != kernel:
            return SimplicityVerdict("no", rad, "radical exceeds the kernel")
        # rad == kernel: [Q,Q]^perp = 0 in Q, so the Killing form of Q is nondegenerate
        ads = [quo.right_mult_matrix_basis(j) for j in range(quo.dim)]
        reason = ""
        if len(matrix_commutant(ads, quo.dim)) != 1:
            reason = "adjoint commutant of the Lie quotient has dimension above one"
        elif kernel.dim:
            mats, k = self._kernel_action_matrices(kernel), kernel.dim
            if not _norton(mats, k) and envelope_dimension(mats, k) != k * k:
                reason = "kernel module envelope is short of the full matrix algebra"
        if not reason:
            # Q = L/K is simple and K an irreducible module, so a proper ideal
            # I other than K would have I + K = L and I meet K in 0. Then
            # [K, L] = [K, I] = 0 and [L, K] = 0, so every square lies in I
            # and K = 0: no seed can find one. The seed search runs only past
            # a failed certificate, whose reason it keeps if it finds none.
            return SimplicityVerdict("yes", None, "")
        for seed in self._ideal_seed_candidates():
            closure = self.ideal_closure([seed])
            if closure != kernel and not closure.is_zero() and closure != full:
                return SimplicityVerdict(
                    "no", closure, "closure of a sampled vector is a proper ideal")
        return SimplicityVerdict("undetermined", None, reason)

    def _ideal_seed_candidates(self) -> list[Vector]:
        """The unit vectors, then the sums of two of them."""
        units = Matrix.identity(self.dim).data
        return list(units) + [tuple(a + b for a, b in zip(units[i], units[j]))
                              for i in range(self.dim) for j in range(i + 1, self.dim)]

    def _kernel_action_matrices(self, kernel: Subspace) -> list[Matrix]:
        """Right actions of every basis element on the kernel; the left ones
        vanish there, since [x, [y, y]] = 0."""
        mats = [kernel.induced(self.right_mult_matrix_basis(j)) for j in range(self.dim)]
        if any(m is None for m in mats):
            raise InternalCheckError("kernel is not acting into itself")
        return mats

    # -- derivations --

    def derivations(self) -> Subspace:
        """All d with d[x,y] = [dx,y] + [x,dy], flattened row-major into QQ^(n^2)."""
        self._require_valid()
        n, nz = self.dim, self._int_table
        # entry (r, s) of d is unknown r*n + s; the equation at (p, q, r) is
        # sum_s c_pq^s d_rs - c_sq^r d_sp - c_ps^r d_sq = 0, in integers
        right = [[[] for _ in range(n)] for _ in range(n)]  # right[q][r]: (s, c_sq^r)
        left = [[[] for _ in range(n)] for _ in range(n)]  # left[p][r]: (s, c_ps^r)
        for s in range(n):
            for q in range(n):
                for r, c in nz[s][q]:
                    right[q][r].append((s, c))
                for r, c in nz[q][s]:
                    left[q][r].append((s, c))
        # only a triple where nz[p][q], right[q][r] or left[p][r] is nonempty can
        # give a nonzero row; sorted, the rows keep their (p, q, r) order
        every = range(n)
        triples = {(p, q, r) for p in every for q in every if nz[p][q] for r in every}
        triples.update((p, q, r) for q in every for r in every if right[q][r] for p in every)
        triples.update((p, q, r) for p in every for r in every if left[p][r] for q in every)
        rows = []
        for p, q, r in sorted(triples):
            row = {r * n + s: c for s, c in nz[p][q]}
            terms = [(s * n + p, c) for s, c in right[q][r]]
            terms += [(s * n + q, c) for s, c in left[p][r]]
            for col, c in terms:
                y = row.get(col, 0) - c
                if y:
                    row[col] = y
                else:
                    del row[col]
            if row:
                rows.append(row)
        return _solutions(rows, n * n)

    def inner_derivations(self) -> Subspace:
        """Span of the right multiplications, flattened row-major."""
        self._require_valid()
        n = self.dim
        mults = (self.right_mult_matrix_basis(j).nz for j in range(n))
        return _eliminate(({r * n + c: x for r, row in m.items() for c, x in row.items()}
                           for m in mults), n * n).subspace()

    def check_inn_ideal(self) -> bool:
        """Inner derivations form an ideal of the derivation Lie algebra.

        For a derivation D and R_x: v -> [v, x], D R_x - R_x D = R_{Dx}, so
        the inner derivations are an ideal as soon as they are derivations.
        """
        return self.derivations().contains_subspace(self.inner_derivations())

    # -- Levi complement --

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
        self._require_valid()
        kernel, comp, quo, rad = self._levi_data
        if rad != kernel:
            raise ValueError("Levi complement is computed on semisimple algebras only")
        if kernel.is_zero():
            return self.full_space()
        q, r = len(comp), kernel.dim
        # X A_b^T - C_b X = -Gamma_b, one row per (b, a, m), with the
        # right-hand side in column q r
        rights = self._kernel_action_matrices(kernel)
        rows = _axiom_rows([((), 0, rights[c].transpose(),
                             Matrix([quo._cell(a, b) for a in range(q)]))
                            for b, c in enumerate(comp)], q, r)
        nz = self._int_table
        cells = [dict(nz[comp[a]][comp[b]]) for b in range(q) for a in range(q)]
        gammas = (cell.get(p, 0) for cell in cells for p in kernel.pivots)
        for row, g in zip(rows, gammas):
            if g:
                row[q * r] = Fraction(-g, self._den)
        particular, _ = _particular(rows, q * r)
        if particular is None:
            raise InternalCheckError("Levi correction system is unsolvable")
        section = {a: {c: ONE} for a, c in enumerate(comp)}
        correction = _sparse_matmul(Matrix.from_flat(particular, q, r).nz, kernel.rows)
        levi = _eliminate(_sparse_combination([(1, section), (1, correction)]).values(),
                          self.dim).subspace()
        if levi.dim != q:
            raise InternalCheckError("Levi complement has wrong dimension")
        # the dimensions add up to q + r = n, so spanning makes the sum direct
        if subspace_sum(levi, kernel).dim != self.dim:
            raise InternalCheckError("Levi complement and kernel do not span")
        try:
            table = self.subalgebra_on(levi)
        except ValueError:
            raise InternalCheckError("Levi complement is not a subalgebra") from None
        if not table.is_lie():
            raise InternalCheckError("Levi complement table is not Lie")
        return levi

    # -- aggregate report --

    def structure_report(self) -> StructureReport:
        self._require_valid()
        kernel, _, _, rad = self._levi_data
        simple = self.is_simple()
        witnesses: list[tuple[str, Subspace]] = [("kernel", kernel), ("radical", rad)]
        if simple.witness is not None:
            witnesses.append(("simplicity", simple.witness))
        return StructureReport(
            is_lie=self.is_lie(),
            kernel=kernel,
            radical=rad,
            solvable=self.is_solvable(),
            nilpotent=self.is_nilpotent(),
            semisimple=rad == kernel,
            simple=simple,
            witnesses=tuple(witnesses),
        )


def _lie_radical(lie: LeibnizAlgebra) -> Subspace:
    """Killing-orthogonal complement of the derived algebra (Cartan criterion)."""
    derived = lie.product_space(lie.full_space(), lie.full_space())
    if derived.is_zero():
        return lie.full_space()
    # kappa is symmetric, so row k of derived.basis * kappa is kappa d_k
    return nullspace(derived.basis * lie.killing_form())


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
