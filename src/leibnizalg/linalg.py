"""Exact linear algebra over the rationals.

Everything here works with fractions.Fraction entries, so results are exact:
no tolerances, no floating point. Matrices are immutable.

There is one stored matrix form, the sparse matrix `row -> {col: x}` with
no zero entry and no empty row. A Matrix keeps only its shape and these
rows, `nz`; its dense rows, `data`, are a view built on each access, and
`_matrix_of` wraps a sparse matrix as a Matrix as it is. The form has one
product, `_sparse_matmul`, behind `Matrix * Matrix`, and one linear
combination, `_sparse_combination`, behind `linear_combination`, the sum,
difference and scaling of matrices and `_shift`. `_int_matrix` scales it to
integers, where `_pairing_defects` is the one check of pairing axiom (1),
rho_[x,y] = rho_y rho_x - rho_x rho_y, one pair at a time in O(d^2) memory:
the module axiom check in `reps` and the Leibniz identity (axiom (1) of the
right multiplications) run on it. The tail quadratics in `sl2` multiply in
it. A Subspace lives in it too: it keeps the rows of its reduced row echelon
form and their pivots, which makes equality of subspaces structural; its
`basis` is the Matrix over those rows.

All elimination runs on one sparse, fraction-free kernel, `Echelon`. Its
rows are dicts from column to int: each input row has its denominators
cleared once, rows are combined by integer cross-multiplication, and every
row is divided by the gcd of its entries after each step. One division per
pivot at the end gives the unique reduced row echelon form as Fraction
rows, which `Echelon.subspace` hands to a Subspace as they are. `rref`,
`nullspace`, `solve`, `Subspace.from_vectors`, the sum and the (Zassenhaus)
intersection of subspaces, `Matrix.rank`, `Matrix.inverse` and
`minimal_polynomial` all run on it. An inhomogeneous system keeps its
right-hand side as one more column; `_particular` reads the solution with
every free variable zero off the reduced form, for `solve` and for
`LeibnizAlgebra.levi_subalgebra`.

Linear equations in unknown matrices have one builder, `_axiom_rows`: the
sparse rows of (X_0, ..., X_{u-1}) -> sum_t c_t X_t + X_i a - b X_i, read
from the sparse forms of a^T and b, and `_solutions` takes their kernel.
The commutant and intertwiner systems (no c_t), the linearised pairing
axioms in `sl2` (tail forcing and the left block over sl2),
`decompose.solve_lowering_left` and the Sylvester equations of the Levi
correction all build their equations with it. `intertwiner_space` skips
each pair that the solutions so far satisfy: in a module lambda is often -rho
or 0, and rho(h) lies in the algebra that rho(e) and rho(f) generate.

Span closure has one routine on the same kernel, `_span_closure`: the
smallest subspace that contains some seed rows and is closed under a list
of linear maps, each the sparse matrix `k -> {i: x}` of its columns and
scaled once to integers, grown breadth first from the images that enlarge
it. `envelope_dimension` (X -> X g on flattened matrices),
`reps.spin_submodule` (the action matrices, read as the rows of m^T) and
`LeibnizAlgebra.ideal_closure` (right and left multiplications read from
the integer structure constants) call it; Norton's certificate `_norton`
spins twice, over width d, before `reps` and `is_simple` try the envelope.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def vec(values: Iterable) -> Vector:
    return tuple(_frac(v) for v in values)


def linear_combination(coeffs: Sequence, mats: Sequence["Matrix"],
                       rows: int, cols: int) -> "Matrix":
    """Sum of c * m over paired coefficients and rows x cols matrices."""
    return _matrix_of(_sparse_combination((c, m.nz) for c, m in zip(coeffs, mats) if c),
                      rows, cols)


class Matrix:
    """Immutable matrix over QQ, stored in the sparse form: nz maps a row to
    {col: x}, with no zero entry, no empty row and every x a Fraction. The
    dense rows, data, are a view built on each access."""

    __slots__ = ("rows", "cols", "nz")

    def __new__(cls, data: Sequence[Sequence], cols: int | None = None):
        data = [tuple(row) for row in data]
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged rows in matrix")
            if cols is not None and cols != width:
                raise ValueError("cols hint contradicts row length")
        else:
            # cols keeps the width of an empty matrix meaningful
            width = 0 if cols is None else cols
        rows = ((r, _sparse(row, width)) for r, row in enumerate(data))
        return _matrix_of({r: row for r, row in rows if row}, len(data), width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> tuple[Vector, ...]:
        return tuple(_dense(self.nz.get(r, {}), self.cols) for r in range(self.rows))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return _matrix_of({}, rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix_of({i: {i: ONE} for i in range(n)}, n, n)

    @staticmethod
    def from_flat(flat: Sequence, rows: int, cols: int) -> "Matrix":
        if len(flat) != rows * cols:
            raise ValueError("flat length does not match shape")
        return Matrix([flat[i * cols:(i + 1) * cols] for i in range(rows)])

    def __eq__(self, other) -> bool:
        # equal data: a matrix with no rows has no width to compare
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.nz == other.nz
                and (self.cols == other.cols or not self.rows))

    def __hash__(self) -> int:
        # the column order inside a computed row depends on the computation
        return hash((self.rows, self.cols if self.rows else 0,
                     tuple(sorted((r, tuple(sorted(row.items()))) for r, row in self.nz.items()))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return linear_combination((1, 1), (self, other), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return linear_combination((1, -1), (self, other), self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            return _matrix_of(_sparse_matmul(self.nz, other.nz), self.rows, other.cols)
        return self.scale(_frac(other))

    def __rmul__(self, other):
        return self.scale(_frac(other))

    def scale(self, c: Fraction) -> "Matrix":
        return linear_combination((c,), (self,), self.rows, self.cols)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple(sum((x * v[c] for c, x in self.nz.get(r, {}).items()), ZERO)
                     for r in range(self.rows))

    def transpose(self) -> "Matrix":
        out: dict = {}
        for r, row in self.nz.items():
            for c, x in row.items():
                out.setdefault(c, {})[r] = x
        return _matrix_of(out, self.cols, self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((row.get(r, ZERO) for r, row in self.nz.items()), ZERO)

    # range(n)[i] checks an index and resolves a negative one, as data[i] would
    def row(self, i: int) -> Vector:
        return _dense(self.nz.get(range(self.rows)[i], {}), self.cols)

    def col(self, j: int) -> Vector:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def entry(self, i: int, j: int) -> Fraction:
        return self.nz.get(range(self.rows)[i], {}).get(range(self.cols)[j], ZERO)

    def flatten(self) -> Vector:
        """Row-major flattening, the convention used everywhere in this package."""
        return tuple(x for row in self.data for x in row)

    def is_zero(self) -> bool:
        return not self.nz

    def is_square(self) -> bool:
        return self.rows == self.cols

    def rank(self) -> int:
        return _eliminate(self.nz.values(), self.cols).dim

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [{**self.nz.get(i, {}), n + i: ONE} for i in range(n)]
        reduced = _eliminate(aug, 2 * n).rref()
        if [p for p, _ in reduced] != list(range(n)):
            raise ValueError("matrix is singular")
        return _matrix_of({i: {c - n: x for c, x in row.items() if c >= n}
                           for i, (_, row) in enumerate(reduced)}, n, n)


def _matrix_of(s: dict, rows: int, cols: int) -> Matrix:
    """The rows x cols Matrix over a sparse matrix row -> {col: x} in the
    stored form (no zero entry, no empty row, Fraction entries), taken as it is."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "nz", s)
    return m


# ---- the elimination kernel ----
# A sparse row is a dict from column to a nonzero entry. Rows inside the
# kernel hold ints and are primitive: the gcd of their entries is 1.


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _integral(row: dict) -> dict:
    """Primitive integer row proportional to a sparse rational row."""
    den = lcm(*[x.denominator for x in row.values()])
    return _primitive({c: x.numerator * (den // x.denominator)
                       for c, x in row.items()})


def _combine(w: dict, r: dict, p: int) -> dict:
    """a w - b r made primitive, with a/b the ratio r[p]/w[p] in lowest
    terms, so that the entry at p cancels. Neither input is changed."""
    a, b = r[p], w[p]
    g = gcd(a, b)
    a //= g
    b //= g
    w = {c: a * x for c, x in w.items()} if a != 1 else dict(w)
    for c, y in r.items():
        x = w.get(c, 0) - b * y
        if x:
            w[c] = x
        else:
            del w[c]
    return _primitive(w)


def _sparse(values: Iterable, width: int) -> dict:
    """Sparse form of a dense rational vector of length width."""
    row = {}
    n = 0
    for n, x in enumerate(values, 1):
        if x.__class__ is not Fraction:
            x = _frac(x)
        if x:
            row[n - 1] = x
    if n != width:
        raise ValueError("vector length does not match ambient dimension")
    return row


def _unflatten(row: dict, cols: int) -> dict:
    """The sparse matrix whose row-major flattening is the sparse vector row."""
    out: dict = {}
    for k, x in row.items():
        r, c = divmod(k, cols)
        out.setdefault(r, {})[c] = x
    return out


def _dense(row: dict, width: int) -> Vector:
    out = [ZERO] * width
    for c, x in row.items():
        out[c] = x
    return tuple(out)


class Echelon:
    """Sparse fraction-free row echelon form: the package's elimination kernel.

    rows maps each pivot column to a primitive integer row whose first
    nonzero column is that pivot. A new row is reduced against them in
    increasing pivot order; whatever is left becomes a new pivot row.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict] = {}

    def _add(self, row: dict) -> bool:
        rows = self.rows
        w = _integral(row)
        heap = [c for c in w if c in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in w:
                r = rows[p]
                w = _combine(w, r, p)
                for c in r:
                    if c in rows and c in w:
                        heappush(heap, c)
        if w:
            rows[min(w)] = w
        return bool(w)

    def insert(self, v: Sequence[Fraction]) -> bool:
        """Add v to the span. Returns True when the span grew."""
        return self._add(_sparse(v, self.width))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def rref(self) -> list[tuple[int, dict[int, Fraction]]]:
        """(pivot, row) pairs of the reduced row echelon form, in pivot order.

        Back-substitution from the last pivot up, then one division by each
        pivot; the reduced integer rows replace the echelon rows.
        """
        done: dict[int, dict] = {}
        for p in sorted(self.rows, reverse=True):
            w = self.rows[p]
            for q in [c for c in w if c != p and c in done]:
                w = _combine(w, done[q], q)
            done[p] = w
        self.rows = done
        return [(p, {c: Fraction(x, done[p][p]) for c, x in done[p].items()})
                for p in sorted(done)]

    def subspace(self) -> "Subspace":
        return Subspace._of(self.width, self.rref())


def _eliminate(rows: Iterable[dict], width: int) -> Echelon:
    """Echelon form of sparse rational rows; stops once the rank is full."""
    ech = Echelon(width)
    for row in rows:
        ech._add(row)
        if ech.dim == width:
            break
    return ech


def _kernel(reduced: list[tuple[int, dict]], width: int) -> "Subspace":
    """Kernel of a reduced row echelon form: one vector per free column."""
    pivots = {p for p, _ in reduced}
    basis = {f: {f: ONE} for f in range(width) if f not in pivots}
    for p, row in reduced:
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return _eliminate(basis.values(), width).subspace()


def _solutions(rows: Iterable[dict], width: int) -> "Subspace":
    """Kernel of sparse rational rows over QQ^width, as a canonical Subspace."""
    return _kernel(_eliminate(rows, width).rref(), width)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of m, with the pivot column indices.

    Zero rows sink to the bottom; the result has the same shape as m.
    """
    reduced = _eliminate(m.nz.values(), m.cols).rref()
    return (_matrix_of(dict(enumerate(row for _, row in reduced)), m.rows, m.cols),
            tuple(p for p, _ in reduced))


def nullspace(m: Matrix) -> "Subspace":
    """Kernel of m acting on column vectors, as a canonical Subspace."""
    return _solutions(m.nz.values(), m.cols)


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


def solve(a: Matrix, b: Vector) -> tuple[Vector | None, "Subspace"]:
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


class Subspace:
    """Subspace of QQ^n, stored as the sparse rows {col: x} of its reduced
    row echelon form, with no zero row; row k is 1 at its pivot, pivots[k].
    The stored form is canonical, so two Subspace objects are equal exactly
    when they describe the same subspace. basis is the Matrix over the
    rows, which shares them.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        """The span of the rows of basis, brought to the canonical form."""
        if basis.rows and basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        s = _eliminate(basis.nz.values(), ambient_dim).subspace()
        self.ambient_dim, self.rows, self.pivots = ambient_dim, s.rows, s.pivots

    @staticmethod
    def _of(ambient_dim: int, reduced: list[tuple[int, dict]]) -> "Subspace":
        """Subspace over the (pivot, row) pairs of a reduced row echelon form."""
        s = object.__new__(Subspace)
        s.ambient_dim, s.pivots = ambient_dim, tuple(p for p, _ in reduced)
        s.rows = {k: row for k, (_, row) in enumerate(reduced)}
        return s

    @property
    def basis(self) -> Matrix:
        return _matrix_of(self.rows, self.dim, self.ambient_dim)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Subspace:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        # the column order inside an rref() row depends on the elimination
        return hash((self.ambient_dim,
                     tuple(tuple(sorted(row.items())) for row in self.rows.values())))

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return _eliminate([_sparse(v, ambient_dim) for v in vectors], ambient_dim).subspace()

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, [(i, {i: ONE}) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _remainder(self, w: dict) -> dict:
        """Remainder of a sparse vector after elimination against the rows:
        w - sum_k w[pivots[k]] rows[k], since each row is 0 at the other pivots."""
        terms = [(-w[p], {0: row}) for p, row in zip(self.pivots, self.rows.values()) if p in w]
        return _sparse_combination([(1, {0: w}), *terms]).get(0, {})

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of v after elimination against the basis."""
        return _dense(self._remainder(_sparse(v, self.ambient_dim)), self.ambient_dim)

    def contains(self, v: Sequence) -> bool:
        return not self._remainder(_sparse(v, self.ambient_dim))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(self._remainder(row) for row in other.rows.values())

    def coordinates_of(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the RREF basis, None when v lies outside."""
        w = _sparse(v, self.ambient_dim)
        if self._remainder(w):
            return None
        # an RREF row is 1 at its own pivot and 0 at the others
        return tuple(w.get(p, ZERO) for p in self.pivots)

    def induced(self, m: Matrix) -> Matrix | None:
        """Matrix of m on this subspace, in coordinates of the RREF basis;
        None when m maps a basis vector out of the subspace. The package's
        one invariance test: row k of rows * m^T is the image of basis row
        k, whose coordinates can only be its entries at the pivots."""
        n = self.ambient_dim
        if m.rows != n or m.cols != n:
            raise ValueError(f"{m.rows}x{m.cols} matrix does not act on QQ^{n}")
        images = _sparse_matmul(self.rows, m.transpose().nz)
        coords = {k: {t: row[p] for t, p in enumerate(self.pivots) if p in row}
                  for k, row in images.items()}
        if _sparse_matmul(coords, self.rows) != images:
            return None
        return _matrix_of(coords, self.dim, self.dim).transpose()


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _eliminate([*a.rows.values(), *b.rows.values()], a.ambient_dim).subspace()


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus: the rows (u | u) over a and (v | 0) over b
    span {(u + v | u)}, whose vectors with left half zero have u in both; the
    reduced rows with pivot at least n span those, their right halves reduced."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = [{**u, **{n + c: x for c, x in u.items()}} for u in a.rows.values()]
    reduced = _eliminate(rows + list(b.rows.values()), 2 * n).rref()
    return Subspace._of(n, [(p - n, {c - n: x for c, x in row.items()})
                            for p, row in reduced if p >= n])


# ---- polynomials ----
# Polynomials are coefficient tuples in ascending degree order.

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
        row = {r * n + c: x for r, prow in power.nz.items() for c, x in prow.items()}
        row[tags + k] = ONE
        ech._add(row)
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

    The candidates are 0 and, by the rational root theorem, every +-p/q with
    p dividing the lowest and q the leading nonzero coefficient of the
    primitive integer form; each is divided out for as long as it is a root.
    """
    cs = [_frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    ints = _integral({k: c for k, c in enumerate(cs) if c})
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


def _span_closure(seeds: Iterable[dict], maps: Sequence[dict], width: int) -> Echelon:
    """Echelon of the smallest subspace of QQ^width that contains the sparse
    seed rows and is closed under every map.

    A map is the sparse matrix k -> {i: x} of its columns: maps[t][k] holds
    the image of the k-th unit vector. A map in the span of the identity and
    the maps before it cannot grow the closure and is dropped; the others
    are scaled once to primitive integer maps. The closure runs breadth
    first: every image that grows the span is queued, made primitive, and
    mapped in turn, until the queue is empty or the span is full. The queue
    holds images, never the echelon rows: images of images grow only
    linearly in bit length, while the entries of reduced rows compound when
    they are mapped again.
    """
    spanned = Echelon(width * width)  # the identity and the maps kept so far
    spanned._add({k * width + k: 1 for k in range(width)})
    columns = []
    for cols in maps:
        flat = {k * width + i: x for k, col in cols.items() for i, x in col.items()}
        if not spanned._add(flat):
            continue
        columns.append(_unflatten(_integral(flat), width))
    ech = Echelon(width)
    queue = deque()
    for row in seeds:
        if ech._add(row):
            queue.append(_integral(row))
    while queue and ech.dim < width:
        v = queue.popleft()
        for cols in columns:
            image: dict[int, int] = {}
            for k, a in v.items():
                for i, x in cols.get(k, {}).items():
                    y = image.get(i, 0) + a * x
                    if y:
                        image[i] = y
                    else:
                        del image[i]
            if ech._add(image):
                queue.append(_primitive(image))
                if ech.dim == width:
                    break
    return ech


def envelope_dimension(generators: Sequence[Matrix], dim: int) -> int:
    """Dimension of the unital associative algebra generated inside dim x dim matrices.

    The closure of the identity under right multiplication by each
    generator, X -> X g on row-major flattened X, reaches every word.
    """
    for g in generators:
        if g.rows != dim or g.cols != dim:
            raise ValueError("generator shape does not match the ambient dimension")
    # column i*dim + k of X -> X g puts row k of g into row i
    maps = [{i * dim + k: {i * dim + j: x for j, x in row.items()}
             for i in range(dim) for k, row in g.nz.items()} for g in generators]
    identity = {i * dim + i: ONE for i in range(dim)}
    return _span_closure([identity], maps, dim * dim).dim


def _norton(mats: Sequence[Matrix], d: int) -> bool:
    """Norton's irreducibility certificate, its eigenvalue-0 case: the first
    theta in mats of nullity 1 decides. True when its kernel vector spins to
    QQ^d under v -> m v and that of theta^T under v -> m^T v: then End = QQ,
    as an endomorphism keeps the kernel line, and by Burnside's theorem the
    envelope is M_d(QQ). False on a proper spin, which proves the module
    reducible, and when no theta has nullity 1."""
    for theta in mats:
        ech = _eliminate(theta.nz.values(), d)
        if ech.dim == d - 1:
            spins = ((_kernel(ech.rref(), d), [m.transpose().nz for m in mats]),
                     (nullspace(theta.transpose()), [m.nz for m in mats]))
            return all(_span_closure(ker.rows.values(), maps, d).dim == d
                       for ker, maps in spins)
    return False


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


def _pairing_defects(mats: Sequence[dict], table: Sequence[Sequence[tuple]],
                     e: int, den: int) -> Iterable[tuple[int, int, dict]]:
    """(i, j, D) for each ordered pair with a nonzero defect of pairing axiom
    (1), D = e (M_j M_i - M_i M_j) - den sum_k c_ij^k M_k, where table[i][j]
    lists the (k, c_ij^k). One unordered pair at a time: its two products serve
    both orders, and a pair with neither products nor bracket is skipped."""
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            prods = []
            if i != j and mats[i] and mats[j]:
                prods = [(e, _sparse_matmul(mats[j], mats[i])),
                         (-e, _sparse_matmul(mats[i], mats[j]))]
            for a, b, sign in ((i, j, 1), (j, i, -1)) if i != j else ((i, i, 1),):
                if prods or table[a][b]:
                    defect = _sparse_combination([(sign * c, p) for c, p in prods] + [
                        (-den * c, mats[k]) for k, c in table[a][b]])
                    if defect:
                        yield a, b, defect


def _int_matrix(m: Matrix, den: int) -> dict:
    """den * m as a sparse integer matrix, row -> {col: int}, with no empty
    row stored; den must be a multiple of every denominator of m."""
    return {r: {c: x.numerator * (den // x.denominator) for c, x in row.items()}
            for r, row in m.nz.items()}


def _sparse_matmul(a: dict, b: dict) -> dict:
    """Product of two sparse matrices row -> {col: x}; zero entries and
    empty rows are not stored, so equal products compare equal."""
    out = {}
    for r, arow in a.items():
        acc: dict = {}
        for k, x in arow.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: z for c, z in acc.items() if z}
        if acc:
            out[r] = acc
    return out


def _sparse_combination(terms: Iterable[tuple]) -> dict:
    """sum of c * m over (c, m) pairs of sparse matrices, stored like
    `_sparse_matmul` results."""
    out: dict = {}
    for c, m in terms:
        for r, mrow in m.items():
            acc = out.setdefault(r, {})
            for k, x in mrow.items():
                acc[k] = acc.get(k, 0) + c * x
    out = {r: {k: z for k, z in acc.items() if z} for r, acc in out.items()}
    return {r: acc for r, acc in out.items() if acc}


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
        den = lcm(*[x.denominator for m in (a, b) for row in m.nz.values() for x in row.values()])
        a_int, b_int = _int_matrix(a, den), _int_matrix(b, den)
        if ech.rows and all(_sparse_matmul(x, a_int) == _sparse_matmul(b_int, x) for x in ker):
            continue
        for row in _axiom_rows([((), 0, a, b)], rows_dim, cols_dim):
            ech._add(row)
        space = _kernel(ech.rref(), width)
        ker = [_unflatten(_integral(row), cols_dim) for row in space.rows.values()]
    return [_matrix_of(_unflatten(row, cols_dim), rows_dim, cols_dim)
            for row in space.rows.values()]
