"""Exact linear algebra over the rationals.

Everything here works with fractions.Fraction entries, so results are exact:
no tolerances, no floating point. Matrices are immutable.

There is one stored matrix form, the sparse matrix `row -> {col: x}` with
no zero entry and no empty row. A Matrix keeps only its shape and these
rows, `nz`; its dense rows, `data`, are a view built on each access, and
`_matrix_of` wraps a sparse matrix as a Matrix as it is. The form has one
product, `_sparse_matmul`, behind `Matrix * Matrix`, and one linear
combination, `_sparse_combination`, behind `linear_combination`, the sum,
difference and scaling of matrices and `poly._shift`, and one row-major
flattening, `_flat`. `_int_matrices` scales matrices to integers over one
denominator, where `_pairing_defects` is the one check of pairing axiom
(1), rho_[x,y] = rho_y rho_x - rho_x rho_y, one pair at a time in O(d^2) memory:
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
`nullspace`, `Subspace.from_vectors`, the sum and the (Zassenhaus)
intersection of subspaces, `Matrix.rank` and `Matrix.inverse` run on it, and
so do the layers above: `poly` (`minimal_polynomial`) and `equations`
(`solve` and the linear equations in unknown matrices).

Span closure has one routine on the same kernel, `_span_closure`: the
smallest subspace that contains some seed rows and is closed under a list
of maps v -> m v, each m in the same sparse form, grown breadth first from
the images that enlarge it. `envelope_dimension` (X -> g X on flattened
matrices), `reps.spin_submodule` (the action matrices),
`LeibnizAlgebra.ideal_closure` and the generator search of `structure`
(the algebra's integer multiplication matrices) call it; Norton's
certificate `_norton` spins twice, over width d, before `reps` and
`is_simple` try the envelope.

The benchmark tracer (`bench/child.py`) reads four names here whose home
is `poly` or `equations`; `__getattr__` (PEP 562) resolves exactly those,
through the package table, on first access, which loads their layer.
"""

from __future__ import annotations

import sys
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
        return Matrix([flat[i * cols:(i + 1) * cols] for i in range(rows)], cols)

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
        return _matrix_of(_transpose(self.nz), self.cols, self.rows)

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


def _flat(m: dict, cols: int) -> dict:
    """Row-major flattening of a sparse matrix with cols columns, the inverse of _unflatten."""
    return {r * cols + c: x for r, row in m.items() for c, x in row.items()}


def _transpose(m: dict) -> dict:
    out: dict = {}
    for r, row in m.items():
        for c, x in row.items():
            out.setdefault(c, {})[r] = x
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


def _span_closure(seeds: Iterable[dict], maps: Sequence[dict], width: int) -> Echelon:
    """Echelon of the smallest subspace of QQ^width that contains the sparse
    seed rows and is closed under every map v -> m v, each m a sparse matrix.

    A map in the span of the identity and the maps before it cannot grow the
    closure and is dropped; the others are flattened transposed and scaled
    once to primitive integer maps, kept as their columns. The closure runs
    breadth first: every image that grows the span is queued, made
    primitive, and mapped in turn, until the queue is empty or the span is
    full. The queue holds images, never the echelon rows: images of images
    grow only linearly in bit length, while the entries of reduced rows
    compound when they are mapped again.
    """
    spanned = Echelon(width * width)  # the identity and the maps kept so far
    spanned._add({k * width + k: 1 for k in range(width)})
    columns = []
    for m in maps:
        flat = _flat(_transpose(m), width)
        if spanned._add(flat):
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
            if image and ech._add(image):
                queue.append(_primitive(image))
                if ech.dim == width:
                    break
    return ech


def envelope_dimension(generators: Sequence[Matrix], dim: int) -> int:
    """Dimension of the unital associative algebra generated inside dim x dim matrices.

    The closure of the identity under left multiplication by each
    generator, X -> g X on row-major flattened X, reaches every word.
    """
    for g in generators:
        if g.rows != dim or g.cols != dim:
            raise ValueError("generator shape does not match the ambient dimension")
    maps = [{i * dim + j: {k * dim + j: x for k, x in row.items()}
             for i, row in g.nz.items() for j in range(dim)} for g in generators]
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
            spins = ((_kernel(ech.rref(), d), [m.nz for m in mats]),
                     (nullspace(theta.transpose()), [m.transpose().nz for m in mats]))
            return all(_span_closure(ker.rows.values(), maps, d).dim == d
                       for ker, maps in spins)
    return False


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


def _int_matrices(mats: Sequence[Matrix]) -> tuple[int, list[dict]]:
    """The least den that clears every denominator of the matrices, and
    den * m for each m as a sparse integer matrix row -> {col: int}."""
    den = lcm(*[x.denominator for m in mats for row in m.nz.values() for x in row.values()])
    return den, [{r: {c: x.numerator * (den // x.denominator) for c, x in row.items()}
                  for r, row in m.nz.items()} for m in mats]


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


_FORWARDED = ("char_poly", "matrix_commutant", "minimal_polynomial", "solve")


def __getattr__(name):
    if name in _FORWARDED:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
