"""Bimodule representations of Leibniz algebras.

A representation on a space M assigns to every algebra element x a right
action rho_x and a left action lambda_x on M, subject to three pairing
axioms (checked over the structure constants, basis pair by basis pair):

    (1) rho_[x,y]    = rho_y rho_x - rho_x rho_y
    (2) lambda_[x,y] = rho_y lambda_x - lambda_x rho_y
    (3) lambda_[x,y] = rho_y lambda_x + lambda_x lambda_y

Axiom (1) forces the right action of the algebra's kernel to vanish; the
left action of the kernel is genuinely extra data, which is what separates
this theory from Lie module theory. On an irreducible module the left action
is 0 or -rho (the dichotomy): `_VARIANTS` maps the two variants to their a
in lambda = a * rho, and `_variant_rep` builds every catalogue module from it.

Every Representation checks the axioms when it is built, on integers: the
action matrices are scaled by one common denominator D to sparse integer
matrices R_k, L_k, the structure constants by theirs, E, to C_ij^k, and
axiom (1) at (i, j) is checked as D sum_k C_ij^k R_k = E (R_j R_i - R_i R_j),
axioms (2) and (3) the same way. Axiom (1) is `linalg._pairing_defects`,
which also checks the Leibniz identity: one pair at a time in O(d^2) memory,
each product R_a R_b formed once for both orders. Products with a zero left
action are never formed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import InternalCheckError, LeibnizAlgebra
from .linalg import (
    Matrix,
    _eliminate,
    _int_matrix,
    _matrix_of,
    _norton,
    _pairing_defects,
    _shift,
    _sparse,
    _sparse_combination,
    _sparse_matmul,
    _span_closure,
    Subspace,
    Vector,
    envelope_dimension,
    intertwiner_space,
    linear_combination,
    minimal_polynomial,
    rational_roots,
    nullspace,
    vec,
)


class AxiomViolationError(ValueError):
    """Raised when an operation needs a representation that failed its axioms."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        head = ", ".join(f"axiom {a} at pair ({i},{j})"
                         for a, i, j in self.violations[:3])
        super().__init__(f"representation axioms fail: {head}")


class Representation:
    """Pair of action tuples over a fixed algebra basis.

    right[j] is the matrix of the right action of basis element j, left[j]
    the matrix of its left action. Axioms are checked eagerly; the violating
    (axiom, i, j) triples are kept on the instance.
    """

    def __init__(
        self,
        algebra: LeibnizAlgebra,
        right: Sequence[Matrix],
        left: Sequence[Matrix],
        name: str = "",
    ):
        algebra._require_valid()
        if len(right) != algebra.dim or len(left) != algebra.dim:
            raise ValueError("need one action matrix per basis element on each side")
        if algebra.dim == 0:
            raise ValueError("representations of the zero algebra are not supported")
        d = right[0].rows
        for m in list(right) + list(left):
            if m.rows != d or m.cols != d:
                raise ValueError("action matrices must be square and of equal size")
        self.algebra = algebra
        self.right = tuple(right)
        self.left = tuple(left)
        self.space_dim = d
        self.name = name
        self.axiom_violations = self._check_axioms()

    def _check_axioms(self) -> tuple[tuple[int, int, int], ...]:
        """Violating (axiom, i, j) triples, pair by pair, axioms in order;
        the integer form of the check is described in the module docstring."""
        alg = self.algebra
        n, e = alg.dim, alg._den
        den = lcm(*[x.denominator for m in self.right + self.left
                    for row in m.nz.values() for x in row.values()])
        right = [_int_matrix(m, den) for m in self.right]
        left = [_int_matrix(m, den) for m in self.left]
        one = {(i, j) for i, j, _ in _pairing_defects(right, alg._int_table, e, den)}
        bad = []
        for i in range(n):
            for j in range(n):
                if (i, j) in one:
                    bad.append((1, i, j))
                lam = _sparse_combination([(den * c, left[k]) for k, c in alg._int_table[i][j]])
                two = three = {}
                if left[i]:
                    rl = _sparse_matmul(right[j], left[i])
                    lr = _sparse_matmul(left[i], right[j])
                    two = _sparse_combination([(e, rl), (-e, lr)])
                    three = _sparse_combination([(e, rl), (e, _sparse_matmul(left[i], left[j]))])
                if lam != two:
                    bad.append((2, i, j))
                if lam != three:
                    bad.append((3, i, j))
        return tuple(bad)

    @property
    def is_valid(self) -> bool:
        return not self.axiom_violations

    def check_axioms(self) -> tuple[tuple[int, int, int], ...]:
        return self.axiom_violations

    def _require_valid(self) -> None:
        if not self.is_valid:
            raise AxiomViolationError(self.axiom_violations)

    def rho_of(self, x: Sequence) -> Matrix:
        """Right action of an arbitrary algebra vector."""
        d = self.space_dim
        return linear_combination(vec(x), self.right, d, d)

    def lambda_of(self, x: Sequence) -> Matrix:
        """Left action of an arbitrary algebra vector."""
        d = self.space_dim
        return linear_combination(vec(x), self.left, d, d)

    def action_matrices(self) -> list[Matrix]:
        return list(self.right) + list(self.left)

    def __repr__(self) -> str:
        label = self.name or "Representation"
        return f"<{label} dim={self.space_dim} over {self.algebra!r}>"


class IrreducibilityVerdict(NamedTuple):
    value: str  # "abs_irreducible", "reducible", "undetermined"
    witness: Subspace | None = None
    detail: str = ""


class EquivalenceVerdict(NamedTuple):
    value: str  # "equivalent", "not_equivalent", "undetermined"
    certificate: Matrix | None = None
    detail: str = ""


# -- constructions --

# the two left actions of the catalogue modules, in catalogue order: variant
# -> a, where the left action is a times the right one
_VARIANTS = {"zero_lambda": 0, "anti_symmetric": -1}


def _variant_rep(algebra: LeibnizAlgebra, right: Sequence[Matrix], variant: str,
                 name: str) -> Representation:
    """The module with the given right action and the variant's left action."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = _VARIANTS[variant]
    return Representation(algebra, right, [m.scale(a) for m in right], name=name)


def from_lie_rep(
    algebra: LeibnizAlgebra, phi: Sequence[Matrix], variant: str
) -> Representation:
    """Turn a classical Lie representation phi into a two-sided one.

    phi must satisfy phi_[x,y] = phi_x phi_y - phi_y phi_x over a Lie table.
    The right action is -phi, for which that is pairing axiom (1), so the
    first violation of axiom (1) in the built representation names the pair
    where phi fails. variant "anti_symmetric" sets the left action to the
    negative of the right one; "zero_lambda" sets it to zero.
    """
    algebra._require_valid()
    if not algebra.is_lie():
        raise ValueError("from_lie_rep needs a Lie table")
    if len(phi) != algebra.dim:
        raise ValueError("need one matrix per basis element")
    rep = _variant_rep(algebra, [-m for m in phi], variant, f"lie[{variant}]")
    for axiom, i, j in rep.axiom_violations:
        if axiom == 1:
            raise ValueError(f"phi is not a Lie homomorphism at pair ({i},{j})")
    return rep


def adjoint_rep(algebra: LeibnizAlgebra) -> Representation:
    """The algebra acting on itself by right and left multiplications."""
    algebra._require_valid()
    right = [algebra.right_mult_matrix_basis(j) for j in range(algebra.dim)]
    left = [algebra.left_mult_matrix_basis(j) for j in range(algebra.dim)]
    return Representation(algebra, right, left, name="adjoint")


def direct_sum(a: Representation, b: Representation, name: str = "") -> Representation:
    """Block-diagonal sum of two representations of the same algebra."""
    if not a.algebra.same_table(b.algebra):
        raise ValueError("direct sum needs a common algebra")
    a._require_valid()
    b._require_valid()

    def block(x: Matrix, y: Matrix) -> Matrix:
        n, d = x.rows, x.rows + y.rows
        low = {n + r: {n + c: v for c, v in row.items()} for r, row in y.nz.items()}
        return _matrix_of({**x.nz, **low}, d, d)

    right = [block(a.right[j], b.right[j]) for j in range(a.algebra.dim)]
    left = [block(a.left[j], b.left[j]) for j in range(a.algebra.dim)]
    return Representation(a.algebra, right, left, name=name or "sum")


def restrict(rep: Representation, span: Subspace) -> Representation:
    """Same module, smaller algebra: restrict the actions to a subalgebra."""
    rep._require_valid()
    sub = rep.algebra.subalgebra_on(span)
    basis = span.basis.data
    right = [rep.rho_of(v) for v in basis]
    left = [rep.lambda_of(v) for v in basis]
    return Representation(sub, right, left, name=rep.name)


def is_invariant(rep: Representation, w: Subspace) -> bool:
    """Both actions map the subspace into itself."""
    return all(w.induced(m) is not None for m in rep.action_matrices())


def module_restriction(rep: Representation, w: Subspace) -> Representation:
    """Same algebra, smaller module: actions induced on an invariant subspace."""
    rep._require_valid()
    if w.ambient_dim != rep.space_dim:
        raise ValueError("subspace lives in the wrong ambient space")
    induced = [w.induced(m) for m in rep.action_matrices()]
    if any(m is None for m in induced):
        raise ValueError("subspace is not invariant under both actions")
    n = rep.algebra.dim
    return Representation(rep.algebra, induced[:n], induced[n:], name=rep.name)


# -- analysis --

def spin_submodule(rep: Representation, seeds: Sequence[Sequence]) -> Subspace:
    """Smallest subspace containing the seeds and invariant under both actions."""
    d = rep.space_dim
    maps = [m.transpose().nz for m in rep.action_matrices()]
    return _span_closure([_sparse(s, d) for s in seeds], maps, d).subspace()


def irreducibility(rep: Representation) -> IrreducibilityVerdict:
    """Three-valued irreducibility test.

    The yes side is Norton's certificate (`linalg._norton`), with the
    full-matrix-algebra envelope check as its fallback; both certify
    absolute irreducibility and report the full envelope. The no side spins
    the coordinate vectors before the envelope and the rational
    eigenvectors of the action matrices after it, for a proper invariant
    subspace. Neither firing leaves the question open.
    """
    rep._require_valid()
    d = rep.space_dim
    if d == 0:
        return IrreducibilityVerdict("reducible", Subspace.zero(0),
                                     "zero module")
    mats = rep.action_matrices()
    full = IrreducibilityVerdict("abs_irreducible", None, f"envelope dimension {d * d}")
    if _norton(mats, d):
        return full
    sub = _proper_spin(rep, Matrix.identity(d).data)
    if sub is None:
        env = envelope_dimension(mats, d)
        if env == d * d:
            return full
        sub = _proper_spin(rep, _eigenvectors(mats))
        if sub is None:
            return IrreducibilityVerdict(
                "undetermined", None,
                f"envelope dimension {env} below {d * d} but no witness found")
    return IrreducibilityVerdict("reducible", sub, "proper invariant subspace found")


def _proper_spin(rep: Representation, vectors: Iterable[Vector]) -> Subspace | None:
    """The first spin of one of the vectors that is a proper nonzero subspace."""
    spins = (spin_submodule(rep, [v]) for v in vectors)
    return next((sub for sub in spins if 0 < sub.dim < rep.space_dim), None)


def _eigenvectors(mats: Sequence[Matrix]) -> Iterator[Vector]:
    """The rational eigenvectors of each matrix, generated lazily."""
    for m in mats:
        for root in rational_roots(minimal_polynomial(m)):
            yield from nullspace(_shift(m, -root)).basis.data


def sym_span(rep: Representation) -> Subspace:
    """Span of the images of all symmetrized actions (left plus right)."""
    rep._require_valid()
    columns = ((rep.left[j] + rep.right[j]).transpose().nz.values()
               for j in range(rep.algebra.dim))
    return _eliminate((v for cols in columns for v in cols), rep.space_dim).subspace()


def dichotomy_classify(rep: Representation) -> str:
    """Classify an absolutely irreducible representation by its left action.

    Returns "anti_symmetric" when the left action is the negative of the
    right one and "zero_lambda" when the left action vanishes. For an
    absolutely irreducible module one of the two must hold; anything else is
    an internal error, as is calling this on a module that is not certified
    absolutely irreducible.
    """
    verdict = irreducibility(rep)
    if verdict.value != "abs_irreducible":
        raise ValueError("dichotomy needs an absolutely irreducible module")
    v = sym_span(rep)
    if v.is_zero():
        variant, failure = "anti_symmetric", "zero symmetrized span without lambda = -rho"
    elif v.is_full():
        variant, failure = "zero_lambda", "full symmetrized span without lambda = 0"
    else:
        raise InternalCheckError("symmetrized span is a proper nonzero submodule")
    a = _VARIANTS[variant]
    if any(left != right.scale(a) for right, left in zip(rep.right, rep.left)):
        raise InternalCheckError(failure)
    return variant


_COMBO_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3))


def equivalence(a: Representation, b: Representation) -> EquivalenceVerdict:
    """Decide whether two representations are intertwined by an invertible map.

    The intertwiner space is computed exactly. An empty space settles the
    negative; an invertible element (searched over the basis and a bounded
    deterministic set of small combinations) settles the positive; a nonzero
    space with no invertible element found is reported as undetermined.
    """
    a._require_valid()
    b._require_valid()
    if not a.algebra.same_table(b.algebra):
        raise ValueError("equivalence needs a common algebra")
    if a.space_dim != b.space_dim:
        return EquivalenceVerdict("not_equivalent", None, "dimensions differ")
    pairs = [(a.right[j], b.right[j]) for j in range(a.algebra.dim)]
    pairs += [(a.left[j], b.left[j]) for j in range(a.algebra.dim)]
    basis = intertwiner_space(pairs, b.space_dim, a.space_dim)
    if not basis:
        return EquivalenceVerdict("not_equivalent", None,
                                  "no nonzero intertwiner exists")
    for t in basis:
        if t.is_invertible():
            return EquivalenceVerdict("equivalent", t)
    if len(basis) > 1:
        for coeffs in itertools.islice(
                itertools.product(_COMBO_COEFFS, repeat=len(basis)), 64):
            combo = linear_combination(coeffs, basis, a.space_dim, a.space_dim)
            if combo.is_invertible():
                return EquivalenceVerdict("equivalent", combo)
    return EquivalenceVerdict(
        "undetermined", None,
        "intertwiners exist but none of the sampled ones is invertible")
