"""Module theory on top of `reps`: constructions (adjoint, direct sum, the
Lie-module lift, restrictions), invariance, the symmetric-span dichotomy,
equivalence and complete reducibility, none of which parsing or the
irreducibility test compile. `equations` is bound without loading it, so
the constructions alone do not compile it.

A module that splits into irreducible components must kill the algebra's
kernel on both action sides; the right action kills it in every module, so
the left action on the kernel is checked first.
Splitting itself runs the commutant splitter of `equations`, `_try_split`,
on each piece, and recursion refines the pieces until every leaf has
commutant dimension one or a quaternion division commutant. A proper piece
is split on the action matrices induced on it, which prove it invariant; as
a submodule of a valid module it needs no axiom check. The first piece, the
whole module, is split on its own action matrices. The sum of the leaves is
proved direct by its dimensions. Two benchmark modules of dimension five
round out the catalogue: the adjoint module of example 5.3, `simple_ext(5)`
with its tail labelled x, y, which admits no irreducible decomposition, and
one that splits as 3 + 2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import equations
from .algebra import InternalCheckError, LeibnizAlgebra
from .linalg import (
    Matrix, Subspace, _eliminate, _matrix_of, _solutions, _sparse_matmul, linear_combination,
)
from .reps import _VARIANTS, Representation, _variant_rep, irreducibility


# -- constructions --

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


# -- the dichotomy and equivalence --

class EquivalenceVerdict(NamedTuple):
    value: str  # "equivalent", "not_equivalent", "undetermined"
    certificate: Matrix | None = None
    detail: str = ""


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
    basis = equations.intertwiner_space(pairs, b.space_dim, a.space_dim)
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


# -- complete reducibility --

class KernelActionReport(NamedTuple):
    """Whether every kernel basis vector acts by zero on both sides."""
    ok: bool
    witness_vector: tuple | None = None
    witness_side: str | None = None  # "lambda": rho vanishes on the kernel
    witness_matrix: Matrix | None = None


def complete_reducibility_necessary(rep: Representation) -> KernelActionReport:
    """Necessary condition for a direct sum of irreducible components.

    On every irreducible component the left action is zero or the negative
    of the right one, and the right action kills the kernel; summing over
    components, both actions of every kernel element vanish. The right action
    kills it in every module: axiom (1) gives rho_[x,x] = rho_x rho_x -
    rho_x rho_x = 0, and the kernel is spanned by squares. So only the left
    action is checked, and a nonzero one is returned as a witness.
    """
    rep._require_valid()
    kern = rep.algebra.leibniz_kernel()
    for v in kern.basis.data:
        l = rep.lambda_of(v)
        if not l.is_zero():
            return KernelActionReport(False, v, "lambda", l)
    return KernelActionReport(True)


def commutant(rep: Representation) -> list[Matrix]:
    """Basis of all matrices commuting with both actions of every basis element."""
    rep._require_valid()
    return equations.matrix_commutant(rep.action_matrices(), rep.space_dim)


class DecompositionResult(NamedTuple):
    """Verdict on splitting a module into invariant direct summands.

    verdict "decomposed" comes with at least two components, each
    indecomposable, with a trivial or a division commutant; "indecomposable"
    means no decomposition into irreducible components exists (the
    obstruction says whether the kernel action, a trivial commutant or a
    quaternion division commutant proved it); "undetermined" means some
    piece has a nontrivial commutant that neither a rational primary
    splitting nor the quaternion step decided. Components always partition
    the module.
    """
    verdict: str
    components: tuple[Subspace, ...]
    obstruction: str | None = None


KERNEL_OBSTRUCTION = "kernel acts nontrivially"


def _lift(sub: Subspace, piece: Subspace) -> Subspace:
    """Rewrite a subspace given in piece coordinates as an ambient subspace."""
    # both are reduced, so the product of their rows is: row k has pivot
    # piece.pivots[sub.pivots[k]] and is 0 at every other product pivot
    rows = _sparse_matmul(sub.rows, piece.rows)
    return Subspace._of(piece.ambient_dim,
                        [(piece.pivots[p], rows[k]) for k, p in enumerate(sub.pivots)])


def decompose(rep: Representation) -> DecompositionResult:
    """Split the module into invariant components as far as the commutant allows.

    The kernel-action condition rules out any decomposition into
    irreducible components outright when it fails. Otherwise pieces are
    refined through commutant primary splitting, and the idempotents of the
    quaternion step, until every leaf has a trivial or a division
    commutant; a direct-sum splitting of a leaf would put the projection
    onto a summand, an idempotent other than 0 and 1, into its commutant, so
    such leaves are indecomposable. Leaves that resist both leave the
    verdict undetermined rather than guessed.
    """
    rep._require_valid()
    d = rep.space_dim
    full = Subspace.full(d)
    check = complete_reducibility_necessary(rep)
    if not check.ok:
        return DecompositionResult("indecomposable", (full,), KERNEL_OBSTRUCTION)
    mats = rep.action_matrices()
    leaves: list[Subspace] = []
    stuck = False
    stack = [full]
    while stack:
        piece = stack.pop()
        # the first piece is the whole module, whose actions are mats themselves
        induced = mats if piece is full else [piece.induced(m) for m in mats]
        if any(m is None for m in induced):
            raise InternalCheckError("component is not invariant")
        split = equations._try_split(induced, piece.dim)
        if isinstance(split, str):
            leaves.append(piece)
            obstruction = split
        elif not split:
            stuck = True
            leaves.append(piece)
        else:
            stack.extend(_lift(s, piece) for s in split)
    leaves.sort(key=lambda p: (-p.dim, p.pivots))
    _verify_partition(leaves, d)
    if stuck:
        return DecompositionResult(
            "undetermined", tuple(leaves),
            "commutant splitting found no rational idempotent")
    if len(leaves) == 1:
        return DecompositionResult("indecomposable", tuple(leaves), obstruction)
    return DecompositionResult("decomposed", tuple(leaves))


def _verify_partition(leaves: list[Subspace], d: int) -> None:
    """Dimensions adding up to d with a union of rank d make the sum direct."""
    total = _eliminate([row for piece in leaves for row in piece.rows.values()], d)
    if sum(piece.dim for piece in leaves) != d or total.dim != d:
        raise InternalCheckError("components do not partition the module")


# -- benchmark five-dimensional cases --

def example_5_3() -> tuple[LeibnizAlgebra, Representation]:
    """The five-dimensional simple algebra whose adjoint module cannot be
    written as a direct sum of irreducible components, with that adjoint
    module: the simple extension of dimension five, with its tail labelled
    x, y. The kernel is spanned by the last two basis vectors and the left
    action on it is nonzero.
    """
    from .sl2 import simple_ext_algebra  # only the examples need the sl2 layer

    alg = LeibnizAlgebra(["e", "f", "h", "x", "y"], simple_ext_algebra(5).table,
                         name="example-5-3")
    return alg, adjoint_rep(alg)


def example_5_5(top_variant: str = "zero_lambda",
                bottom_variant: str = "zero_lambda") -> Representation:
    """A five-dimensional non-irreducible module over the (e, f, h) algebra:
    the size-3 ladder stacked over the size-2 ladder, each block carrying
    its own left-action flavor. It splits back into those blocks.
    """
    from .sl2 import sl2_leibniz_irrep

    top = sl2_leibniz_irrep(2, top_variant)
    bottom = sl2_leibniz_irrep(1, bottom_variant)
    return direct_sum(
        top, bottom,
        name=f"ladder2[{top_variant}]+ladder1[{bottom_variant}]")


def h_gap_positions(rho_h: Matrix, gap: int = 2) -> list[tuple[int, int]]:
    """Positions (i, j) where the diagonal weight difference equals the gap.

    For a diagonal weight matrix, the lowering left-action entry (i, j) can
    be nonzero only where (rho_h)_jj - (rho_h)_ii equals 2; this helper
    enumerates those positions (0-based).
    """
    d = rho_h.rows
    return [(i, j) for i in range(d) for j in range(d)
            if rho_h.entry(j, j) - rho_h.entry(i, i) == gap]


def solve_lowering_left(rho_h: Matrix) -> Subspace:
    """All X with 2X = X rho_h - rho_h X, as flattened matrices.

    This is the linear constraint that pins the lowering left action; its
    solutions are supported exactly on the gap-2 positions when rho_h is
    diagonal with distinct weight differences.
    """
    d = rho_h.rows
    return _solutions(equations._axiom_rows([((-2,), 0, rho_h, rho_h)], d, d), d * d)
